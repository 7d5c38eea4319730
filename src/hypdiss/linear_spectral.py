"""Mode-by-mode evolution of the linearized system and decay-rate measurement.

The linearized dynamics at the reference state decouple in Fourier space:
each frequency evolves as Uhat(t) = exp(t Mbar(0, xi)) Uhat(0).  A radial
log grid times a fixed direction set approximates whole-space Sobolev norms;
data with closed-form Fourier transforms (Gaussian bumps) guarantee the
L^1 and H^s memberships the decay theory needs, and a power law C (1+t)^p
is fitted to the combined norm ||u||_{H^s} + ||u_t||_{H^{s-1}}
on a late-time window.  For uniformly dissipative models in d = 3 the
fitted exponent approaches -d/4 = -0.75.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, EigensolverFailure, InvalidParameter, UnsupportedDataSpec
from .grids import antipodal_fold, product_grid, radial_quadrature, unit_directions
from .io import write_csv_atomic
from .model import check_placement
from .symbols import assemble_M_stack, eigenbasis_inverse, expm_stack


@dataclass(frozen=True)
class SpectralGrid:
    """Radial (log) x directional product grid for whole-space quadrature."""

    xi_lo: float = 1e-3
    xi_hi: float = 1e2
    radial_count: int = 64

    def build(self, d):
        omegas, wdir = unit_directions(d)
        r, wrad = radial_quadrature(self.xi_lo, self.xi_hi, self.radial_count, d)
        return product_grid(omegas, wdir, r, wrad)


@dataclass(frozen=True)
class GaussianData:
    """Gaussian bump amplitude * exp(-|x|^2 / (2 sigma^2)) in one component.

    Exact transform: amplitude * sigma^d * exp(-sigma^2 |xi|^2 / 2).  An
    infinite amplitude, or a sigma that is not finite and positive, raises
    InvalidParameter; a NaN amplitude gives NaN norms, which `decay_fit`
    refuses with DegenerateFit.
    """

    amplitude: float
    sigma: float = 1.0
    component: int = 0
    target: str = "u0"

    def __post_init__(self):
        if np.isinf(self.amplitude):
            raise InvalidParameter(f"GaussianData.amplitude must be finite; got {self.amplitude!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidParameter(f"GaussianData.sigma must be finite and > 0; got {self.sigma!r}")


@dataclass
class ModeEnsemble:
    """Gridded Fourier coefficients Uhat(xi) = (<xi> u_hat, ut_hat)."""

    n: int
    d: int
    xi: np.ndarray
    weights: np.ndarray
    coefficients: np.ndarray

    def brackets(self):
        return np.sqrt(1.0 + np.sum(self.xi**2, axis=1))


def _transform_at(spec, xi, n):
    if not isinstance(spec, GaussianData):
        raise UnsupportedDataSpec(
            f"data spec {type(spec).__name__} has no closed-form transform"
        )
    check_placement(spec, n)
    mags = np.linalg.norm(xi, axis=1)
    return spec.amplitude * spec.sigma ** xi.shape[1] * np.exp(-0.5 * spec.sigma**2 * mags**2)


def init_ensemble(model, data_spec, grid_spec=SpectralGrid()):
    """Fill a mode ensemble with exact transforms of the initial data.

    The data are real, and so are the model's coefficients, so
    Uhat(-xi, t) = conj Uhat(xi, t) and both modes of a pair {xi, -xi} have
    the same norm at all times: the ensemble keeps one mode of each pair of
    the grid (`antipodal_fold`) with the summed quadrature weight of both.
    """
    specs = data_spec if isinstance(data_spec, (list, tuple)) else [data_spec]
    xi, w = grid_spec.build(model.d)
    keep, src = antipodal_fold(xi)
    xi, w = xi[keep], np.bincount(src, weights=w)
    n = model.n
    coeff = np.zeros((len(xi), 2 * n), dtype=complex)
    br = np.sqrt(1.0 + np.sum(xi**2, axis=1))
    for spec in specs:
        vals = _transform_at(spec, xi, n)
        if spec.target == "u0":
            coeff[:, spec.component] += br * vals
        else:
            coeff[:, n + spec.component] += vals
    return ModeEnsemble(n=n, d=model.d, xi=xi, weights=w, coefficients=coeff)


class ModePropagator:
    """Eigen-decompositions of the weighted symbol at a stack of modes, with an
    expm fallback wherever a mode is numerically defective.

    Data are projected once onto the eigenbases (`project`, the modal
    coordinates V^{-1} coeff) and then propagated to any time with one
    stacked product V (e^{dt w} * modal) (`propagate`).  `eig` lists per
    mode the views (w, V, Vinv) into the stacked decomposition, or None for
    a defective mode: one whose eigenbasis `eigenbasis_inverse` does not
    trust (kappa_F(V) >= DEFECT_COND_LIMIT, or V singular).  A defective
    mode's inverse block is the identity, so its modal coordinates are its
    coefficients, which `propagate` advances with `expm_stack`.  A symbol
    stack the stacked solvers refuse (non-finite entries) raises
    EigensolverFailure.
    """

    def __init__(self, model, xi):
        self.xi = np.asarray(xi, dtype=float)
        self.mats = assemble_M_stack(model, model.reference_state, self.xi)
        try:
            w, V = np.linalg.eig(self.mats)
            Vinv, trusted = eigenbasis_inverse(V)
        except np.linalg.LinAlgError as e:
            raise EigensolverFailure(f"eig failed on {len(self.xi)} frequencies: {e}") from e
        self.defective = ~trusted
        self._w, self._V, self._Vinv = w, V, Vinv
        self.eig = [None if bad else dec
                    for bad, dec in zip(self.defective, zip(w, V, Vinv))]

    def project(self, coeff):
        """Modal coordinates V^{-1} coeff (Q, 2n) of coefficients coeff (Q, 2n)."""
        return (self._Vinv @ coeff[:, :, None])[:, :, 0]

    def propagate(self, modal, dt):
        """Coefficients (Q, 2n) at time dt of the modal coordinates `project` formed."""
        out = (self._V @ (np.exp(dt * self._w) * modal)[:, :, None])[:, :, 0]
        bad = self.defective
        if np.any(bad):
            out[bad] = np.einsum("qij,qj->qi", expm_stack(dt * self.mats[bad]), modal[bad])
        return out


@dataclass(frozen=True)
class SobolevNorms:
    u: float
    ut: float


def sobolev_norm(ensemble, s):
    """(||u||_{H^s}, ||u_t||_{H^{s-1}}) from the weighted coefficients.

    The stored first block is <xi> u_hat, so both blocks carry the weight
    <xi>^{2(s-1)} under the quadrature.
    """
    n = ensemble.n
    wgt = ensemble.weights * ensemble.brackets() ** (2.0 * (s - 1.0))
    u2 = float(np.sum(wgt * np.sum(np.abs(ensemble.coefficients[:, :n]) ** 2, axis=1)))
    ut2 = float(np.sum(wgt * np.sum(np.abs(ensemble.coefficients[:, n:]) ** 2, axis=1)))
    return SobolevNorms(u=np.sqrt(u2), ut=np.sqrt(ut2))


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit norm ~ amplitude * (1+t)^exponent on a time window."""

    exponent: float
    amplitude: float
    fit_window: tuple
    residual: float
    span_decades: float
    reliable: bool


def decay_fit(times, norms, fit_window):
    """Least-squares line in log(norm) vs log(1+t) over the window.

    Raises DegenerateFit, naming the first such time, when a norm in the
    window is not finite or not positive; a span below one decade only
    clears the `reliable` flag.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    t0, t1 = fit_window
    mask = (times >= t0) & (times <= t1)
    if np.sum(mask) < 8:
        raise DegenerateFit(f"only {np.sum(mask)} samples inside window {fit_window}")
    tt, nn = times[mask], norms[mask]
    bad = ~(np.isfinite(nn) & (nn > 0.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateFit(f"norm {nn[k]:g} at t={tt[k]:g} in fit window {fit_window} "
                            f"is not finite and positive")
    x = np.log1p(tt)
    y = np.log(nn)
    slope, intercept = np.polyfit(x, y, 1)
    fit = np.exp(intercept + slope * x)
    residual = float(np.max(np.abs(fit - nn) / nn))
    span = float((y.max() - y.min()) / np.log(10.0))
    return DecayFit(
        exponent=float(slope),
        amplitude=float(np.exp(intercept)),
        fit_window=(float(t0), float(t1)),
        residual=residual,
        span_decades=span,
        reliable=span >= 1.0,
    )


@dataclass
class DecayStudy:
    times: np.ndarray
    norms_u: np.ndarray
    norms_ut: np.ndarray
    combined: np.ndarray
    fit: DecayFit

    def write_csv(self, path):
        cols = (self.times, self.norms_u, self.norms_ut, self.combined)
        write_csv_atomic(path, ["t", "norm_Hs_u", "norm_Hs1_ut", "combined"],
                         np.column_stack(cols).tolist())


def default_decay_times(t_max=200.0):
    """t = 0 and 39 times log-spaced in 1 + t up to t_max; the last is t_max
    exactly, so a fit window ending at t_max keeps it."""
    times = np.expm1(np.linspace(0.0, np.log1p(t_max), 40))
    times[-1] = t_max
    return times


def decay_study(model, data_spec, s=2.0, fit_window=(5.0, 200.0)):
    """Full pipeline: init ensemble, evolve to the end of the fit window
    (`default_decay_times`), record norms, fit the decay rate."""
    if model.d < 3:
        warnings.warn(
            f"decay-rate assertion assumes d >= 3; d = {model.d} is informational only",
            stacklevel=2,
        )
    times = default_decay_times(fit_window[1])
    ens = init_ensemble(model, data_spec)
    prop = ModePropagator(model, ens.xi)
    modal = prop.project(ens.coefficients)
    nu = np.zeros(len(times))
    nut = np.zeros(len(times))
    for k, t in enumerate(times):
        coeff = prop.propagate(modal, t)
        cur = ModeEnsemble(ens.n, ens.d, ens.xi, ens.weights, coeff)
        norms = sobolev_norm(cur, s)
        nu[k] = norms.u
        nut[k] = norms.ut
    combined = nu + nut
    fit = decay_fit(times, combined, fit_window)
    return DecayStudy(times=times, norms_u=nu, norms_ut=nut, combined=combined, fit=fit)
