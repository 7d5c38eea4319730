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
from functools import cached_property

import numpy as np

from .errors import DegenerateFit, InvalidParameter, UnsupportedDataSpec
from .grids import antipodal_fold, product_grid, radial_quadrature, unit_directions
from .io import write_csv_atomic
from .model import FiniteAmplitude, check_placement
from .symbols import assemble_M_stack, eigenbasis


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
class GaussianData(FiniteAmplitude):
    """Gaussian bump amplitude * exp(-|x|^2 / (2 sigma^2)) in one component.

    Exact transform: amplitude * sigma^d * exp(-sigma^2 |xi|^2 / 2).  An
    infinite amplitude, or a sigma that is not finite and positive, raises
    InvalidParameter, and so does a sigma whose sigma^d or sigma^2 overflows
    when the ensemble is built; a NaN amplitude gives NaN norms, which
    `decay_fit` refuses with DegenerateFit.
    """

    amplitude: float
    sigma: float = 1.0
    component: int = 0
    target: str = "u0"

    def __post_init__(self):
        super().__post_init__()
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

    @cached_property
    def _brackets(self):
        return np.sqrt(1.0 + np.sum(self.xi**2, axis=1))

    def brackets(self):
        """<xi> = sqrt(1 + |xi|^2) per mode; it depends only on `xi`, so it
        is formed on the first call."""
        return self._brackets


def _transform_at(spec, xi, n):
    if not isinstance(spec, GaussianData):
        raise UnsupportedDataSpec(
            f"data spec {type(spec).__name__} has no closed-form transform"
        )
    check_placement(spec, n)
    d = xi.shape[1]
    try:
        scale, spread = spec.sigma ** d, spec.sigma**2
    except OverflowError:
        raise InvalidParameter(f"GaussianData.sigma = {spec.sigma!r} in d = {d}: sigma**{d} "
                               f"or sigma**2 is not a finite float") from None
    mags = np.linalg.norm(xi, axis=1)
    return spec.amplitude * scale * np.exp(-0.5 * spread * mags**2)


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
    n = model.n
    ens = ModeEnsemble(n=n, d=model.d, xi=xi[keep], weights=np.bincount(src, weights=w),
                       coefficients=np.zeros((len(keep), 2 * n), dtype=complex))
    for spec in specs:
        vals = _transform_at(spec, ens.xi, n)
        if spec.target == "u0":
            ens.coefficients[:, spec.component] += ens.brackets() * vals
        else:
            ens.coefficients[:, n + spec.component] += vals
    return ens


class ModePropagator:
    """The `Eigenbasis` of the weighted symbol at a stack of modes, with an
    expm fallback wherever a mode is numerically defective.

    `symbols.eigenbasis` decomposes the stack `mats` once, in real
    arithmetic where a phase grading makes it real.  Data are projected once
    onto the eigenbases (`project`, the modal coordinates V^{-1} coeff) and
    then propagated to any time with one stacked product V (e^{dt w} * modal)
    (`propagate`).  `eig`, formed on first read, lists per mode the views
    (w, V, Vinv) into `basis`, or None for a defective mode: one outside
    `basis.ok`, whose modal coordinates are its coefficients, which
    `propagate` advances with `expm_stack`.  A symbol stack the stacked
    solvers refuse (non-finite entries) raises EigensolverFailure.
    """

    def __init__(self, model, xi):
        self.xi = np.asarray(xi, dtype=float)
        self.mats = assemble_M_stack(model, model.reference_state, self.xi)
        self.basis = eigenbasis(self.mats)

    @cached_property
    def eig(self):
        return [dec if ok else None for ok, dec in zip(self.basis.ok, zip(*self.basis[:3]))]

    def project(self, coeff):
        """Modal coordinates V^{-1} coeff (Q, 2n) of coefficients coeff (Q, 2n)."""
        return self.basis.project(coeff)

    def propagate(self, modal, dt):
        """Coefficients (Q, 2n) at time dt of the modal coordinates `project` formed."""
        return self.basis.propagate(self.mats, modal, dt)


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


def check_fit_window(fit_window):
    """Refuse a fit window (lo, hi) whose ends are not finite, or that does
    not have lo < hi and hi > 0, with InvalidParameter."""
    t0, t1 = fit_window
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1 and t1 > 0.0):
        raise InvalidParameter(f"fit window ({t0!r}, {t1!r}) needs finite ends "
                               f"with lo < hi and hi > 0")


def decay_fit(times, norms, fit_window):
    """Least-squares line in log(norm) vs log(1+t) over the window.

    A window that `check_fit_window` refuses raises InvalidParameter.
    Raises DegenerateFit, naming the first such time, when a norm in the
    window is not finite or not positive; a span below one decade only
    clears the `reliable` flag.
    """
    check_fit_window(fit_window)
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
    (`default_decay_times`), record norms, fit the decay rate.

    A window that `check_fit_window` refuses raises InvalidParameter before
    the ensemble is built; data the ensemble refuses, and an s whose weight
    <xi>^{2(s-1)} (times the quadrature weights, as `sobolev_norm` forms it)
    overflows on it (InvalidParameter), raise before the d < 3
    warning and before any mode is decomposed; a NaN s gives NaN norms,
    which `decay_fit` refuses with DegenerateFit.  Only the modes with
    nonzero (or NaN) data are decomposed and propagated: a mode whose data
    are exactly zero stays zero.  At each time the live rows of the
    ensemble are overwritten and its other rows keep their zeros, so the
    norms sum the same terms in the same order as a run over every mode.
    """
    check_fit_window(fit_window)
    times = default_decay_times(fit_window[1])
    ens = init_ensemble(model, data_spec)
    with np.errstate(over="ignore"):
        if np.isinf(ens.weights * ens.brackets() ** (2.0 * (s - 1.0))).any():
            raise InvalidParameter(f"s = {s!r}: the H^s weight <xi>^(2(s-1)) overflows on the ensemble")
    if model.d < 3:
        warnings.warn(
            f"decay-rate assertion assumes d >= 3; d = {model.d} is informational only",
            stacklevel=2,
        )
    live = np.any(ens.coefficients != 0.0, axis=1)
    prop = ModePropagator(model, ens.xi[live])
    modal = prop.project(ens.coefficients[live])
    norms = []
    for t in times:
        ens.coefficients[live] = prop.propagate(modal, t)
        norms.append(sobolev_norm(ens, s))
    nu, nut = np.array([(x.u, x.ut) for x in norms]).T
    combined = nu + nut
    fit = decay_fit(times, combined, fit_window)
    return DecayStudy(times=times, norms_u=nu, norms_ut=nut, combined=combined, fit=fit)
