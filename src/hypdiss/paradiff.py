"""Discrete para-differential calculus on a periodic lattice.

Symbols a(x, xi) live on the product of a periodic x-lattice and its dual
frequency lattice.  An admissible cut-off chi(eta, xi) localizes a symbol's
x-dependence to frequencies |eta| small against <xi>; applying it through
the first-variable discrete Fourier transform realizes symbol smoothing,
and the para-differential operator is the quantization of the smoothed
symbol.  Dyadic Littlewood-Paley masks, dense operator matrices on Fourier
coefficients, exact Sobolev operator norms (the 2-norm of the dense matrix
scaled by the diagonal Sobolev weights), and the quantitative checks (adjoint
and product error scaling, sharp lower bounds of nonnegative symbols)
complete the toolbox.  Every check is deterministic: the worst constants of
the lower-bound check are top eigenvalues of dense weighted matrices, not
maxima over random test functions.

Lattice orders follow numpy's FFT layout; Fourier coefficients are the DFT
divided by the point count, so a(x, xi) = 1 quantizes to the identity map
exactly.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    GridMismatch,
    InvalidEpsilon,
    InvalidParameter,
    PrecheckFailed,
)
from .profiles import ramp_down, smoothstep


@dataclass(frozen=True)
class Lattice:
    """Periodic lattice with N points per axis on the box [0, L_box)^d."""

    d: int = 1
    N: int = 256
    L_box = 2.0 * np.pi  # a class constant, not a field

    def __post_init__(self):
        if self.N < 2 or self.d < 1:
            raise InvalidParameter(f"a lattice needs N >= 2 points per axis and d >= 1, "
                                   f"got N={self.N}, d={self.d}")

    @property
    def points(self):
        return self.N**self.d

    def axis_x(self):
        return self.L_box * np.arange(self.N) / self.N

    def axis_xi(self):
        return 2.0 * np.pi / self.L_box * self.N * np.fft.fftfreq(self.N)

    def x_vectors(self):
        ax = self.axis_x()
        grids = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def xi_vectors(self, half=False):
        """Frequency vectors (P, d) in FFT order; half=True gives the half
        spectrum of `fft(..., half=True)`, whose last component is >= 0."""
        axes = [self.axis_xi()] * self.d
        if half:
            axes[-1] = 2.0 * np.pi / self.L_box * self.N * np.fft.rfftfreq(self.N)
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def xi_mags(self):
        return np.linalg.norm(self.xi_vectors(), axis=1)

    def brackets(self):
        return np.sqrt(1.0 + self.xi_mags() ** 2)

    def phase_matrix(self):
        # e^{i x_j . xi_k}; P x P, computed per call so nothing outlives it
        return np.exp(1j * (self.x_vectors() @ self.xi_vectors().T))

    def fft(self, values, half=False):
        """Fourier coefficients of lattice samples, shape preserved (P, n).

        half=True takes real samples with the components leading, (m, P), and
        returns their half spectrum (m, Q) at `xi_vectors(half=True)`; the
        other frequencies carry the complex conjugates.
        """
        v = np.asarray(values)
        if half:
            lead = v.shape[:-1]
            out = np.fft.rfftn(v.reshape(lead + (self.N,) * self.d),
                               axes=tuple(range(-self.d, 0)), norm="forward")
            return out.reshape(lead + (-1,))
        shp = (self.N,) * self.d + v.shape[1:]
        out = np.fft.fftn(v.reshape(shp), axes=tuple(range(self.d))).reshape(v.shape)
        out /= self.points
        return out

    def ifft(self, coeff, half=False):
        """Lattice samples of Fourier coefficients; half=True inverts
        `fft(..., half=True)` to real samples (m, P)."""
        c = np.asarray(coeff)
        if half:
            lead = c.shape[:-1]
            shp = lead + (self.N,) * (self.d - 1) + (self.N // 2 + 1,)
            out = np.fft.irfftn(c.reshape(shp), s=(self.N,) * self.d,
                                axes=tuple(range(-self.d, 0)), norm="forward")
            return out.reshape(lead + (-1,))
        shp = (self.N,) * self.d + c.shape[1:]
        out = np.fft.ifftn(c.reshape(shp), axes=tuple(range(self.d))).reshape(c.shape)
        out *= self.points
        return out


@dataclass
class GridFunction:
    """C^n-valued lattice samples with a cached dual representation."""

    lattice: Lattice
    values: np.ndarray
    _hat: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.lattice.points:
            raise GridMismatch(
                f"{v.shape[0]} samples for a lattice of {self.lattice.points} points"
            )
        self.values = v

    @property
    def n(self):
        return self.values.shape[1]

    def hat(self):
        if self._hat is None:
            self._hat = self.lattice.fft(self.values)
        return self._hat

    def sobolev_norm(self, s):
        w = self.lattice.brackets() ** (2.0 * s)
        return float(
            np.sqrt(
                self.lattice.L_box**self.lattice.d
                * np.sum(w[:, None] * np.abs(self.hat()) ** 2)
            )
        )


@dataclass(frozen=True)
class CutoffSpec:
    """Admissible cut-off: 1 on {|eta| <= eps1 |xi|, |xi| >= 1}, 0 on
    {|eta| >= eps2 <xi>} and {|xi| <= eps2}, smooth monotone in between."""

    eps1: float
    eps2: float

    def __call__(self, eta_mag, xi_mag):
        eta_mag = np.abs(np.asarray(eta_mag, dtype=float))
        xi_mag = np.abs(np.asarray(xi_mag, dtype=float))
        br = np.sqrt(1.0 + xi_mag**2)
        lo = self.eps1 * xi_mag
        hi = self.eps2 * br
        t = (eta_mag - lo) / (hi - lo)
        eta_part = 1.0 - smoothstep(t)
        xi_part = smoothstep((xi_mag - self.eps2) / (1.0 - self.eps2))
        return eta_part * xi_part


def make_cutoff(eps1, eps2):
    if not (0.0 < eps1 < eps2 < 1.0):
        raise InvalidEpsilon(f"need 0 < eps1 < eps2 < 1, got ({eps1}, {eps2})")
    return CutoffSpec(eps1=float(eps1), eps2=float(eps2))


@dataclass
class DiscreteSymbol:
    """Matrix symbol sampled on (x-lattice) x (dual lattice).

    values has shape (P, P, n, n).
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        P = self.lattice.points
        if v.ndim == 2:
            v = v[:, :, None, None]
        if v.shape[0] != P or v.shape[1] != P or v.shape[2] != v.shape[3]:
            raise GridMismatch(f"symbol values shape {v.shape} incompatible with P={P}")
        self.values = v

    @property
    def n(self):
        return self.values.shape[2]


def separable_symbol(lattice, gvals, mfun):
    """Product symbol g(x) m(xi) from state and frequency factors; a scalar
    factor (P,) is a 1 x 1 matrix, so a matrix symbol needs both factors
    as (P, n, n) stacks."""
    g = np.asarray(gvals, dtype=complex)
    m = np.asarray(mfun(lattice.xi_vectors()), dtype=complex)
    g, m = (f[:, None, None] if f.ndim == 1 else f for f in (g, m))
    return DiscreteSymbol(lattice, np.einsum("iab,jbc->ijac", g, m))


def cutoff_mask(lattice, chi):
    """The cut-off chi(|eta|, |xi|) on the lattice, (P, P) with eta (the
    x-frequency) along rows; formed once by each owner that smooths.  chi is
    evaluated once per pair of distinct magnitudes and gathered."""
    mags, inv = np.unique(lattice.xi_mags(), return_inverse=True)
    inv = inv.reshape(-1)
    return chi(mags[:, None], mags[None, :])[inv[:, None], inv[None, :]]


def smooth_symbol(symbol, mask):
    """Frequency-localize the x-dependence: multiply the first-variable DFT
    by the cut-off mask chi(eta, xi) of `cutoff_mask` and transform back.

    The output's x-spectrum vanishes identically on {|eta| >= eps2 <xi>}, so
    it realizes the restricted symbol class membership exactly on the lattice.
    """
    lat = symbol.lattice
    out = lat.ifft(lat.fft(symbol.values) * mask[:, :, None, None])
    return DiscreteSymbol(lat, out)


def apply_op(symbol, f):
    """(op[a] f)(x) = sum_xi e^{i x xi} a(x, xi) fhat(xi)."""
    lat = symbol.lattice
    if f.lattice != lat:
        raise GridMismatch("function and symbol live on different lattices")
    if f.n != symbol.n:
        raise GridMismatch(f"function has {f.n} components, symbol {symbol.n}")
    phase = lat.phase_matrix()
    out = np.einsum("jk,jkab,kb->ja", phase, symbol.values, f.hat(), optimize=True)
    return GridFunction(lat, out)


def op_matrix(symbol):
    """Dense matrix of op[a] acting on stacked Fourier coefficients (P*n
    square): (op[a] f)^(eta) = sum_xi a^(eta - xi, xi) fhat(xi), with a^ the
    transform of a in x, so block (eta, xi) is a^ at eta - xi (mod N per axis)."""
    lat = symbol.lattice
    P, n = lat.points, symbol.n
    k = np.indices((lat.N,) * lat.d).reshape(lat.d, -1)
    diff = np.ravel_multi_index((k[:, :, None] - k[:, None, :]) % lat.N, (lat.N,) * lat.d)
    T = lat.fft(symbol.values)[diff, np.arange(P)]
    return T.transpose(0, 2, 1, 3).reshape(P * n, P * n)


def sobolev_weights(lattice, s, n=1):
    """The <D>^s multiplier on stacked Fourier coefficients: the diagonal
    <xi>^s, each value repeated for the n components."""
    return np.repeat(lattice.brackets() ** s, n)


def operator_sobolev_norm(T, lattice, s_out, s_in, n=1):
    """||T|| between H^{s_in} and H^{s_out} on the lattice (T from `op_matrix`)."""
    if not np.all(np.isfinite(T)):
        raise InvalidParameter("the operator matrix is not finite (NaN or inf entries)")
    w_out = sobolev_weights(lattice, s_out, n)
    w_in = sobolev_weights(lattice, -s_in, n)
    return float(np.linalg.norm(w_out[:, None] * T * w_in, 2))


# ---------------------------------------------------------------------------
# Littlewood-Paley decomposition
# ---------------------------------------------------------------------------

def lp_masks(lattice):
    """Dyadic partition of unity on the dual lattice: masks zeta_nu with
    sum_nu zeta_nu = 1 exactly, supp zeta_nu in the annulus
    2^{nu-1} <= |xi| <= 2^{nu+1} for nu >= 0."""
    mags = lattice.xi_mags()
    mmax = float(mags.max())
    nu_max = max(0, int(np.ceil(np.log2(max(mmax, 1.0)))))

    def rho(x):  # 1 on |xi| <= 1/2, 0 on |xi| >= 1
        return ramp_down(x, 0.5, 1.0)

    masks = []
    prev = rho(mags)  # rho_0
    masks.append(prev.copy())  # zeta_{-1} = rho
    for nu in range(0, nu_max + 1):
        cur = rho(mags / 2.0 ** (nu + 1))
        masks.append(cur - prev)
        prev = cur
    # by construction prev == 1 on the whole lattice now
    return masks


def lp_decompose(symbol):
    """Split a symbol into dyadic frequency annuli; exact reconstruction."""
    return [DiscreteSymbol(symbol.lattice, symbol.values * mk[None, :, None, None])
            for mk in lp_masks(symbol.lattice)]


# ---------------------------------------------------------------------------
# Symbol families induced by gridded states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableFamily:
    """Symbol family F(u, xi) = state_factor(u) * freq_factor(xi).

    state_factor maps (P, n_state) samples to (P,) or (P, n, n); freq_factor
    maps (Q, d) frequencies to (Q,) or (Q, n, n); a scalar factor is a
    1 x 1 matrix, so n > 1 needs both factors as matrices.
    """

    state_factor: Callable
    freq_factor: Callable
    order: float

    def symbol(self, lattice, u_values):
        return separable_symbol(lattice, self.state_factor(u_values), self.freq_factor)


def _adjoint_family(fam):
    def state_conj(u):
        g = np.asarray(fam.state_factor(u), dtype=complex)
        return g.conj() if g.ndim == 1 else np.conj(np.swapaxes(g, 1, 2))

    def freq_conj(xi):
        m = np.asarray(fam.freq_factor(xi), dtype=complex)
        return m.conj() if m.ndim == 1 else np.conj(np.swapaxes(m, 1, 2))

    return SeparableFamily(state_conj, freq_conj, fam.order)


def symbol_product(a, b):
    """Pointwise matrix product of two symbols on the same lattices."""
    if a.lattice != b.lattice:
        raise GridMismatch("symbols on different lattices")
    vals = np.einsum("ijab,ijbc->ijac", a.values, b.values, optimize=True)
    return DiscreteSymbol(a.lattice, vals)


@dataclass
class ScalingReport:
    """Measured operator norms under a state-amplitude sweep."""

    amplitudes: np.ndarray
    adjoint_norms: np.ndarray
    product_norms: np.ndarray
    adjoint_slope: float
    product_slope: float


def _loglog_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.maximum(np.asarray(y, dtype=float), 1e-15)  # a vanishing norm keeps a finite log
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


#: State amplitudes swept by the scaling checks.
AMPLITUDES = (1.0, 0.5, 0.25, 0.125)


def check_adjoint_product_errors(F, G, chi, u_base, amplitudes=AMPLITUDES):
    """Scaling of the adjoint and product quantization errors in the state.

    Measures ||Op[F_u]^* - Op[F_u^*]|| from H^{m-1} to L^2 and
    ||Op[G_u] Op[F_u] - Op[G_u F_u]|| from H^{m+mu-1} to L^2 while the
    state amplitude is swept; the fitted log-log slopes should be ~1 for
    symbol families depending smoothly on the state (proportional bounds).
    """
    lat = u_base.lattice
    amps = np.asarray(amplitudes, dtype=float)
    adn = np.zeros(len(amps))
    prn = np.zeros(len(amps))
    Fadj = _adjoint_family(F)
    mask = cutoff_mask(lat, chi)
    for k, a in enumerate(amps):
        uv = a * u_base.values
        AF = F.symbol(lat, uv)
        AG = G.symbol(lat, uv)
        TF = op_matrix(smooth_symbol(AF, mask))
        TFs = op_matrix(smooth_symbol(Fadj.symbol(lat, uv), mask))
        E1 = TF.conj().T - TFs
        adn[k] = operator_sobolev_norm(E1, lat, 0.0, F.order - 1.0, AF.n)
        TG = op_matrix(smooth_symbol(AG, mask))
        TGF = op_matrix(smooth_symbol(symbol_product(AG, AF), mask))
        E2 = TG @ TF - TGF
        prn[k] = operator_sobolev_norm(E2, lat, 0.0, F.order + G.order - 1.0, AF.n)
    return ScalingReport(
        amplitudes=amps,
        adjoint_norms=adn,
        product_norms=prn,
        adjoint_slope=_loglog_slope(amps, adn),
        product_slope=_loglog_slope(amps, prn),
    )


@dataclass
class GardingReport:
    """Lower-bound measurements for a pointwise nonnegative symbol family.

    negativity[k] is the worst (smoothing-corrected) negative part of the
    quadratic form at amplitude k, normalized by ||v||^2_{(m-1)/2};
    normalized_constant[k] = negativity[k] / ||u||_{H^4}^{1/2}.  When the
    negativity scales linearly in the state (the generic case), the
    normalized constant scales like ||u||^{1/2}, i.e. its log-log slope is
    about 0.5; a slope much above 0.7 or below 0 would contradict the
    square-root lower-bound law.
    """

    amplitudes: np.ndarray
    u_norms: np.ndarray
    negativity: np.ndarray
    normalized_constant: np.ndarray
    negativity_slope: float
    constant_slope: float
    smoothing_constant: float
    any_negativity: bool


def _worst_ratio(M, w):
    """Largest eigenvalue of the hermitian part of W M W, W = diag(w): the
    supremum of Re<M v, v> / ||W^{-1} v||^2 over Fourier coefficients v."""
    G = w[:, None] * M * w
    return float(np.max(np.linalg.eigvalsh(0.5 * (G + G.conj().T))))


def check_garding(F, u_base, chi):
    """Sharp-lower-bound check for a nonnegative symbol family.

    Precondition: F(y, xi) + F(y, xi)^* >= 0 for xi != 0, verified by
    sampling on each state swept over AMPLITUDES (PrecheckFailed otherwise).
    With the form q(v) = Re<(Op[F_u] + Op[F_u]^*) v, v>, the reported
    negativity at each amplitude is the worst constant
    max(0, sup_v (-q(v) - c0 ||v||_{-2}^2) / ||v||^2_{(m-1)/2}), where the
    smoothing-tail constant c0 = 1.05 max(0, sup_v -q(v) / ||v||_{-2}^2) + 1e-14
    is taken at u = 0.  Both suprema over all lattice functions are top
    eigenvalues in the Fourier basis, where the Sobolev weights are diagonal
    (volume factors cancel in the ratios).  The negativity's is that of a
    dense P x P matrix.  F(0, xi) is x-independent, so its para-operator is
    the multiplier chi(0, xi) F(0, xi), and c0's is the largest over its
    n x n blocks.
    """
    lat = u_base.lattice
    amps = np.asarray(AMPLITUDES, dtype=float)
    hi = lat.xi_mags() > 0.0
    mask = cutoff_mask(lat, chi)

    def negative_form(sym):
        T = op_matrix(smooth_symbol(sym, mask))
        return -(T + T.conj().T)

    S0 = F.symbol(lat, 0.0 * u_base.values)
    n = S0.n
    a0 = mask[0][:, None, None] * S0.values[0]  # row 0 of the mask: eta = 0
    G0 = lat.brackets()[:, None, None] ** 4 * -(a0 + np.conj(np.swapaxes(a0, 1, 2)))
    c0 = max(float(np.max(np.linalg.eigvalsh(G0))), 0.0) * 1.05 + 1e-14
    tail = c0 * sobolev_weights(lat, -2.0, n) ** 2
    whalf = sobolev_weights(lat, -0.5 * (F.order - 1.0), n)

    neg = np.zeros(len(amps))
    unorms = np.zeros(len(amps))
    for k, a in enumerate(amps):
        uv = a * u_base.values
        sym = F.symbol(lat, uv)
        vals = sym.values[:, hi]
        wmin = np.min(np.linalg.eigvalsh(vals + np.conj(np.swapaxes(vals, 2, 3))))
        if wmin < -1e-10:
            raise PrecheckFailed(f"symbol not nonnegative for xi != 0: min eig {wmin:.3e}")
        M = negative_form(sym)
        M[np.diag_indices_from(M)] -= tail
        unorms[k] = GridFunction(lat, uv).sobolev_norm(4.0)
        neg[k] = max(0.0, _worst_ratio(M, whalf))

    any_neg = bool(np.any(neg > 1e-12))
    normalized = neg / np.sqrt(unorms)
    return GardingReport(
        amplitudes=amps,
        u_norms=unorms,
        negativity=neg,
        normalized_constant=normalized,
        negativity_slope=_loglog_slope(amps, neg) if any_neg else 0.0,
        constant_slope=_loglog_slope(amps, normalized) if any_neg else 0.0,
        smoothing_constant=c0,
        any_negativity=any_neg,
    )
