"""Pseudo-spectral time integration of the nonlinear first-order system.

The state U = (u, u_t) on a periodic lattice is its dealiased half spectrum
(2/3 rule, real transforms `Lattice.fft(..., half=True)`); its real samples
are formed when they are read.  An RK4 step works on that spectrum alone,
so all four stages stay in Fourier space, and the Sobolev norms that `run`
traces read it too.  The right-hand side splits at the reference state
ubar: the constant-coefficient part acts on the Fourier coefficients mode
by mode through Mbar(ubar, xi), and a state-dependent model adds the
remainder [coeffs(u) - coeffs(ubar)] . derivatives, with spectral
derivatives and pointwise products in physical space.  Time stepping is
classical RK4 under a spectral-radius CFL bound.  The energy form
<G_u W, W>, W = <D>^s (<D>(u - ubar), u_t), is the symmetrized
para-differential quadratic form of the per-frequency dissipation symbol;
with the monitor on, `run` records its value, and `energy_monitor` tests
the decay inequality

    1/2 d/dt <G_u W, W> + c ||W||^2  <=  C_low ||W_low||^2 + K ||W||^3

with an explicitly computed low-frequency allowance C_low and a pinned
nonlinear slack constant K.
"""

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from .errors import BlowUp, CFLViolation, DomainExit, InvalidParameter, UnsupportedDataSpec
from .grids import antipodal_expand, antipodal_fold
from .io import write_csv_atomic
from .model import check_placement, ensure_normalized, evaluate_stack
from .paradiff import Lattice, make_cutoff
from .profiles import ramp_down, ramp_up
from .symbols import (assemble_M_stack, assemble_Mbar_stack, coefficient_tensors,
                      frequency_polynomials)

#: Sobolev index s of the traced norms, of W and of the energy monitor.
SOBOLEV_INDEX = 2.0

#: RK4 absolute-stability radius along the imaginary axis.
RK4_IMAG_LIMIT = 2.8

#: Nonlinear slack constant K in the energy-inequality budget.
ENERGY_BUDGET_SLACK = 10.0

#: Decay constant c in the energy inequality; also the margin added to C_low.
C_MONITOR = 0.25

#: Fraction of the RK4 stability bound taken as the step of `run`.
CFL_FACTOR = 0.9

#: `run` raises BlowUp when the W-norm exceeds this multiple of its initial value.
NORM_CEILING_FACTOR = 10.0

#: Largest step of the monitor's centered time difference.
DT_FD = 1e-3

#: Admissible cut-off of the energy functional's para-operator.
CHI = make_cutoff(0.2, 0.5)

#: Largest working set a simulation may hold (the RK4 step, the energy
#: form's multiplier or its remainder's P x Q x 2n x 2n dissipation-symbol
#: fields on P points and Q half-spectrum frequencies); 256 MiB.
SYMBOL_FIELD_MAX_BYTES = 2**28

#: Size of one slice of Kronecker-form Lyapunov systems; 32 MiB.
LYAPUNOV_BATCH_BYTES = 2**25


@dataclass
class FieldState:
    """Periodic-grid state (u, u_t) at `time` on the lattice of a
    `LinearPart`: its dealiased half-spectrum coefficients `spectrum`
    (2n, Q), in `LinearPart` order.

    `u` and `ut`, real samples (P, n), are formed from the spectrum on each
    read (one inverse real transform each) and are not kept.
    """

    linear: "LinearPart" = field(repr=False)
    spectrum: np.ndarray
    time: float = 0.0

    @property
    def lattice(self):
        return self.linear.lattice

    @property
    def u(self):
        return self.linear.samples(self.spectrum[:self.linear.model.n]).T

    @property
    def ut(self):
        return self.linear.samples(self.spectrum[self.linear.model.n:]).T


def two_thirds_mask(lattice, half=False):
    """The dealiased frequencies of `lattice.xi_vectors(half)`."""
    mags = np.abs(lattice.xi_vectors(half))
    cut = (2.0 / 3.0) * np.max(np.abs(lattice.axis_xi()))
    return np.all(mags <= cut + 1e-12, axis=1)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigData:
    """amplitude * sin/cos(k . x) in one component (mean-free for k != 0)."""

    amplitude: float
    wavenumber: tuple = (1,)
    component: int = 0
    target: str = "u0"
    phase: str = "sin"


@dataclass(frozen=True)
class PeriodicBumpData:
    """Periodized Gaussian bump with its lattice mean removed."""

    amplitude: float
    width: float = 0.6
    center: Optional[tuple] = None
    component: int = 0
    target: str = "u0"


def _rk4_bytes(model, lattice):
    # a run holds about 4n + 2d real lattice fields while it forms and
    # transforms its initial data (2n sample rows, their complex half
    # spectrum, the coordinates), and on its Q ~ (2/3)^d P / 2 dealiased
    # half-spectrum frequencies the (Q, n, 2n) rows of Mbar and a step's
    # (2n, Q) stage spectra, 2n^2 + 10n fields at (2/3)^d each (tracemalloc
    # of the larger phase: 0.70-0.94 of this on the builtins and on constant
    # models with n <= 4, d <= 3; of a step alone on the d = 3 fluid,
    # 0.54-0.67); a state-dependent model adds four arrays for each of its
    # 2 + 2d + d(d+1)/2 transformed fields, and its (1 + d)^2 coefficient
    # blocks and their remainder at every point, all (P, n)
    P, n, d = lattice.points, model.n, lattice.d
    fields = 4 * n + 2 * d + (2.0 / 3.0) ** d * (2 * n * n + 10 * n)
    if not model.constant_coefficients:
        fields += n * (4 * (2 + 2 * d + d * (d + 1) // 2) + 2 * (1 + d) ** 2 * n)
    return int(fields * P * np.dtype(float).itemsize)


def _refuse_above_limit(need, what):
    if need > SYMBOL_FIELD_MAX_BYTES:
        raise InvalidParameter(f"{what} needs about {need} bytes, above the limit of "
                               f"{SYMBOL_FIELD_MAX_BYTES} bytes; use a coarser lattice")


def _require_lattice_fits(model, lattice):
    what = f"an RK4 step on {lattice.points} lattice points with {model.n} components"
    _refuse_above_limit(_rk4_bytes(model, lattice), what)


def default_lattice(model):
    """The finest lattice with N = 128, 64, ... (2 at the least) whose RK4
    working set fits SYMBOL_FIELD_MAX_BYTES."""
    N = 128
    while N > 2 and _rk4_bytes(model, Lattice(d=model.d, N=N)) > SYMBOL_FIELD_MAX_BYTES:
        N //= 2
    return Lattice(d=model.d, N=N)


def _length_d(value, what, d):
    v = np.array(value, dtype=float)
    if v.shape != (d,):
        raise UnsupportedDataSpec(f"{what} {value!r} must have length d = {d}")
    return v


def initial_state(linear, data_spec):
    """Dealiased initial data on the lattice of a `LinearPart`;
    UnsupportedDataSpec for data that does not fit the model's components
    or the lattice's dimension."""
    model, lattice = linear.model, linear.lattice
    specs = data_spec if isinstance(data_spec, (list, tuple)) else [data_spec]
    x = lattice.x_vectors()
    rows = np.zeros((2 * model.n, lattice.points))  # u, then u_t, as in the spectrum
    rows[:model.n] = model.reference_state[:, None]
    for spec in specs:
        if isinstance(spec, TrigData):
            if spec.phase not in ("sin", "cos"):
                raise UnsupportedDataSpec(f"phase must be 'sin' or 'cos', got {spec.phase!r}")
            k = _length_d(spec.wavenumber, "wavenumber", lattice.d) * 2.0 * np.pi / lattice.L_box
            ph = x @ k
            vals = spec.amplitude * (np.sin(ph) if spec.phase == "sin" else np.cos(ph))
        elif isinstance(spec, PeriodicBumpData):
            c = (np.full(lattice.d, 0.5 * lattice.L_box) if spec.center is None
                 else _length_d(spec.center, "center", lattice.d))
            r2 = np.sum((x - c[None, :]) ** 2, axis=1)
            vals = spec.amplitude * np.exp(-r2 / (2.0 * spec.width**2))
            vals = vals - vals.mean()
        else:
            raise UnsupportedDataSpec(f"unsupported simulator data spec {type(spec).__name__}")
        check_placement(spec, model.n)
        rows[spec.component + (0 if spec.target == "u0" else model.n)] += vals
    del x  # freed before the transform, the peak of a constant-coefficient run
    return FieldState(linear, linear.spectrum(rows))


# ---------------------------------------------------------------------------
# Right-hand side and stepping
# ---------------------------------------------------------------------------

def _matvec(mats, vecs):
    # one (n, n) matrix per grid point times the (n, P) samples of a field
    return np.einsum("pij,jp->ip", mats, vecs)


class RemainderTerm(NamedTuple):
    """One term [c(u) - c(ubar)] . field of the remainder.

    c is the coefficient `family`[`index`] of `CoefficientTensors` ("A0",
    "A", "C" or "B"; the term of B at (j, k), k > j, carries B^{jk} +
    B^{kj}).  The field's coefficients are `multiplier` (Q,) times the
    u_hat (`block` 0) or v_hat (`block` 1) coefficients, the term's sign
    included: -v, -u_{x_j}, v_{x_j} or u_{x_j x_k}.  Terms of one `group`
    are summed before they join the total.
    """

    group: int
    family: str
    index: tuple
    block: int
    multiplier: np.ndarray


def _remainder_terms(model, xi):
    """The remainder's terms whose coefficients vary with u, in the order
    `_remainder` sums them, at the frequencies xi (Q, d); every term left
    out is exactly zero."""
    d, x = model.d, xi.T
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    # each term with the evaluator indices its coefficient reads
    terms = [(RemainderTerm(0, "A0", (), 1, -np.ones(len(xi))), [("A", 0)])]
    for j in range(d):
        terms += [(RemainderTerm(1 + j, "C", (j,), 1, 1j * x[j]),
                   [("B", 0, j + 1), ("B", j + 1, 0)]),
                  (RemainderTerm(1 + j, "A", (j,), 0, -1j * x[j]), [("A", j + 1)])]
    terms += [(RemainderTerm(1 + d + p, "B", (j, k), 0, -x[j] * x[k]),
               [("B", j + 1, k + 1), ("B", k + 1, j + 1)]) for p, (j, k) in enumerate(pairs)]
    return [t for t, reads in terms if any(model.varies(*r) for r in reads)]


def _coefficient_change(model, term, u, R):
    """c(u) - c(ubar) of one remainder term, (P, n, n), at the samples u
    (P, n) with the reference tensors R, in the arithmetic of the full
    coefficient tensors."""
    def at(family, *index):
        return evaluate_stack(model, family, *index, u=u)

    if term.family == "A0":
        return at("A", 0) - R.A0
    j = term.index[0]
    if term.family == "A":
        return at("A", j + 1) - R.A[j]
    if term.family == "C":
        return (at("B", 0, j + 1) + at("B", j + 1, 0)) - R.C[j]
    k = term.index[1]
    B = at("B", j + 1, k + 1) - R.B[j, k]
    if k > j:
        B = B + at("B", k + 1, j + 1) - R.B[k, j]
    return B


def _check_domain(model, u_phys, time):
    # a non-finite state has left every box, although NaN compares False
    lo, hi = model.state_domain
    ur = u_phys.real
    finite = bool(np.all(np.isfinite(u_phys)))
    if not finite or np.any(ur < lo[None, :] - 1e-12) or np.any(ur > hi[None, :] + 1e-12):
        raise DomainExit(
            f"state left the domain box at t={time:g}"
            + ("" if finite else " (non-finite values)"),
            report={
                "time": time,
                "finite": finite,
                "min": ur.min(axis=0).tolist(),
                "max": ur.max(axis=0).tolist(),
                "lo": lo.tolist(),
                "hi": hi.tolist(),
            },
        )


class LinearPart:
    """The constant-coefficient system at the reference state on one lattice;
    every stepping and monitor call takes it.

    Stepping works on the half spectrum of the real state: `positions` are
    the indices of the dealiased frequencies (two_thirds_mask) among
    `lattice.xi_vectors(half=True)`, `xi` (Q, d) lists them in FFT order (the
    zero frequency first), and `spectrum`/`samples` move between real
    samples (m, P) and coefficients there (m, Q).  A real field has ||f||^2
    = sum `weights` |f_hat|^2 there: a mode with positive last frequency
    component stands for its partner at -xi too and weighs 2 L^d, one with
    last component 0 weighs L^d (the mask drops the Nyquist column).  Every Fourier mode of
    the linearized system evolves by Mbar(ubar, xi); `rows` holds its bottom
    n rows [-iA(xi) - B(xi), iC(xi) - A^0](ubar) at `xi`, shape (Q, n, 2n),
    and Mbar(ubar, -xi) = conj(Mbar(ubar, xi)) covers the other half.  The
    zero-padded spectra behind `samples` are reused, so one LinearPart
    serves one caller at a time.
    `tensors` are the coefficient tensors at ubar, which the remainder of a
    state-dependent model subtracts, and `terms` the remainder's terms
    whose coefficients vary with u (`_remainder_terms`; none for a
    constant-coefficient model).  `dt_max` is the RK4 step bound from
    |spec(Mbar)| at the largest dealiased frequencies; a spectral radius of 0
    there raises InvalidParameter.  A lattice whose RK4
    working set exceeds SYMBOL_FIELD_MAX_BYTES is refused before allocating.
    """

    def __init__(self, model, lattice):
        model = ensure_normalized(model)
        _require_lattice_fits(model, lattice)
        self.model, self.lattice = model, lattice
        ubar = model.reference_state
        self.tensors = T = coefficient_tensors(model, ubar)
        mask = two_thirds_mask(lattice, half=True)
        self.positions = np.flatnonzero(mask)
        self.xi = xi = lattice.xi_vectors(half=True)[self.positions]
        probes = [np.argmax(np.linalg.norm(xi, axis=1))] + [np.argmax(np.abs(x)) for x in xi.T]
        mbar = assemble_Mbar_stack(model, ubar, xi[probes])
        radius = 1.05 * float(np.max(np.abs(np.linalg.eigvals(mbar))))
        if not radius > 0.0:
            raise InvalidParameter("Mbar(ubar, xi) has spectral radius 0 at the largest dealiased "
                                   "frequencies, which bounds no RK4 step")
        self.dt_max = CFL_FACTOR * RK4_IMAG_LIMIT / radius
        self.weights = np.where(xi[:, -1] > 0.0, 2.0, 1.0) * lattice.L_box**lattice.d
        A, B, C = frequency_polynomials(T, xi)
        n = model.n
        # both halves pass through one contiguous (Q, n, n) buffer: numpy
        # buffers a ufunc whose output is a strided view
        self.rows = rows = np.empty(A.shape[:-1] + (2 * n,), dtype=complex)
        half = np.multiply(A, -1j)
        rows[..., :n] = np.subtract(half, B, out=half)
        rows[..., n:] = np.subtract(np.multiply(C, 1j, out=half), T.A0, out=half)
        self.terms = _remainder_terms(model, xi)
        self._padded, self._half_size = {}, mask.size

    def spectrum(self, values):
        """Dealiased half-spectrum coefficients (m, Q) of real samples (m, P)."""
        return np.take(self.lattice.fft(values, half=True), self.positions, axis=1)

    def samples(self, hat):
        """Real samples (m, P) of dealiased coefficients (m, Q)."""
        m = len(hat)
        if m not in self._padded:
            self._padded[m] = np.zeros((m, self._half_size), dtype=complex)
        buf = self._padded[m]
        buf[:, self.positions] = hat
        return self.lattice.ifft(buf, half=True)


def _remainder(linear, y, time):
    """[coeffs(u) - coeffs(ubar)] . derivatives in physical space, (n, P), at
    the stage y = (u_hat, v_hat), summed over `linear.terms`; u is checked
    against the domain box before any coefficient is evaluated.

    u and the fields of the terms come from one inverse transform, and only
    the coefficients of the terms are evaluated.
    """
    model, n = linear.model, linear.model.n
    blocks = (y[:n], y[n:])
    hats = [blocks[0]] + [t.multiplier * blocks[t.block] for t in linear.terms]
    u, *fields = linear.samples(np.concatenate(hats)).reshape(len(hats), n, -1)
    _check_domain(model, u.T, time)
    groups = {}
    for term, w in zip(linear.terms, fields):
        groups.setdefault(term.group, []).append(
            _matvec(_coefficient_change(model, term, u.T, linear.tensors), w))
    return reduce(np.add, (reduce(np.add, g) for g in groups.values()))


def _sample_interval(uh):
    """Per component, an interval (low, high) that holds every sample of the
    dealiased coefficients uh (n, Q): |u_i(x) - Re c0_i| <= 2 sum_{k != 0}
    |c_{k,i}| over the half spectrum, whose column 0 is the zero frequency."""
    c0 = uh[:, 0].real
    bound = 2.0 * np.sum(np.abs(uh[:, 1:]), axis=1)
    return c0 - bound, c0 + bound


def _inside_box(model, uh):
    # the sample interval of uh is finite and inside the domain box
    lo, hi = model.state_domain
    low, high = _sample_interval(uh)
    return bool(np.all(np.isfinite(low) & np.isfinite(high) & (low >= lo) & (high <= hi)))


def _stage(linear, y, time):
    """Time derivative of the dealiased coefficients y = (u_hat, v_hat),
    shape (2n, Q).  A model without remainder terms (`linear.terms`; a
    constant-coefficient one among them) checks the stage's u against the
    domain box by the sample interval of its coefficients
    (`_sample_interval`), forming the samples of y only when that interval
    is not both finite and inside the box.  A model with remainder terms
    checks the u of its remainder."""
    model = linear.model
    n = model.n
    k = np.empty_like(y)
    k[:n] = y[n:]
    k[n:] = np.einsum("qij,jq->iq", linear.rows, y)
    if not linear.terms:
        if not _inside_box(model, y[:n]):
            _check_domain(model, linear.samples(y[:n]).T, time)
    else:
        k[n:] += linear.spectrum(_remainder(linear, y, time))
    return k


def rhs(linear, state):
    """Time derivative (u_t, v_t) of the first-order system at the state, as
    real samples (P, n).

    v_t = sum_j (B^{j0}+B^{0j})(u) v_{x_j} + sum_jk B^{jk}(u) u_{x_j x_k}
          - A^0(u) v - sum_j A^j(u) u_{x_j}.
    The part at the reference state is applied to the half-spectrum
    coefficients as the bottom rows of Mbar(ubar, xi) (`linear`); a
    state-dependent model adds the remainder [coeffs(u) - coeffs(ubar)] .
    derivatives, formed in physical space and transformed once.
    """
    n = linear.model.n
    out = linear.samples(_stage(linear, state.spectrum, state.time))
    return out[:n].T, out[n:].T


def step_rk4(linear, state, dt):
    """One classical RK4 step (dt may be negative) of the state; raises
    CFLViolation when |dt| is above the stability bound `linear.dt_max`.

    All four stages stay on the dealiased half spectrum, and the input
    state's spectrum is left as it is.  Every stage of a
    constant-coefficient model checks the domain box on a bound from its
    coefficients, with an inverse transform only where the bound cannot
    clear the box, so such a step usually takes no transform; a
    state-dependent model takes one inverse and one forward transform a
    stage for its remainder.
    """
    if abs(dt) > linear.dt_max:
        raise CFLViolation(f"|dt| = {abs(dt):g} exceeds stability bound {linear.dt_max:g}")
    t, y0 = state.time, state.spectrum
    k = _stage(linear, y0, t)
    acc = k.copy()
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = _stage(linear, y0 + (c * dt) * k, t + c * dt)
        acc += w * k
    acc *= dt / 6.0
    acc += y0
    return FieldState(linear, acc, t + dt)


# ---------------------------------------------------------------------------
# Sobolev norms on the lattice
# ---------------------------------------------------------------------------

def w_spectrum(linear, state):
    """Dealiased half-spectrum coefficients (2n, Q) of W = <D>^s (<D>(u -
    ubar), u_t), s = SOBOLEV_INDEX, from the state's spectrum: the one
    representation of W that the norms and the energy form read."""
    n = linear.model.n
    y = state.spectrum.copy()
    y[:n, 0] -= linear.model.reference_state
    br = np.sqrt(1.0 + np.sum(linear.xi**2, axis=1))
    y[:n] *= br ** (1.0 + SOBOLEV_INDEX)
    y[n:] *= br**SOBOLEV_INDEX
    return y


def state_norms(linear, state):
    """(||u - ubar||_{H^{s+1}}, ||u_t||_{H^s}) of the dealiased part of the
    state, s = SOBOLEV_INDEX: the norms of W's two blocks (`w_spectrum`)
    under `linear.weights`."""
    n = linear.model.n
    sq = linear.weights * np.abs(w_spectrum(linear, state)) ** 2
    return float(np.sqrt(np.sum(sq[:n]))), float(np.sqrt(np.sum(sq[n:])))


# ---------------------------------------------------------------------------
# Energy monitor
# ---------------------------------------------------------------------------

def _phi(mags):
    """Weight of the dissipation symbol: active for |xi| >= 2, fully from 3."""
    return ramp_up(mags, 2.0, 3.0)


def _psi(mags):
    """Weight of the identity patch: covers |xi| <= 4, gone from 5."""
    return ramp_down(mags, 4.0, 5.0)


def _batched_lyapunov(Ms):
    """Solve D M + M^* D = -I for a stack of matrices via the kron system.

    The (m^2 x m^2) systems are formed in slices of at most
    LYAPUNOV_BATCH_BYTES.  Known defect: the second Kronecker term takes the
    entrywise conjugate of M where M^* belongs, so the hermitian part of the
    solution of D M + conj(M) D = -I is returned instead; the scipy oracle
    test in tests/test_simulator.py is marked as an expected failure for it.
    """
    b, m, _ = Ms.shape
    step = max(1, LYAPUNOV_BATCH_BYTES // (m**4 * np.dtype(complex).itemsize))
    if b > step:
        return np.concatenate([_batched_lyapunov(Ms[i:i + step]) for i in range(0, b, step)])
    eye = np.eye(m)
    A = np.einsum("bij,kl->bikjl", np.swapaxes(Ms, 1, 2), eye).reshape(b, m * m, m * m)
    A = A + np.einsum("ij,bkl->bikjl", eye, np.conj(Ms)).reshape(b, m * m, m * m)
    rhs_v = -np.tile(eye.reshape(-1), (b, 1))
    D = np.linalg.solve(A, rhs_v[..., None])[..., 0].reshape(b, m, m)
    D = np.swapaxes(D, 1, 2)
    return 0.5 * (D + np.conj(np.swapaxes(D, 1, 2)))


def _field_bytes(n, points, count):
    # the remainder on P points and Q frequencies holds its (P, Q) phase and
    # cut-off, and at its peak two (P, Q, 2n, 2n) fields beside three Lyapunov
    # slices or three fields while one is transformed (tracemalloc peaks of
    # EnergyForm and one value on distinct samples: 0.77-0.91 of this for the
    # README quasi-linear model at N = 16 to 1024, 0.77-0.95 for n = 1 and 2,
    # d = 2 models at N = 16 and 32; 0.39 at N = 8, with few active frequencies)
    m, item = 2 * n, np.dtype(complex).itemsize
    pairs = points * count
    slice_points = min(pairs, max(1, LYAPUNOV_BATCH_BYTES // (m**4 * item)))
    fields = max(3 * pairs * m * m, 2 * pairs * m * m + 3 * slice_points * m**4)
    return item * fields + (item + np.dtype(float).itemsize) * pairs


def _require_field_fits(n, points, count):
    what = f"the dissipation-symbol field on {points} points and {count} frequencies"
    _refuse_above_limit(_field_bytes(n, points, count), what)


def _require_multiplier_fits(n, count):
    # the (Q, 2n, 2n) multiplier on the Q half-spectrum frequencies holds
    # about four stacks of its size and three Kronecker-form Lyapunov slices
    # of (2n)^4 values a point (tracemalloc peaks of EnergyForm: 0.94-0.99
    # of this for the fluid at N = 16 to 64, 0.91-0.94 for the damped waves)
    m, item = 2 * n, np.dtype(complex).itemsize
    slice_points = min(count, max(1, LYAPUNOV_BATCH_BYTES // (m**4 * item)))
    what = f"the energy multiplier on {count} frequencies with {m}x{m} symbols"
    _refuse_above_limit(item * (4 * count * m * m + 3 * slice_points * m**4), what)


def _dissipation_values(model, states, xi):
    """phi(xi) D(u, xi) + psi(xi) I for a state stack (S, n) at the
    frequencies xi (K, d): (S, K, 2n, 2n).

    D solves D M + M^* D = -I at every (state, active frequency) pair of one
    batch; inactive frequencies carry the identity patch only.  Real
    coefficients give M(u, -xi) = conj M(u, xi), hence D(u, -xi) = conj
    D(u, xi), so only one frequency of each pair {xi, -xi} in xi is solved.
    The output is allocated only after the solves.
    """
    mags = np.linalg.norm(xi, axis=1)
    n2 = 2 * model.n
    active = _phi(mags) > 0.0
    patch = _psi(mags)[:, None, None] * np.eye(n2)
    Ds = patch[active]
    if np.any(active):
        xa = xi[active]
        keep, src = antipodal_fold(xa)
        Ms = assemble_M_stack(model, states, xa[keep])
        Ds = _batched_lyapunov(Ms.reshape(-1, n2, n2)).reshape(Ms.shape)
        Ds = antipodal_expand(Ds, xa, keep, src, axis=1)
        Ds *= _phi(mags[active])[:, None, None]
        Ds += patch[active]
    out = np.broadcast_to(patch, (len(states),) + patch.shape).astype(complex)
    out[:, active] = Ds
    return out


def dissipation_symbol_field(model, u_phys, xi):
    """D-tilde(u(x), xi) = phi(xi) D(u(x), xi) + psi(xi) I at the grid points
    of the samples u_phys (P, n) and the frequencies xi (K, d): (P, K, 2n, 2n).

    The symbol is computed once per distinct state and scattered to the grid
    points; a field whose remainder working set (`_field_bytes`) is above
    SYMBOL_FIELD_MAX_BYTES is refused with InvalidParameter up front.
    """
    _require_field_fits(model.n, len(u_phys), len(xi))
    states, back = np.unique(np.round(u_phys.real, 12), axis=0, return_inverse=True)
    return _dissipation_values(model, states, xi)[back.reshape(-1)]


class EnergyForm:
    """The quadratic form <G_u W, W> of the model on the lattice of a
    `LinearPart`, which the monitor steps with; W is given by its dealiased
    half-spectrum coefficients (`w_spectrum`).

    G_u = Op_chi[D-tilde(u, .)] splits at the reference state: Op_chi of an
    x-independent symbol a is the multiplier chi(0, xi) a(xi), so G_u =
    op[D-tilde(ubar, xi)] + Op_chi[D-tilde(u, .) - D-tilde(ubar, .)].  Both
    parts live on `linear.xi`, where W's coefficients do: the multiplier
    `reference` (Q, 2n, 2n), summed with `linear.weights` since
    D-tilde(ubar, -xi) = conj D-tilde(ubar, xi), and the remainder of a
    state-dependent model, smoothed in x by the (P, Q) cut-off `cutoff`
    chi(|eta|, |xi|) and quantized with the (P, Q) `phase` e^{i x.xi}
    weights / L^d.  All three are formed here once (`cutoff` and `phase` are
    None for a constant model).  low_band marks the frequencies of
    `linear.xi` where the dissipation symbol is not fully active.  A lattice
    on which the multiplier or the remainder would exceed
    SYMBOL_FIELD_MAX_BYTES is refused before either is built.
    """

    def __init__(self, linear):
        self.linear = linear
        self.model, self.lattice = linear.model, linear.lattice
        lat, xi = self.lattice, linear.xi
        _require_multiplier_fits(self.model.n, len(xi))
        self.cutoff = self.phase = None
        if not self.model.constant_coefficients:
            _require_field_fits(self.model.n, lat.points, len(xi))
            self.cutoff = CHI(lat.xi_mags()[:, None], np.linalg.norm(xi, axis=1)[None, :])
            self.phase = np.exp(1j * (lat.x_vectors() @ xi.T)) * (linear.weights / lat.L_box**lat.d)
        self.reference = _dissipation_values(self.model, self.model.reference_state[None, :], xi)[0]
        self.low_band = _phi(np.linalg.norm(xi, axis=1)) < 1.0

    def operator(self, state):
        """The smoothed symbol of D-tilde(u, .) - D-tilde(ubar, .) at the grid
        points and `linear.xi`, (P, Q, 2n, 2n), for the u of the state; None
        for a constant-coefficient model, whose remainder is zero and which
        reads no samples."""
        if self.model.constant_coefficients:
            return None
        field = dissipation_symbol_field(self.model, state.u, self.linear.xi)
        field -= self.reference
        field = self.lattice.fft(field)
        field *= self.cutoff[:, :, None, None]
        return self.lattice.ifft(field)

    def apply(self, op, what):
        """<G W, W> from W's dealiased half-spectrum coefficients (2n, Q); op
        is what `operator` returned for the state.  The remainder's image Re
        sum_q `phase` a(x, xi_q) W^(xi_q) covers each -xi_q, as a(x, -xi) =
        conj a(x, xi), and meets W's real samples, one transform of what."""
        linear = self.linear
        Dw = np.einsum("qab,bq->aq", self.reference, what)
        val = float(np.sum(linear.weights * np.real(np.sum(np.conj(what) * Dw, axis=0))))
        if op is not None:
            lat = self.lattice
            opw = np.einsum("pq,pqab,bq->ap", self.phase, op, what, optimize=True)
            val += float(np.sum(linear.samples(what) * opw.real) * lat.L_box**lat.d / lat.points)
        return val

    def value(self, state):
        """<G_u W, W> with W = <D>^s (<D>(u - ubar), u_t) of the state."""
        return self.apply(self.operator(state), w_spectrum(self.linear, state))

    def low_band_allowance(self):
        """Computed allowance C_low: the worst positive drift of the quadratic
        form on frequencies where the dissipation symbol is not fully active."""
        sel = self.low_band
        if not np.any(sel):
            return 0.0
        xi = self.linear.xi[sel]
        H = self.reference[sel] @ assemble_M_stack(self.model, self.model.reference_state, xi)
        lam = np.linalg.eigvalsh(H + np.conj(np.swapaxes(H, 1, 2))).max(axis=1) / 2.0
        return max(0.0, float(np.max(lam)) + C_MONITOR)


@dataclass
class MonitorResult:
    value: float
    derivative: float
    w_norm2: float
    w_low_norm2: float
    budget: float
    lhs: float

    @property
    def satisfied(self):
        return self.lhs <= self.budget


def energy_monitor(form, state):
    """Value and decay test of the para-differential energy functional.

    Returns the quadratic form <G_u W, W>, a centered finite-difference time
    derivative (stepping the full nonlinear dynamics with the form's
    `LinearPart`), and the budget test
    1/2 d/dt + c ||W||^2 <= C_low ||W_low||^2 + K ||W||^3.
    """
    linear = form.linear
    h = min(DT_FD, 0.25 * linear.dt_max)
    what = w_spectrum(linear, state)
    val0 = form.apply(form.operator(state), what)
    fwd = step_rk4(linear, state, h)
    bwd = step_rk4(linear, state, -h)
    deriv = (form.value(fwd) - form.value(bwd)) / (2.0 * h)

    sq = linear.weights * np.sum(np.abs(what) ** 2, axis=0)
    w2 = float(np.sum(sq))
    wlow2 = float(np.sum(sq[form.low_band]))
    budget = form.low_band_allowance() * wlow2 + ENERGY_BUDGET_SLACK * w2**1.5
    return MonitorResult(value=val0, derivative=deriv, w_norm2=w2, w_low_norm2=wlow2,
                         budget=budget, lhs=0.5 * deriv + C_MONITOR * w2)


def monitor_rayleigh_floor(form, state, count=50):
    """Sampled positivity of G_u: min <G w, w>/<w, w> over the dealiased
    parts of random real fields, the only fields the form is given."""
    linear = form.linear
    op = form.operator(state)
    rng = np.random.default_rng(3)
    floor = np.inf
    for _ in range(count):
        what = linear.spectrum(rng.normal(size=(2 * form.model.n, form.lattice.points)))
        den = float(np.sum(linear.weights * np.abs(what) ** 2))
        floor = min(floor, form.apply(op, what) / den)
    return floor


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """Run settings; lattice None is the model's `default_lattice`."""

    lattice: Optional[Lattice] = None
    t_final: float = 10.0
    snapshots: int = 41
    monitor: bool = False


@dataclass
class EnergyTrace:
    times: np.ndarray
    norms_u: np.ndarray
    norms_ut: np.ndarray
    w_norm: np.ndarray
    dissipation_integral: np.ndarray
    energy: Optional[np.ndarray] = None
    final_state: Optional[FieldState] = None

    def write_csv(self, path):
        hdr = ["t", f"norm_H{SOBOLEV_INDEX + 1:g}_u", f"norm_H{SOBOLEV_INDEX:g}_ut", "w_norm",
               "dissipation_integral"]
        cols = [self.times, self.norms_u, self.norms_ut, self.w_norm, self.dissipation_integral]
        if self.energy is not None:
            hdr.append("energy_functional")
            cols.append(self.energy)
        write_csv_atomic(path, hdr, np.column_stack(cols).tolist())


def run(model, data_spec, config=SimConfig()):
    """Integrate to t_final recording Sobolev norms and the energy functional.

    Steps at `LinearPart.dt_max`.  Raises BlowUp when the W-norm is not
    finite or exceeds NORM_CEILING_FACTOR times its initial value, DomainExit
    when the state leaves the model's box (or stops being finite), and
    InvalidParameter for fewer than two snapshots (one when t_final = 0) or
    a t_final that is negative or not finite.  One `LinearPart` (and, with
    the monitor on, one energy form) is built per run.
    """
    least = 2 if config.t_final > 0.0 else 1  # a single snapshot is t = 0 only
    if config.snapshots < least:
        raise InvalidParameter(f"need at least {least} snapshots for t_final = "
                               f"{config.t_final:g}, got {config.snapshots}")
    if not 0.0 <= config.t_final < np.inf:
        raise InvalidParameter(f"t_final = {config.t_final:g} must be finite and nonnegative")
    linear = LinearPart(model, default_lattice(model) if config.lattice is None else config.lattice)
    state = initial_state(linear, data_spec)

    snap_times = np.linspace(0.0, config.t_final, config.snapshots)
    form = EnergyForm(linear) if config.monitor else None
    norms_u = np.zeros(config.snapshots)
    norms_ut = np.zeros(config.snapshots)
    wn = np.zeros(config.snapshots)
    diss = np.zeros(config.snapshots)
    energy = np.zeros(config.snapshots) if config.monitor else None

    def record(k, st):
        norms_u[k], norms_ut[k] = state_norms(linear, st)
        wn[k] = np.hypot(norms_u[k], norms_ut[k])
        if not np.isfinite(wn[k]):
            raise BlowUp(f"W-norm is not finite at t={st.time:g}")
        if k > 0:
            dtk = snap_times[k] - snap_times[k - 1]
            diss[k] = diss[k - 1] + 0.5 * dtk * (wn[k] ** 2 + wn[k - 1] ** 2)
        if form is not None:
            energy[k] = form.value(st)

    record(0, state)
    ceiling = NORM_CEILING_FACTOR * max(wn[0], 1e-300)
    for k in range(1, config.snapshots):
        t_target = snap_times[k]
        while state.time < t_target - 1e-12:
            step = min(linear.dt_max, t_target - state.time)
            state = step_rk4(linear, state, step)
        record(k, state)
        if wn[k] > ceiling:
            raise BlowUp(
                f"W-norm {wn[k]:.3e} exceeded ceiling {ceiling:.3e} at t={state.time:g}"
            )
    return EnergyTrace(times=snap_times, norms_u=norms_u, norms_ut=norms_ut, w_norm=wn,
                       dissipation_integral=diss, energy=energy, final_state=state)
