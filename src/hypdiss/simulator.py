"""Pseudo-spectral time integration of the nonlinear first-order system.

The state is U = (u, u_t), real samples on a periodic lattice with 2/3-rule
dealiasing.  An RK4 step works on the dealiased half spectrum of the state
(real transforms, `Lattice.fft(..., half=True)`), so all four stages stay in
Fourier space, and each state carries that spectrum into the next step and
into the Sobolev norms that `run` traces.  The right-hand side splits at the
reference state ubar: the constant-coefficient part acts on the Fourier
coefficients mode by mode through Mbar(ubar, xi), and a state-dependent
model adds the remainder [coeffs(u) - coeffs(ubar)] . derivatives, with
spectral derivatives and pointwise products in physical space.  Time
stepping is classical RK4 under a spectral-radius CFL bound.  An energy
monitor assembles the symmetrized para-differential quadratic form built
from the per-frequency dissipation symbol and checks the decay inequality

    1/2 d/dt <G_u W, W> + c ||W||^2  <=  C_low ||W_low||^2 + K ||W||^3

with W = <D>^s (<D> u, u_t), an explicitly computed low-frequency allowance
C_low, and a pinned nonlinear slack constant K.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BlowUp, CFLViolation, DomainExit, InvalidParameter, UnsupportedDataSpec
from .io import write_csv_atomic
from .model import check_placement, ensure_normalized
from .paradiff import (
    DiscreteSymbol,
    GridFunction,
    Lattice,
    apply_op,
    make_cutoff,
    smooth_symbol,
)
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
#: form's multiplier or its P x P x 2n x 2n dissipation-symbol field on a
#: lattice of P points); 256 MiB.
SYMBOL_FIELD_MAX_BYTES = 2**28

#: Size of one slice of Kronecker-form Lyapunov systems; 32 MiB.
LYAPUNOV_BATCH_BYTES = 2**25


@dataclass
class FieldState:
    """Periodic-grid physical state (u, u_t) as real samples of shape (P, n);
    a 1-D array is one component, and complex samples keep their real part.

    `spectrum`, when set, holds the dealiased half-spectrum coefficients
    (2n, Q) of (u, u_t) that the samples were formed from (`LinearPart`
    order), so the next step need not transform the samples again; a state
    whose samples are changed after construction must drop it.
    """

    lattice: Lattice
    u: np.ndarray
    ut: np.ndarray
    time: float = 0.0
    spectrum: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.u = _real_samples(self.u)
        self.ut = _real_samples(self.ut)


def _real_samples(values):
    v = np.asarray(values)
    return np.asarray(v.real, dtype=float).reshape(len(v), -1)


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
    # an RK4 step holds about 16 + n real (P, n) arrays at its peak: the
    # reference rows (about n of them), the zero-padded half spectra, the
    # state in and out, and a real transform's input, complex intermediates
    # and output (tracemalloc of a `LinearPart` and one step: 0.69-0.80 of
    # this on the builtins, 0.64 on a state-dependent n = d = 2 model); a
    # state-dependent model adds four arrays for each of
    # its 2 + 2d + d(d+1)/2 transformed fields, and its (1 + d)^2
    # coefficient blocks and their remainder at every point
    P, n, d = lattice.points, model.n, lattice.d
    arrays = 16 + n
    if not model.constant_coefficients:
        arrays += 4 * (2 + 2 * d + d * (d + 1) // 2) + 2 * (1 + d) ** 2 * n
    return arrays * P * n * np.dtype(float).itemsize


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
    """Dealiased initial data on the lattice of a `LinearPart`, carrying its
    spectrum; UnsupportedDataSpec for data that does not fit the model's
    components or the lattice's dimension."""
    model, lattice = linear.model, linear.lattice
    specs = data_spec if isinstance(data_spec, (list, tuple)) else [data_spec]
    x = lattice.x_vectors()
    u = np.tile(model.reference_state.astype(float), (lattice.points, 1))
    ut = np.zeros((lattice.points, model.n))
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
        if spec.target == "u0":
            u[:, spec.component] += vals
        else:
            ut[:, spec.component] += vals
    return _state_of(linear, linear.spectrum(np.concatenate([u.T, ut.T])), 0.0)


# ---------------------------------------------------------------------------
# Right-hand side and stepping
# ---------------------------------------------------------------------------

def _matvec(mats, vecs):
    # one (n, n) matrix per grid point times the (n, P) samples of a field
    return np.einsum("pij,jp->ip", mats, vecs)


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

    Stepping works on the half spectrum of the real state: `mask` marks the
    dealiased frequencies (two_thirds_mask) among `lattice.xi_vectors(half=
    True)`, `xi` (Q, d) lists them in FFT order (the zero frequency first),
    and `spectrum`/`samples` move between real samples (m, P) and
    coefficients there (m, Q).  Every Fourier mode of
    the linearized system evolves by Mbar(ubar, xi); `rows` holds its bottom
    n rows [-iA(xi) - B(xi), iC(xi) - A^0](ubar) at `xi`, shape (Q, n, 2n),
    and Mbar(ubar, -xi) = conj(Mbar(ubar, xi)) covers the other half.  The
    zero-padded spectra behind `samples` are reused, so one LinearPart
    serves one caller at a time.
    `tensors` are the coefficient tensors at ubar, which the remainder of a
    state-dependent model subtracts.  `dt_max` is the RK4 step bound from
    |spec(Mbar)| at the largest dealiased frequencies.  A lattice whose RK4
    working set exceeds SYMBOL_FIELD_MAX_BYTES is refused before allocating.
    """

    def __init__(self, model, lattice):
        model = ensure_normalized(model)
        _require_lattice_fits(model, lattice)
        self.model, self.lattice = model, lattice
        ubar = model.reference_state
        self.tensors = T = coefficient_tensors(model, ubar)
        full = lattice.xi_vectors()[two_thirds_mask(lattice)]
        mags = np.linalg.norm(full, axis=1)
        probes = [np.argmax(mags)] + [np.argmax(np.abs(full[:, j])) for j in range(lattice.d)]
        mbar = assemble_Mbar_stack(model, ubar, full[probes])
        radius = 1.05 * float(np.max(np.abs(np.linalg.eigvals(mbar))))
        self.dt_max = CFL_FACTOR * RK4_IMAG_LIMIT / radius
        self.mask = two_thirds_mask(lattice, half=True)
        self.xi = lattice.xi_vectors(half=True)[self.mask]
        A, B, C = frequency_polynomials(T, self.xi)
        self.rows = np.concatenate([-1j * A - B, 1j * C - T.A0], axis=-1)
        self._padded = {}

    def spectrum(self, values):
        """Dealiased half-spectrum coefficients (m, Q) of real samples (m, P)."""
        return self.lattice.fft(values, half=True)[:, self.mask]

    def samples(self, hat):
        """Real samples (m, P) of dealiased coefficients (m, Q)."""
        m = len(hat)
        if m not in self._padded:
            self._padded[m] = np.zeros((m, len(self.mask)), dtype=complex)
        buf = self._padded[m]
        buf[:, self.mask] = hat
        return self.lattice.ifft(buf, half=True)


def _remainder(linear, y, time):
    """[coeffs(u) - coeffs(ubar)] . derivatives in physical space, (n, P), at
    the stage y = (u_hat, v_hat); u is checked against the domain box before
    any coefficient is evaluated.

    u, v, their d first derivatives and the d(d+1)/2 distinct second
    derivatives of u come from one inverse transform; the second derivatives
    carry B^{jk} + B^{kj}.
    """
    d, n = linear.lattice.d, linear.model.n
    uh, vh = y[:n], y[n:]
    xi = linear.xi.T
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    hats = ([uh, vh] + [1j * xi[j] * uh for j in range(d)]
            + [1j * xi[j] * vh for j in range(d)] + [-xi[j] * xi[k] * uh for j, k in pairs])
    u, v, *fields = linear.samples(np.concatenate(hats)).reshape(len(hats), n, -1)
    _check_domain(linear.model, u.T, time)
    u_x, v_x, u_xx = fields[:d], fields[d:2 * d], fields[2 * d:]
    T = coefficient_tensors(linear.model, u.T)
    R = linear.tensors
    out = -_matvec(T.A0 - R.A0, v)
    for j in range(d):
        out += _matvec(T.C[:, j] - R.C[j], v_x[j]) - _matvec(T.A[:, j] - R.A[j], u_x[j])
    for (j, k), w in zip(pairs, u_xx):
        B = T.B[:, j, k] - R.B[j, k]
        if k > j:
            B = B + T.B[:, k, j] - R.B[k, j]
        out += _matvec(B, w)
    return out


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


def _stage(linear, y, time, u=None):
    """Time derivative of the dealiased coefficients y = (u_hat, v_hat),
    shape (2n, Q).  A constant-coefficient model checks the stage's u
    against the domain box: the samples u (P, n) when given; else the
    sample interval of its coefficients (`_sample_interval`), forming the
    samples of y only when that interval is not both finite and inside the
    box.  A state-dependent model checks the u of its remainder."""
    model = linear.model
    n = model.n
    k = np.empty_like(y)
    k[:n] = y[n:]
    k[n:] = np.einsum("qij,jq->iq", linear.rows, y)
    if model.constant_coefficients:
        if u is not None:
            _check_domain(model, u, time)
        elif not _inside_box(model, y[:n]):
            _check_domain(model, linear.samples(y[:n]).T, time)
    else:
        k[n:] += linear.spectrum(_remainder(linear, y, time))
    return k


def _spectrum(linear, state):
    # a copy of the carried spectrum, else one forward transform of the
    # stacked (u, u_t) samples
    if state.spectrum is not None:
        return state.spectrum.copy()
    return linear.spectrum(np.concatenate([state.u.T, state.ut.T]))


def _state_of(linear, y, time):
    # the state with dealiased coefficients y (2n, Q), which it carries
    n = linear.model.n
    out = linear.samples(y)
    return FieldState(linear.lattice, out[:n].T, out[n:].T, time, spectrum=y)


def rhs(linear, state):
    """Time derivative (u_t, v_t) of the first-order system at the dealiased
    part of the state, as real samples (P, n).

    v_t = sum_j (B^{j0}+B^{0j})(u) v_{x_j} + sum_jk B^{jk}(u) u_{x_j x_k}
          - A^0(u) v - sum_j A^j(u) u_{x_j}.
    The part at the reference state is applied to the half-spectrum
    coefficients as the bottom rows of Mbar(ubar, xi) (`linear`); a
    state-dependent model adds the remainder [coeffs(u) - coeffs(ubar)] .
    derivatives, formed in physical space and transformed once.
    """
    n = linear.model.n
    k = _stage(linear, _spectrum(linear, state), state.time, state.u)
    out = linear.samples(k)
    return out[:n].T, out[n:].T


def step_rk4(linear, state, dt):
    """One classical RK4 step (dt may be negative) of the dealiased part of
    the state; raises CFLViolation when |dt| is above the stability bound
    `linear.dt_max`.

    All four stages stay on the dealiased half spectrum.  The state's
    spectrum is the one it carries (`FieldState.spectrum`), else one forward
    transform of its samples; the new state carries its own.  The first
    stage checks the domain box on the state's samples, later stages of a
    constant-coefficient model on a bound from their coefficients, with an
    inverse transform only where the bound cannot clear the box.  So a
    constant-coefficient step from a state that carries its spectrum takes
    one inverse real transform, for the new state's samples; a
    state-dependent model adds the transforms of its remainder.
    """
    if abs(dt) > linear.dt_max:
        raise CFLViolation(f"|dt| = {abs(dt):g} exceeds stability bound {linear.dt_max:g}")
    t = state.time
    y0 = _spectrum(linear, state)
    k = _stage(linear, y0, t, state.u)
    acc = k.copy()
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = _stage(linear, y0 + (c * dt) * k, t + c * dt)
        acc += w * k
    y0 += (dt / 6.0) * acc
    return _state_of(linear, y0, t + dt)


# ---------------------------------------------------------------------------
# Sobolev norms on the lattice
# ---------------------------------------------------------------------------

def state_norms(linear, state):
    """(||u - ubar||_{H^{s+1}}, ||u_t||_{H^s}) of the dealiased part of the
    state, s = SOBOLEV_INDEX, from its half spectrum (`_spectrum`): a mode
    with positive last frequency component also stands for its partner at
    -xi and weighs 2, one with last component 0 weighs 1."""
    n, lat = linear.model.n, linear.lattice
    y = _spectrum(linear, state)
    y[:n, 0] -= linear.model.reference_state
    br2 = 1.0 + np.sum(linear.xi**2, axis=1)
    sq = np.where(linear.xi[:, -1] > 0.0, 2.0, 1.0) * lat.L_box**lat.d * np.abs(y) ** 2
    return (float(np.sqrt(np.sum(br2 ** (1.0 + SOBOLEV_INDEX) * sq[:n]))),
            float(np.sqrt(np.sum(br2**SOBOLEV_INDEX * sq[n:]))))


def w_hat(model, state):
    """Fourier coefficients of W = <D>^s (<D>(u - ubar), u_t), s = SOBOLEV_INDEX."""
    lat = state.lattice
    br = lat.brackets()
    du_hat = lat.fft(state.u - model.reference_state[None, :])
    vt_hat = lat.fft(state.ut)
    top = (br ** (1.0 + SOBOLEV_INDEX))[:, None] * du_hat
    bot = (br**SOBOLEV_INDEX)[:, None] * vt_hat
    return np.concatenate([top, bot], axis=1)


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


def _require_field_fits(n, lattice):
    P, m = lattice.points, 2 * n
    what = f"the dissipation-symbol field on {P} lattice points with {m}x{m} symbols"
    _refuse_above_limit(P * P * m * m * np.dtype(complex).itemsize, what)


def _require_multiplier_fits(n, lattice):
    # building the (P, 2n, 2n) multiplier holds about four stacks of its size
    # and three Kronecker-form Lyapunov slices of (2n)^4 values a point
    # (tracemalloc peaks of EnergyForm: 0.86-0.96 of this on the builtins
    # with 1024 to 65536 lattice points)
    P, m, item = lattice.points, 2 * n, np.dtype(complex).itemsize
    slice_points = min(P, max(1, LYAPUNOV_BATCH_BYTES // (m**4 * item)))
    what = f"the energy multiplier on {P} lattice points with {m}x{m} symbols"
    _refuse_above_limit(item * (4 * P * m * m + 3 * slice_points * m**4), what)


def _dissipation_values(model, states, lattice):
    """phi(xi) D(u, xi) + psi(xi) I for a state stack (S, n): (S, Q, 2n, 2n).

    D solves D M + M^* D = -I at every (state, active frequency) pair of one
    batch; inactive frequencies carry the identity patch only.
    """
    xi = lattice.xi_vectors()
    mags = np.linalg.norm(xi, axis=1)
    phi = _phi(mags)
    n2 = 2 * model.n
    out = np.zeros((len(states), len(xi), n2, n2), dtype=complex)
    out += _psi(mags)[:, None, None] * np.eye(n2)
    active = phi > 0.0
    if np.any(active):
        Ms = assemble_M_stack(model, states, xi[active])
        Ds = _batched_lyapunov(Ms.reshape(-1, n2, n2)).reshape(Ms.shape)
        out[:, active] += phi[active][:, None, None] * Ds
    return out


def dissipation_symbol_field(model, u_phys, lattice):
    """D-tilde(u(x), xi) = phi(xi) D(u(x), xi) + psi(xi) I on the lattice.

    The symbol is computed once per distinct state and scattered to the
    grid points; a field above SYMBOL_FIELD_MAX_BYTES is refused with
    InvalidParameter before anything is allocated.
    """
    _require_field_fits(model.n, lattice)
    states, back = np.unique(np.round(u_phys.real, 12), axis=0, return_inverse=True)
    vals = _dissipation_values(model, states, lattice)[back.reshape(-1)]
    return DiscreteSymbol(lattice, vals)


class EnergyForm:
    """The quadratic form <G_u W, W> of the model on the lattice of a
    `LinearPart`, which the monitor steps with.

    G_u = Op_chi[D-tilde(u, .)] splits at the reference state: Op_chi of an
    x-independent symbol a is the multiplier chi(0, xi) a(xi), so G_u =
    op[D-tilde(ubar, xi)] + Op_chi[D-tilde(u, .) - D-tilde(ubar, .)].  The
    multiplier `reference` is built here once; only a state-dependent model
    has the remainder, on the (P, P) field.  low_band marks the frequencies
    where the dissipation symbol is not fully active.  A lattice on which
    building the multiplier (or, through `dissipation_symbol_field`, the
    field) would exceed SYMBOL_FIELD_MAX_BYTES is refused.
    """

    def __init__(self, linear):
        self.linear = linear
        self.model, self.lattice = linear.model, linear.lattice
        _require_multiplier_fits(self.model.n, self.lattice)
        ref_state = self.model.reference_state[None, :]
        self.reference = _dissipation_values(self.model, ref_state, self.lattice)[0]
        self.low_band = _phi(self.lattice.xi_mags()) < 1.0

    def operator(self, u_phys):
        """The smoothed symbol of Op_chi[D-tilde(u, .) - D-tilde(ubar, .)];
        None for a constant-coefficient model, whose remainder is zero."""
        if self.model.constant_coefficients:
            return None
        field = dissipation_symbol_field(self.model, u_phys, self.lattice)
        field.values -= self.reference
        return smooth_symbol(field, CHI)

    def apply(self, op, values, hat):
        """<G W, W> from the lattice values of W and its Fourier coefficients;
        op is what `operator` returned for the state."""
        lat = self.lattice
        vol = lat.L_box**lat.d
        Dw = np.einsum("qab,qb->qa", self.reference, hat)
        val = float(np.real(np.sum(np.conj(hat) * Dw)) * vol)
        if op is not None:
            opw = apply_op(op, GridFunction(lat, values))
            val += float(np.real(np.sum(np.conj(values) * opw.values)) * vol / lat.points)
        return val

    def value(self, state):
        """<G_u W, W> with W = <D>^s (<D>(u - ubar), u_t) of the state."""
        what = w_hat(self.model, state)
        return self.apply(self.operator(state.u), self.lattice.ifft(what), what)

    def low_band_allowance(self):
        """Computed allowance C_low: the worst positive drift of the quadratic
        form on frequencies where the dissipation symbol is not fully active."""
        sel = self.low_band
        if not np.any(sel):
            return 0.0
        xi = self.lattice.xi_vectors()[sel]
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
    lat = state.lattice
    h = min(DT_FD, 0.25 * form.linear.dt_max)
    what = w_hat(form.model, state)
    val0 = form.apply(form.operator(state.u), lat.ifft(what), what)
    fwd = step_rk4(form.linear, state, h)
    bwd = step_rk4(form.linear, state, -h)
    deriv = (form.value(fwd) - form.value(bwd)) / (2.0 * h)

    voln = lat.L_box**lat.d
    w2 = float(np.sum(np.abs(what) ** 2) * voln)
    wlow2 = float(np.sum(np.abs(what[form.low_band]) ** 2) * voln)
    budget = form.low_band_allowance() * wlow2 + ENERGY_BUDGET_SLACK * w2**1.5
    return MonitorResult(
        value=val0,
        derivative=deriv,
        w_norm2=w2,
        w_low_norm2=wlow2,
        budget=budget,
        lhs=0.5 * deriv + C_MONITOR * w2,
    )


def monitor_rayleigh_floor(form, state, count=50):
    """Sampled positivity of G_u: min <G w, w>/<w, w> over random fields."""
    lat = state.lattice
    op = form.operator(state.u)
    rng = np.random.default_rng(3)
    n2 = 2 * form.model.n
    voln = lat.L_box**lat.d / lat.points
    floor = np.inf
    for _ in range(count):
        vals = rng.normal(size=(lat.points, n2)) + 1j * rng.normal(size=(lat.points, n2))
        den = float(np.sum(np.abs(vals) ** 2) * voln)
        floor = min(floor, form.apply(op, vals, lat.fft(vals)) / den)
    return floor


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """Run settings."""

    lattice: Lattice = field(default_factory=lambda: Lattice(d=1, N=128))
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
    linear = LinearPart(model, config.lattice)
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
    return EnergyTrace(
        times=snap_times,
        norms_u=norms_u,
        norms_ut=norms_ut,
        w_norm=wn,
        dissipation_integral=diss,
        energy=energy,
        final_state=state,
    )
