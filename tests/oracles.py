"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: dispersion
roots come from determinant interpolation (or the scalar quadratic formula),
spectra are compared as multisets via optimal assignment.  The UNIFORM oracle
shares the library's frequency grid, symbol stack and report, and certifies
one grid point at a time with scipy's solvers and a union-find linkage.  The
antipodal fold is matched by a dictionary of rows, and the decay norms come
from the library's propagator run on every mode of the ensemble.
"""

from collections import namedtuple

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment


def multiset_distance(a, b):
    """Max pairing distance between two complex multisets of equal size."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def quadratic_formula_roots(a0, c_coef, b_plus_ia):
    """Scalar dispersion roots of lambda^2 + lambda (a0 - i c) + (b + i a) = 0."""
    p = a0 - 1j * c_coef
    disc = np.sqrt(p * p - 4.0 * b_plus_ia + 0j)
    return np.array([(-p + disc) / 2.0, (-p - disc) / 2.0])


def det_interpolation_roots(A0, C, BiA):
    """Roots of det(lambda^2 I + lambda (A0 - iC) + B + iA) by determinant
    interpolation on a circle (no companion linearization involved).

    The polynomial has degree 2n with unit leading coefficient; sampling the
    determinant at 2n + 1 scaled roots of unity and inverting the DFT gives
    its coefficients, then numpy.roots finds the zeros.
    """
    n = A0.shape[0]
    deg = 2 * n
    P1 = np.asarray(A0, dtype=complex) - 1j * np.asarray(C, dtype=complex)
    P0 = np.asarray(BiA, dtype=complex)
    scale = 1.0 + max(np.linalg.norm(P1, 2), np.sqrt(np.linalg.norm(P0, 2)))
    m = deg + 1
    samples = np.array(
        [
            np.linalg.det(
                (scale * w) ** 2 * np.eye(n) + (scale * w) * P1 + P0
            )
            for w in np.exp(2j * np.pi * np.arange(m) / m)
        ]
    )
    coeffs = np.fft.fft(samples) / m / scale ** np.arange(m)
    # numpy.roots wants highest power first
    return np.roots(coeffs[::-1])


def dispersion_residual(model, u, xi_vec, lams):
    """Normalized |det(lambda^2 I + lambda(A0 - iC) + B + iA)| at given points.

    Zero residual certifies the points as dispersion roots regardless of
    multiplicity (no interpolation or companion form involved).
    """
    n, d = model.n, model.d
    xi_vec = np.asarray(xi_vec, dtype=float)
    inv = np.linalg.inv(-np.asarray(model.B(0, 0, u), dtype=float))
    A0 = inv @ model.A(0, u)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    for j in range(1, d + 1):
        A += xi_vec[j - 1] * (inv @ model.A(j, u))
        C += xi_vec[j - 1] * (inv @ (model.B(0, j, u) + model.B(j, 0, u)))
        for k in range(1, d + 1):
            B += xi_vec[j - 1] * xi_vec[k - 1] * (inv @ model.B(j, k, u))
    P1 = A0 - 1j * C
    P0 = B + 1j * A
    scale = 1.0 + max(np.linalg.norm(P1, 2), np.sqrt(np.linalg.norm(P0, 2)))
    ref = abs(np.linalg.det((2 * scale) ** 2 * np.eye(n)))
    vals = [
        abs(np.linalg.det(lam**2 * np.eye(n) + lam * P1 + P0)) / ref for lam in lams
    ]
    return max(vals)


def dispersion_oracle(model, u, xi_vec):
    """Dispersion roots straight from the coefficient evaluators.

    Assembles the frequency polynomials independently (including the
    -B^{00} normalization applied through an explicit inverse) and runs the
    determinant oracle; for n = 1 the quadratic formula is used instead.
    """
    n, d = model.n, model.d
    xi_vec = np.asarray(xi_vec, dtype=float)
    inv = np.linalg.inv(-np.asarray(model.B(0, 0, u), dtype=float))
    A0 = inv @ model.A(0, u)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    for j in range(1, d + 1):
        A += xi_vec[j - 1] * (inv @ model.A(j, u))
        C += xi_vec[j - 1] * (inv @ (model.B(0, j, u) + model.B(j, 0, u)))
        for k in range(1, d + 1):
            B += xi_vec[j - 1] * xi_vec[k - 1] * (inv @ model.B(j, k, u))
    if n == 1:
        return quadratic_formula_roots(A0[0, 0], C[0, 0], B[0, 0] + 1j * A[0, 0])
    return det_interpolation_roots(A0, C, B + 1j * A)


def weighted_symbol_oracle(model, u, xi_vec):
    """(M, Mbar) at one state and frequency, straight from the evaluators.

    Builds the normalized frequency polynomials entry by entry (the -B^{00}
    normalization through an explicit inverse) and the 2n x 2n blocks by
    hand, without the library's assembly.
    """
    n, d = model.n, model.d
    xi_vec = np.asarray(xi_vec, dtype=float)
    inv = np.linalg.inv(-np.asarray(model.B(0, 0, u), dtype=float))
    A0 = inv @ model.A(0, u)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    for j in range(1, d + 1):
        A += xi_vec[j - 1] * (inv @ model.A(j, u))
        C += xi_vec[j - 1] * (inv @ (model.B(0, j, u) + model.B(j, 0, u)))
        for k in range(1, d + 1):
            B += xi_vec[j - 1] * xi_vec[k - 1] * (inv @ model.B(j, k, u))
    br = np.sqrt(1.0 + xi_vec @ xi_vec)
    mbar = np.block([[np.zeros((n, n)), np.eye(n)], [-1j * A - B, 1j * C - A0]])
    Z = np.diag(np.concatenate([np.full(n, br), np.ones(n)]))
    return Z @ mbar @ np.linalg.inv(Z), mbar


def k_family(model, u, eta, omega):
    """K(u, eta, omega) = [[0, I], [-i eta A_dir - B_dir, i C_dir - eta A^0]] of
    the B^{00}-normalized model: calB at eta = 0 with eta-derivative calA, and
    |xi| K(u, 1/|xi|, omega) = Ztilde^{-1} M(u, xi) Ztilde, Ztilde = diag((<xi>/|xi|) I, I)."""
    from hypdiss.model import ensure_normalized
    from hypdiss.symbols import directional_stack

    A0, A, B, C = directional_stack(ensure_normalized(model), u, omega)
    return np.block([[np.zeros_like(A0), np.eye(model.n)],
                     [-1j * eta * A[0] - B[0], 1j * C[0] - eta * A0]])


def fluid_bases(omega):
    """Orthonormal 4 x 2 bases (Fl, Ft) of the fluid's longitudinal plane
    C x omega C and transverse plane {0} x omega^perp, omega a unit vector in R^3."""
    t1 = np.eye(3)[np.argmin(np.abs(omega))]
    t1 = t1 - (t1 @ omega) * omega
    t1 /= np.linalg.norm(t1)
    Fl = np.zeros((4, 2))
    Ft = np.zeros((4, 2))
    Fl[0, 0], Fl[1:, 1] = 1.0, omega
    Ft[1:, 0], Ft[1:, 1] = t1, np.cross(omega, t1)
    return Fl, Ft


def d3_oracle(model, omega_grid=None, xi_loggrid=None, config=None):
    """The D3 margins one grid point at a time: per point, in direction-major
    order, (|xi|, direction index, largest real part of the eigenvalues of
    the one-point `assemble_M` over rho(|xi|)), as in the library's
    per_point.  The assembly itself is checked against
    `weighted_symbol_oracle` in test_symbols."""
    from hypdiss.conditions import CheckConfig, frequency_grid, rho_profile
    from hypdiss.symbols import assemble_M, graded_eig

    config = CheckConfig() if config is None else config
    omegas, xis = frequency_grid(model, omega_grid, xi_loggrid, config)[:2]
    u = model.reference_state

    def abscissa(M):
        return float(graded_eig(M[None], vectors=False)[0].real.max())

    return [(float(x), i, abscissa(assemble_M(model, u, x * om)) / float(rho_profile(x)))
            for i, om in enumerate(omegas) for x in xis]


def coefficient_tensors_oracle(model, u):
    """The coefficient tensors of `hypdiss.symbols.coefficient_tensors`, with
    every evaluator called on one state at a time."""
    from hypdiss.symbols import CoefficientTensors

    u = np.asarray(u, dtype=float)
    n, d = model.n, model.d
    lead = u.shape[:-1]
    A0 = np.empty(lead + (n, n))
    A = np.empty(lead + (d, n, n))
    C = np.empty(lead + (d, n, n))
    B = np.empty(lead + (d, d, n, n))
    for p in np.ndindex(lead):
        up = u[p]
        A0[p] = model.A(0, up)
        for j in range(1, d + 1):
            A[p + (j - 1,)] = model.A(j, up)
            C[p + (j - 1,)] = model.B(0, j, up) + model.B(j, 0, up)
            for k in range(1, d + 1):
                B[p + (j - 1, k - 1)] = model.B(j, k, up)
    return CoefficientTensors(A0, A, C, B)


def random_stable_model(rng, n=2, d=2, coupling=1.0):
    """A random constant-coefficient model with symmetric positive B-part.

    Not necessarily dissipative; used only for spectrum/oracle agreement.
    coupling scales the first-order A^j and the mixed B^{0j}, B^{j0} (j >= 1);
    small values leave the damping A^0 dominant.
    """
    from hypdiss.model import model_from_dict

    def spd():
        m = rng.normal(size=(n, n))
        return m @ m.T + n * np.eye(n)

    doc = {"n": n, "d": d, "reference_state": [0.0] * n, "label": "random"}
    A = {"0": spd().tolist()}
    for j in range(1, d + 1):
        s = rng.normal(size=(n, n))
        A[str(j)] = (coupling * 0.5 * (s + s.T)).tolist()
    B = {"0,0": (-np.eye(n)).tolist()}
    for j in range(1, d + 1):
        B[f"{j},{j}"] = spd().tolist()
        B[f"0,{j}"] = (coupling * 0.3 * rng.normal(size=(n, n))).tolist()
        B[f"{j},0"] = (coupling * 0.3 * rng.normal(size=(n, n))).tolist()
    doc["A"] = A
    doc["B"] = B
    return model_from_dict(doc)


def antipodal_fold_oracle(points):
    """(keep, src) of `grids.antipodal_fold` by a dictionary from each kept
    row to its index, looked up with the row's negation, then the row."""
    pts = np.asarray(points, dtype=float)
    first = {}
    keep, src = [], np.empty(len(pts), dtype=int)
    # adding or subtracting from +0.0 turns -0.0 into +0.0
    for q, (p, neg) in enumerate(zip(map(tuple, (pts + 0.0).tolist()),
                                     map(tuple, (0.0 - pts).tolist()))):
        j = first.get(neg, first.get(p))
        if j is None:
            j = first[p] = len(keep)
            keep.append(q)
        src[q] = j
    return np.array(keep, dtype=int), src


def decay_norms_oracle(model, data_spec, s, times):
    """(||u||_{H^s}, ||u_t||_{H^{s-1}}) of `decay_study`'s ensemble at each
    time, with every mode decomposed and propagated, those whose data are
    zero included."""
    from hypdiss.linear_spectral import ModeEnsemble, ModePropagator, init_ensemble, sobolev_norm

    ens = init_ensemble(model, data_spec)
    prop = ModePropagator(model, ens.xi)
    modal = prop.project(ens.coefficients)
    nu, nut = np.zeros(len(times)), np.zeros(len(times))
    for k, t in enumerate(times):
        cur = ModeEnsemble(ens.n, ens.d, ens.xi, ens.weights, prop.propagate(modal, t))
        norms = sobolev_norm(cur, s)
        nu[k], nut[k] = norms.u, norms.ut
    return nu, nut


def physical_rhs_oracle(model, state):
    """(u_t, v_t) of the first-order system with every product in physical space.

    The right-hand side before its spectral split: all d first derivatives of
    u and of u_t and all d^2 second derivatives of u by spectral
    differentiation, every coefficient evaluated at every grid point, the
    products summed pointwise and both outputs dealiased with the two-thirds
    mask.
    """
    from hypdiss.model import ensure_normalized
    from hypdiss.simulator import two_thirds_mask

    model = ensure_normalized(model)
    lat = state.lattice
    n, d = model.n, model.d
    xi = lat.xi_vectors()
    uhat = lat.fft(state.u)
    vhat = lat.fft(state.ut)
    u_x = [lat.ifft(1j * xi[:, j : j + 1] * uhat) for j in range(d)]
    v_x = [lat.ifft(1j * xi[:, j : j + 1] * vhat) for j in range(d)]
    u_xx = [[lat.ifft(-xi[:, j : j + 1] * xi[:, k : k + 1] * uhat) for k in range(d)]
            for j in range(d)]
    vt = np.zeros((lat.points, n), dtype=complex)
    for p in range(lat.points):
        up = state.u[p].real
        acc = -model.A(0, up) @ state.ut[p]
        for j in range(1, d + 1):
            acc = acc + (model.B(0, j, up) + model.B(j, 0, up)) @ v_x[j - 1][p]
            acc = acc - model.A(j, up) @ u_x[j - 1][p]
            for k in range(1, d + 1):
                acc = acc + model.B(j, k, up) @ u_xx[j - 1][k - 1][p]
        vt[p] = acc

    def dealias(values):
        hat = lat.fft(values)
        hat[~two_thirds_mask(lat)] = 0.0
        return lat.ifft(hat)

    return dealias(state.ut), dealias(vt)


def remainder_all_families(linear, y):
    """The simulator's remainder [coeffs(u) - coeffs(ubar)] . derivatives,
    (n, P), at the stage y = (u_hat, v_hat) of a LinearPart, with every
    coefficient family evaluated and every term summed, in the arithmetic
    of `simulator._remainder`: u, v, their first derivatives and the
    distinct second derivatives of u from one inverse transform, and the
    second derivatives carrying B^{jk} + B^{kj}."""
    from hypdiss.symbols import coefficient_tensors

    def matvec(mats, vecs):
        return np.einsum("pij,jp->ip", mats, vecs)

    model, d = linear.model, linear.lattice.d
    n = model.n
    uh, vh = y[:n], y[n:]
    xi = linear.xi.T
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    hats = ([uh, vh] + [1j * xi[j] * uh for j in range(d)]
            + [1j * xi[j] * vh for j in range(d)] + [-xi[j] * xi[k] * uh for j, k in pairs])
    u, v, *fields = linear.samples(np.concatenate(hats)).reshape(len(hats), n, -1)
    u_x, v_x, u_xx = fields[:d], fields[d:2 * d], fields[2 * d:]
    T = coefficient_tensors(model, u.T)
    R = coefficient_tensors(model, model.reference_state)
    out = -matvec(T.A0 - R.A0, v)
    for j in range(d):
        out += matvec(T.C[:, j] - R.C[j], v_x[j]) - matvec(T.A[:, j] - R.A[j], u_x[j])
    for (j, k), w in zip(pairs, u_xx):
        B = T.B[:, j, k] - R.B[j, k]
        if k > j:
            B = B + T.B[:, k, j] - R.B[k, j]
        out += matvec(B, w)
    return out


def _split_rhs(model, lat, u, ut):
    # bottom rows of Mbar(ubar, xi) on the full complex spectrum, plus the
    # remainder [coeffs(u) - coeffs(ubar)] . derivatives in physical space
    from hypdiss.simulator import two_thirds_mask
    from hypdiss.symbols import coefficient_tensors, frequency_polynomials

    mask = two_thirds_mask(lat)
    xi = lat.xi_vectors()
    R = coefficient_tensors(model, model.reference_state)
    A, B, C = frequency_polynomials(R, xi[mask])
    rows = np.concatenate([-1j * A - B, 1j * C - R.A0], axis=-1)
    uhat, vhat = lat.fft(u), lat.fft(ut)
    vt = np.zeros_like(vhat)
    if not model.constant_coefficients:
        def matvec(mats, vecs):
            return np.einsum("pij,pj->pi", mats, vecs)

        T = coefficient_tensors(model, u.real)
        rem = -matvec(T.A0 - R.A0, ut)
        for j in range(lat.d):
            u_x = lat.ifft(1j * xi[:, j : j + 1] * uhat)
            v_x = lat.ifft(1j * xi[:, j : j + 1] * vhat)
            rem += matvec(T.C[:, j] - R.C[j], v_x) - matvec(T.A[:, j] - R.A[j], u_x)
            for k in range(j, lat.d):
                Bjk = T.B[:, j, k] - R.B[j, k]
                if k > j:
                    Bjk = Bjk + T.B[:, k, j] - R.B[k, j]
                rem += matvec(Bjk, lat.ifft(-xi[:, j : j + 1] * xi[:, k : k + 1] * uhat))
        vt = lat.fft(rem)
    uv = np.concatenate([uhat[mask], vhat[mask]], axis=1)
    vt[mask] += np.matmul(rows, uv[:, :, None])[:, :, 0]
    vt[~mask] = 0.0
    vhat[~mask] = 0.0
    return lat.ifft(vhat), lat.ifft(vt)


def rk4_step_oracle(model, state, dt):
    """(u, u_t) after one classical RK4 step in physical space.

    The step before it moved to the half spectrum: every stage input and
    derivative is a complex lattice field, the split right-hand side goes
    through complex full-spectrum transforms (two forward and two inverse a
    stage, plus a state-dependent remainder's derivatives), and the new
    state is dealiased with the two-thirds mask at the end.
    """
    from hypdiss.model import ensure_normalized
    from hypdiss.simulator import two_thirds_mask

    model = ensure_normalized(model)
    lat = state.lattice

    def f(u, ut):
        return _split_rhs(model, lat, u, ut)

    def dealias(values):
        hat = lat.fft(values)
        hat[~two_thirds_mask(lat)] = 0.0
        return lat.ifft(hat)

    u, v = state.u.astype(complex), state.ut.astype(complex)
    k1u, k1v = f(u, v)
    k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = f(u + dt * k3u, v + dt * k3v)
    un = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return dealias(un), dealias(vn)


def unfolded_dissipation_values(model, states, lattice):
    """phi(xi) D(u, xi) + psi(xi) I for a state stack (S, n), with
    `_batched_lyapunov` run on every active frequency of the lattice: the
    dissipation values before the fold over {xi, -xi}."""
    from hypdiss.simulator import _batched_lyapunov, _phi, _psi
    from hypdiss.symbols import assemble_M_stack

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


def w_hat(model, state):
    """Full-spectrum Fourier coefficients (P, 2n) of W = <D>^s (<D>(u - ubar),
    u_t), s = SOBOLEV_INDEX, from two complex transforms of the samples: the
    reference for `simulator.w_spectrum`, which reads W from the dealiased
    half spectrum."""
    from hypdiss.simulator import SOBOLEV_INDEX

    lat = state.lattice
    br = lat.brackets()
    du_hat = lat.fft(state.u - model.reference_state[None, :])
    vt_hat = lat.fft(state.ut)
    top = (br ** (1.0 + SOBOLEV_INDEX))[:, None] * du_hat
    bot = (br**SOBOLEV_INDEX)[:, None] * vt_hat
    return np.concatenate([top, bot], axis=1)


def energy_form_oracle(model, u_phys, lattice, values):
    """<G_u W, W> for W given by its lattice values, with the full para-operator

        G_u = Op_chi[D-tilde(u, .)] + op[(1 - chi(0, xi)) D-tilde(ubar, xi)]:

    the (P, P) dissipation-symbol field (one symbol per distinct state; the
    reference symbol everywhere for a constant-coefficient model), smoothed
    and quantized with the phase matrix, plus the multiplier correction at
    the reference state.  This is the form before its split at ubar.
    """
    from hypdiss.model import ensure_normalized
    from hypdiss.paradiff import DiscreteSymbol, GridFunction, apply_op, cutoff_mask, smooth_symbol
    from hypdiss.simulator import CHI, _dissipation_values

    model = ensure_normalized(model)
    lat, P = lattice, lattice.points
    xi = lat.xi_vectors()
    ref = _dissipation_values(model, model.reference_state[None, :], xi)[0]
    if model.constant_coefficients:
        field = np.broadcast_to(ref, (P,) + ref.shape).copy()
    else:
        states, back = np.unique(np.round(u_phys.real, 12), axis=0, return_inverse=True)
        field = _dissipation_values(model, states, xi)[back.reshape(-1)]
    op = smooth_symbol(DiscreteSymbol(lat, field), cutoff_mask(lat, CHI))
    opw = apply_op(op, GridFunction(lat, values)).values
    val = float(np.real(np.sum(np.conj(values) * opw)) * lat.L_box**lat.d / P)
    mags = lat.xi_mags()
    corr = ref * (1.0 - CHI(np.zeros_like(mags), mags))[:, None, None]
    hat = lat.fft(values)
    Dw = np.einsum("qab,qb->qa", corr, hat)
    return val + float(np.real(np.sum(np.conj(hat) * Dw)) * lat.L_box**lat.d)


def _lyap_solve(M, rho):
    P = sla.solve_lyapunov(M.conj().T, -rho * np.eye(M.shape[0], dtype=complex))
    return 0.5 * (P + P.conj().T)


def _positive_cond(P, what):
    from hypdiss.errors import LyapunovSolveFailure

    w = np.linalg.eigvalsh(P)
    if w[0] <= 0.0 or not np.all(np.isfinite(w)):
        raise LyapunovSolveFailure(f"{what} not positive definite (lambda_min = {w[0]:.3e})")
    return float(w[-1] / w[0])


def _single_linkage(lam, thr):
    # union-find components of |li - lj| <= thr, ordered by their means, and
    # the smallest distance between two components
    lam = lam[np.lexsort((lam.imag, lam.real))]
    dist = np.abs(lam[:, None] - lam[None, :])
    parent = list(range(len(lam)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(dist <= thr, 1))):
        parent[find(i)] = find(j)
    labels = np.array([find(i) for i in range(len(lam))], dtype=int)
    apart = labels[:, None] != labels[None, :]
    gap = float(dist[apart].min()) if apart.any() else np.inf
    groups = [lam[labels == r] for r in dict.fromkeys(labels.tolist())]
    means = [g.mean() for g in groups]
    key = np.lexsort((np.imag(means), np.real(means)))
    return [groups[k] for k in key], gap


def _linkage_groups(lam, theta):
    # single-linkage groups, merged until inter-group gaps are >= 3*thr, and
    # thr: theta doubled until then
    thr = theta
    while True:
        groups, gap = _single_linkage(lam, thr)
        if gap >= 3.0 * thr:
            return groups, thr
        thr *= 2.0


def first_group_oracle(lam):
    """(mask, thr) of `conditions._first_group` one row of lam (T, m) at a
    time: the union-find linkage run again at each doubled threshold."""
    mask, thr = np.zeros(lam.shape, dtype=bool), np.empty(len(lam))
    for t, row in enumerate(lam):
        groups, thr[t] = _linkage_groups(row, 3.0 * np.min(-row.real))
        mask[t] = np.isin(row, groups[0])
    return mask, thr


def _balanced_adaptive(M, rho, P=None):
    # P, when given, is the direct solution of P M + M^* P = -rho I
    from hypdiss.conditions import BALANCE_COND_TARGET
    from hypdiss.errors import LyapunovSolveFailure

    if P is None:
        P = _lyap_solve(M, rho)
    top = float(np.max(np.linalg.eigvalsh(P)))
    if not np.isfinite(top) or top <= 0.0:
        raise LyapunovSolveFailure("Lyapunov block solve degenerate")
    P = P / top
    w = np.linalg.eigvalsh(P)
    if w[0] > 0.0 and w[-1] / w[0] <= BALANCE_COND_TARGET:
        return P
    lam = np.linalg.eigvals(M)
    theta = 3.0 * float(np.min(-lam.real))
    groups, _ = _linkage_groups(lam, theta)
    if len(groups) == 1:
        return P
    g = groups[0]
    rest = np.concatenate(groups[1:])

    def sel(x, _g=g, _r=rest):
        return bool(np.min(np.abs(x - _g)) < np.min(np.abs(x - _r)))

    T, Z, sdim = sla.schur(M, output="complex", sort=sel)
    if sdim != len(g):
        # grouping not realizable in this factorization; keep the direct solve
        return P
    T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
    # V = Z [[I, R], [0, I]] block-diagonalizes M: T11 R - R T22 = -T12
    R = sla.solve_sylvester(T11, -T22, -T12)
    W = np.eye(M.shape[0], dtype=complex)
    W[:sdim, sdim:] = R
    V = Z @ W
    P1 = _balanced_adaptive(T11, rho)
    P2 = _balanced_adaptive(T22, rho)
    Vinv = np.linalg.inv(V)
    Pb = Vinv.conj().T @ sla.block_diag(P1, P2) @ Vinv
    return 0.5 * (Pb + Pb.conj().T)


def uniform_oracle(model, omega_grid=None, xi_loggrid=None, config=None):
    """The UNIFORM certificate one grid point at a time.

    Per point, in direction-major order: the abscissa test, one scipy
    Lyapunov solve (Bartels-Stewart) for cond_raw, and the balanced
    certificate grown from it by sorted-Schur spectral splits.  Returns the
    report of `hypdiss.conditions._report`, as the library checker does.
    """
    from hypdiss.conditions import CheckConfig, _report, frequency_grid, rho_profile
    from hypdiss.errors import LyapunovSolveFailure
    from hypdiss.grids import direction_major_grid
    from hypdiss.model import ensure_normalized
    from hypdiss.symbols import assemble_M_stack, graded_eig

    config = CheckConfig() if config is None else config
    model = ensure_normalized(model)
    omegas, xis, _, _, _, spec = frequency_grid(model, omega_grid, xi_loggrid, config)
    ubar = model.reference_state
    c_abs = np.inf
    worst = -np.inf
    witness = {}
    per_point = []
    conds = np.zeros((len(xis), len(omegas)))
    conds_raw = np.zeros((len(xis), len(omegas)))
    Ms = assemble_M_stack(model, ubar, direction_major_grid(omegas, xis)[0])
    alphas = graded_eig(Ms, vectors=False).real.max(axis=1)
    for i, om in enumerate(omegas):
        for k, x in enumerate(xis):
            q = i * len(xis) + k
            M, alpha = Ms[q], float(alphas[q])
            r = float(rho_profile(x))
            if alpha >= 0.0:
                raise LyapunovSolveFailure(
                    f"spectral abscissa {alpha:.3e} >= 0 at xi={x:g}, omega index {i}"
                )
            c_pt = -alpha / r
            c_abs = min(c_abs, c_pt)
            P = _lyap_solve(M, r)
            conds_raw[k, i] = _positive_cond(P, "Lyapunov solution")
            conds[k, i] = _positive_cond(_balanced_adaptive(M, r, P), "balanced certificate")
            mg = -c_pt
            per_point.append((float(x), i, mg))
            if mg > worst:
                worst, witness = mg, {"u": ubar.tolist(), "omega": om.tolist(), "xi": float(x)}

    cond_by_xi = conds.max(axis=1)
    cond_max = float(cond_by_xi.max())
    ok_cond = cond_max <= config.cond_ceiling
    margin = worst if ok_cond else cond_max / config.cond_ceiling
    return _report(
        "UNIFORM", margin, witness, spec, config, c_bar=float(c_abs),
        trace={
            "c_abs": float(c_abs),
            "cond_max": cond_max,
            "cond_by_xi": cond_by_xi.tolist(),
            "cond_raw_by_xi": conds_raw.max(axis=1).tolist(),
        },
        per_point=per_point,
    )


def _cluster_eigenvalues(lam, thr):
    groups, gap = _single_linkage(lam, thr)
    if gap < 10.0 * thr:
        from hypdiss.errors import ClusterAmbiguity

        raise ClusterAmbiguity(
            f"clusters separated by {gap:.3e} < 10 x tolerance "
            f"{thr:.3e}; refine cluster_tolerance"
        )
    return groups


#: One matrix's clustered spectrum: its spectral radius and its clusters in
#: linkage order, each with its mean value, its eigenvalues, its multiplicity,
#: an orthonormal basis of its invariant subspace and its semi-simplicity.
OracleSpectrum = namedtuple("OracleSpectrum", "radius clusters")
OracleCluster = namedtuple("OracleCluster", "value values mult basis semi_simple")


def cluster_bases(st, p=0):
    """The orthonormal bases of point p's clusters in a library SpectralStack."""
    cs = np.flatnonzero(st.point == p)
    start = np.cumsum(st.mult[cs]) - st.mult[cs]
    return [st.basis[p][:, j:j + k] for j, k in zip(start.tolist(), st.mult[cs].tolist())]


def _max_imag(es):
    return max(float(np.max(np.abs(c.values.imag))) for c in es.clusters)


def eigstructure_oracle(matrix, cluster_tolerance=1e-7):
    """One matrix's OracleSpectrum with bases from sorted Schur forms.

    Eigenvalues closer than cluster_tolerance * (1 + spectral radius) are
    merged (union-find linkage); semi-simplicity is decided by the numerical
    kernel dimension of K - center I.
    """
    from hypdiss.errors import ClusterAmbiguity

    K = np.asarray(matrix, dtype=complex)
    m = K.shape[0]
    lam = np.linalg.eigvals(K)
    radius = float(np.max(np.abs(lam))) if m else 0.0
    thr = cluster_tolerance * (1.0 + radius)
    clusters = []
    for vals in _cluster_eigenvalues(lam, thr):
        mult = len(vals)
        center = complex(vals.mean())
        if mult == m:
            basis = np.eye(m, dtype=complex)
        else:
            def select(x, _c=center, _t=thr):
                return bool(abs(x - _c) <= max(5.0 * _t, 1e-300))

            _, Z, sdim = sla.schur(K, output="complex", sort=select)
            if sdim != mult:
                raise ClusterAmbiguity(
                    f"Schur reordering selected {sdim} eigenvalues for a cluster of size {mult}"
                )
            basis = Z[:, :sdim]
        sv = np.linalg.svd(K - center * np.eye(m), compute_uv=False)
        geo = int(np.sum(sv <= thr))
        clusters.append(OracleCluster(center, vals, mult, basis, geo == mult))
    return OracleSpectrum(radius, clusters)


def symmetrizer_oracle(K, cluster_tolerance=1e-7, structural_tol=1e-8):
    """(S, spectrum): S = V^{-*} V^{-1} with V the unit-norm eigenvectors of
    each cluster's compression to its Schur basis, and the OracleSpectrum of
    K; NotSymmetrizable as the library raises it."""
    from hypdiss.errors import NotSymmetrizable

    K = np.asarray(K, dtype=complex)
    es = eigstructure_oracle(K, cluster_tolerance)
    if _max_imag(es) > structural_tol * (1.0 + es.radius):
        raise NotSymmetrizable(f"spectrum not real: max |Im| = {_max_imag(es):.3e}")
    if not all(c.semi_simple for c in es.clusters):
        raise NotSymmetrizable("spectrum defective beyond tolerance")
    blocks = []
    for c in es.clusters:
        Q = c.basis
        if c.mult == 1:
            blocks.append(Q)
            continue
        _, Vc = np.linalg.eig(Q.conj().T @ K @ Q)
        blocks.append(Q @ (Vc / np.linalg.norm(Vc, axis=0, keepdims=True)))
    Vinv = np.linalg.inv(np.concatenate(blocks, axis=1))
    S = Vinv.conj().T @ Vinv
    S = 0.5 * (S + S.conj().T)
    herm_defect = np.linalg.norm(S @ K - (S @ K).conj().T, 2)
    bound = 1e-8 * np.linalg.norm(S, 2) * max(np.linalg.norm(K, 2), 1e-300)
    if herm_defect > bound:
        raise NotSymmetrizable(f"symmetrizer residual {herm_defect:.3e} exceeds contract {bound:.3e}")
    return S, es


def _multiplicities(es):
    return sorted(c.mult for c in es.clusters)


def _structural_score_oracle(es, ref_multiset, structural_tol):
    s = _max_imag(es) / (1.0 + es.radius)
    if not all(c.semi_simple for c in es.clusters):
        s += 1.0
    if ref_multiset is not None and _multiplicities(es) != ref_multiset:
        s += 1.0
    return s - structural_tol


def _eigenspace_margin_oracle(W, sym):
    S, es = sym
    W1 = S @ W
    Wsym = W1 + W1.conj().T
    return max(float(np.max(np.linalg.eigvalsh(c.basis.conj().T @ Wsym @ c.basis)))
               for c in es.clusters)


def structural_oracle(model, config=None):
    """HA (with part (a)), HB, D1 and D2 margins one state and direction at a
    time with the oracle eigenstructure and symmetrizer.

    Returns {"HA": (margin, part_a, per_point), "HB": (margin, per_point),
    "D1": per-direction margins or None, "D2": likewise}; D1/D2 are None
    where a reference-state symmetrizer is missing.
    """
    from hypdiss.conditions import CheckConfig
    from hypdiss.errors import NotSymmetrizable
    from hypdiss.grids import unit_directions
    from hypdiss.model import ensure_normalized
    from hypdiss.symbols import assemble_calA_stack, assemble_calB_stack, directional_stack

    config = config or CheckConfig()
    model = ensure_normalized(model)
    omegas, _ = unit_directions(model.d, config.directions_2d)
    us = model.state_samples()
    tol, stol = config.cluster_tolerance, config.structural_tol
    ubar = model.reference_state

    part_a = []
    for u in us:
        A0 = np.asarray(model.A(0, u), dtype=float)
        try:
            S, _ = symmetrizer_oracle(A0, tol, stol)
            h = 0.5 * (S @ A0 + (S @ A0).conj().T)
            mg = -float(np.min(np.linalg.eigvalsh(h))) / max(np.linalg.norm(h, 2), 1e-300)
        except NotSymmetrizable:
            mg = max(_structural_score_oracle(eigstructure_oracle(A0, tol), None, 0.0), 2 * stol)
        part_a.append(mg)

    def w0(u, om):
        return np.linalg.solve(np.asarray(model.A(0, u), dtype=float),
                               directional_stack(model, u, om)[1][0])

    def d1_form(om):
        _, (A_dir,), (B_dir,), (C_dir,) = directional_stack(model, ubar, om)
        A0inv = np.linalg.inv(np.asarray(model.A(0, ubar), dtype=float))
        W0A = A0inv @ A_dir
        return A0inv @ (-B_dir + W0A @ W0A + C_dir @ W0A)

    out = {}
    for name, symbol, form in (
        ("HA", w0, d1_form),
        ("HB", lambda u, om: 1j * assemble_calB_stack(model, u, om[None])[0],
         lambda om: assemble_calA_stack(model, ubar, om[None])[0]),
    ):
        per_point, ref_multiset, syms = [], None, []
        for om in omegas:
            for u in us:
                es = eigstructure_oracle(symbol(u, om), tol)
                if ref_multiset is None:
                    ref_multiset = _multiplicities(es)
                per_point.append(_structural_score_oracle(es, ref_multiset, stol))
            try:
                syms.append(symmetrizer_oracle(symbol(ubar, om), tol, stol))
            except NotSymmetrizable:
                syms.append(None)
        margins = None
        if all(s is not None for s in syms):
            margins = [_eigenspace_margin_oracle(form(om), s) for om, s in zip(omegas, syms)]
        out[name] = (max(per_point), per_point)
        out["D1" if name == "HA" else "D2"] = margins
    out["HA"] = (max(max(part_a), out["HA"][0]), part_a, out["HA"][1])
    return out
