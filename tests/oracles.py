"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: dispersion
roots come from determinant interpolation (or the scalar quadratic formula),
spectra are compared as multisets via optimal assignment.
"""

import numpy as np
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


def random_stable_model(rng, n=2, d=2):
    """A random constant-coefficient model with symmetric positive B-part.

    Not necessarily dissipative; used only for spectrum/oracle agreement.
    """
    from hypdiss.model import model_from_dict

    def spd():
        m = rng.normal(size=(n, n))
        return m @ m.T + n * np.eye(n)

    doc = {"n": n, "d": d, "reference_state": [0.0] * n, "label": "random"}
    A = {"0": spd().tolist()}
    for j in range(1, d + 1):
        s = rng.normal(size=(n, n))
        A[str(j)] = (0.5 * (s + s.T)).tolist()
    B = {"0,0": (-np.eye(n)).tolist()}
    for j in range(1, d + 1):
        B[f"{j},{j}"] = spd().tolist()
        B[f"0,{j}"] = (0.3 * rng.normal(size=(n, n))).tolist()
        B[f"{j},0"] = (0.3 * rng.normal(size=(n, n))).tolist()
    doc["A"] = A
    doc["B"] = B
    return model_from_dict(doc)


def physical_rhs_oracle(model, state):
    """(u_t, v_t) of the first-order system with every product in physical space.

    The right-hand side before its spectral split: all d first derivatives of
    u and of u_t and all d^2 second derivatives of u by spectral
    differentiation, every coefficient evaluated at every grid point, the
    products summed pointwise and both outputs dealiased with the state's
    mask.
    """
    from hypdiss.model import ensure_normalized

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
        hat[~state.dealias_mask] = 0.0
        return lat.ifft(hat)

    return dealias(state.ut), dealias(vt)
