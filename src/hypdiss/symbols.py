"""Fourier-symbol matrices of the first-order reduction and the dispersion relation.

For a model with B^{00} = -I the first-order system in U = (u, u_t) has the
2n x 2n mode matrix

    Mbar(u, xi) = [[0, I], [-iA(u,xi) - B(u,xi), iC(u,xi) - A^0(u)]],

whose eigenvalues are exactly the dispersion roots, i.e. the solutions of
det(lambda^2 I + lambda (A^0 - iC) + B + iA) = 0.  M(u, xi) is the
similarity-transformed symbol Z Mbar Z^{-1} with Z = diag(<xi> I, I); the
interpolation family K(u, eta, omega) connects the high-frequency principal
symbol calB (at eta = 0) with M (at eta = 1/|xi|).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure
from .grids import check_unit


def xi_bracket(xi_vec):
    """Japanese bracket <xi> = (1 + |xi|^2)^{1/2}."""
    xi_vec = np.asarray(xi_vec, dtype=float)
    return float(np.sqrt(1.0 + np.dot(xi_vec, xi_vec)))


def assemble_directional(model, u, omega):
    """Directional symbols at |xi| = 1.

    A_dir = sum_j A^j(u) w_j, B_dir = sum_jk B^{jk}(u) w_j w_k (space
    indices only), C_dir = sum_j (B^{0j}(u) + B^{j0}(u)) w_j.
    """
    om = check_unit(omega)
    return _assemble_poly(model, u, om)


def _assemble_poly(model, u, xi_vec):
    # frequency polynomials A(u, xi), B(u, xi), C(u, xi); homogeneous of
    # degrees 1, 2, 1
    n, d = model.n, model.d
    xi_vec = np.asarray(xi_vec, dtype=float)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    for j in range(1, d + 1):
        xj = xi_vec[j - 1]
        if xj != 0.0:
            A += xj * model.A(j, u)
            C += xj * (model.B(0, j, u) + model.B(j, 0, u))
        for k in range(1, d + 1):
            xjk = xj * xi_vec[k - 1]
            if xjk != 0.0:
                B += xjk * model.B(j, k, u)
    return A, B, C


def _normalized(model):
    # the 2n x 2n symbols below presume B^{00} = -I
    from .model import ensure_normalized

    return ensure_normalized(model)


def assemble_calB(model, u, omega):
    """Principal high-frequency symbol calB = [[0, I], [-B_dir, i C_dir]].

    calB is homogeneous of degree 0 in xi after the |xi| weightings, so the
    |xi| = 1 slice is canonical.  The model is normalized to B^{00} = -I
    first; the directional symbols entering calB are the normalized ones.
    """
    model = _normalized(model)
    A_dir, B_dir, C_dir = assemble_directional(model, u, omega)
    n = model.n
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -B_dir
    out[n:, n:] = 1j * C_dir
    return out


def assemble_calA(model, u, omega):
    """First-order correction symbol calA = [[0, 0], [-i A_dir, -A^0]]."""
    model = _normalized(model)
    A_dir, _, _ = assemble_directional(model, u, omega)
    n = model.n
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[n:, :n] = -1j * A_dir
    out[n:, n:] = -np.asarray(model.A(0, u), dtype=float)
    return out


def assemble_Mbar(model, u, xi_vec):
    """Mode matrix of the first-order reduction at frequency xi (xi = 0 allowed)."""
    model = _normalized(model)
    A, B, C = _assemble_poly(model, u, xi_vec)
    n = model.n
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -1j * A - B
    out[n:, n:] = 1j * C - np.asarray(model.A(0, u), dtype=float)
    return out


def assemble_M(model, u, xi_vec):
    """Weighted symbol M = Z Mbar Z^{-1}, Z = diag(<xi> I, I).

    Computed blockwise: top-right <xi> I, bottom-left (-iA - B)/<xi>,
    bottom-right unchanged.
    """
    model = _normalized(model)
    A, B, C = _assemble_poly(model, u, xi_vec)
    n = model.n
    br = xi_bracket(xi_vec)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = br * np.eye(n)
    out[n:, :n] = (-1j * A - B) / br
    out[n:, n:] = 1j * C - np.asarray(model.A(0, u), dtype=float)
    return out


def assemble_K(model, u, eta, omega):
    """Interpolation family K(u, eta, omega) for eta >= 0.

    K = [[0, I], [-i eta A_dir - B_dir, i C_dir - eta A^0]].  At eta = 0 it
    equals calB(u, omega); its eta-derivative there is calA(u, omega); and
    |xi| K(u, 1/|xi|, omega) = Ztilde^{-1} M(u, xi) Ztilde with
    Ztilde = diag((<xi>/|xi|) I, I).
    """
    model = _normalized(model)
    A_dir, B_dir, C_dir = assemble_directional(model, u, omega)
    n = model.n
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -1j * eta * A_dir - B_dir
    out[n:, n:] = 1j * C_dir - eta * np.asarray(model.A(0, u), dtype=float)
    return out


def weight_z(xi_vec, n):
    """Z(xi) = diag(<xi> I_n, I_n)."""
    br = xi_bracket(xi_vec)
    return np.diag(np.concatenate([np.full(n, br), np.ones(n)]))


def weight_ztilde(xi_mag, n):
    """Ztilde(|xi|) = diag((<xi>/|xi|) I_n, I_n), |xi| > 0."""
    br = np.sqrt(1.0 + xi_mag**2)
    return np.diag(np.concatenate([np.full(n, br / xi_mag), np.ones(n)]))


@dataclass(frozen=True)
class DispersionRoots:
    """The 2n plane-wave growth rates at a single frequency."""

    xi_vec: np.ndarray
    roots: np.ndarray
    max_real_part: float


def sorted_roots(roots):
    """Canonical (real, imag) lexicographic order, used only for comparisons."""
    roots = np.asarray(roots)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def dispersion_roots(model, u, xi_vec):
    """Solve the dispersion relation at xi via the eigenvalues of Mbar."""
    mbar = assemble_Mbar(model, u, xi_vec)
    try:
        roots = np.linalg.eigvals(mbar)
    except np.linalg.LinAlgError as e:
        raise EigensolverFailure(f"eigvals failed at xi={xi_vec}: {e}") from e
    return DispersionRoots(
        xi_vec=np.asarray(xi_vec, dtype=float),
        roots=roots,
        max_real_part=float(np.max(roots.real)),
    )
