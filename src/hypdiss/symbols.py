"""Fourier-symbol matrices of the first-order reduction and the dispersion relation.

For a model with B^{00} = -I the first-order system in U = (u, u_t) has the
2n x 2n mode matrix

    Mbar(u, xi) = [[0, I], [-iA(u,xi) - B(u,xi), iC(u,xi) - A^0(u)]],

whose eigenvalues are exactly the dispersion roots, i.e. the solutions of
det(lambda^2 I + lambda (A^0 - iC) + B + iA) = 0.  M(u, xi) is the
similarity-transformed symbol Z Mbar Z^{-1} with Z = diag(<xi> I, I); calB
and calA are the high-frequency principal and first-order correction symbols
over unit directions.

All symbols come from one assembly: the coefficient tensors (A^0, A^j,
C^j = B^{0j} + B^{j0}, B^{jk}) are evaluated once per state and contracted
with a frequency stack xi of shape (Q, d) into (Q, 2n, 2n) symbol stacks
(`assemble_calB_stack`, `assemble_calA_stack`, `assemble_M_stack`,
`assemble_Mbar_stack`); `assemble_Mbar`, `assemble_M` and `dispersion_roots`
are Q = 1 calls of the same contraction.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EigensolverFailure, InvalidParameter
from .grids import check_unit
from .model import ensure_normalized, evaluate_stack

#: Eigenvector condition number from which an `Eigenbasis` does not trust a
#: point (`eigenbasis_trusted`, in the Frobenius norm): `decay` propagates
#: such a mode with `expm_stack` (`Eigenbasis.propagate`), and UNIFORM's
#: Lyapunov solves and splits take such a point through `sign_stack`.
#: HA/HB read no eigenvectors: their cluster bases are SVD kernels.
DEFECT_COND_LIMIT = 1e8


class CoefficientTensors(NamedTuple):
    """Coefficients at one state, or at a stack of states (leading axes ...).

    A0 (..., n, n) is A^0; A (..., d, n, n) holds A^1 .. A^d; C (..., d, n, n)
    holds B^{0j} + B^{j0}; B (..., d, d, n, n) holds B^{jk}, j, k = 1..d.
    """

    A0: np.ndarray
    A: np.ndarray
    C: np.ndarray
    B: np.ndarray


def coefficient_tensors(model, u):
    """Evaluate the coefficient tensors at a state u of shape (n,), or at a
    state stack of shape (..., n) with one evaluator call per coefficient
    index; the result has the same leading axes."""
    u = np.asarray(u, dtype=float)
    n, d = model.n, model.d
    lead = u.shape[:-1]
    A0 = np.empty(lead + (n, n))
    A = np.empty(lead + (d, n, n))
    C = np.empty(lead + (d, n, n))
    B = np.empty(lead + (d, d, n, n))
    A0[...] = evaluate_stack(model, "A", 0, u=u)
    for j in range(1, d + 1):
        A[..., j - 1, :, :] = evaluate_stack(model, "A", j, u=u)
        C[..., j - 1, :, :] = (evaluate_stack(model, "B", 0, j, u=u)
                               + evaluate_stack(model, "B", j, 0, u=u))
        for k in range(1, d + 1):
            B[..., j - 1, k - 1, :, :] = evaluate_stack(model, "B", j, k, u=u)
    return CoefficientTensors(A0, A, C, B)


def frequency_stack(xi, d):
    """xi as a float stack (Q, d); a stack whose frequencies do not have d
    components raises InvalidParameter."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != d:
        raise InvalidParameter(f"frequency stack of shape {xi.shape} for a model with d = {d}; "
                               f"expected (Q, {d})")
    return xi


def frequency_polynomials(tensors, xi):
    """A(u, xi), B(u, xi), C(u, xi) for a frequency stack xi of shape (Q, d).

    Homogeneous of degrees 1, 2, 1 in xi; each has shape (..., Q, n, n) with
    the leading state axes of the tensors.  At unit xi these are the
    directional symbols A_dir, B_dir, C_dir.  A stack whose frequencies do
    not have the model's d components raises InvalidParameter.
    """
    xi = frequency_stack(xi, tensors.A.shape[-3])
    A = np.einsum("qj,...jab->...qab", xi, tensors.A)
    C = np.einsum("qj,...jab->...qab", xi, tensors.C)
    B = np.einsum("qjk,...jkab->...qab", xi[:, :, None] * xi[:, None, :], tensors.B)
    return A, B, C


def _first_order(top, lower_left, lower_right):
    # [[0, top I], [lower_left, lower_right]] over the leading axes; top is a
    # scalar or an array over the frequency axis
    n = lower_left.shape[-1]
    shape = np.broadcast_shapes(lower_left.shape, lower_right.shape)[:-2]
    out = np.zeros(shape + (2 * n, 2 * n), dtype=complex)
    out[..., :n, n:] = np.asarray(top)[..., None, None] * np.eye(n)
    out[..., n:, :n] = lower_left
    out[..., n:, n:] = lower_right
    return out


def directional_stack(model, u, omegas):
    """(A^0, A_dir, B_dir, C_dir) at a state u (n,) or a state stack (..., n)
    and a stack of unit directions omegas (Q, d): A^0 has the state axes,
    the directional symbols (..., Q, n, n)."""
    T = coefficient_tensors(model, u)
    A, B, C = frequency_polynomials(T, np.atleast_2d(check_unit(omegas)))
    return T.A0, A, B, C


def assemble_calB_stack(model, u, omegas):
    """Principal symbols calB = [[0, I], [-B_dir, i C_dir]] of the B^{00}-normalized
    model over unit directions omegas (Q, d): (..., Q, 2n, 2n) with the state
    axes of u, from one coefficient evaluation."""
    _, _, B, C = directional_stack(ensure_normalized(model), u, omegas)
    return _first_order(1.0, -B, 1j * C)


def assemble_calA_stack(model, u, omegas):
    """Correction symbols calA = [[0, 0], [-i A_dir, -A^0]] over unit directions
    omegas (Q, d), shaped as in `assemble_calB_stack`."""
    A0, A, _, _ = directional_stack(ensure_normalized(model), u, omegas)
    return _first_order(0.0, -1j * A, -A0[..., None, :, :])


def assemble_Mbar_stack(model, u, xi):
    """Mode matrices Mbar(u, xi) for a frequency stack xi of shape (Q, d).

    Returns (Q, 2n, 2n), or (..., Q, 2n, 2n) for a state stack u of shape
    (..., n); xi = 0 is allowed.
    """
    T = coefficient_tensors(ensure_normalized(model), u)
    A, B, C = frequency_polynomials(T, xi)
    return _first_order(1.0, -1j * A - B, 1j * C - T.A0[..., None, :, :])


def assemble_M_stack(model, u, xi):
    """Weighted symbols M = Z Mbar Z^{-1}, Z = diag(<xi> I, I), for a frequency
    stack xi of shape (Q, d); shapes as in `assemble_Mbar_stack`.

    Computed blockwise: top-right <xi> I, bottom-left (-iA - B)/<xi>,
    bottom-right unchanged.
    """
    xi = np.asarray(xi, dtype=float)
    T = coefficient_tensors(ensure_normalized(model), u)
    A, B, C = frequency_polynomials(T, xi)
    br = np.sqrt(1.0 + np.sum(xi * xi, axis=1))
    return _first_order(br, (-1j * A - B) / br[:, None, None], 1j * C - T.A0[..., None, :, :])


def _phase_parities(X):
    """Parities p (m,) in {0, 1} with diag(i^p) X diag(i^p)^{-1} real at every
    point of the stack X (..., m, m), or None.

    An entry with a nonzero imaginary part at any point is odd (it links two
    indices of unequal phase), one with a nonzero real part is even (equal
    phase).  None when no entry is odd (X is already real) or the links
    admit no such parities: an entry that is both, an odd diagonal entry,
    an odd cycle.  Each connected component's lowest index has parity 0.
    """
    lead = tuple(range(X.ndim - 2))
    odd, even = np.any(X.imag != 0, axis=lead), np.any(X.real != 0, axis=lead)
    odd, even = odd | odd.T, even | even.T
    if not odd.any():
        return None
    linked = odd | even
    p = np.full(len(odd), -1)
    for root in range(len(p)):
        if p[root] >= 0:
            continue
        p[root], todo = 0, [root]
        while todo:
            i = todo.pop()
            for j in np.flatnonzero(linked[i] & (p < 0)):
                p[j] = p[i] ^ odd[i, j]
                todo.append(j)
    differ = p[:, None] != p[None, :]
    if np.any(odd & ~differ) or np.any(even & differ):
        return None
    return p


def graded_eig(X, vectors=True):
    """(w, V) of `numpy.linalg.eig` over a stack X (..., m, m), or w alone
    (`eigvals`) without vectors, from the real eigensolver where a diagonal
    phase similarity D = diag(i^p) makes the stack real (`_phase_parities`).

    Xr = D X D^{-1} only multiplies entries by +-1 and +-i, so it is exact.
    A point whose first nonzero odd entry of Xr is negative takes conj(D)
    instead, and -0.0 is cleared: X and conj X, the symbols at xi and -xi of
    a real-coefficient model, grade to the same real matrix bit for bit.
    w is complex and V = D^{-1} Vr (D Vr at the points that took conj(D)).
    A stack that cannot be graded, or is already real, returns eig's or
    eigvals' own arrays.
    """
    p = _phase_parities(X)
    if p is None:
        return np.linalg.eig(X) if vectors else np.linalg.eigvals(X)
    odd = p[:, None] != p[None, :]
    Xr = np.where(odd, (p[None, :] - p[:, None]) * X.imag, X.real)
    firsts = Xr[..., odd]
    first = np.take_along_axis(firsts, np.argmax(firsts != 0, axis=-1)[..., None], axis=-1)
    flip = first < 0
    Xr = np.where(flip[..., None] & odd, -Xr, Xr) + 0.0
    if not vectors:
        return np.linalg.eigvals(Xr).astype(complex, copy=False)
    w, Vr = np.linalg.eig(Xr)
    phase = np.where(p == 1, np.where(flip, 1j, -1j), 1.0)
    return w.astype(complex, copy=False), phase[..., :, None] * Vr


def eigenbasis_trusted(V, Vinv):
    """(...,) True where an eigenbasis V (..., m, m) with inverse Vinv is
    trusted: kappa_F(V) = ||V||_F ||Vinv||_F below DEFECT_COND_LIMIT (read at
    call time).  kappa_F >= cond_2(V), so the rule flags at least the points
    that cond_2 would; an overflowing or NaN kappa is not trusted."""
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(Vinv, axis=(-2, -1))
    return kappa < DEFECT_COND_LIMIT


def eigenbasis_inverse(V):
    """(Vinv, trusted) for a stack of eigenvector matrices V (..., m, m).

    One stacked inv runs first.  Only if it fails are the exactly singular
    V (det = 0, from the same LU: a pivot is exactly zero) screened out and
    the inv run again on the rest; a point is trusted by
    `eigenbasis_trusted`.  Vinv is inv(V) where trusted and the identity
    elsewhere.  A failing second inv raises LinAlgError.
    """
    eye = np.eye(V.shape[-1])
    try:
        Vinv, singular = np.linalg.inv(V), np.zeros(V.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(V) == 0.0
        Vinv = np.linalg.inv(np.where(singular[..., None, None], eye, V))
    trusted = ~singular & eigenbasis_trusted(V, Vinv)
    Vinv[~trusted] = eye
    return Vinv, trusted


def sign_stack(A, Q=None):
    """(S, W): matrix signs of a stack A (P, m, m) by the Newton iteration
    A <- (c A + A^{-1}/c)/2, c = |det A|^{-1/m} (Roberts 1980; Kenney and Laub
    1995), and the limit W (None without Q) of the coupled Q <- (c Q +
    A^{-1} Q A^{-*}/c)/2: 2X with A X + X A^* = -Q for a stable A.  A point
    stops at a relative step ||A_new - A||_F / ||A_new||_F of 1e-14 or when
    its step stops halving below 1e-8; one that meets a singular matrix or
    runs 100 steps raises EigensolverFailure with its ``index``."""
    S, W = np.array(A, dtype=complex), None if Q is None else np.array(Q, dtype=complex)
    live, prev = np.arange(len(S)), np.full(len(S), np.inf)
    for _ in range(100):
        sign, logdet = np.linalg.slogdet(S[live])
        if np.any(sign == 0):
            raise EigensolverFailure("sign iteration met a singular matrix",
                                     index=int(live[np.argmax(sign == 0)]))
        c, inv = np.exp(-logdet / S.shape[-1])[:, None, None], np.linalg.inv(S[live])
        new = 0.5 * (c * S[live] + inv / c)
        step = np.linalg.norm(new - S[live], axis=(1, 2)) / np.linalg.norm(new, axis=(1, 2))
        S[live] = new
        if W is not None:
            W[live] = 0.5 * (c * W[live] + inv @ W[live] @ inv.conj().swapaxes(1, 2) / c)
        done = (step <= 1e-14) | ((prev[live] <= 1e-8) & (step > 0.5 * prev[live]))
        prev[live] = step
        live = live[~done]
        if not live.size:
            return S, W
    raise EigensolverFailure("sign iteration did not converge in 100 steps", index=int(live[0]))


def expm_stack(A):
    """exp(A) over a stack A (P, m, m): each point is scaled by its own 2^-s
    to a 1-norm below 1, and its degree-18 Taylor polynomial there (Horner's
    rule) is squared s times."""
    s = np.maximum(np.frexp(np.abs(A).sum(axis=1).max(axis=1))[1], 0)
    X, eye = A * (0.5 ** s)[:, None, None], np.eye(A.shape[-1])
    E = eye + X / 18
    for k in range(17, 0, -1):
        E = eye + X @ E / k
    for j in range(s.max(initial=0)):
        E[s > j] = E[s > j] @ E[s > j]
    return E


def _first_failure(fn, A):
    """Index of the first point of a stack A on which fn raises LinAlgError (else 0)."""
    for q in range(len(A)):
        try:
            fn(A[q:q + 1])
        except np.linalg.LinAlgError:
            return q
    return 0


def _stacked(fn, A, pts, what, error=EigensolverFailure, of="points"):
    """fn(A) over a stack of points (`of` names them); a LinAlgError raises
    error whose ``index`` is the first point it fails on, as its entry of
    pts (its row in A if None)."""
    try:
        return fn(A)
    except np.linalg.LinAlgError as e:
        q = _first_failure(fn, A)
        raise error(f"stacked {what} failed on {len(A)} {of}: {e}", index=int(q if pts is None else pts[q])) from e


class Eigenbasis(NamedTuple):
    """Eigendecompositions M = V diag(w) Vinv over a symbol stack (T, m, m),
    trusted where ok; scale (T,) is the Frobenius norm of the matrices they
    were computed on, which sets their absolute error.  `eigenbasis` builds
    one, trusted by `eigenbasis_inverse`, whose Vinv is the identity outside
    ok."""

    w: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    ok: np.ndarray
    scale: np.ndarray

    def take(self, rows):
        return Eigenbasis(*(x[rows] for x in self))

    def project(self, coeff):
        """Modal coordinates Vinv coeff (T, m) of coefficients coeff (T, m):
        coeff itself at the points outside ok."""
        return (self.Vinv @ coeff[:, :, None])[:, :, 0]

    def propagate(self, M, modal, dt):
        """exp(dt M) coeff (T, m) from the modal coordinates `project` formed
        of coeff: V (e^{dt w} * modal), and `expm_stack` of the symbols M at
        the points outside ok."""
        out = (self.V @ (np.exp(dt * self.w) * modal)[:, :, None])[:, :, 0]
        if not self.ok.all():
            out[~self.ok] = np.einsum("qij,qj->qi", expm_stack(dt * M[~self.ok]), modal[~self.ok])
        return out


def eigenbasis(M, pts=None):
    """The `Eigenbasis` of a symbol stack M (T, m, m): one `graded_eig`, the
    inverse and trust mask of `eigenbasis_inverse`, and the Frobenius norms.
    A stack that eig or inv refuses (non-finite entries) raises
    EigensolverFailure whose ``index`` is the first failing point, as its
    entry of pts (its row in M if None)."""
    w, V = _stacked(graded_eig, M, pts, "eig", of="frequencies")
    Vinv, ok = _stacked(eigenbasis_inverse, V, pts, "inv", of="frequencies")
    return Eigenbasis(w, V, Vinv, ok, np.linalg.norm(M, axis=(1, 2)))


def _one(xi_vec):
    return np.asarray(xi_vec, dtype=float).reshape(1, -1)


def assemble_Mbar(model, u, xi_vec):
    """Mode matrix of the first-order reduction at frequency xi (xi = 0 allowed)."""
    return assemble_Mbar_stack(model, u, _one(xi_vec))[0]


def assemble_M(model, u, xi_vec):
    """Weighted symbol M = Z Mbar Z^{-1} at one frequency xi."""
    return assemble_M_stack(model, u, _one(xi_vec))[0]


@dataclass(frozen=True)
class DispersionRoots:
    """The 2n plane-wave growth rates at a single frequency."""

    xi_vec: np.ndarray
    roots: np.ndarray
    max_real_part: float


def sorted_roots(roots):
    """Canonical order along the last axis (the columns of `dispersion`): by
    real part, where neighbours within 1e-9 (1 + max |root|) in real part
    chain into one group, ordered by imaginary part."""
    roots = np.sort(np.asarray(roots), axis=-1)
    tol = 1e-9 * (1.0 + np.max(np.abs(roots), axis=-1, keepdims=True))
    group = np.cumsum(np.diff(roots.real, axis=-1, prepend=roots.real[..., :1]) > tol, axis=-1)
    order = np.lexsort((roots.imag, group), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def dispersion_root_stack(model, u, xi):
    """Dispersion roots at every frequency of a stack xi (Q, d): (Q, 2n), the
    eigenvalues of the stacked Mbar; an eigvals failure names its first
    failing frequency."""
    return _stacked(lambda X: graded_eig(X, vectors=False), assemble_Mbar_stack(model, u, xi),
                    None, "eigvals", of="frequencies")


def dispersion_roots(model, u, xi_vec):
    """Solve the dispersion relation at xi via the eigenvalues of Mbar."""
    roots = dispersion_root_stack(model, u, _one(xi_vec))[0]
    return DispersionRoots(
        xi_vec=np.asarray(xi_vec, dtype=float),
        roots=roots,
        max_real_part=float(np.max(roots.real)),
    )
