"""Numerical checkers for the hyperbolicity and dissipativity conditions.

Six conditions are certified on sampled grids:

* HA: A^0(u) admits a positive symmetric symmetrizer, and
  (A^0)^{-1} A(u, omega) has real semi-simple spectrum with constant
  multiplicities (constant hyperbolicity of the first-order part).
* HB: i calB(u, omega) has real semi-simple spectrum with constant
  multiplicities (constant hyperbolicity of the second-order part).
* D1: low-frequency eigenspace dissipativity, the quadratic form of
  W1 = H (A^0)^{-1}(-B + (A^0)^{-1}A (A^0)^{-1}A + C (A^0)^{-1}A)
  restricted to eigenspaces of W0 = (A^0)^{-1}A is uniformly negative.
* D2: high-frequency eigenspace dissipativity, the form of calH calA
  restricted to eigenspaces of calB is uniformly negative.
* D3: strict spectral stability, all dispersion roots (the eigenvalues of
  M(ubar, xi)) have Re < 0 for xi != 0.
* UNIFORM: all Fourier modes decay at least like exp(-c rho(xi) t) with
  rho(xi) = |xi|^2 / (1 + |xi|^2); certified both through the spectral
  abscissa and through a per-frequency Lyapunov equation.

Margins follow one convention: pass <=> margin < -floor at every grid
point.  For the definiteness conditions (D1, D2) the margin is the largest
eigenvalue of the tested quadratic form; for D3 and UNIFORM's abscissa the
decay margin max Re lambda(xi) / rho(|xi|), which stays of order one as
xi -> 0 on a dissipative model, so the verdict does not depend on how close
the grid comes to 0; for structural conditions (HA, HB) a dimensionless
violation score (imaginary mass + defectiveness + multiplicity jumps, minus
the structural tolerance).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ClusterAmbiguity,
    EigensolverFailure,
    GridEmpty,
    InvalidParameter,
    LyapunovSolveFailure,
    NotSymmetrizable,
    PrerequisiteMissing,
    SingularA0,
)
from .grids import antipodal_fold, direction_major_grid, radial_loggrid, unit_directions
from .model import ensure_normalized
from .symbols import (
    assemble_calA_stack,
    assemble_calB_stack,
    assemble_M_stack,
    directional_stack,
    eigenbasis_inverse,
    eigenbasis_trusted,
    frequency_stack,
    sign_stack,
)


@dataclass(frozen=True)
class CheckConfig:
    """Tolerances and grid resolutions shared by all checkers."""

    strictness_floor: float = 1e-10
    cluster_tolerance: float = 1e-7
    structural_tol: float = 1e-8
    xi_lo: float = 1e-3
    xi_hi: float = 1e3
    xi_count: int = 49
    directions_2d: int = 64
    cond_ceiling: float = 1e8

    def __post_init__(self):
        # an empty or reversed radial window is refused by the grid builders
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
                    or not np.isfinite(value):
                raise InvalidParameter(f"CheckConfig.{name} must be a finite real number; got {value!r}")
        for name, ok, need in (
            ("strictness_floor", self.strictness_floor >= 0, ">= 0"),
            ("structural_tol", self.structural_tol >= 0, ">= 0"),
            ("cluster_tolerance", self.cluster_tolerance > 0, "> 0"),
            ("cond_ceiling", self.cond_ceiling > 0, "> 0"),
            ("xi_count", self.xi_count == int(self.xi_count), "an integer"),
            ("directions_2d", self.directions_2d == int(self.directions_2d), "an integer"),
        ):
            if not ok:
                raise InvalidParameter(f"CheckConfig.{name} must be {need}; got {getattr(self, name)!r}")


def rho_profile(xi_mag):
    """Uniform decay-rate profile rho(xi) = |xi|^2 / (1 + |xi|^2)."""
    x2 = np.asarray(xi_mag, dtype=float) ** 2
    return x2 / (1.0 + x2)


# ---------------------------------------------------------------------------
# Eigenstructure and symmetrizers
# ---------------------------------------------------------------------------

def _closure(adj):
    # transitive closure of reflexive relations (..., m, m) by repeated squaring
    for _ in range(max(1, (adj.shape[-1] - 1).bit_length())):
        adj = np.matmul(adj.astype(float), adj.astype(float)) > 0.0
    return adj


def _linkage(lam, thr):
    """Single-linkage clusters of the rows of lam (P, m): eigenvalues of row
    p at most thr[p] apart are linked.

    Returns (order, gap, point, value, members).  order sorts each row by
    real and then imaginary part; gap (P,) is the smallest distance between
    two clusters of a row (inf for a single cluster).  The clusters are
    ordered by row and then by mean (real part, then imaginary part); each
    has its row `point`, its mean `value` and a mask `members` (C, m) over
    its sorted row.  A mean is that of the cluster's values alone, in their
    sorted order.
    """
    P, m = lam.shape
    order = np.lexsort((lam.imag, lam.real), axis=-1)
    ls = np.take_along_axis(lam, order, axis=1)
    dist = np.abs(ls[:, :, None] - ls[:, None, :])
    same = _closure(dist <= thr[:, None, None])
    gap = np.where(same, np.inf, dist).min(axis=(1, 2))
    point, lead = np.nonzero(np.argmax(same, axis=2) == np.arange(m))
    members = same[point, lead]
    mult = members.sum(axis=1)
    value = np.empty(len(point), dtype=complex)
    for k in np.unique(mult):
        c = mult == k
        cols = np.nonzero(members[c])[1].reshape(-1, k)
        value[c] = np.take_along_axis(ls[point[c]], cols, axis=1).mean(axis=1)
    key = np.lexsort((value.imag, value.real, point))
    return order, gap, point[key], value[key], members[key]


def _cluster_columns(point, mult, m):
    # first column of each cluster in its point's side-by-side bases
    return np.cumsum(mult) - mult - m * point


@dataclass(frozen=True)
class SpectralStack:
    """Clustered spectra of a matrix stack K (P, m, m), flattened over clusters.

    lam (P, m) holds each point's eigenvalues in (real, imag) order and
    radius (P,) its spectral radius.  Cluster c belongs to point point[c],
    holds the eigenvalues lam[point[c], members[c]] with mean value[c], and
    spans mult[c] columns of basis (P, m, m), the orthonormal cluster bases
    side by side; the clusters are ordered by point and then by mean.  A
    cluster's basis is the kernel of K - value I whose dimension decides
    semi_simple: the right singular vectors for its mult smallest singular
    values (the identity for a cluster holding the whole spectrum).  That is
    its invariant subspace where it is semi-simple, and not where it is
    defective; only real semi-simple spectra are read.
    """

    lam: np.ndarray
    radius: np.ndarray
    point: np.ndarray
    value: np.ndarray
    members: np.ndarray
    mult: np.ndarray
    semi_simple: np.ndarray
    K: np.ndarray

    @cached_property
    def basis(self):
        # one stacked SVD on first read, over this stack's clusters only
        m = self.K.shape[-1]
        basis = np.broadcast_to(np.eye(m, dtype=complex), self.K.shape).copy()
        c = np.flatnonzero(self.mult < m)
        pts, mult = self.point[c], self.mult[c]
        Vh = _stacked(lambda A: np.linalg.svd(A)[2], self.K[pts] - self.value[c, None, None] * np.eye(m),
                      pts, "svd", EigensolverFailure)
        cols = _cluster_columns(self.point, self.mult, m)[c]
        for k in np.unique(mult):
            s = mult == k
            basis[pts[s][:, None], :, cols[s][:, None] + np.arange(k)] = Vh[s, m - k:].conj()
        return basis

    def defective(self):
        """(P,) True where some cluster is not semi-simple."""
        return np.bincount(self.point[~self.semi_simple], minlength=len(self.lam)) > 0

    def take(self, pts):
        """The stack of the points pts (increasing)."""
        new = np.full(len(self.lam), -1)
        new[pts] = np.arange(len(pts))
        c = new[self.point] >= 0
        return SpectralStack(self.lam[pts], self.radius[pts], new[self.point[c]],
                             self.value[c], self.members[c], self.mult[c],
                             self.semi_simple[c], self.K[pts])


def spectral_stack(K, cluster_tolerance=1e-7):
    """Cluster the spectrum of every matrix of a stack K (P, m, m).

    One stacked eigvals gives the eigenvalues.  Eigenvalues closer than
    thr = cluster_tolerance * (1 + spectral radius) are merged; clusters
    closer than 10 thr raise ClusterAmbiguity whose ``index`` is the first
    such point.  Semi-simplicity is decided by the numerical kernel
    dimension of K - value I, from one stacked SVD of singular values; the
    kernels themselves are the cluster bases, formed when `basis` is read.
    A stack with non-finite entries raises EigensolverFailure whose
    ``index`` is the first such point.
    """
    K = np.asarray(K, dtype=complex)
    bad = ~np.isfinite(K).all(axis=(1, 2))
    if bad.any():
        raise EigensolverFailure("matrix has non-finite entries", index=int(np.argmax(bad)))
    m = K.shape[-1]
    w = np.linalg.eigvals(K)
    radius = np.abs(w).max(axis=1)
    thr = cluster_tolerance * (1.0 + radius)
    order, gap, point, value, members = _linkage(w, thr)
    amb = gap < 10.0 * thr
    if amb.any():
        q = int(np.argmax(amb))
        raise ClusterAmbiguity(
            f"clusters separated by {gap[q]:.3e} < 10 x tolerance "
            f"{thr[q]:.3e}; refine cluster_tolerance", index=q,
        )
    mult = members.sum(axis=1)
    sv = np.linalg.svd(K[point] - value[:, None, None] * np.eye(m), compute_uv=False)
    semi_simple = np.sum(sv <= thr[point, None], axis=1) == mult
    return SpectralStack(np.take_along_axis(w, order, axis=1), radius, point, value, members, mult,
                         semi_simple, K)


def eigstructure(matrix, cluster_tolerance=1e-7):
    """The one-point `spectral_stack` of a matrix."""
    return spectral_stack(np.asarray(matrix)[None], cluster_tolerance)


def symmetrizer_stack(st, structural_tol=1e-8):
    """Symmetrizers S = V^{-*} V^{-1} of the stack st.K (P, m, m) whose
    clustered spectra are st, with V = st.basis.

    S is the sum of P_c^* P_c over the cluster projectors P_c, so it does
    not depend on the basis chosen inside a cluster.  It requires a real
    semi-simple spectrum and meets the contract S = S^* >= c I with
    c = lambda_min(S) > 0 and ||S K - (S K)^*|| <= 1e-8 ||S|| ||K||.
    Returns (S, lower_bound, why): why[p] is None, or the reason point p is
    not symmetrizable; S and lower_bound are NaN where the spectrum is not
    real and semi-simple.
    """
    K = st.K
    max_imag = np.abs(st.lam.imag).max(axis=1)
    real = max_imag <= structural_tol * (1.0 + st.radius)
    defective = st.defective()
    why = [None if r and not d else "spectrum defective beyond tolerance" if r
           else f"spectrum not real: max |Im| = {x:.3e}"
           for r, d, x in zip(real.tolist(), defective.tolist(), max_imag.tolist())]
    S = np.full(K.shape, np.nan, dtype=complex)
    lower = np.full(len(K), np.nan)
    at = np.flatnonzero(real & ~defective)
    if at.size:
        Vinv = np.linalg.inv(st.basis[at])
        Sa = _herm(Vinv) @ Vinv
        Sa = 0.5 * (Sa + _herm(Sa))
        SK = Sa @ K[at]
        # both norms of hermitian matrices: their largest |eigenvalue|
        defect = np.abs(np.linalg.eigvalsh(1j * (SK - _herm(SK)))).max(axis=1)
        w = np.linalg.eigvalsh(Sa)
        bound = 1e-8 * w[:, -1] * np.maximum(np.linalg.norm(K[at], 2, axis=(1, 2)), 1e-300)
        for q in np.flatnonzero(defect > bound):
            why[at[q]] = f"symmetrizer residual {defect[q]:.3e} exceeds contract {bound[q]:.3e}"
        S[at] = Sa
        lower[at] = w[:, 0]
    return S, lower, why


def build_symmetrizer(K, cluster_tolerance=1e-7, structural_tol=1e-8):
    """Symmetrizer of one matrix K, the one-point `symmetrizer_stack`:
    (S, lower_bound), or NotSymmetrizable where K has none."""
    S, lower, why = symmetrizer_stack(spectral_stack(np.asarray(K)[None], cluster_tolerance), structural_tol)
    if why[0] is not None:
        raise NotSymmetrizable(why[0])
    return S[0], float(lower[0])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    """Verdict, worst margin, and the witness grid point of one condition."""

    condition: str
    verdict: str
    margin: float
    witness: dict
    grid_spec: str
    c_bar: Optional[float] = None
    trace: Optional[dict] = None
    per_point: list = field(default_factory=list)

    def to_json_dict(self):
        d = {
            "condition": self.condition,
            "verdict": self.verdict,
            "margin": self.margin,
            "c_bar": self.c_bar,
            "witness": self.witness,
            "grid_spec": self.grid_spec,
        }
        if self.trace is not None:
            d["trace"] = self.trace
        return d

    def margins_csv(self):
        """per_point as CSV text, as `csv.writer` writes it: floats with 17
        significant digits, an empty cell for a missing xi, \\r\\n line ends."""
        return "xi,omega_index,margin\r\n" + "".join(
            f"{'' if x is None else format(x, '.17g')},{i},{mg:.17g}\r\n"
            for x, i, mg in self.per_point)


def _report(condition, margin, witness, grid_spec, config, **extra):
    """A report whose verdict follows the margin convention of the module."""
    floor = config.strictness_floor
    verdict = "pass" if margin < -floor else "fail" if margin > floor else "marginal"
    return ConditionReport(condition, verdict, float(margin), witness, grid_spec, **extra)


# ---------------------------------------------------------------------------
# HA / HB
# ---------------------------------------------------------------------------

@dataclass
class StructuralCache:
    """Symmetrizers of the symbol at the reference state, one per direction.

    spectra holds the clustered spectra of the reference-state symbols, S
    (Q, m, m) their symmetrizers and symmetrizable (Q,) where S exists.
    """

    report: ConditionReport
    omegas: np.ndarray
    spectra: SpectralStack
    S: np.ndarray
    symmetrizable: np.ndarray


def _structural_scores(st, structural_tol, constant_multiplicities=True):
    """Violation score per point: imaginary mass over (1 + spectral radius),
    plus 1 if some cluster is defective, plus 1 if the multiplicities differ
    from the first point's, minus the structural tolerance."""
    s = np.abs(st.lam.imag).max(axis=1) / (1.0 + st.radius)
    s = s + np.where(st.defective(), 1.0, 0.0)
    if constant_multiplicities:
        P, m = st.lam.shape
        counts = np.zeros((P, m + 1), dtype=int)
        np.add.at(counts, (st.point, st.mult), 1)
        s = s + np.where(np.any(counts != counts[0], axis=1), 1.0, 0.0)
    return s - structural_tol


def _omega_grid(model, omega_grid, config):
    if omega_grid is None:
        omega_grid, _ = unit_directions(model.d, config.directions_2d)
    omega_grid = np.atleast_2d(np.asarray(omega_grid, dtype=float))
    if omega_grid.size == 0:
        raise GridEmpty("empty direction grid")
    return omega_grid


def _scan_states(model):
    """The state samples and the states to evaluate symbols at: the samples,
    followed by the reference state unless it is one of them; and the
    reference state's index among the latter."""
    us = model.state_samples()
    at = np.flatnonzero(np.all(us == model.reference_state, axis=1))
    if at.size:
        return us, us, int(at[0])
    return us, np.vstack([us, model.reference_state]), len(us)


def _state_label(s, us):
    # state s of a scan over the samples us and the reference state
    return "the reference state" if s >= len(us) else f"state index {s}"


def _structural_scan(name, us, ref, omegas, K, config):
    """Real semi-simple spectrum with constant multiplicities of the symbols
    K (S', Q, m, m) at states x directions, whose first len(us) states are
    the samples us and whose state ref is the reference state.

    One `spectral_stack` decomposes every symbol.  Every sample x direction
    point is scored against the multiplicities of the first one; the
    reference-state symbols give the symmetrizer of each direction.
    """
    ns, nq, m = K.shape[0], K.shape[1], K.shape[-1]
    K = K.swapaxes(0, 1).reshape(-1, m, m)
    try:
        st = spectral_stack(K, config.cluster_tolerance)
    except (ClusterAmbiguity, EigensolverFailure) as e:
        i, s = divmod(e.index, ns)
        raise type(e)(f"{e} at {_state_label(s, us)}, omega index {i}") from e
    mg = _structural_scores(st, config.structural_tol).reshape(nq, ns)[:, :len(us)]
    i, s = np.unravel_index(int(np.argmax(mg)), mg.shape)
    witness = {"u": us[s].tolist(), "omega": omegas[i].tolist(), "xi": None}
    first = np.flatnonzero(st.point == 0)
    at_ref = np.arange(nq) * ns + ref
    spectra = st.take(at_ref)
    S, _, why = symmetrizer_stack(spectra, config.structural_tol)
    report = _report(
        name, mg[i, s], witness, f"{len(us)} states x {len(omegas)} directions", config,
        trace={
            "multiplicities": sorted(st.mult[first].tolist()),
            "degenerate": bool(st.defective().reshape(nq, ns)[:, :len(us)].any()),
        },
        per_point=[(None, q, x) for q, row in enumerate(mg.tolist()) for x in row],
    )
    return StructuralCache(report, omegas, spectra, S, np.array([w is None for w in why], dtype=bool))


def _a0_margins(A0, config):
    """HA part (a) per state: -lambda_min(h) / ||h|| with h the hermitian part
    of S A^0 where A^0 has a symmetrizer S, else its structural score (at
    least 2 structural_tol)."""
    A0 = np.asarray(A0, dtype=complex)
    try:
        st = spectral_stack(A0, config.cluster_tolerance)
    except (ClusterAmbiguity, EigensolverFailure) as e:
        raise type(e)(f"{e} at state index {e.index}") from e
    S, _, why = symmetrizer_stack(st, config.structural_tol)
    mg = np.maximum(_structural_scores(st, 0.0, False), 2 * config.structural_tol)
    at = np.flatnonzero([w is None for w in why])
    if at.size:
        SA = S[at] @ A0[at]
        h = 0.5 * (SA + _herm(SA))
        norm = np.maximum(np.linalg.norm(h, 2, axis=(1, 2)), 1e-300)
        mg[at] = -np.linalg.eigvalsh(h)[:, 0] / norm
    return mg


def check_ha(model, omega_grid=None, config=CheckConfig()):
    """Hyperbolicity of the first-order part.

    (a) A^0(u) is diagonalizable with positive real spectrum at every
    sampled state; (b) (A^0)^{-1} A(u, omega) has real semi-simple spectrum
    with multiplicities constant over the grid.  The symmetrizer of W0 at
    the reference state is cached per direction for the D1 checker.  An
    A^0(u) that the solve finds singular raises SingularA0 naming the state.
    """
    model = ensure_normalized(model)
    omegas = _omega_grid(model, omega_grid, config)
    us, states, ref = _scan_states(model)
    A0, A, _, _ = directional_stack(model, states, omegas)
    part_a = _a0_margins(A0[:len(us)], config)
    try:
        W0 = np.linalg.solve(A0[:, None], A)
    except np.linalg.LinAlgError as e:
        s = _first_failure(np.linalg.inv, A0)
        raise SingularA0(f"A^0 is singular at {_state_label(s, us)}") from e
    cache = _structural_scan("HA", us, ref, omegas, W0, config)
    b = cache.report
    k = int(np.argmax(part_a))
    if part_a[k] >= b.margin:
        worst, witness = part_a[k], {"u": us[k].tolist(), "omega": None, "xi": None, "part": "a"}
    else:
        worst, witness = b.margin, {**b.witness, "part": "b"}
    cache.report = _report(
        "HA", worst, witness, b.grid_spec, config,
        trace={"part_a": part_a.tolist(), "multiplicities": b.trace["multiplicities"]},
        per_point=b.per_point,
    )
    return cache


def check_hb(model, omega_grid=None, config=CheckConfig()):
    """Hyperbolicity of the second-order part: i calB(u, omega) is real
    semi-simple with constant multiplicities; symmetrizers cached per
    direction at the reference state for D2 and the dissipation symbol."""
    omegas = _omega_grid(model, omega_grid, config)
    us, states, ref = _scan_states(model)
    K = 1j * assemble_calB_stack(model, states, omegas)
    return _structural_scan("HB", us, ref, omegas, K, config)


# ---------------------------------------------------------------------------
# D1 / D2
# ---------------------------------------------------------------------------

def _d1_forms(model, omegas):
    # (A^0)^{-1}(-B + W0A W0A + C W0A), W0A = (A^0)^{-1} A, at the reference
    # state over the directions
    A0, A, B, C = directional_stack(model, model.reference_state, omegas)
    A0inv = np.linalg.inv(A0)
    W0A = A0inv @ A
    return A0inv @ (-B + W0A @ W0A + C @ W0A)


def _d2_forms(model, omegas):
    return assemble_calA_stack(model, model.reference_state, omegas)


def _eigenspace_check(name, model, cache, forms, config):
    """D1/D2 over the directions of a passed HA/HB cache: the margin of a
    direction is the largest eigenvalue of Wsym = S W + (S W)^*, W its form,
    on any cluster basis of its symmetrizer S; one stack of forms and one
    eigvalsh per cluster size.

    c_bar is the largest c with form + c I <= 0 on every eigenspace and
    direction, i.e. max(0, -margin).
    """
    prereq = cache.report.condition
    if cache.report.verdict != "pass":
        raise PrerequisiteMissing(f"{prereq} did not pass; no symmetrizer cache for {name}")
    missing = np.flatnonzero(~cache.symmetrizable)
    if missing.size:
        raise PrerequisiteMissing(f"no {prereq} symmetrizer for direction index {missing[0]}")
    st = cache.spectra
    SW = cache.S @ forms(model, cache.omegas)
    Wsym = SW + _herm(SW)
    mg = np.full(len(Wsym), -np.inf)
    first = _cluster_columns(st.point, st.mult, Wsym.shape[-1])
    for k in np.unique(st.mult):
        c = st.mult == k
        cols = first[c][:, None] + np.arange(k)
        Q = np.take_along_axis(st.basis[st.point[c]], cols[:, None, :], axis=2)
        np.maximum.at(mg, st.point[c], np.linalg.eigvalsh(_herm(Q) @ Wsym[st.point[c]] @ Q)[:, -1])
    q = int(np.argmax(mg))
    witness = {"u": model.reference_state.tolist(), "omega": cache.omegas[q].tolist(), "xi": None}
    return _report(
        name, mg[q], witness, f"{len(cache.omegas)} directions", config,
        c_bar=max(0.0, -float(mg[q])), per_point=[(None, i, x) for i, x in enumerate(mg.tolist())],
    )


def check_d1(model, omega_grid=None, ha=None, config=CheckConfig()):
    """Low-frequency eigenspace dissipativity at the reference state."""
    model = ensure_normalized(model)
    if ha is None:
        ha = check_ha(model, omega_grid=omega_grid, config=config)
    return _eigenspace_check("D1", model, ha, _d1_forms, config)


def check_d2(model, omega_grid=None, hb=None, config=CheckConfig()):
    """High-frequency eigenspace dissipativity at the reference state."""
    if hb is None:
        hb = check_hb(model, omega_grid=omega_grid, config=config)
    return _eigenspace_check("D2", model, hb, _d2_forms, config)


# ---------------------------------------------------------------------------
# D3 and uniform dissipativity
# ---------------------------------------------------------------------------

def frequency_grid(model, omega_grid=None, xi_loggrid=None, config=CheckConfig()):
    """The frequency grid of D3, UNIFORM and `dispersion`: the given (or the
    configured) directions omegas times the magnitudes xis, xi = 0 excluded
    (rho(0) = 0).  Returns (omegas, xis, xi, idx, mags, spec): the
    direction-major stack xi, idx, mags of `direction_major_grid` and the
    grid's description in reports.  Directions without the model's d
    components raise InvalidParameter.

    The coefficients are real, so M(u, -xi) = conj M(u, xi): eigenvalues,
    Lyapunov certificates and their conditioning at -xi are the conjugates
    of those at xi.  D3 and UNIFORM therefore solve on one point of each
    pair {xi, -xi} of the stack (`antipodal_fold`) and expand the results
    to every row."""
    omegas = _omega_grid(model, omega_grid, config)
    xis = radial_loggrid(config.xi_lo, config.xi_hi, config.xi_count) if xi_loggrid is None else np.asarray(xi_loggrid, float)
    if xis.size == 0:
        raise GridEmpty("empty radial frequency grid")
    if np.any(xis <= 0):
        raise InvalidParameter("xi grid must exclude 0")
    spec = f"xi in [{xis.min():g}, {xis.max():g}] x {len(xis)} log points, {len(omegas)} directions"
    xi, idx, mags = direction_major_grid(omegas, xis)
    return omegas, xis, frequency_stack(xi, model.d), idx, mags, spec


def _decay_stack(model, omega_grid=None, xi_loggrid=None, config=CheckConfig()):
    """The one eigendecomposition M(ubar, xi) = V diag(w) V^{-1} that D3 and
    UNIFORM read, on the folded `frequency_grid`: (grid, keep, src, Ms, rho, w,
    V, margins) with Ms, rho(|xi|), w, V over the rows keep and each row's decay
    margin max Re lambda / rho.  An eig failure names |xi| and the direction."""
    grid = frequency_grid(model, omega_grid, xi_loggrid, config)
    xi, idx, mags = grid[2:5]
    keep, src = antipodal_fold(xi)
    Ms = assemble_M_stack(model, model.reference_state, xi[keep])
    rho = rho_profile(mags[keep])
    try:
        w, V = _stacked(np.linalg.eig, Ms, keep, "eig", EigensolverFailure)
    except EigensolverFailure as e:
        raise EigensolverFailure(f"{e} at xi={mags[e.index]:g}, omega index {idx[e.index]}", index=e.index) from e
    return grid, keep, src, Ms, rho, w, V, (w.real.max(axis=1) / rho)[src]


def _decay_report(name, model, stack, config, margin=None, **extra):
    """The report of a `_decay_stack`'s margins, at the largest unless margin is given."""
    (omegas, _, _, idx, mags, spec), mg = stack[0], stack[-1]
    q = int(np.argmax(mg))
    witness = {"u": model.reference_state.tolist(), "omega": omegas[idx[q]].tolist(), "xi": float(mags[q])}
    return _report(name, mg[q] if margin is None else margin, witness, spec, config,
                   per_point=list(zip(mags.tolist(), idx.tolist(), mg.tolist())), **extra)


def check_d3(model, omega_grid=None, xi_loggrid=None, config=CheckConfig(), stack=None):
    """Strict spectral stability over a log frequency grid (0 excluded), with
    the margin max Re lambda / rho(|xi|) of a `_decay_stack` (stack, if given)."""
    return _decay_report("D3", model, stack or _decay_stack(model, omega_grid, xi_loggrid, config), config)


def _herm(A):
    return A.conj().swapaxes(-1, -2)


def _first_failure(fn, A):
    """Index of the first point of a stack A on which fn raises LinAlgError (else 0)."""
    for q in range(len(A)):
        try:
            fn(A[q:q + 1])
        except np.linalg.LinAlgError:
            return q
    return 0


def _stacked(fn, A, pts, what, error=LyapunovSolveFailure):
    """fn(A) over a stack; a LinAlgError raises error naming the first point it fails on."""
    try:
        return fn(A)
    except np.linalg.LinAlgError as e:
        q = _first_failure(fn, A)
        raise error(f"stacked {what} failed: {e}", index=int(pts[q])) from e


def _sign(A, Q, pts):
    """`sign_stack(A, Q)`; a failing point raises LyapunovSolveFailure naming its entry of pts."""
    try:
        return sign_stack(A, Q)
    except EigensolverFailure as e:
        raise LyapunovSolveFailure(str(e), index=int(pts[e.index])) from e


def _eigvalsh(P, pts):
    """Ascending eigenvalues of a hermitian stack."""
    return _stacked(np.linalg.eigvalsh, P, pts, "eigvalsh")


def _cond(w):
    """cond over a hermitian stack from its eigenvalues w (`_eigvalsh`); NaN
    at the points that are not positive definite."""
    good = (w[:, 0] > 0.0) & np.all(np.isfinite(w), axis=1)
    return np.where(good, w[:, -1], np.nan) / np.where(good, w[:, 0], 1.0)


def _positive_cond(w, what, pts):
    """`_cond`, raising at the first point that is not positive definite."""
    cond = _cond(w)
    if np.isnan(cond).any():
        q = int(np.argmax(np.isnan(cond)))
        raise LyapunovSolveFailure(
            f"{what} not positive definite (lambda_min = {w[q, 0]:.3e})", index=int(pts[q])
        )
    return cond


class _Eigenbasis(NamedTuple):
    """Eigendecompositions M = V diag(w) Vinv over a stack (T, m, m), trusted
    where ok (Vinv is the identity elsewhere); scale (T,) is the Frobenius
    norm of the matrices they were computed on, which sets their absolute
    error."""

    w: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    ok: np.ndarray
    scale: np.ndarray

    def take(self, rows):
        return _Eigenbasis(*(x[rows] for x in self))


def _guarded(Ms, w, V, pts):
    """The `_Eigenbasis` of Ms from its eig (w, V), trusted by `eigenbasis_inverse`."""
    return _Eigenbasis(w, V, *_stacked(eigenbasis_inverse, V, pts, "inv"),
                      np.linalg.norm(Ms, axis=(1, 2)))


def _eig_solve(Ms, rho, pts, eb):
    """Solutions of P M + M^* P = -rho I over a stack, in the eigenbasis eb.

    With M = V diag(w) V^{-1}, P = V^{-*} X V^{-1} where
    X_ij = -rho (V^* V)_ij / (conj(w_i) + w_j).  The points outside eb.ok,
    whose eigenbasis is not trusted, take P = W / 2 instead, with W the
    coupled limit of one `sign_stack` from A = M^*, Q = rho I; the first
    point whose spectral abscissa is not negative is refused.  pts are the
    points' indices, used to name a failing one.
    """
    alpha = eb.w.real.max(axis=1)
    if np.any(alpha >= 0.0):
        q = int(np.argmax(alpha >= 0.0))
        raise LyapunovSolveFailure(f"spectral abscissa {alpha[q]:.3e} >= 0", index=int(pts[q]))
    ok = eb.ok
    P = np.empty_like(Ms)
    if ok.any():
        Vo, wo, Vinv = eb.V[ok], eb.w[ok], eb.Vinv[ok]
        X = -rho[ok, None, None] * (_herm(Vo) @ Vo) / (wo.conj()[:, :, None] + wo[:, None, :])
        P[ok] = _herm(Vinv) @ X @ Vinv
    if not ok.all():
        Q = rho[~ok, None, None] * np.eye(Ms.shape[-1])
        P[~ok] = 0.5 * _sign(_herm(Ms[~ok]), Q, pts[~ok])[1]
    return 0.5 * (P + _herm(P))


def lyapunov_certificate(M, rho):
    """Solve P M + M^* P = -rho I for hermitian P at one point: `_eig_solve`
    on an `_Eigenbasis` that trusts no point, so the sign iteration solves
    it; returns (P, cond)."""
    Ms, pts = np.asarray(M, dtype=complex)[None], np.zeros(1, int)
    eb = _Eigenbasis(_stacked(np.linalg.eigvals, Ms, pts, "eigvals"), None, None, np.zeros(1, bool), None)
    P = _eig_solve(Ms, np.array([float(rho)]), pts, eb)
    return P[0], float(_positive_cond(_eigvalsh(P, pts), "Lyapunov solution", pts)[0])


def _first_group(lam):
    """(mask, thr): the first single-linkage group of each row of lam (T, m) and thr.

    Eigenvalues at most thr apart are linked; thr starts at 3 min(-Re lam)
    and doubles until the groups are at least 3 thr apart.  The first group
    has the smallest mean (real part, then imaginary part).  A row that is a
    single group is all True.
    """
    mask = np.empty(lam.shape, dtype=bool)
    thr = 3.0 * np.min(-lam.real, axis=1)
    pending = np.arange(len(lam))
    while pending.size:
        order, gap, point, _, members = _linkage(lam[pending], thr[pending])
        done = ~(gap < 3.0 * thr[pending])
        first = members[np.unique(point, return_index=True)[1]][done]
        rows = np.zeros_like(first)
        np.put_along_axis(rows, order[done], first, axis=1)
        mask[pending[done]] = rows
        thr[pending[~done]] *= 2.0
        pending = pending[~done]
    return mask, thr


def _invariant_bases(Ms, eb, first, thr, pts):
    """Bases of the invariant subspaces of the first group (k eigenvalues at
    every point) and of the rest, and the `_Eigenbasis` each block inherits.

    Q1 (m, k) is orthonormal, Z2 (m, m - k) its orthogonal complement, and
    B2 = E2 (Z2^* E2)^{-1}, with E2 the eigenvectors of the rest, is the basis
    of the second subspace with Z2^* B2 = I: the one a sorted Schur form and
    a Sylvester solve give.  With E = [E1 E2] the eigenvectors sorted group
    first, F = [F1; F2] the matching rows of Vinv and [Q1 Z2] = qr(E1), the
    block Q1^* M Q1 has the eigenvectors R1 = Q1^* E1 with inverse F1 Q1, and
    Z2^* M B2 has G = Z2^* E2 with inverse F2 Z2 (so B2 = E2 F2 Z2), with
    no eig or inv.  A block is trusted where its point is and
    `eigenbasis_trusted` holds.  Points outside eb.ok pass on their
    eigenvalues only: [Q1 Z2] are the left singular vectors of the projector
    Pi = (I - sign(M - sigma I)) / 2, sigma midway between the group's real
    parts and the rest's, and B2 = (I - Pi) Z2.  Returns (keep, Q1, B2, Z2,
    blocks); keep is False where those real parts are less than the linkage
    threshold thr apart, and blocks holds the two blocks' `_Eigenbasis`.
    """
    n_pts, m = first.shape
    k = int(first[0].sum())
    ok = eb.ok
    order = np.argsort(~first, axis=1, kind="stable")
    Q1 = np.empty((n_pts, m, k), dtype=complex)
    B2 = np.empty((n_pts, m, m - k), dtype=complex)
    Z2 = np.empty((n_pts, m, m - k), dtype=complex)
    R1, R1inv = np.zeros((2, n_pts, k, k), dtype=complex)
    G, Ginv = np.zeros((2, n_pts, m - k, m - k), dtype=complex)
    if ok.any():
        E = np.take_along_axis(eb.V[ok], order[ok][:, None, :], axis=2)
        F = np.take_along_axis(eb.Vinv[ok], order[ok][:, :, None], axis=1)
        Qf, Rf = _stacked(lambda A: np.linalg.qr(A, mode="complete"), E[:, :, :k], pts[ok], "qr")
        Q1[ok], Z2[ok] = Qf[:, :, :k], Qf[:, :, k:]
        R1[ok], R1inv[ok] = Rf[:, :k], F[:, :k] @ Q1[ok]
        G[ok], Ginv[ok] = _herm(Z2[ok]) @ E[:, :, k:], F[:, k:] @ Z2[ok]
        B2[ok] = E[:, :, k:] @ Ginv[ok]
    hi, lo = np.where(first, eb.w.real, -np.inf).max(axis=1), np.where(first, np.inf, eb.w.real).min(axis=1)
    keep = ok | (lo - hi >= thr)
    cut = np.flatnonzero(~ok & keep)
    if cut.size:
        shift = 0.5 * (hi + lo)[cut, None, None] * np.eye(m)
        Pi = 0.5 * (np.eye(m) - _sign(Ms[cut] - shift, None, pts[cut])[0])
        U = _stacked(np.linalg.svd, Pi, pts[cut], "svd")[0]
        Q1[cut], Z2[cut] = U[:, :, :k], U[:, :, k:]
        B2[cut] = Z2[cut] - Pi @ Z2[cut]
    lam = np.take_along_axis(eb.w, order, axis=1)
    blocks = (_Eigenbasis(lam[:, :k], R1, R1inv, ok & eigenbasis_trusted(R1, R1inv), eb.scale),
              _Eigenbasis(lam[:, k:], G, Ginv, ok & eigenbasis_trusted(G, Ginv), eb.scale))
    return keep, Q1, B2, Z2, blocks


def _block_eigenbasis(T, eb, pts):
    """The `_Eigenbasis` of the blocks T: the inherited eb, except where a
    block's norm is below INHERIT_SCALE_MIN of eb.scale.  There the
    inherited pairs' absolute error is no longer small against the block's
    own spectrum (the slow block near xi = 0), and one stacked eig
    decomposes the block again at its own scale."""
    fresh = np.linalg.norm(T, axis=(1, 2)) < INHERIT_SCALE_MIN * eb.scale
    if not fresh.any():
        return eb
    w, V = _stacked(np.linalg.eig, T[fresh], pts[fresh], "eig")
    eb = _Eigenbasis(*(x.copy() for x in eb))
    for x, y in zip(eb, _guarded(T[fresh], w, V, pts[fresh])):
        x[fresh] = y
    return eb


#: UNIFORM fits its conditioning's tail slope on |xi| >= TREND_XI_MIN, its head slope below the other.
TREND_XI_MIN, TREND_XI_MAX_LOW = 10.0, 1e-2

#: Size of the symbol stacks UNIFORM certifies at once; the certificates
#: hold about ten stacks of this size.
CERTIFICATE_CHUNK_BYTES = 2**18

#: A direct Lyapunov solve is accepted when its conditioning is below this
#: value; otherwise the spectrum is split at its gaps.
BALANCE_COND_TARGET = 200.0

#: A split block whose norm is below this fraction of the norm of the
#: matrix its inherited eigendecomposition came from is decomposed again.
INHERIT_SCALE_MIN = 1e-4


def _balanced_stack(Ms, rho, P, ev, eb, pts):
    """Balanced certificates of a stack of stable blocks from their direct
    solutions P (with their eigenvalues ev, and the `_Eigenbasis` eb that
    `_eig_solve` solved in).

    Each P is scaled to unit norm.  Where its conditioning exceeds
    BALANCE_COND_TARGET, the spectrum is split into its first single-linkage
    group and the rest; the points that split into groups of equal sizes are
    certified together on the blocks T11 = Q1^* M Q1 and T22 = Z2^* M B2,
    which inherit their eigenstructure from eb (`_invariant_bases`,
    `_block_eigenbasis`), and the blocks are joined as
    V^{-*} blockdiag(P1, P2) V^{-1} with V = [Q1, B2], whose inverse has the
    rows Q1^* (I - B2 Z2^*) and Z2^*.  Returns (P, split) with split the
    points whose certificate was joined from blocks.
    """
    top = ev[:, -1]
    bad = ~(np.isfinite(top) & (top > 0.0))
    if bad.any():
        raise LyapunovSolveFailure("Lyapunov block solve degenerate", index=int(pts[np.argmax(bad)]))
    P = P / top[:, None, None]
    split = np.zeros(len(P), dtype=bool)
    todo = np.flatnonzero(~(_cond(ev) <= BALANCE_COND_TARGET))
    if todo.size == 0:
        return P, split
    m = Ms.shape[-1]
    first, thr = _first_group(eb.w[todo])
    sizes = first.sum(axis=1)
    for k in np.unique(sizes[sizes < m]):
        at = todo[sizes == k]
        keep, Q1, B2, Z2, blocks = _invariant_bases(Ms[at], eb.take(at), first[sizes == k],
                                                  thr[sizes == k], pts[at])
        at, Q1, B2, Z2 = at[keep], Q1[keep], B2[keep], Z2[keep]
        T = (_herm(Q1) @ Ms[at] @ Q1, _herm(Z2) @ Ms[at] @ B2)
        P1, P2 = (_certify(t, rho[at], pts[at], _block_eigenbasis(t, b.take(keep), pts[at]))[0]
                  for t, b in zip(T, blocks))
        Y1 = _herm(Q1) - (_herm(Q1) @ B2) @ _herm(Z2)
        Pb = _herm(Y1) @ P1 @ Y1 + Z2 @ P2 @ _herm(Z2)
        P[at] = 0.5 * (Pb + _herm(Pb))
        split[at] = True
    return P, split


def _certify(Ms, rho, pts, eb):
    """Balanced certificates of a stack of stable blocks with the
    `_Eigenbasis` eb: (P, split, ev) with split as in `_balanced_stack` and ev
    the eigenvalues of the direct solutions."""
    P = _eig_solve(Ms, rho, pts, eb)
    ev = _eigvalsh(P, pts)
    return (*_balanced_stack(Ms, rho, P, ev, eb, pts), ev)


def _guarded_certify(Ms, rho, pts, w, V):
    """(cond_raw, P, cond) of `_certify` on the eigendecompositions (w, V) of
    Ms, trusted by `eigenbasis_inverse`.  The balanced conditioning cond is
    the raw one where the certificate was not split, and comes from a new
    eigvalsh only where it was."""
    P, split, ev = _certify(Ms, rho, pts, _guarded(Ms, w, V, pts))
    cond_raw = _cond(ev)
    ev = ev / ev[:, -1:]
    ev[split] = _eigvalsh(P[split], pts[split])
    return cond_raw, P, _positive_cond(ev, "balanced certificate", pts)


def balanced_lyapunov_certificate(M, rho):
    """Spectral-gap-balanced Lyapunov certificate with bounded conditioning.

    The plain solution of P M + M^* P = -rho I has lambda_min(P) ~ rho as
    xi -> 0 (the zero-frequency symbol is singular), so its condition number
    grows like 1/rho for every model.  When the direct solve is badly
    conditioned, the spectrum is split at its gaps, one Lyapunov equation is
    solved per group, and each block is rescaled to unit norm.  The result P
    is hermitian positive definite with P M + M^* P negative definite, so
    |exp(tM)| <= sqrt(cond(P)) for t >= 0.  Returns (P, cond) with cond the
    condition number of P; an unstable M raises LyapunovSolveFailure.
    """
    Ms = np.asarray(M, dtype=complex)[None]
    pts = np.zeros(1, int)
    w, V = _stacked(np.linalg.eig, Ms, pts, "eig")
    _, P, cond = _guarded_certify(Ms, np.array([float(rho)]), pts, w, V)
    return P[0], float(cond[0])


def check_uniform_dissipativity(model, omega_grid=None, xi_loggrid=None, config=CheckConfig(), stack=None):
    """Certify uniform Fourier-mode decay -c rho(xi) at the reference state.

    Per grid point: (i) abscissa certificate c_abs = inf -alpha(xi)/rho(xi),
    minus D3's margin; (ii) Lyapunov certificate P M + M^* P = -rho(xi) I with
    P positive definite and uniformly bounded condition number.  Pass iff
    c_abs > 0 and sup cond(P) stays below the configured ceiling.  All grid
    points are certified together from the eigenbasis of one `_decay_stack`
    (stack, if given): one solve gives cond_raw, and the balanced
    certificates grow from it on blocks that inherit that eigenbasis, so
    UNIFORM reads D3's eigenvalues.  Only the balanced certificates decide the
    verdict: cond_raw_by_xi is null at a radius where a raw solve is not
    positive definite.  One point of each pair {xi, -xi} is solved.
    """
    stack = stack or _decay_stack(model, omega_grid, xi_loggrid, config)
    (omegas, xis, _, idx, mags, _), keep, src, Ms, rho, w, V, mg = stack
    radii = len(np.unique(xis))
    if radii < 2:
        raise InvalidParameter(
            f"UNIFORM fits conditioning slopes over |xi| and needs at least 2 distinct "
            f"radii; got {radii}"
        )
    cond_raw, cond = np.empty(len(Ms)), np.empty(len(Ms))
    try:
        for at in np.array_split(np.arange(len(Ms)), max(1, Ms.nbytes // CERTIFICATE_CHUNK_BYTES)):
            # failures name the point of the full grid
            cond_raw[at], _, cond[at] = _guarded_certify(Ms[at], rho[at], keep[at], w[at], V[at])
    except LyapunovSolveFailure as e:
        raise LyapunovSolveFailure(f"{e} at xi={mags[e.index]:g}, omega index {idx[e.index]}") from e
    c_abs, cond_raw, cond = -float(mg.max()), cond_raw[src], cond[src]
    raw_by_xi = cond_raw.reshape(len(omegas), len(xis)).max(axis=0)
    cond_by_xi = cond.reshape(len(omegas), len(xis)).max(axis=0)
    cond_max = float(cond_by_xi.max())
    log_xi, log_cond = np.log(xis), np.log(cond_by_xi)
    slope = float(np.polyfit(log_xi, log_cond, 1)[0])

    def trend(mask):
        # log-log slope over the masked points; the full-grid slope below 3
        return float(np.polyfit(log_xi[mask], log_cond[mask], 1)[0]) if np.sum(mask) >= 3 else slope

    margin = None if cond_max <= config.cond_ceiling else cond_max / config.cond_ceiling
    return _decay_report(
        "UNIFORM", model, stack, config, margin,
        c_bar=c_abs,
        trace={
            "c_abs": c_abs,
            "cond_max": cond_max,
            "cond_loglog_slope": slope,
            "cond_tail_slope": trend(xis >= TREND_XI_MIN),
            "cond_head_slope": trend(xis <= TREND_XI_MAX_LOW),
            "cond_by_xi": cond_by_xi.tolist(),
            "cond_raw_by_xi": [None if np.isnan(c) else c for c in raw_by_xi.tolist()],
            "xi_grid": xis.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

CONDITION_ORDER = ("HA", "HB", "D1", "D2", "D3", "UNIFORM")


def run_all_checks(model, config=CheckConfig()):
    """Run all six checkers in dependency order; returns {condition: report}.

    Conditions whose prerequisites failed are reported as 'fail' with a
    'prerequisite_missing' trace reason rather than raising.
    """
    model = ensure_normalized(model)
    reports = {}
    ha = check_ha(model, config=config)
    reports["HA"] = ha.report
    hb = check_hb(model, config=config)
    reports["HB"] = hb.report

    def skipped(name, why):
        return ConditionReport(
            condition=name, verdict="fail", margin=1.0,
            witness={}, grid_spec="", trace={"reason": why},
        )

    if ha.report.verdict == "pass":
        reports["D1"] = check_d1(model, ha=ha, config=config)
    else:
        reports["D1"] = skipped("D1", "prerequisite_missing:HA")
    if hb.report.verdict == "pass":
        reports["D2"] = check_d2(model, hb=hb, config=config)
    else:
        reports["D2"] = skipped("D2", "prerequisite_missing:HB")
    stack = _decay_stack(model, config=config)
    reports["D3"] = check_d3(model, config=config, stack=stack)
    if reports["D3"].verdict == "pass":
        try:
            reports["UNIFORM"] = check_uniform_dissipativity(model, config=config, stack=stack)
        except LyapunovSolveFailure as e:
            reports["UNIFORM"] = skipped("UNIFORM", f"lyapunov_failure:{e}")
    else:
        reports["UNIFORM"] = skipped("UNIFORM", "prerequisite_missing:D3")
    return reports
