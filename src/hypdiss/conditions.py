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
* D3: strict spectral stability, all dispersion roots have Re < 0 for
  xi != 0.
* UNIFORM: all Fourier modes decay at least like exp(-c rho(xi) t) with
  rho(xi) = |xi|^2 / (1 + |xi|^2); certified both through the spectral
  abscissa and through a per-frequency Lyapunov equation.

Margins follow one convention: pass <=> margin < -floor at every grid
point.  For the definiteness conditions (D1, D2) the margin is the largest
eigenvalue of the tested quadratic form; for D3 the largest real part; for
structural conditions (HA, HB) a dimensionless violation score (imaginary
mass + defectiveness + multiplicity jumps, minus the structural tolerance).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import (
    ClusterAmbiguity,
    GridEmpty,
    InvalidParameter,
    LyapunovSolveFailure,
    NotDissipativeAtPoint,
    NotSymmetrizable,
    PrerequisiteMissing,
)
from .grids import direction_major_grid, radial_loggrid, unit_directions
from .io import write_csv_atomic
from .model import ensure_normalized
from .symbols import (
    assemble_calA,
    assemble_calB,
    assemble_directional,
    assemble_M,
    assemble_M_stack,
    dispersion_root_stack,
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
    state_samples: int = 256
    cond_ceiling: float = 1e8
    dissipation_threshold: float = 1.0
    trend_xi_min: float = 10.0
    trend_xi_max_low: float = 1e-2


def rho_profile(xi_mag):
    """Uniform decay-rate profile rho(xi) = |xi|^2 / (1 + |xi|^2)."""
    x2 = np.asarray(xi_mag, dtype=float) ** 2
    return x2 / (1.0 + x2)


# ---------------------------------------------------------------------------
# Eigenstructure and symmetrizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenCluster:
    value: complex
    values: np.ndarray
    multiplicity: int
    projection: np.ndarray
    basis: np.ndarray
    semi_simple: bool


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple
    cluster_tolerance: float
    spectral_radius: float

    @property
    def multiplicities(self):
        return tuple(c.multiplicity for c in self.clusters)

    def multiplicity_multiset(self):
        return tuple(sorted(self.multiplicities))

    def all_semi_simple(self):
        return all(c.semi_simple for c in self.clusters)

    def max_imag(self):
        return max(float(np.max(np.abs(c.values.imag))) for c in self.clusters)


def _single_linkage(lam, thr):
    """Connected components of the graph on lam with edges |li - lj| <= thr.

    Returns the components ordered by their means (real part, then
    imaginary part) and the smallest distance between two components.
    """
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


def _cluster_eigenvalues(lam, thr):
    groups, gap = _single_linkage(lam, thr)
    # inter-cluster separation guard
    if gap < 10.0 * thr:
        raise ClusterAmbiguity(
            f"clusters separated by {gap:.3e} < 10 x tolerance "
            f"{thr:.3e}; refine cluster_tolerance"
        )
    return groups


def eigstructure(matrix, cluster_tolerance=1e-7):
    """Cluster the spectrum and compute per-cluster spectral projections.

    Eigenvalues closer than cluster_tolerance * (1 + spectral radius) are
    merged; projections come from reordered Schur factorizations, so they
    are reliable also for defective clusters.  Semi-simplicity is decided
    by the numerical kernel dimension of (K - lambda I).
    """
    K = np.asarray(matrix, dtype=complex)
    m = K.shape[0]
    lam = np.linalg.eigvals(K)
    radius = float(np.max(np.abs(lam))) if m else 0.0
    thr = cluster_tolerance * (1.0 + radius)
    groups = _cluster_eigenvalues(lam, thr)

    clusters = []
    for vals in groups:
        mult = len(vals)
        center = complex(vals.mean())
        if mult == m:
            proj = np.eye(m, dtype=complex)
            basis = np.eye(m, dtype=complex)
        else:
            def select(x, _c=center, _t=thr):
                return bool(abs(x - _c) <= max(5.0 * _t, 1e-300))

            T, Z, sdim = sla.schur(K, output="complex", sort=select)
            if sdim != mult:
                raise ClusterAmbiguity(
                    f"Schur reordering selected {sdim} eigenvalues for a "
                    f"cluster of size {mult}"
                )
            T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
            R = sla.solve_sylvester(T11, -T22, T12)
            P_t = np.zeros((m, m), dtype=complex)
            P_t[:sdim, :sdim] = np.eye(sdim)
            P_t[:sdim, sdim:] = R
            proj = Z @ P_t @ Z.conj().T
            basis = Z[:, :sdim]
        # geometric multiplicity from the numerical rank of K - center*I
        sv = np.linalg.svd(K - center * np.eye(m), compute_uv=False)
        geo = int(np.sum(sv <= thr))
        clusters.append(
            EigenCluster(
                value=center,
                values=vals,
                multiplicity=mult,
                projection=proj,
                basis=basis,
                semi_simple=(geo == mult),
            )
        )
    return EigenStructure(tuple(clusters), cluster_tolerance, radius)


@dataclass(frozen=True)
class Symmetrizer:
    """Hermitian positive-definite S with S K hermitian."""

    S: np.ndarray
    lower_bound: float
    structure: EigenStructure


def build_symmetrizer(K, cluster_tolerance=1e-7, structural_tol=1e-8):
    """Construct S = (V^{-1})^* V^{-1} from an eigenbasis V of K.

    Requires a real semi-simple spectrum.  The returned S satisfies
    S = S^* >= c I with c = lambda_min(S) > 0 reported, and
    ||S K - (S K)^*|| <= 1e-8 ||S|| ||K||.
    """
    K = np.asarray(K, dtype=complex)
    m = K.shape[0]
    es = eigstructure(K, cluster_tolerance)
    scale = 1.0 + es.spectral_radius
    if es.max_imag() > structural_tol * scale:
        raise NotSymmetrizable(
            f"spectrum not real: max |Im| = {es.max_imag():.3e}"
        )
    if not es.all_semi_simple():
        raise NotSymmetrizable("spectrum defective beyond tolerance")

    blocks = []
    for c in es.clusters:
        Q = c.basis
        if c.multiplicity == 1:
            blocks.append(Q)
            continue
        Mc = Q.conj().T @ K @ Q
        w, Vc = np.linalg.eig(Mc)
        Vc = Vc / np.linalg.norm(Vc, axis=0, keepdims=True)
        blocks.append(Q @ Vc)
    V = np.concatenate(blocks, axis=1)
    Vinv = np.linalg.inv(V)
    S = Vinv.conj().T @ Vinv
    S = 0.5 * (S + S.conj().T)
    herm_defect = np.linalg.norm(S @ K - (S @ K).conj().T, 2)
    bound = 1e-8 * np.linalg.norm(S, 2) * max(np.linalg.norm(K, 2), 1e-300)
    if herm_defect > bound:
        raise NotSymmetrizable(
            f"symmetrizer residual {herm_defect:.3e} exceeds contract {bound:.3e}"
        )
    return Symmetrizer(S=S, lower_bound=float(np.min(np.linalg.eigvalsh(S))), structure=es)


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

    def write_margins_csv(self, path):
        write_csv_atomic(path, ["xi", "omega_index", "margin"], self.per_point)


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
    """Per-direction symmetrizers and eigenstructures built at the reference state."""

    report: ConditionReport
    omegas: np.ndarray
    by_omega: dict


def _structural_score(es, ref_multiset, structural_tol):
    s = es.max_imag() / (1.0 + es.spectral_radius)
    if not es.all_semi_simple():
        s += 1.0
    if ref_multiset is not None and es.multiplicity_multiset() != ref_multiset:
        s += 1.0
    return s - structural_tol


def _omega_grid(model, omega_grid, config):
    if omega_grid is None:
        omega_grid, _ = unit_directions(model.d, config.directions_2d)
    omega_grid = np.atleast_2d(np.asarray(omega_grid, dtype=float))
    if omega_grid.size == 0:
        raise GridEmpty("empty direction grid")
    return omega_grid


def _state_grid(model, state_samples, config):
    us = model.state_samples(config.state_samples) if state_samples is None else np.atleast_2d(state_samples)
    if us.size == 0:
        raise GridEmpty("empty state sample set")
    return us


def _structural_scan(name, model, us, omegas, symbol, config):
    """Real semi-simple spectrum with constant multiplicities of symbol(u, omega).

    Scores every state x direction point against the multiplicities of the
    first one, and caches per direction the symmetrizer of the symbol at the
    reference state (None where it is not symmetrizable).
    """
    worst = -np.inf
    witness = {}
    per_point = []
    ref_multiset = None
    degenerate = False
    by_omega = {}
    for i, om in enumerate(omegas):
        for u in us:
            es = eigstructure(symbol(u, om), config.cluster_tolerance)
            if ref_multiset is None:
                ref_multiset = es.multiplicity_multiset()
            mg = _structural_score(es, ref_multiset, config.structural_tol)
            degenerate = degenerate or not es.all_semi_simple()
            per_point.append((None, i, mg))
            if mg > worst:
                worst, witness = mg, {"u": u.tolist(), "omega": om.tolist(), "xi": None}
        try:
            by_omega[i] = build_symmetrizer(
                symbol(model.reference_state, om), config.cluster_tolerance, config.structural_tol
            )
        except NotSymmetrizable:
            by_omega[i] = None

    report = _report(
        name, worst, witness, f"{len(us)} states x {len(omegas)} directions", config,
        trace={"multiplicities": list(ref_multiset), "degenerate": degenerate},
        per_point=per_point,
    )
    return StructuralCache(report=report, omegas=omegas, by_omega=by_omega)


def check_ha(model, state_samples=None, omega_grid=None, config=CheckConfig()):
    """Hyperbolicity of the first-order part.

    (a) A^0(u) is diagonalizable with positive real spectrum at every
    sampled state; (b) (A^0)^{-1} A(u, omega) has real semi-simple spectrum
    with multiplicities constant over the grid.  The symmetrizer of W0 at
    the reference state is cached per direction for the D1 checker.
    """
    model = ensure_normalized(model)
    omegas = _omega_grid(model, omega_grid, config)
    us = _state_grid(model, state_samples, config)

    part_a = []
    for u in us:
        A0 = np.asarray(model.A(0, u), dtype=float)
        try:
            sym = build_symmetrizer(A0, config.cluster_tolerance, config.structural_tol)
            h = 0.5 * (sym.S @ A0 + (sym.S @ A0).conj().T)
            mg = -float(np.min(np.linalg.eigvalsh(h))) / max(np.linalg.norm(h, 2), 1e-300)
        except NotSymmetrizable:
            es = eigstructure(A0, config.cluster_tolerance)
            mg = _structural_score(es, None, 0.0)
            mg = max(mg, config.structural_tol * 2)
        part_a.append(mg)

    def w0(u, om):
        A_dir, _, _ = assemble_directional(model, u, om)
        return np.linalg.solve(np.asarray(model.A(0, u), dtype=float), A_dir)

    cache = _structural_scan("HA", model, us, omegas, w0, config)
    b = cache.report
    k = int(np.argmax(part_a))
    if part_a[k] >= b.margin:
        worst, witness = part_a[k], {"u": us[k].tolist(), "omega": None, "xi": None, "part": "a"}
    else:
        worst, witness = b.margin, {**b.witness, "part": "b"}
    cache.report = _report(
        "HA", worst, witness, b.grid_spec, config,
        trace={"part_a": part_a, "multiplicities": b.trace["multiplicities"]},
        per_point=b.per_point,
    )
    return cache


def check_hb(model, state_samples=None, omega_grid=None, config=CheckConfig()):
    """Hyperbolicity of the second-order part: i calB(u, omega) is real
    semi-simple with constant multiplicities; symmetrizers cached per
    direction at the reference state for D2 and the dissipation symbol."""
    model = ensure_normalized(model)
    omegas = _omega_grid(model, omega_grid, config)
    us = _state_grid(model, state_samples, config)
    return _structural_scan(
        "HB", model, us, omegas, lambda u, om: 1j * assemble_calB(model, u, om), config
    )


# ---------------------------------------------------------------------------
# D1 / D2
# ---------------------------------------------------------------------------

def _eigenspace_form(W, symmetrizer):
    """Form Wsym = S W + (S W)^* and its largest eigenvalue on any eigenspace
    of the symmetrized symbol; returns (margin, Wsym)."""
    W1 = symmetrizer.S @ W
    Wsym = W1 + W1.conj().T
    margin = max(
        float(np.max(np.linalg.eigvalsh(cl.basis.conj().T @ Wsym @ cl.basis)))
        for cl in symmetrizer.structure.clusters
    )
    return margin, Wsym


def d1_form_margin(model, omega, symmetrizer):
    """Worst eigenvalue of the D1 quadratic form over the eigenspaces of W0."""
    model = ensure_normalized(model)
    u = model.reference_state
    A_dir, B_dir, C_dir = assemble_directional(model, u, omega)
    A0inv = np.linalg.inv(np.asarray(model.A(0, u), dtype=float))
    W0A = A0inv @ A_dir
    return _eigenspace_form(A0inv @ (-B_dir + W0A @ W0A + C_dir @ W0A), symmetrizer)


def d2_form_margin(model, omega, symmetrizer):
    """Worst eigenvalue of the D2 quadratic form over the eigenspaces of calB."""
    model = ensure_normalized(model)
    return _eigenspace_form(assemble_calA(model, model.reference_state, omega), symmetrizer)


def _eigenspace_check(name, model, cache, form_margin, config):
    """D1/D2 over the directions of a passed HA/HB cache.

    c_bar is the largest c with form + c I <= 0 on every eigenspace and
    direction, i.e. max(0, -margin).
    """
    prereq = cache.report.condition
    if cache.report.verdict != "pass":
        raise PrerequisiteMissing(f"{prereq} did not pass; no symmetrizer cache for {name}")
    ubar = model.reference_state

    worst = -np.inf
    witness = {}
    per_point = []
    for i, om in enumerate(cache.omegas):
        sym = cache.by_omega.get(i)
        if sym is None:
            raise PrerequisiteMissing(f"no {prereq} symmetrizer for direction index {i}")
        mg, _ = form_margin(model, om, sym)
        per_point.append((None, i, mg))
        if mg > worst:
            worst, witness = mg, {"u": ubar.tolist(), "omega": om.tolist(), "xi": None}

    return _report(
        name, worst, witness, f"{len(cache.omegas)} directions", config,
        c_bar=max(0.0, -float(worst)), per_point=per_point,
    )


def check_d1(model, omega_grid=None, ha=None, config=CheckConfig()):
    """Low-frequency eigenspace dissipativity at the reference state."""
    model = ensure_normalized(model)
    if ha is None:
        ha = check_ha(model, omega_grid=omega_grid, config=config)
    return _eigenspace_check("D1", model, ha, d1_form_margin, config)


def check_d2(model, omega_grid=None, hb=None, config=CheckConfig()):
    """High-frequency eigenspace dissipativity at the reference state."""
    model = ensure_normalized(model)
    if hb is None:
        hb = check_hb(model, omega_grid=omega_grid, config=config)
    return _eigenspace_check("D2", model, hb, d2_form_margin, config)


# ---------------------------------------------------------------------------
# D3 and uniform dissipativity
# ---------------------------------------------------------------------------

def _frequency_grid(model, omega_grid, xi_loggrid, config):
    # directions x log-spaced magnitudes; xi = 0 is excluded (rho(0) = 0)
    omegas = _omega_grid(model, omega_grid, config)
    xis = radial_loggrid(config.xi_lo, config.xi_hi, config.xi_count) if xi_loggrid is None else np.asarray(xi_loggrid, float)
    if np.any(xis <= 0):
        raise InvalidParameter("xi grid must exclude 0")
    spec = f"xi in [{config.xi_lo:g}, {config.xi_hi:g}] x {len(xis)} log points, {len(omegas)} directions"
    return omegas, xis, spec


def check_d3(model, omega_grid=None, xi_loggrid=None, config=CheckConfig()):
    """Strict spectral stability over a log frequency grid (0 excluded)."""
    model = ensure_normalized(model)
    omegas, xis, spec = _frequency_grid(model, omega_grid, xi_loggrid, config)
    ubar = model.reference_state

    xi, idx, mags = direction_major_grid(omegas, xis)
    mg = dispersion_root_stack(model, ubar, xi).real.max(axis=1)
    q = int(np.argmax(mg))
    witness = {"u": ubar.tolist(), "omega": omegas[idx[q]].tolist(), "xi": float(mags[q])}
    per_point = list(zip(mags.tolist(), idx.tolist(), mg.tolist()))
    return _report("D3", float(mg[q]), witness, spec, config, per_point=per_point)


def _lyap_solve(M, rho):
    P = sla.solve_lyapunov(M.conj().T, -rho * np.eye(M.shape[0], dtype=complex))
    return 0.5 * (P + P.conj().T)


def _positive_cond(P, what):
    w = np.linalg.eigvalsh(P)
    if w[0] <= 0.0 or not np.all(np.isfinite(w)):
        raise LyapunovSolveFailure(
            f"{what} not positive definite (lambda_min = {w[0]:.3e})"
        )
    return float(w[-1] / w[0])


def lyapunov_certificate(M, rho):
    """Solve P M + M^* P = -rho I for hermitian P; returns (P, cond)."""
    try:
        P = _lyap_solve(M, rho)
    except Exception as e:  # scipy raises LinAlgError or ValueError
        raise LyapunovSolveFailure(f"Lyapunov solve failed: {e}") from e
    return P, _positive_cond(P, "Lyapunov solution")


def _linkage_groups(lam, theta):
    # single-linkage groups, merged until inter-group gaps are >= 3*theta
    thr = theta
    while True:
        groups, gap = _single_linkage(lam, thr)
        if gap >= 3.0 * thr:
            return groups
        thr *= 2.0


#: A direct per-point Lyapunov solve is accepted when its conditioning is
#: below this value; otherwise the spectrum is split at its gaps.
BALANCE_COND_TARGET = 200.0


def _balanced_adaptive(M, rho, P=None):
    # P, when given, is the direct solution of P M + M^* P = -rho I
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
    groups = _linkage_groups(lam, theta)
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


def _balanced_from(M, rho, P=None):
    """Balanced certificate (P, cond), grown from the direct solution P if given."""
    try:
        P = _balanced_adaptive(M, rho, P)
    except Exception as e:
        raise LyapunovSolveFailure(f"balanced certificate failed: {e}") from e
    return P, _positive_cond(P, "balanced certificate")


def balanced_lyapunov_certificate(M, rho):
    """Spectral-gap-balanced decay certificate with bounded conditioning.

    The plain solution of P M + M^* P = -rho I has lambda_min(P) ~ rho as
    xi -> 0 (the zero-frequency symbol is singular), so its condition number
    grows like 1/rho for every model.  When the direct solve is badly
    conditioned, the spectrum is split at its gaps, one Lyapunov equation is
    solved per group, and each block is rescaled to unit norm; the result is
    an equally valid decay certificate P M + M^* P <= -c rho P whose
    conditioning stays bounded uniformly in xi exactly when the mode decay
    is uniform.  Returns (P, cond).
    """
    lam = np.linalg.eigvals(M)
    if np.max(lam.real) >= 0.0:
        raise LyapunovSolveFailure(
            f"spectral abscissa {np.max(lam.real):.3e} >= 0"
        )
    return _balanced_from(M, rho)


def check_uniform_dissipativity(model, omega_grid=None, xi_loggrid=None, config=CheckConfig()):
    """Certify uniform Fourier-mode decay -c rho(xi) at the reference state.

    Per grid point: (i) abscissa certificate c_abs = inf -alpha(xi)/rho(xi)
    with alpha the spectral abscissa of M(0, xi); (ii) Lyapunov certificate
    P M + M^* P = -rho(xi) I with P positive definite and uniformly bounded
    condition number.  Pass iff c_abs > 0 and sup cond(P) stays below the
    configured ceiling.
    """
    model = ensure_normalized(model)
    omegas, xis, spec = _frequency_grid(model, omega_grid, xi_loggrid, config)
    ubar = model.reference_state

    c_abs = np.inf
    cond_max = 0.0
    worst = -np.inf
    witness = {}
    per_point = []
    conds = np.zeros((len(xis), len(omegas)))
    conds_raw = np.zeros((len(xis), len(omegas)))
    Ms = assemble_M_stack(model, ubar, direction_major_grid(omegas, xis)[0])
    alphas = np.linalg.eigvals(Ms).real.max(axis=1)
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
            # one Lyapunov solve: its conditioning is cond_raw, and it seeds
            # the balanced certificate
            P, cond_raw = lyapunov_certificate(M, r)
            _, cond = _balanced_from(M, r, P)
            conds[k, i] = cond
            conds_raw[k, i] = cond_raw
            cond_max = max(cond_max, cond)
            mg = -c_pt
            per_point.append((float(x), i, mg))
            if mg > worst:
                worst, witness = mg, {"u": ubar.tolist(), "omega": om.tolist(), "xi": float(x)}

    cond_by_xi = conds.max(axis=1)
    log_xi, log_cond = np.log(xis), np.log(cond_by_xi)
    slope = float(np.polyfit(log_xi, log_cond, 1)[0])

    def trend(mask):
        # log-log slope over the masked points; the full-grid slope below 3
        return float(np.polyfit(log_xi[mask], log_cond[mask], 1)[0]) if np.sum(mask) >= 3 else slope

    ok_cond = cond_max <= config.cond_ceiling
    margin = worst if ok_cond else cond_max / config.cond_ceiling
    return _report(
        "UNIFORM", margin, witness, spec, config,
        c_bar=float(c_abs),
        trace={
            "c_abs": float(c_abs),
            "cond_max": float(cond_max),
            "cond_loglog_slope": slope,
            "cond_tail_slope": trend(xis >= config.trend_xi_min),
            "cond_head_slope": trend(xis <= config.trend_xi_max_low),
            "cond_by_xi": cond_by_xi.tolist(),
            "cond_raw_by_xi": conds_raw.max(axis=1).tolist(),
            "xi_grid": xis.tolist(),
        },
        per_point=per_point,
    )


# ---------------------------------------------------------------------------
# Dissipation symbol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationSymbol:
    """Hermitian D with D >= c_inf I and D M + (D M)^* = -I <= -c_inf I."""

    D: np.ndarray
    c_inf: float
    xi_vec: np.ndarray
    residual: float


def build_dissipation_symbol(model, u, xi_vec, config=CheckConfig()):
    """Lyapunov-canonical dissipation symbol at a single high frequency.

    Solves D M + M^* D = -I; D is hermitian positive definite whenever the
    spectral abscissa of M(u, xi) is negative, and c_inf = min(lambda_min(D), 1)
    makes both defining inequalities hold.
    """
    xi_vec = np.asarray(xi_vec, dtype=float)
    if np.linalg.norm(xi_vec) < config.dissipation_threshold:
        raise InvalidParameter(
            f"|xi| = {np.linalg.norm(xi_vec):g} below dissipation threshold "
            f"{config.dissipation_threshold:g}"
        )
    model = ensure_normalized(model)
    M = assemble_M(model, u, xi_vec)
    alpha = float(np.max(np.linalg.eigvals(M).real))
    if alpha >= 0.0:
        raise NotDissipativeAtPoint(f"spectral abscissa {alpha:.3e} >= 0 at xi={xi_vec}")
    try:
        D = _lyap_solve(M, 1.0)
    except Exception as e:
        raise NotDissipativeAtPoint(f"Lyapunov solve failed: {e}") from e
    w = np.linalg.eigvalsh(D)
    if w[0] <= 0.0:
        raise NotDissipativeAtPoint(f"dissipation symbol not positive definite at xi={xi_vec}")
    residual = float(np.linalg.norm(D @ M + M.conj().T @ D + np.eye(M.shape[0]), 2))
    c_inf = float(min(w[0], 1.0))
    return DissipationSymbol(D=D, c_inf=c_inf, xi_vec=xi_vec, residual=residual)


def dissipation_derivative_bounds(model, u, xi_vec, config=CheckConfig(), rel_step=1e-5):
    """Finite-difference boundedness measurements for the dissipation symbol.

    Returns the max over coordinate directions of ||d D/d xi_j|| * <xi> and
    ||d D/d u_k|| (first-order derivatives scaled per symbol-class order).
    """
    from .symbols import xi_bracket

    def largest_derivative(x, h, D_at):
        # max over coordinates j of || (D(x + h e_j) - D(x - h e_j)) / 2h ||
        steps = h * np.eye(len(x))
        return max(np.linalg.norm((D_at(x + e) - D_at(x - e)) / (2 * h), 2) for e in steps)

    xi_vec = np.asarray(xi_vec, dtype=float)
    br = xi_bracket(xi_vec)
    d_xi = largest_derivative(xi_vec, rel_step * br, lambda x: build_dissipation_symbol(model, u, x, config).D)
    d_u = largest_derivative(u, rel_step, lambda v: build_dissipation_symbol(model, v, xi_vec, config).D)
    return {"dxi_scaled": float(d_xi * br), "du": float(d_u)}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

CONDITION_ORDER = ("HA", "HB", "D1", "D2", "D3", "UNIFORM")


def run_all_checks(model, config=CheckConfig(), omega_grid=None):
    """Run all six checkers in dependency order; returns {condition: report}.

    Conditions whose prerequisites failed are reported as 'fail' with a
    'prerequisite_missing' trace reason rather than raising.
    """
    model = ensure_normalized(model)
    reports = {}
    ha = check_ha(model, omega_grid=omega_grid, config=config)
    reports["HA"] = ha.report
    hb = check_hb(model, omega_grid=omega_grid, config=config)
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
    reports["D3"] = check_d3(model, omega_grid=omega_grid, config=config)
    if reports["D3"].verdict == "pass":
        try:
            reports["UNIFORM"] = check_uniform_dissipativity(
                model, omega_grid=omega_grid, config=config
            )
        except LyapunovSolveFailure as e:
            reports["UNIFORM"] = skipped("UNIFORM", f"lyapunov_failure:{e}")
    else:
        reports["UNIFORM"] = skipped("UNIFORM", "prerequisite_missing:D3")
    return reports
