"""The stacked eigenstructure and the HA/HB/D1/D2 checkers built on it,
against the per-point oracle in `oracles.py`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdiss.conditions import (
    build_symmetrizer,
    check_d1,
    check_d2,
    check_ha,
    check_hb,
    eigstructure,
    spectral_stack,
)
from hypdiss.errors import ClusterAmbiguity, NotSymmetrizable
from hypdiss.grids import unit_directions
from hypdiss.model import (
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_convected_damped_wave,
    builtin_damped_wave,
    ensure_normalized,
    model_from_dict,
)
from hypdiss.symbols import assemble_calB_stack, assemble_M, directional_stack

from oracles import (
    cluster_bases,
    eigstructure_oracle,
    random_stable_model,
    structural_oracle,
    symmetrizer_oracle,
)

FLUID_SETS = [
    FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0),
    FluidParameters(r=2, mu=3, nu=1.5, eta=1, zeta=0.5),
    FluidParameters(r=1, mu=2.5, nu=0.7, eta=1.2, zeta=0.1),
]
README_MODEL = {
    "n": 1, "d": 1, "reference_state": [0.0],
    "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
    "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
}


# ---------------------------------------------------------------------------
# Matrix families
# ---------------------------------------------------------------------------

def _planted(rng, m, near):
    # T diag(v) T^{-1} with planted multiplicities; with `near` two clusters
    # sit 2e-6 apart, inside ClusterAmbiguity's 10 x tolerance guard
    sizes = []
    while sum(sizes) < m:
        sizes.append(int(rng.integers(1, m - sum(sizes) + 1)))
    values = rng.permutation(np.arange(-4.0, 5.0))[:len(sizes)]
    if rng.random() < 0.3:
        values = values + 1j * rng.permutation(np.arange(-2.0, 3.0) * 0.7)[0]
    if near and len(sizes) > 1:
        values[1] = values[0] + 2e-6
    T = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
    return T @ np.diag(np.repeat(values, sizes)) @ np.linalg.inv(T)


def _fluid_symbols(rng, which):
    f = ensure_normalized(builtin_barotropic_fluid(FLUID_SETS[int(rng.integers(3))]))
    om = rng.normal(size=3)
    om /= np.linalg.norm(om)
    u = f.reference_state
    if which == "W0":
        return np.linalg.solve(f.A(0, u), directional_stack(f, u, om)[1][0])
    return 1j * assemble_calB_stack(f, u, om[None])[0]


def _jordan(rng, m):
    # a Jordan block of size 2 beside m - 2 simple eigenvalues
    J = np.diag(np.arange(m, dtype=float) * 1.5)
    J[1, 1] = J[0, 0]
    J[0, 1] = 1.0 + rng.random()
    return J


def _damped_wave_mode():
    # d = 3 damped wave (a = 2) at xi = (1, 0, 0): a defective mode whose
    # eigenvector matrix has cond ~ 1e8, past DEFECT_COND_LIMIT
    m = ensure_normalized(builtin_damped_wave(2.0, d=3))
    return assemble_M(m, m.reference_state, np.array([1.0, 0.0, 0.0]))


@st.composite
def matrix_stacks(draw):
    family = draw(st.sampled_from(["planted", "near", "W0", "calB", "jordan", "damped-wave"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6)) if family in ("planted", "near") else draw(st.integers(2, 4))
    if family in ("planted", "near"):
        return np.stack([_planted(rng, m, family == "near") for _ in range(count)])
    if family in ("W0", "calB"):
        return np.stack([_fluid_symbols(rng, family) for _ in range(count)])
    if family == "jordan":
        return np.stack([_jordan(rng, m) for _ in range(count)])
    return np.stack([_damped_wave_mode()] * count)


def _projector(basis):
    return basis @ basis.conj().T


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(matrix_stacks())
def test_stack_matches_per_point_oracle(K):
    # values, multiplicities and semi-simplicity exactly; cluster projectors
    # within 1e-10; ClusterAmbiguity at the same first point
    want = []
    for k in K:
        try:
            want.append(eigstructure_oracle(k))
        except ClusterAmbiguity as e:
            want.append(e)
    first_bad = next((q for q, w in enumerate(want) if isinstance(w, Exception)), None)
    if first_bad is not None:
        with pytest.raises(ClusterAmbiguity) as err:
            spectral_stack(K)
        assert err.value.index == first_bad
        assert str(err.value) == str(want[first_bad])
        return
    got = spectral_stack(K)
    for q, w in enumerate(want):
        cs = np.flatnonzero(got.point == q)
        assert got.radius[q] == w.radius
        assert got.value[cs].tolist() == [c.value for c in w.clusters]
        assert got.mult[cs].tolist() == [c.mult for c in w.clusters]
        assert got.semi_simple[cs].tolist() == [c.semi_simple for c in w.clusters]
        for c, basis, b in zip(cs, cluster_bases(got, q), w.clusters):
            assert np.array_equal(got.lam[q][got.members[c]], b.values)
            assert np.abs(_projector(basis) - _projector(b.basis)).max() <= 1e-10


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(matrix_stacks())
def test_symmetrizer_exists_where_the_oracle_finds_one(K):
    for k in K:
        try:
            _, want = symmetrizer_oracle(k)
        except (ClusterAmbiguity, NotSymmetrizable) as e:
            with pytest.raises(type(e)):
                build_symmetrizer(k)
            continue
        S, lower_bound = build_symmetrizer(k)
        SK = S @ k
        bound = 1e-8 * np.linalg.norm(S, 2) * np.linalg.norm(k, 2)
        assert np.linalg.norm(SK - SK.conj().T, 2) <= bound
        assert lower_bound > 0
        assert eigstructure(k).mult.tolist() == [c.mult for c in want.clusters]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_cached_symmetrizers_meet_the_contract(n, d, seed):
    # wherever the HA/HB cache holds a symmetrizer S of the reference-state
    # symbol K: S = S^*, lambda_min(S) > 0 and ||S K - (S K)^*|| <= 1e-8 ||S|| ||K||
    m = ensure_normalized(random_stable_model(np.random.default_rng(seed), n=n, d=d))
    u = m.reference_state
    ha, hb = check_ha(m), check_hb(m)
    # A^0 is positive definite and every A^j symmetric, so W0 is similar to a
    # symmetric matrix in every direction
    assert ha.symmetrizable.all()
    for cache, symbol in (
        (ha, lambda om: np.linalg.solve(m.A(0, u), directional_stack(m, u, om)[1][0])),
        (hb, lambda om: 1j * assemble_calB_stack(m, u, om[None])[0]),
    ):
        for i in np.flatnonzero(cache.symmetrizable):
            S, K = cache.S[i], symbol(cache.omegas[i])
            assert np.array_equal(S, S.conj().T)
            assert np.linalg.eigvalsh(S)[0] > 0
            SK = S @ K
            assert np.linalg.norm(SK - SK.conj().T, 2) <= (
                1e-8 * np.linalg.norm(S, 2) * np.linalg.norm(K, 2))


# ---------------------------------------------------------------------------
# Checkers against the per-point oracle
# ---------------------------------------------------------------------------

def _models():
    cases = [(f"fluid-{k}", builtin_barotropic_fluid(p)) for k, p in enumerate(FLUID_SETS)]
    cases += [(f"dw-d{d}", builtin_damped_wave(2.0, d=d)) for d in (1, 2, 3)]
    cases += [(f"cdw-{a}", builtin_convected_damped_wave(a)) for a in (0.0, 0.5, 1.5)]
    cases += [("readme-json", model_from_dict(README_MODEL))]
    cases += [(f"random-n{n}-d{d}", random_stable_model(np.random.default_rng(10 * n + d), n=n, d=d))
              for n in (1, 2, 3) for d in (1, 2, 3)]
    return cases


MODELS = _models()


def _margins(report):
    return np.array([row[-1] for row in report.per_point])


def _same_symmetrizer(cache, symbol):
    # directions where the oracle's S is the sum of P_c^* P_c: its in-cluster
    # eigenvectors came out orthonormal.  Elsewhere the oracle's eigenspace
    # form depends on the eigenvectors eig happened to return.
    same = []
    for i, om in enumerate(cache.omegas):
        S, _ = symmetrizer_oracle(symbol(om))
        same.append(np.abs(S - cache.S[i]).max() <= 1e-10 * np.abs(S).max())
    return np.array(same)


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_checkers_match_per_point_oracle(model):
    want = structural_oracle(model)
    ha, hb = check_ha(model), check_hb(model)
    np.testing.assert_allclose(ha.report.margin, want["HA"][0], rtol=1e-10)
    np.testing.assert_allclose(ha.report.trace["part_a"], want["HA"][1], rtol=1e-10)
    np.testing.assert_allclose(_margins(ha.report), want["HA"][2], rtol=1e-10)
    np.testing.assert_allclose(hb.report.margin, want["HB"][0], rtol=1e-10)
    np.testing.assert_allclose(_margins(hb.report), want["HB"][1], rtol=1e-10)

    m = ensure_normalized(model)
    u = m.reference_state
    symbols = {
        "D1": (ha, lambda om: np.linalg.solve(m.A(0, u), directional_stack(m, u, om)[1][0])),
        "D2": (hb, lambda om: 1j * assemble_calB_stack(m, u, om[None])[0]),
    }
    for name, check in (("D1", check_d1), ("D2", check_d2)):
        cache, symbol = symbols[name]
        if want[name] is None:
            assert not cache.symmetrizable.all()
            continue
        got = _margins(check(model, **{"ha" if name == "D1" else "hb": cache}))
        same = _same_symmetrizer(cache, symbol)
        np.testing.assert_allclose(got[same], np.asarray(want[name])[same], rtol=1e-10)
        # elsewhere S differs by a congruence inside each cluster, which keeps
        # the sign of the form (Sylvester's law of inertia)
        assert np.array_equal(got > 0, np.asarray(want[name]) > 0)


@pytest.mark.parametrize("params", FLUID_SETS, ids=["fluid-0", "fluid-1", "fluid-2"])
def test_fluid_eigenspace_margins_are_isotropic(params):
    # the fluid is isotropic, so D1 and D2 take the same value in every
    # direction; the per-point oracle misses this on fluid-1's D1, whose
    # double W0 eigenvalue got non-orthonormal eigenvectors in one direction
    model = builtin_barotropic_fluid(params)
    for rep in (check_d1(model), check_d2(model)):
        mg = _margins(rep)
        assert np.ptp(mg) <= 1e-12 * np.abs(mg).max()


def test_bases_are_formed_only_where_a_symmetrizer_reads_them(monkeypatch):
    # HA and HB decompose with eigvals and call no eig.  The SVD with vectors
    # runs once per stack whose basis a symmetrizer reads, on its clusters
    # that do not hold the whole spectrum: A^0 at every state sample (HA part
    # (a)) and the reference-state rows of W0 and i calB, not the 256 states
    # x 64 directions of either scan.  A^0_11 = 2 + 0.1 u_0 splits A^0's
    # spectrum, and the reference state is not a state sample.
    model = ensure_normalized(model_from_dict({
        "n": 2, "d": 2, "reference_state": [0.0, 0.0],
        "A": {"0": [[1.0, 0.0], [0.0, [[2.0, 0, 0], [0.1, 1, 0]]]],
              "1": [[[[0.3, 1, 0]], 0.2], [0.2, 0.0]], "2": [[0.0, 0.1], [0.1, [[0.5, 0, 1]]]]},
        "B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]], "1,1": [[1.0, 0.0], [0.0, 1.0]],
              "2,2": [[1.0, 0.0], [0.0, 1.0]], "1,2": [[0.1, 0.0], [0.0, 0.1]]},
    }))
    us, u = model.state_samples(), model.reference_state
    assert not np.any(np.all(us == u, axis=1))
    omegas, _ = unit_directions(2)
    A0, A, _, _ = directional_stack(model, u, omegas)
    want = []
    for K in (directional_stack(model, us, omegas[:1])[0], np.linalg.solve(A0, A),
              1j * assemble_calB_stack(model, u, omegas)):
        st = spectral_stack(K)
        want.append(int(np.sum(st.mult < K.shape[-1])))
    assert all(want)

    svd = np.linalg.svd
    eig, sizes = [], []
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: eig.append(a))
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, compute_uv=True, **kw: (
        compute_uv and sizes.append(len(a))) or svd(a, *args, compute_uv=compute_uv, **kw))
    check_ha(model)
    check_hb(model)
    assert eig == []
    assert sizes == want


@pytest.mark.parametrize("hi,extra", [(1.0, 0), (1.5, 1)])
def test_reference_symbols_are_decomposed_once(monkeypatch, hi, extra):
    # HA (part (a) and the scan) and HB each run one stacked decomposition;
    # the reference state rides along in the scan's stack, unless it is a
    # state sample (the Halton point 1/2 of the domain [-1, 1])
    import hypdiss.conditions as cond

    calls = []
    real = cond.spectral_stack
    monkeypatch.setattr(cond, "spectral_stack", lambda K, *a: calls.append(K.shape) or real(K, *a))
    model = model_from_dict({**README_MODEL, "domain_lo": [-1.0], "domain_hi": [hi]})
    omegas, _ = unit_directions(1)
    us = model.state_samples()
    assert np.any(np.all(us == model.reference_state, axis=1)) == (extra == 0)
    check_ha(model)
    check_hb(model)
    points = len(omegas) * (len(us) + extra)
    assert calls == [(len(us), 1, 1), (points, 1, 1), (points, 2, 2)]


def test_ambiguity_names_the_first_point_of_the_scan():
    # B^{22} = 1 + 4e-6 u_1 splits the unit speed by 2e-6 u_1: an ambiguous
    # gap at some sampled states only
    model = model_from_dict({
        "n": 2, "d": 1, "reference_state": [0.0, 0.0],
        "A": {"0": [[1.0, 0.0], [0.0, 1.0]]},
        "B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]],
              "1,1": [[1.0, 0.0], [0.0, [[1.0, 0, 0], [4e-6, 1, 0]]]]},
    })
    m = ensure_normalized(model)
    want = None
    for i, om in enumerate(unit_directions(1)[0]):
        for s, u in enumerate(m.state_samples()):
            try:
                eigstructure_oracle(1j * assemble_calB_stack(m, u, om[None])[0])
            except ClusterAmbiguity as e:
                want = f"{e} at state index {s}, omega index {i}"
                break
        if want:
            break
    assert want is not None and "state index 0," not in want
    with pytest.raises(ClusterAmbiguity) as err:
        check_hb(model)
    assert str(err.value) == want
