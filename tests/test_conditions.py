from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from hypdiss.conditions import (
    CheckConfig,
    balanced_lyapunov_certificate,
    build_symmetrizer,
    check_d1,
    check_d2,
    check_d3,
    check_ha,
    check_hb,
    check_uniform_dissipativity,
    eigstructure,
    lyapunov_certificate,
    rho_profile,
    run_all_checks,
)
from hypdiss.errors import (
    ClusterAmbiguity,
    EigensolverFailure,
    GridEmpty,
    InvalidParameter,
    LyapunovSolveFailure,
    NotSymmetrizable,
    PrerequisiteMissing,
)
from hypdiss.grids import unit_directions
from hypdiss.model import (
    STATE_SAMPLES,
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_convected_damped_wave,
    builtin_damped_wave,
    ensure_normalized,
    model_from_dict,
)
from hypdiss.symbols import assemble_calB_stack, assemble_M, dispersion_roots

FLUID = FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0)
README_MODEL = {
    "n": 1, "d": 1, "reference_state": [0.0],
    "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
    "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
}
FLUID_SETS = [
    FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0),
    FluidParameters(r=2, mu=3, nu=1.5, eta=1, zeta=0.5),
    FluidParameters(r=1, mu=2.5, nu=0.7, eta=1.2, zeta=0.1),
]


def rotation_model():
    # A^0 with spectrum {+-i}: fails HA part (a)
    return model_from_dict(
        {
            "n": 2, "d": 1, "reference_state": [0.0, 0.0],
            "A": {"0": [[0.0, 1.0], [-1.0, 0.0]]},
            "B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]], "1,1": [[1.0, 0.0], [0.0, 1.0]]},
        }
    )


def zero_cala_model():
    # A^0 = 0 and A^j = 0: the D2 quadratic form is identically zero
    return model_from_dict(
        {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[0.0]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        }
    )


def antidamped_model():
    # A^0 = -1: a dispersion root crosses into Re > 0 at small xi
    return model_from_dict(
        {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[-1.0]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        }
    )


class TestEigstructure:
    def test_semisimple_clusters(self):
        es = eigstructure(np.diag([1.0, 1.0, 2.0]))
        assert sorted(es.mult.tolist()) == [1, 2]
        assert es.semi_simple.all()
        vals = sorted(es.value.real)
        assert vals == pytest.approx([1.0, 2.0])

    def test_jordan_block_defective(self):
        es = eigstructure(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert es.mult.tolist() == [2]
        assert not es.semi_simple[0]

    def test_calb_damped_wave_clusters(self):
        m = builtin_damped_wave(2.0, d=1)
        calB = assemble_calB_stack(m, m.reference_state, np.array([[1.0]]))[0]
        es = eigstructure(calB)
        assert sorted(es.mult.tolist()) == [1, 1]
        assert es.semi_simple.all()
        vals = sorted(np.round(es.value.imag, 10))
        assert vals == pytest.approx([-1.0, 1.0])

    def test_bases_orthonormal_and_invariant(self):
        from oracles import cluster_bases

        rng = np.random.default_rng(0)
        K = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        es = eigstructure(K)
        assert es.mult.sum() == 5
        for Q, k in zip(cluster_bases(es), es.mult.tolist()):
            assert Q.shape == (5, k)
            assert np.abs(Q.conj().T @ Q - np.eye(k)).max() < 1e-12
            # K maps span(Q) into itself
            assert np.abs(K @ Q - Q @ (Q.conj().T @ K @ Q)).max() < 1e-8

    def test_single_linkage_matches_union_find(self):
        from hypdiss.conditions import _linkage

        from oracles import _single_linkage as union_find

        rng = np.random.default_rng(21)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            lam = np.round(rng.normal(size=m), 1) + 1j * np.round(rng.normal(size=m), 1)
            thr = float(rng.choice([1e-7, 0.1, 0.3]))
            order, gap, point, value, members = _linkage(lam[None], np.array([thr]))
            got = [lam[order[0]][mask] for mask in members]
            assert np.array_equal(point, np.zeros(len(got)))
            assert np.array_equal(value, [g.mean() for g in got])
            gap = float(gap[0])
            want, want_gap = union_find(lam, thr)
            assert gap == want_gap
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_cluster_ambiguity(self):
        with pytest.raises(ClusterAmbiguity):
            eigstructure(np.diag([1.0, 1.0 + 8e-7, 2.0]), cluster_tolerance=1e-7)


class TestSymmetrizer:
    def test_symmetric_input(self):
        K = np.array([[2.0, 0.5], [0.5, 1.0]])
        S, lower_bound = build_symmetrizer(K)
        SK = S @ K
        assert np.abs(SK - SK.conj().T).max() < 1e-10
        assert lower_bound > 0

    def test_conjugated_diagonal(self):
        rng = np.random.default_rng(4)
        T = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
        K = T @ np.diag([1.0, 2.0, 5.0]) @ np.linalg.inv(T)
        S, lower_bound = build_symmetrizer(K)
        SK = S @ K
        assert np.abs(SK - SK.conj().T).max() <= 1e-8 * np.linalg.norm(S, 2) * np.linalg.norm(K, 2)
        assert np.min(np.linalg.eigvalsh(S)) == pytest.approx(lower_bound)

    def test_fluid_principal_symbol_symmetrizable(self):
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        rng = np.random.default_rng(8)
        om = rng.normal(size=3)
        om /= np.linalg.norm(om)
        iB = 1j * assemble_calB_stack(f, f.reference_state, om[None])[0]
        S, _ = build_symmetrizer(iB)
        SK = S @ iB
        assert np.abs(SK - SK.conj().T).max() <= 1e-8 * np.linalg.norm(S, 2) * np.linalg.norm(iB, 2)

    def test_rejects_complex_spectrum(self):
        with pytest.raises(NotSymmetrizable):
            build_symmetrizer(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_rejects_defective(self):
        with pytest.raises(NotSymmetrizable):
            build_symmetrizer(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestHA:
    def test_damped_wave_passes(self):
        res = check_ha(builtin_damped_wave(2.0, d=1))
        assert res.report.verdict == "pass"
        assert res.report.trace["multiplicities"] == [1]

    def test_fluid_passes(self):
        res = check_ha(builtin_barotropic_fluid(FLUID))
        assert res.report.verdict == "pass"

    def test_rotation_a0_fails(self):
        res = check_ha(rotation_model())
        assert res.report.verdict == "fail"
        assert res.report.witness["part"] == "a"


class TestHB:
    def test_damped_wave_passes(self):
        res = check_hb(builtin_damped_wave(2.0, d=1))
        assert res.report.verdict == "pass"
        assert res.report.trace["multiplicities"] == [1, 1]

    def test_fluid_multiplicities(self):
        res = check_hb(builtin_barotropic_fluid(FLUID))
        assert res.report.verdict == "pass"
        assert res.report.trace["multiplicities"] == [1, 1, 1, 1, 2, 2]

    def test_scans_the_models_state_samples(self):
        # one per-point row per (direction, state sample): the samples that
        # normalize_b00 validates B^{00} on
        m = model_from_dict({
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        })
        omegas, _ = unit_directions(1, CheckConfig().directions_2d)
        res = check_hb(m)
        assert len(res.report.per_point) == len(omegas) * STATE_SAMPLES
        assert res.report.grid_spec == f"{STATE_SAMPLES} states x {len(omegas)} directions"

    def test_boundary_viscosity_degenerate(self):
        # mu = eta_tilde: the longitudinal second-order block is singular and
        # the principal symbol becomes defective
        p = FluidParameters(r=3, mu=4.0 / 3.0, nu=1, eta=1, zeta=0, allow_boundary=True)
        res = check_hb(builtin_barotropic_fluid(p))
        assert res.report.verdict != "pass"
        assert res.report.trace["degenerate"]


class TestD1:
    @pytest.mark.parametrize(
        "a,margin", [(0.5, -1.5), (1.5, 2.5), (0.0, -2.0)]
    )
    def test_subcharacteristic_margins(self, a, margin):
        # scalar closed form: W1 + W1^* = 2 (a^2 - 1)
        m = builtin_convected_damped_wave(a)
        rep = check_d1(m)
        assert rep.margin == pytest.approx(margin, abs=1e-9)
        assert rep.verdict == ("pass" if margin < 0 else "fail")
        if margin < 0:
            assert rep.c_bar == pytest.approx(-margin, rel=2e-3)

    def test_threshold_flip_bisection(self):
        # the verdict flips exactly across a = 1, localized to 1e-3
        def passes(a):
            return check_d1(builtin_convected_damped_wave(a)).verdict == "pass"

        lo, hi = 0.5, 1.5
        assert passes(lo) and not passes(hi)
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 1.0) < 1e-3
        assert passes(1.0 - 1e-3) and not passes(1.0 + 1e-3)

    def test_fluid_passes(self):
        for p in FLUID_SETS:
            rep = check_d1(builtin_barotropic_fluid(p))
            assert rep.verdict == "pass"
            assert rep.c_bar > 0

    def test_prerequisite_enforced(self):
        with pytest.raises(PrerequisiteMissing):
            check_d1(rotation_model())

    def test_witness_reproduces_margin(self):
        # D1 on the witness direction alone gives the margin of the full grid
        m = builtin_barotropic_fluid(FLUID)
        rep = check_d1(m, ha=check_ha(m))
        om = np.array(rep.witness["omega"])
        assert check_d1(m, omega_grid=om[None]).margin == pytest.approx(rep.margin, abs=1e-12)

    def test_grid_robustness_near_witness(self):
        # refining directions near the witness does not flip the verdict
        m = builtin_barotropic_fluid(FLUID)
        ha = check_ha(m)
        rep = check_d1(m, ha=ha)
        om = np.array(rep.witness["omega"])
        rng = np.random.default_rng(12)
        for _ in range(20):
            pert = om + 1e-3 * rng.normal(size=3)
            pert /= np.linalg.norm(pert)
            ha_p = check_ha(m, omega_grid=pert[None, :])
            rep_p = check_d1(m, ha=ha_p)
            assert rep_p.verdict == rep.verdict


class TestD2:
    def test_damped_wave_value(self):
        # hand computation: calB eigenvectors (1, +-i)/sqrt(2), calA = diag(0, -2),
        # restriction of W1 + W1^* is -2 on both eigenspaces
        rep = check_d2(builtin_damped_wave(2.0, d=1))
        assert rep.verdict == "pass"
        assert rep.margin == pytest.approx(-2.0, abs=1e-10)

    def test_fluid_passes(self):
        for p in FLUID_SETS:
            rep = check_d2(builtin_barotropic_fluid(p))
            assert rep.verdict == "pass"

    def test_zero_form_not_pass(self):
        rep = check_d2(zero_cala_model())
        assert rep.verdict != "pass"
        assert abs(rep.margin) < 1e-12  # margin 0: boundary case


class TestD3:
    def test_damped_wave_low_frequency_asymptotics(self):
        m = builtin_damped_wave(2.0, d=1)
        rep = check_d3(m)
        assert rep.verdict == "pass"
        # Re lambda behaves like -xi^2/2 as xi -> 0, so the margin
        # max Re lambda / rho tends to -1/2 and is attained at the lowest xi
        assert rep.witness["xi"] == pytest.approx(1e-3)
        assert rep.margin == pytest.approx(-0.5, rel=1e-2)

    def test_fluid_passes_on_default_grid(self):
        rep = check_d3(builtin_barotropic_fluid(FLUID))
        assert rep.verdict == "pass"
        assert len(rep.per_point) == 49 * 26

    def test_antidamped_fails_at_small_xi(self):
        rep = check_d3(antidamped_model())
        assert rep.verdict == "fail"
        assert rep.witness["xi"] < 1.0

    def test_rejects_zero_in_grid(self):
        with pytest.raises(InvalidParameter):
            check_d3(builtin_damped_wave(1.0, d=1), xi_loggrid=np.array([0.0, 1.0]))

    def test_abscissa_consistency(self):
        # max_real_part agrees with the abscissa of the weighted symbol
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = rng.normal(size=3) * rng.uniform(0.05, 20.0)
            a1 = dispersion_roots(f, f.reference_state, xi).max_real_part
            a2 = float(np.max(np.linalg.eigvals(assemble_M(f, f.reference_state, xi)).real))
            assert a1 == pytest.approx(a2, abs=1e-10)


class TestUniform:
    def test_damped_wave_closed_form(self):
        # alpha(xi) = -(1 - sqrt(1 - xi^2)) for xi < 1, -1 for xi >= 1;
        # the infimum of -alpha/rho is 1/2, attained as xi -> 0
        rep = check_uniform_dissipativity(builtin_damped_wave(2.0, d=1))
        assert rep.verdict == "pass"
        assert rep.c_bar == pytest.approx(0.5, abs=1e-6)

    def test_oracle_profile(self):
        xis = np.logspace(-3, 3, 25)
        m = builtin_damped_wave(2.0, d=1)
        rep = check_uniform_dissipativity(m, xi_loggrid=xis)
        alpha = np.where(xis < 1.0, -(1.0 - np.sqrt(np.maximum(1.0 - xis**2, 0.0))), -1.0)
        c_oracle = float(np.min(-alpha / rho_profile(xis)))
        assert rep.c_bar == pytest.approx(c_oracle, rel=1e-9)

    def test_fluid_certificates(self):
        rep = check_uniform_dissipativity(builtin_barotropic_fluid(FLUID))
        assert rep.verdict == "pass"
        tr = rep.trace
        assert tr["c_abs"] > 0
        assert tr["cond_max"] < CheckConfig().cond_ceiling
        assert abs(tr["cond_tail_slope"]) < 0.05
        assert abs(tr["cond_head_slope"]) < 0.05

    def test_rejects_zero_frequency(self):
        with pytest.raises(InvalidParameter):
            check_uniform_dissipativity(
                builtin_damped_wave(2.0, d=1), xi_loggrid=np.array([0.0, 1.0])
            )

    def test_unstable_model_raises(self):
        with pytest.raises(LyapunovSolveFailure):
            check_uniform_dissipativity(antidamped_model())

    def test_lyapunov_equality(self):
        # v^* (P M + M^* P) v == -rho |v|^2 for the canonical certificate
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        rng = np.random.default_rng(17)
        for x in (0.03, 1.0, 30.0):
            om = rng.normal(size=3)
            om /= np.linalg.norm(om)
            M = assemble_M(f, f.reference_state, x * om)
            r = float(rho_profile(x))
            P, _ = lyapunov_certificate(M, r)
            lhs_mat = P @ M + M.conj().T @ P
            for _ in range(100):
                v = rng.normal(size=8) + 1j * rng.normal(size=8)
                got = np.vdot(v, lhs_mat @ v).real
                want = -r * np.vdot(v, v).real
                assert got == pytest.approx(want, rel=1e-8)

    def test_balanced_certificate_negative_drift(self):
        # the balanced P still certifies decay at every folded point of the
        # default grid: P M + M^* P < 0
        from hypdiss.conditions import _certificates, _decay_stack

        for model, points in (
            (builtin_barotropic_fluid(FLUID), 637),
            (builtin_damped_wave(2.0, d=1), 49),
            (builtin_damped_wave(2.0, d=2), 1568),
            (builtin_damped_wave(2.0, d=3), 637),
            (builtin_convected_damped_wave(0.5), 49),
            (model_from_dict(README_MODEL), 49),
        ):
            st = _decay_stack(model)
            Ms, rho = st.Ms, st.rho
            _, P, cond = _certificates(Ms, rho, st.keep, st.eb)
            drift = np.linalg.eigvalsh(P @ Ms + _herm(Ms) @ P)[:, -1]
            assert len(Ms) == points
            assert np.all(drift < 0)
            assert np.all(cond < 1e7)
            # the one-point form gives the same certificate
            for q in (0, len(Ms) // 2, len(Ms) - 1):
                P1, cond1 = balanced_lyapunov_certificate(Ms[q], rho[q])
                np.testing.assert_allclose(P1, P[q], rtol=0, atol=1e-12 * np.abs(P[q]).max())
                assert cond1 == pytest.approx(cond[q], rel=1e-10)


class TestOrchestration:
    def test_prerequisite_skipping(self):
        reports = run_all_checks(rotation_model())
        assert reports["HA"].verdict == "fail"
        assert reports["D1"].verdict == "fail"
        assert reports["D1"].trace["reason"].startswith("prerequisite_missing")

    def test_all_pass_for_fluid(self):
        reports = run_all_checks(builtin_barotropic_fluid(FLUID))
        assert all(r.verdict == "pass" for r in reports.values())


class TestMergedIdentities:
    @pytest.mark.parametrize("model", [
        *(builtin_barotropic_fluid(p) for p in FLUID_SETS),
        builtin_convected_damped_wave(0.0),
        builtin_convected_damped_wave(0.5),
        builtin_convected_damped_wave(1.5),
        builtin_damped_wave(2.0, d=3),
    ], ids=["fluid", "fluid-2", "fluid-3", "cdw-0", "cdw-0.5", "cdw-1.5", "dw-d3"])
    def test_eigenspace_cbar_is_clipped_negated_margin(self, model):
        # the largest c with form + c I <= 0 on every eigenspace is -lambda_max
        for rep in (check_d1(model), check_d2(model)):
            assert rep.c_bar == max(0.0, -rep.margin)

    def test_uniform_raw_conditioning_matches_direct_solve(self):
        # cond_raw_by_xi reuses the solve that seeds the balanced certificate;
        # it must equal the conditioning of an independent direct solve
        import scipy.linalg as sla

        from hypdiss.grids import unit_directions

        m = ensure_normalized(builtin_barotropic_fluid(FLUID))
        xis = np.logspace(-3, 3, 13)
        rep = check_uniform_dissipativity(m, xi_loggrid=xis)
        omegas, _ = unit_directions(3)
        for x, got in zip(xis, rep.trace["cond_raw_by_xi"]):
            conds = []
            for om in omegas:
                M = assemble_M(m, m.reference_state, x * om)
                P = sla.solve_lyapunov(M.conj().T, -rho_profile(x) * np.eye(8, dtype=complex))
                w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
                assert w[0] > 0
                conds.append(w[-1] / w[0])
            assert got == pytest.approx(max(conds), rel=1e-8)


def _herm(A):
    return A.conj().swapaxes(-1, -2)


def _uniform_models():
    from oracles import random_stable_model

    cases = [(f"fluid-{k}", builtin_barotropic_fluid(p)) for k, p in enumerate(FLUID_SETS)]
    cases += [("dw-d1", builtin_damped_wave(2.0, d=1)), ("dw-d3", builtin_damped_wave(2.0, d=3))]
    cases += [(f"cdw-{a}", builtin_convected_damped_wave(a)) for a in (0.0, 0.5, 1.5)]
    cases += [(f"random-n{n}-d{d}", random_stable_model(np.random.default_rng(10 * n + d), n=n, d=d))
              for n in (1, 2, 3) for d in (1, 2, 3)]
    return cases


UNIFORM_MODELS = _uniform_models()


def _uniform_or_error(check, model, **kw):
    try:
        return check(model, **kw)
    except LyapunovSolveFailure as e:
        return e


def _assert_same_uniform(got, want):
    # cond profiles within 1e-8 relative, c_abs bit-equal, same verdict
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.verdict == want.verdict
    assert got.margin == want.margin and got.witness == want.witness
    assert got.trace["c_abs"] == want.trace["c_abs"]
    assert got.per_point == want.per_point
    for key in ("cond_by_xi", "cond_raw_by_xi"):
        np.testing.assert_allclose(got.trace[key], want.trace[key], rtol=1e-8, atol=0)


@hst.composite
def _spectra(draw):
    # rows of m = 1..8 stable eigenvalues with exact duplicates, conjugate
    # pairs and, on a quantized grid, tied distances (a gap of exactly 3 thr
    # included); each row's (or, when mixed, each value's) magnitude is
    # 10^[-8, 3], a power of 2 on the grid so that the ties stay exact
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    m, quantum = draw(hst.integers(1, 8)), draw(hst.sampled_from([None, 0.5, 1.0]))
    mixed = draw(hst.booleans())
    rows = []
    for _ in range(draw(hst.integers(1, 4))):
        scale = 2.0 ** rng.integers(-26, 10) if quantum else 10.0 ** rng.uniform(-8, 3)
        row = []
        while len(row) < m:
            kind = rng.choice(["new", "copy", "conj"]) if row else "new"
            if kind != "new":
                z = row[rng.integers(len(row))]
                row.append(z if kind == "copy" else np.conj(z))
                continue
            if quantum:
                z = quantum * complex(-rng.integers(1, 13), rng.integers(-9, 10) * rng.integers(0, 2))
            else:
                z = complex(-rng.uniform(0.01, 4.0), rng.normal() * rng.integers(0, 2))
            if mixed:
                z *= 2.0 ** rng.integers(-26, 10) if quantum else 10.0 ** rng.uniform(-8, 3)
            row.append(z if mixed else z * scale)
        rows.append(rng.permutation(np.array(row)))
    return np.array(rows)


class TestFirstGroup:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_spectra())
    def test_one_pass_matches_the_doubling_linkage(self, lam):
        # the thresholds read from each row's minimum spanning tree are the
        # ones that re-running the linkage at each doubling reaches, bit for bit
        from hypdiss.conditions import _first_group

        from oracles import first_group_oracle

        mask, thr = _first_group(lam)
        want_mask, want_thr = first_group_oracle(lam)
        assert np.array_equal(thr, want_thr)
        assert np.array_equal(mask, want_mask)


class TestBatchedUniform:
    """The stacked UNIFORM certificate against the per-point oracle."""

    @pytest.mark.parametrize("model", [m for _, m in UNIFORM_MODELS],
                             ids=[name for name, _ in UNIFORM_MODELS])
    def test_matches_per_point_oracle(self, model):
        from oracles import uniform_oracle

        want = _uniform_or_error(uniform_oracle, model)
        got = _uniform_or_error(check_uniform_dissipativity, model)
        _assert_same_uniform(got, want)
        # D3 reads the same margins; UNIFORM refuses an abscissa >= 0, which fails D3
        d3 = check_d3(model)
        if isinstance(got, Exception):
            assert d3.verdict == "fail" and "spectral abscissa" in str(got)
        else:
            assert d3.per_point == got.per_point and d3.witness == got.witness
            assert d3.margin == -got.trace["c_abs"]

    def test_antidamped_first_point_message(self):
        from oracles import uniform_oracle

        with pytest.raises(LyapunovSolveFailure) as want:
            uniform_oracle(antidamped_model())
        with pytest.raises(LyapunovSolveFailure) as got:
            check_uniform_dissipativity(antidamped_model())
        assert str(got.value) == str(want.value)
        assert "omega index 0" in str(got.value)

    @pytest.mark.parametrize("d", [1, 3])
    def test_defective_points_take_the_sign_solve(self, monkeypatch, d):
        # at |xi| = 1 the damped wave's symbol is a Jordan block (cond(V) = inf)
        import hypdiss.conditions as cond

        from oracles import uniform_oracle

        points = []
        sign = cond._sign
        monkeypatch.setattr(cond, "_sign", lambda A, Q, *a: (Q is not None and points.append(len(A)))
                            or sign(A, Q, *a))
        model = builtin_damped_wave(2.0, d=d)
        rep = check_uniform_dissipativity(model)
        # one Jordan point per direction, solved on one direction of each pair
        # {omega, -omega}: 1 of the 2 directions in d = 1, 13 of the 26 in d = 3,
        # all in one stacked sign iteration
        assert points == [{1: 1, 3: 13}[d]]
        _assert_same_uniform(rep, uniform_oracle(model))

    @pytest.mark.parametrize("name", ["fluid-0", "dw-d1", "cdw-0.5", "random-n3-d1"])
    def test_forced_per_point_paths_match_oracle(self, monkeypatch, name):
        # with the eigenbasis guard at 0 every solve takes the sign-function
        # Lyapunov solve and every split the sign-function spectral projector
        import hypdiss.conditions as cond
        import hypdiss.symbols as symbols

        from oracles import uniform_oracle

        model = dict(UNIFORM_MODELS)[name]
        monkeypatch.setattr(symbols, "DEFECT_COND_LIMIT", 0.0)
        splits = []
        sign = cond._sign
        monkeypatch.setattr(cond, "_sign", lambda A, Q, *a: (Q is None and splits.append(len(A)))
                            or sign(A, Q, *a))
        xis = np.logspace(-3, 3, 13)
        rep = check_uniform_dissipativity(model, xi_loggrid=xis)
        assert sum(splits) > 0
        _assert_same_uniform(rep, uniform_oracle(model, xi_loggrid=xis))

    def test_split_blocks_inherit_the_eigendecomposition(self, monkeypatch):
        # UNIFORM decomposes nothing D3's eigenbasis already has: the stack's
        # one eig and one inv cover all 637 folded points, with no det (no
        # eigenbasis is exactly singular); UNIFORM then runs no eig, inv or
        # det of its own, and the second eigvalsh on the re-balanced
        # certificates only (decomposing each split block again takes 8 eigs
        # over 858 points, 10 dets and 14 invs over 1495 and 1924, and 2132
        # eigvalsh points)
        import hypdiss.conditions as cond

        model = ensure_normalized(builtin_barotropic_fluid(FLUID))
        points = {}
        for name in ("eig", "det", "inv", "eigvalsh", "qr"):
            def counted(A, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                points.setdefault(_name, []).append(len(A))
                return _real(A, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        stack = cond._decay_stack(model)
        assert points.pop("inv") == [len(stack.Ms)] == [637]
        assert points.pop("eig") and not points
        check_uniform_dissipativity(model, stack=stack)
        assert stack.Ms.nbytes // cond.CERTIFICATE_CHUNK_BYTES == 2
        assert "eig" not in points and len(points["qr"]) > 0
        assert "det" not in points and "inv" not in points
        assert sum(points["eigvalsh"]) <= 1716

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(n=hst.integers(1, 3), d=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1),
           coupling=hst.sampled_from([0.1, 0.25, 1.0]))
    def test_inherited_blocks_are_eigendecompositions(self, n, d, seed, coupling):
        # at every trusted point of every split block T = Q1^* M Q1 or
        # Z2^* M B2, the inherited (lam, R, Rinv) satisfy T R = R diag(lam)
        # and R Rinv = I
        import hypdiss.conditions as cond

        from oracles import random_stable_model

        model = random_stable_model(np.random.default_rng(seed), n=n, d=d, coupling=coupling)
        splits = []
        bases = cond._invariant_bases

        def spy(Ms, *args):
            out = bases(Ms, *args)
            splits.append((Ms, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cond, "_invariant_bases", spy)
            _uniform_or_error(check_uniform_dissipativity, model, config=TestSharedDecayMargin.CONFIG)
        checked = 0
        for Ms, (keep, Q1, B2, Z2, blocks) in splits:
            for T, b in zip((_herm(Q1) @ Ms @ Q1, _herm(Z2) @ Ms @ B2), blocks):
                at = keep & b.ok
                R, Rinv = b.V[at], b.Vinv[at]
                scale = np.linalg.norm(Ms[at], axis=(1, 2))[:, None, None]
                assert np.all(np.abs(T[at] @ R - R * b.w[at][:, None, :]) <= 1e-10 * scale)
                assert np.all(np.abs(R @ Rinv - np.eye(R.shape[-1])) <= 1e-10)
                checked += int(at.sum())
        assume(checked > 0)

    @pytest.mark.parametrize("what", ["eig", "inv", "qr"])
    def test_stacked_linalg_failure_names_the_point(self, monkeypatch, what):
        from hypdiss.grids import direction_major_grid, unit_directions

        m = ensure_normalized(builtin_barotropic_fluid(FLUID))
        xis = np.logspace(-3, 3, 13)
        xi, idx, mags = direction_major_grid(unit_directions(3)[0], xis)
        # on direction 2, which is solved; direction 3 = -direction 2 is not
        q = 27
        target = assemble_M(m, m.reference_state, xi[q])
        real = getattr(np.linalg, what)

        def failing(A, *args, **kwargs):
            # eig fails on any stack that holds point q, which reaches it in
            # graded form (entries times +-1, +-i); inv and qr always fail
            if what != "eig" or np.any(np.all(np.abs(A) == np.abs(target), axis=(-2, -1))):
                raise np.linalg.LinAlgError("injected")
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, what, failing)
        # eig and inv build the eigenbasis D3 and UNIFORM share: an
        # eigensolver failure
        error = EigensolverFailure if what in ("eig", "inv") else LyapunovSolveFailure
        with pytest.raises(error, match=r"at xi=\S+, omega index \d+$") as err:
            check_uniform_dissipativity(m, xi_loggrid=xis)
        causes = [err.value]
        while causes[-1].__cause__ is not None:
            causes.append(causes[-1].__cause__)
        assert isinstance(causes[-1], np.linalg.LinAlgError)
        assert f"stacked {what} failed" in str(err.value)
        if what == "eig":
            assert str(err.value).endswith(f"at xi={mags[q]:g}, omega index {idx[q]}")


def _asymmetric_directions():
    # five unit directions in d = 3 among which no two are antipodal
    om = np.random.default_rng(7).normal(size=(5, 3))
    return om / np.linalg.norm(om, axis=1)[:, None]


FOLD_MODELS = [("fluid", builtin_barotropic_fluid(FLUID)), ("dw-d3", builtin_damped_wave(2.0, d=3)),
               ("random-n3-d3", dict(UNIFORM_MODELS)["random-n3-d3"])]


class TestAntipodalFold:
    """D3 and UNIFORM solve one frequency of each pair {xi, -xi} and report
    every grid point as the unfolded per-point oracles do; a direction set
    without pairs is solved whole."""

    GRIDS = [(None, 13 * 49), (_asymmetric_directions(), 5 * 49)]

    def _solved_rows(self, monkeypatch, name):
        import hypdiss.conditions as cond

        rows = []
        solve = getattr(cond, name)
        monkeypatch.setattr(cond, name, lambda m, u, xi: rows.append(len(xi)) or solve(m, u, xi))
        return rows

    @pytest.mark.parametrize("grid, solved", GRIDS, ids=["lebedev", "asymmetric"])
    @pytest.mark.parametrize("model", [m for _, m in FOLD_MODELS], ids=[k for k, _ in FOLD_MODELS])
    def test_d3_matches_unfolded_oracle(self, monkeypatch, model, grid, solved):
        from oracles import d3_oracle

        rows = self._solved_rows(monkeypatch, "assemble_M_stack")
        rep = check_d3(model, omega_grid=grid)
        want = d3_oracle(model, omega_grid=grid)
        assert rows == [solved]
        assert [p[:2] for p in rep.per_point] == [p[:2] for p in want]
        np.testing.assert_allclose([p[2] for p in rep.per_point], [p[2] for p in want],
                                   rtol=1e-12, atol=0)
        assert rep.margin == pytest.approx(max(p[2] for p in want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("grid, solved", GRIDS, ids=["lebedev", "asymmetric"])
    @pytest.mark.parametrize("model", [m for _, m in FOLD_MODELS], ids=[k for k, _ in FOLD_MODELS])
    def test_uniform_matches_unfolded_oracle(self, monkeypatch, model, grid, solved):
        # a failure names the point of the full grid, as the oracle does
        from oracles import uniform_oracle

        rows = self._solved_rows(monkeypatch, "assemble_M_stack")
        got = _uniform_or_error(check_uniform_dissipativity, model, omega_grid=grid)
        assert rows == [solved]
        _assert_same_uniform(got, _uniform_or_error(uniform_oracle, model, omega_grid=grid))


class TestDegenerateGrids:
    @pytest.mark.parametrize("check", [check_d3, check_uniform_dissipativity])
    def test_empty_radial_grid(self, check):
        with pytest.raises(GridEmpty):
            check(builtin_damped_wave(2.0, d=1), xi_loggrid=np.array([]))

    def test_empty_configured_grid(self):
        with pytest.raises(GridEmpty):
            check_d3(builtin_damped_wave(2.0, d=1), config=CheckConfig(xi_count=0))

    @pytest.mark.parametrize("xis", [[1.0], [2.0, 2.0, 2.0]])
    def test_uniform_needs_two_radii(self, xis):
        # the conditioning slopes are fitted over |xi|
        with pytest.raises(InvalidParameter, match="2 distinct radii"):
            check_uniform_dissipativity(builtin_damped_wave(2.0, d=1), xi_loggrid=np.array(xis))

    def test_two_radii_suffice(self):
        rep = check_uniform_dissipativity(builtin_damped_wave(2.0, d=1), xi_loggrid=[0.1, 10.0])
        assert rep.verdict == "pass"


def test_d3_refuses_directions_of_another_dimension():
    # d = 1 directions used to pass D3 on the d = 3 fluid
    with pytest.raises(InvalidParameter, match=r"\(98, 1\) for a model with d = 3"):
        check_d3(builtin_barotropic_fluid(FLUID), omega_grid=[[1.0], [-1.0]])


class TestSharedDecayMargin:
    """D3 and UNIFORM read one margin, max Re lambda / rho(|xi|), from one
    eigendecomposition of M over the folded frequency grid."""

    CONFIG = CheckConfig(xi_count=9, directions_2d=8)

    def test_grid_spec_names_the_scanned_window(self):
        rep = check_uniform_dissipativity(builtin_damped_wave(2.0, d=1), xi_loggrid=[10.0, 0.1])
        assert rep.grid_spec == "xi in [0.1, 10] x 2 log points, 2 directions"
        assert check_d3(builtin_damped_wave(2.0, d=1)).grid_spec == (
            "xi in [0.001, 1000] x 49 log points, 2 directions")

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=hst.integers(1, 3), d=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1),
           coupling=hst.sampled_from([0.1, 0.25]))
    def test_one_margin_whatever_the_window(self, n, d, seed, coupling):
        import hypdiss.conditions as cond

        from oracles import random_stable_model

        model = random_stable_model(np.random.default_rng(seed), n=n, d=d, coupling=coupling)
        stack = cond._decay_stack(model, config=self.CONFIG)
        d3 = check_d3(model, config=self.CONFIG, stack=stack)
        assume(d3.verdict == "pass")
        # the verdict does not depend on how close the window comes to 0
        for xi_lo in (1e-5, 1e-7):
            assert check_d3(model, config=replace(self.CONFIG, xi_lo=xi_lo)).verdict == "pass"
        # D3's margins are UNIFORM's, and the shared stack changes no report
        uniform = check_uniform_dissipativity(model, config=self.CONFIG, stack=stack)
        assert d3.per_point == uniform.per_point
        assert d3.margin == -uniform.trace["c_abs"]
        assert check_d3(model, config=self.CONFIG) == d3
        assert check_uniform_dissipativity(model, config=self.CONFIG) == uniform

    def test_raw_certificate_is_a_trace_only(self, tmp_path):
        # at xi_lo = 1e-8 the raw Lyapunov solve of the d = 3 damped wave is
        # not positive definite at the smallest radius (lambda_min 0); the
        # balanced certificates alone decide UNIFORM, and the raw trace
        # reads null at that radius
        import json

        from hypdiss.cli import main

        argv = ["check", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--xi-lo", "1e-8"]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["verdicts"].values()) == {"pass"}
        uniform = json.loads((tmp_path / "report_UNIFORM.json").read_text())
        assert uniform["c_bar"] == pytest.approx(0.5, rel=1e-12)
        raw = uniform["trace"]["cond_raw_by_xi"]
        assert raw[0] is None and all(c > 1.0 for c in raw[1:])
        assert all(c > 1.0 for c in uniform["trace"]["cond_by_xi"])

    def test_fluid_passes_at_xi_lo_1e_8(self, tmp_path):
        # the split blocks read D3's eigenvalues: the own eig of a block that
        # still holds the fast roots reads a spectral abscissa of +3.3e-14 at
        # |xi| = 1e-8 here
        import json

        from hypdiss.cli import main

        argv = ["check", "--builtin", "fluid", "--r", "3", "--mu", "2", "--nu", "1",
                "--eta", "1", "--zeta", "0", "--xi-lo", "1e-8"]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] and set(summary["verdicts"].values()) == {"pass"}

    @pytest.mark.parametrize("params", FLUID_SETS, ids=["fluid", "fluid-2", "fluid-3"])
    def test_slow_blocks_keep_the_profile_flat_down_to_1e_8(self, params):
        # near xi = 0 the slow block's norm is ~|xi| of its parent's, and its
        # inherited eigenpairs carry the parent's absolute error: inherited
        # as they are, they read 8.9e6 (fluid) and 3.2e8 (fluid-2) at 1e-8
        # against 4.2e3 and 2.8e3 from 1e-6 up; decomposed again, the
        # profile stays flat
        rep = check_uniform_dissipativity(builtin_barotropic_fluid(params),
                                          config=CheckConfig(xi_lo=1e-8))
        assert rep.verdict == "pass"
        cond = dict(zip(rep.trace["xi_grid"], rep.trace["cond_by_xi"]))
        ref = cond[min(cond, key=lambda x: abs(np.log(x / 1e-6)))]
        assert cond[1e-8] < 2.0 * ref
