import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypdiss.errors import InvalidParameter, NonUnitDirection
from hypdiss.model import (
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_damped_wave,
    ensure_normalized,
)
from hypdiss.symbols import (
    DEFECT_COND_LIMIT,
    assemble_calA_stack,
    assemble_calB_stack,
    assemble_M,
    assemble_M_stack,
    assemble_Mbar,
    assemble_Mbar_stack,
    directional_stack,
    dispersion_roots,
    eigenbasis_inverse,
    expm_stack,
    graded_eig,
    sign_stack,
    sorted_roots,
)

from oracles import dispersion_oracle, k_family, multiset_distance, random_stable_model

FLUID = FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0)
E1 = np.array([1.0, 0.0, 0.0])


class TestDirectional:
    def test_fluid_first_order_row(self):
        f = builtin_barotropic_fluid(FLUID)
        _, (A_dir,), _, _ = directional_stack(f, f.reference_state, E1)
        assert np.allclose(A_dir[0], [0.0, 1.0, 0.0, 0.0])

    def test_fluid_coupling_entry(self):
        f = builtin_barotropic_fluid(FLUID)
        _, _, _, (C_dir,) = directional_stack(f, f.reference_state, E1)
        assert C_dir[0, 1] == pytest.approx(-(FLUID.mu * FLUID.r + FLUID.nu))

    def test_damped_wave_scalars(self):
        m = builtin_damped_wave(2.0, d=3)
        om = np.array([0.6, 0.0, 0.8])
        _, (A_dir,), (B_dir,), (C_dir,) = directional_stack(m, m.reference_state, om)
        assert np.allclose(A_dir, [[0.0]])
        assert np.allclose(B_dir, [[1.0]])
        assert np.allclose(C_dir, [[0.0]])

    def test_rejects_non_unit(self):
        m = builtin_damped_wave(2.0, d=2)
        with pytest.raises(NonUnitDirection):
            directional_stack(m, m.reference_state, np.array([1.0, 1.0]))

    def test_b_dir_symmetric_for_symmetric_blocks(self):
        f = builtin_barotropic_fluid(FLUID)
        rng = np.random.default_rng(0)
        om = rng.normal(size=3)
        om /= np.linalg.norm(om)
        _, _, (B_dir,), _ = directional_stack(f, f.reference_state, om)
        assert np.allclose(B_dir, B_dir.T)


class TestAssembledSymbols:
    def test_calB_damped_wave(self):
        m = builtin_damped_wave(2.0, d=1)
        calB = assemble_calB_stack(m, m.reference_state, np.array([[1.0]]))[0]
        assert np.allclose(calB, [[0, 1], [-1, 0]])
        ev = np.sort_complex(np.linalg.eigvals(calB))
        assert multiset_distance(ev, [1j, -1j]) < 1e-14

    def test_calB_rotation_block(self):
        # B_dir = I, C_dir = 0: i calB has real spectrum {+-1}
        m = builtin_damped_wave(1.0, d=2)
        iB = 1j * assemble_calB_stack(m, m.reference_state, np.array([[0.0, 1.0]]))[0]
        assert multiset_distance(np.linalg.eigvals(iB), [1.0, -1.0]) < 1e-14

    def test_fluid_transverse_frequencies(self):
        # normalized transverse block is a damped wave: eigenvalues +-i sqrt(eta/nu)
        p = FluidParameters(r=3, mu=2, nu=2.0, eta=1, zeta=0)
        f = builtin_barotropic_fluid(p)
        calB = assemble_calB_stack(f, f.reference_state, E1[None])[0]
        ev = np.linalg.eigvals(calB)
        target = 1j * np.sqrt(p.eta / p.nu)
        hits = np.sum(np.abs(ev - target) < 1e-10)
        assert hits == 2  # transverse pair, doubled

    def test_calA_damped_wave(self):
        m = builtin_damped_wave(2.0, d=1)
        calA = assemble_calA_stack(m, m.reference_state, np.array([[1.0]]))[0]
        assert np.allclose(calA, [[0, 0], [0, -2.0]])

    def test_calA_fluid_lower_right(self):
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        calA = assemble_calA_stack(f, f.reference_state, E1[None])[0]
        A0 = np.asarray(f.A(0, f.reference_state))
        assert np.allclose(calA[4:, 4:], -A0)
        assert np.allclose(calA[:4, :], 0.0)

    def test_mbar_zero_frequency(self):
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        mbar = assemble_Mbar(f, f.reference_state, np.zeros(3))
        n = f.n
        assert np.allclose(mbar[:n, n:], np.eye(n))
        assert np.allclose(mbar[n:, :n], 0.0)
        assert np.allclose(mbar[n:, n:], -np.asarray(f.A(0, f.reference_state)))

    def test_mbar_damped_wave_double_root(self):
        m = builtin_damped_wave(2.0, d=1)
        ev = np.linalg.eigvals(assemble_Mbar(m, m.reference_state, np.array([1.0])))
        assert multiset_distance(ev, [-1.0, -1.0]) < 1e-7

    def test_m_weighting(self):
        f = builtin_barotropic_fluid(FLUID)
        xi = np.array([0.4, -1.0, 0.3])
        M = assemble_M(f, f.reference_state, xi)
        n = f.n
        assert np.allclose(M[:n, n:], np.sqrt(1.0 + xi @ xi) * np.eye(n))
        # xi = 0: M == Mbar
        assert np.allclose(
            assemble_M(f, f.reference_state, np.zeros(3)),
            assemble_Mbar(f, f.reference_state, np.zeros(3)),
        )


class TestKFamily:
    def test_k_at_zero_equals_calB(self):
        f = builtin_barotropic_fluid(FLUID)
        u = f.reference_state
        rng = np.random.default_rng(1)
        for _ in range(10):
            om = rng.normal(size=3)
            om /= np.linalg.norm(om)
            K0 = k_family(f, u, 0.0, om)
            assert np.abs(K0 - assemble_calB_stack(f, u, om[None])[0]).max() < 1e-12

    def test_k_eta_derivative_is_calA(self):
        f = builtin_barotropic_fluid(FLUID)
        u = f.reference_state
        om = np.array([0.0, 0.6, 0.8])
        calA = assemble_calA_stack(f, u, om[None])[0]
        errs = []
        for h in (1e-2, 1e-3):
            dK = (k_family(f, u, h, om) - k_family(f, u, -h, om)) / (2 * h)
            errs.append(np.abs(dK - calA).max())
        # K is affine in eta, so the centered difference is exact to roundoff
        assert max(errs) < 1e-10

    def test_k_connects_to_weighted_symbol(self):
        f = builtin_barotropic_fluid(FLUID)
        u = f.reference_state
        om = np.array([0.6, 0.0, 0.8])
        for x in (2.0, 10.0, 100.0):
            K = k_family(f, u, 1.0 / x, om)
            M = assemble_M(f, u, x * om)
            Zt = np.diag(np.r_[np.full(f.n, np.sqrt(1.0 + x**2) / x), np.ones(f.n)])
            lhs = x * K
            rhs = np.linalg.solve(Zt, M @ Zt)
            assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-10


class TestDispersionRoots:
    def test_damped_wave_values(self):
        m = builtin_damped_wave(2.0, d=1)
        r1 = dispersion_roots(m, m.reference_state, np.array([1.0]))
        assert multiset_distance(r1.roots, [-1.0, -1.0]) < 1e-7
        r06 = dispersion_roots(m, m.reference_state, np.array([0.6]))
        assert multiset_distance(r06.roots, [-0.2, -1.8]) < 1e-12
        assert r06.max_real_part == pytest.approx(-0.2, abs=1e-12)

    def test_fluid_transverse_block_roots(self):
        # transverse dispersion: nu lambda^2 + lambda + eta xi^2 = 0
        f = builtin_barotropic_fluid(FLUID)
        roots = dispersion_roots(f, f.reference_state, E1).roots
        expect = np.roots([FLUID.nu, 1.0, FLUID.eta])
        for lam in expect:
            assert np.min(np.abs(roots - lam)) < 1e-9

    def test_root_count(self):
        f = builtin_barotropic_fluid(FLUID)
        r = dispersion_roots(f, f.reference_state, np.array([0.3, 0.1, -0.2]))
        assert len(r.roots) == 2 * f.n
        assert r.max_real_part == pytest.approx(np.max(r.roots.real))


class TestInvariants:
    def test_companion_equivalence_against_oracle(self):
        # eigenvalues of Mbar match determinant-oracle roots; the fluid's
        # structurally double transverse roots are certified by the direct
        # determinant residual (coefficient-based root finding splits
        # multiple roots at the sqrt of the coefficient error)
        from oracles import dispersion_residual

        rng = np.random.default_rng(42)
        models = [
            builtin_damped_wave(2.0, d=1),
            builtin_barotropic_fluid(FLUID),
            random_stable_model(rng, n=2, d=2),
            random_stable_model(rng, n=3, d=1),
        ]
        checks = 0
        while checks < 200:
            m = models[checks % len(models)]
            u = m.reference_state
            xi = rng.normal(size=m.d) * rng.uniform(0.1, 5.0)
            got = dispersion_roots(m, u, xi).roots
            assert dispersion_residual(m, u, xi, got) < 1e-10
            if not m.is_fluid:
                want = dispersion_oracle(m, u, xi)
                scale = max(np.abs(want).max(), 1.0)
                assert multiset_distance(got, want) / scale < 1e-8
            checks += 1

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        f = builtin_barotropic_fluid(FLUID)
        for _ in range(25):
            xi = rng.normal(size=3) * rng.uniform(0.01, 30.0)
            w1 = np.linalg.eigvals(assemble_Mbar(f, f.reference_state, xi))
            w2 = np.linalg.eigvals(assemble_M(f, f.reference_state, xi))
            scale = max(np.abs(w1).max(), 1.0)
            assert multiset_distance(w1, w2) / scale < 1e-10

    def test_homogeneity(self):
        from hypdiss.symbols import coefficient_tensors, frequency_polynomials

        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        rng = np.random.default_rng(9)
        T = coefficient_tensors(f, f.reference_state)
        for _ in range(20):
            xi = rng.normal(size=3)
            c = rng.uniform(0.1, 10.0)
            (A1, B1, C1), (A2, B2, C2) = (
                [p[0] for p in frequency_polynomials(T, x[None, :])] for x in (xi, c * xi)
            )
            assert np.allclose(A2, c * A1, rtol=1e-12, atol=1e-12)
            assert np.allclose(B2, c**2 * B1, rtol=1e-12, atol=1e-12)
            assert np.allclose(C2, c * C1, rtol=1e-12, atol=1e-12)


#: n = 2, d = 2 with B^{00} != -I and monomials in B^{00}, A^0, A^j and B^{jk}.
NONNORMALIZED_DOC = {
    "n": 2, "d": 2, "reference_state": [0.1, -0.2], "label": "nonnormalized-n2-d2",
    "A": {"0": [[[[2.0, 0, 0], [0.3, 1, 0]], 0.1], [0.0, [[1.5, 0, 0], [0.2, 0, 2]]]],
          "1": [[[[0.5, 0, 0], [1.0, 1, 1]], 0.0], [0.2, -0.4]],
          "2": [[0.1, 0.0], [[[1.0, 2, 0]], 0.3]]},
    "B": {"0,0": [[[[-2.0, 0, 0], [0.3, 1, 0]], 0.1], [0.05, [[-1.5, 0, 0], [0.2, 0, 1]]]],
          "1,1": [[[[1.0, 0, 0], [0.1, 0, 2]], 0.0], [0.0, 1.0]],
          "2,2": [[1.0, 0.0], [0.0, [[1.2, 0, 0], [-0.1, 3, 0]]]],
          "0,1": [[0.1, [[0.2, 1, 1]]], [0.0, 0.1]],
          "2,0": [[0.0, 0.1], [[[0.3, 0, 1]], 0.0]],
          "1,2": [[0.2, 0.0], [0.0, 0.2]]},
}


def _stacked_models():
    from hypdiss.model import model_from_dict

    readme = model_from_dict({"n": 1, "d": 1, "reference_state": [0.0], "label": "readme",
                              "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
                              "B": {"0,0": [[-1.0]], "1,1": [[1.0]]}})
    raw = model_from_dict(NONNORMALIZED_DOC)
    drawn = [random_stable_model(np.random.default_rng(40 + k), n=n, d=d)
             for k, (n, d) in enumerate([(1, 1), (2, 2), (3, 3), (2, 3)])]
    return [readme, raw, ensure_normalized(raw)] + drawn


class TestCoefficientTensors:
    """One evaluator call per coefficient index for a whole state stack."""

    @pytest.mark.parametrize("model", _stacked_models(), ids=lambda m: m.label)
    def test_bit_equal_to_per_state_oracle(self, model):
        from hypdiss.symbols import coefficient_tensors
        from oracles import coefficient_tensors_oracle

        lo, hi = model.state_domain
        u = lo + np.random.default_rng(37).random((37, model.n)) * (hi - lo)
        for states in (u, u[0], u.reshape(37, 1, model.n)):
            got = coefficient_tensors(model, states)
            want = coefficient_tensors_oracle(model, states)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_pointwise_evaluator_refused_for_a_stack(self):
        from hypdiss.errors import InvalidParameter
        from hypdiss.model import CoefficientModel
        from hypdiss.symbols import coefficient_tensors

        def pointwise(*args):
            return (1.0 + np.sum(args[-1]) ** 2) * np.eye(2)

        m = CoefficientModel(n=2, d=1, reference_state=np.zeros(2),
                             state_domain=(-np.ones(2), np.ones(2)), A=pointwise, B=pointwise)
        assert coefficient_tensors(m, np.zeros(2)).A0.shape == (2, 2)
        with pytest.raises(InvalidParameter, match=r"A\[0\].*\(2, 2\).*\(5, 2, 2\)"):
            coefficient_tensors(m, np.zeros((5, 2)))

    @pytest.mark.parametrize("count", [1, 64])
    @pytest.mark.parametrize("model", _stacked_models()[:3]
                             + [builtin_barotropic_fluid(FLUID)], ids=lambda m: m.label)
    def test_evaluator_calls_per_assembly(self, model, count):
        from dataclasses import replace

        from hypdiss.symbols import coefficient_tensors

        calls = []

        def counted(f):
            return lambda *args: calls.append(1) or f(*args)

        m = replace(model, A=counted(model.A), B=counted(model.B))
        T = coefficient_tensors(m, np.tile(model.reference_state, (count, 1)))
        assert len(calls) == 1 + 3 * m.d + m.d**2
        assert T.B.shape == (count, m.d, m.d, m.n, m.n)


class TestStackedSymbols:
    """The stacked assembly against an independent per-point one."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_models_match_oracle(self, n, d):
        from oracles import weighted_symbol_oracle

        rng = np.random.default_rng(100 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        xi = rng.normal(size=(17, d)) * rng.uniform(0.01, 20.0, size=(17, 1))
        xi[0] = 0.0
        M = assemble_M_stack(m, m.reference_state, xi)
        Mbar = assemble_Mbar_stack(m, m.reference_state, xi)
        assert M.shape == Mbar.shape == (17, 2 * n, 2 * n)
        for q in range(len(xi)):
            want_M, want_Mbar = weighted_symbol_oracle(m, m.reference_state, xi[q])
            scale = max(np.abs(want_Mbar).max(), 1.0)
            assert np.abs(M[q] - want_M).max() / scale < 1e-12
            assert np.abs(Mbar[q] - want_Mbar).max() / scale < 1e-12
            assert np.array_equal(M[q], assemble_M(m, m.reference_state, xi[q]))

    def test_state_stack_matches_oracle(self):
        from hypdiss.model import model_from_dict
        from oracles import weighted_symbol_oracle

        m = model_from_dict({
            "n": 2, "d": 2, "reference_state": [0.0, 0.0],
            "A": {"0": [[2.0, [[0.5, 1, 0]]], [0.0, 1.0]], "2": [[[[1.0, 0, 2]], 0.0], [0.0, 0.5]]},
            "B": {"0,0": [[[[-1.0, 0, 0], [-0.3, 1, 1]], 0.0], [0.0, -1.0]],
                  "1,1": [[1.0, 0.0], [0.0, [[1.0, 0, 0], [0.2, 2, 0]]]], "2,2": [[1.0, 0.0], [0.0, 1.0]],
                  "0,1": [[0.0, [[0.4, 0, 1]]], [0.0, 0.0]]},
        })
        rng = np.random.default_rng(5)
        states = rng.uniform(-0.5, 0.5, size=(4, 2))
        xi = rng.normal(size=(6, 2)) * 3.0
        M = assemble_M_stack(m, states, xi)
        assert M.shape == (4, 6, 4, 4)
        for s_ in range(4):
            for q in range(6):
                want, _ = weighted_symbol_oracle(m, states[s_], xi[q])
                assert np.abs(M[s_, q] - want).max() / np.abs(want).max() < 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_symbols_at_negated_frequencies_are_conjugates(n, d, seed):
    # real coefficients give M(u, -xi) = conj M(u, xi) exactly, which lets D3,
    # UNIFORM and the decay ensemble solve one frequency of each pair
    # {xi, -xi}; == leaves the sign of a zero entry free
    rng = np.random.default_rng(seed)
    m = random_stable_model(rng, n=n, d=d)
    xi = rng.normal(size=(12, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(12, 1))
    xi[0] = 0.0
    xi[1, 0] = -0.0
    u = m.reference_state
    assert np.array_equal(assemble_M_stack(m, u, -xi), np.conj(assemble_M_stack(m, u, xi)))
    assert np.array_equal(assemble_Mbar_stack(m, u, -xi), np.conj(assemble_Mbar_stack(m, u, xi)))


@pytest.mark.parametrize("dim", [1, 2])
def test_frequency_stack_of_another_dimension_is_refused(dim):
    # a (Q, 1) stack used to broadcast over every A^j of the d = 3 fluid
    f = builtin_barotropic_fluid(FLUID)
    with pytest.raises(InvalidParameter, match=rf"\(3, {dim}\) for a model with d = 3"):
        assemble_M_stack(f, f.reference_state, np.ones((3, dim)))


def test_sorted_roots_orders_tied_real_parts_by_imaginary_part():
    # the two rows hold the same roots up to rounding; real parts within the
    # tie tolerance chain into one group, ordered by imaginary part
    eps = 1e-15
    rows = np.array([[-1.0 + 2j, -1.0 - eps - 2j, -3.0 + 0j, -1.0 + 6e-10 + 0.5j],
                     [-1.0 - eps + 2j, -1.0 - 2j, -3.0 + 0j, -1.0 + 6e-10 + 0.5j]])
    got = sorted_roots(rows)
    want = np.array([-3.0, -1.0 - 2j, -1.0 + 6e-10 + 0.5j, -1.0 + 2j])
    assert np.abs(got - want).max() <= 1e-14
    assert np.array_equal(sorted_roots(got[0]), got[0])


def _damped_wave_jordan_basis():
    # d = 3 damped wave (a = 2) at |xi| = 1: the double root -1 is a Jordan
    # block, so eig's two eigenvectors for it are (nearly) parallel
    m = ensure_normalized(builtin_damped_wave(2.0, d=3))
    return np.linalg.eig(assemble_M(m, m.reference_state, E1))[1]


@st.composite
def eigenvector_stacks(draw):
    family = draw(st.sampled_from(["random", "eig", "jordan", "singular", "damped-wave"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def one():
        V = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        if family == "eig":
            V = np.linalg.eig(V)[1]
        elif family == "jordan" and m > 1:
            J = np.diag(rng.normal(size=m)).astype(complex)
            J[1, 1], J[0, 1] = J[0, 0], 1.0
            V = np.linalg.eig(rng.normal(size=(m, m)) @ J @ np.linalg.inv(rng.normal(size=(m, m))))[1]
        elif family == "singular":
            V[:, rng.integers(m)] = 0.0
        return V

    if family == "damped-wave":
        return np.stack([_damped_wave_jordan_basis()] * count)
    return np.stack([one() for _ in range(count)])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(eigenvector_stacks())
def test_eigenbasis_inverse_trusts_only_well_conditioned_bases(V):
    # kappa_F >= cond_2 >= kappa_F / m: a trusted basis has cond_2 below the
    # limit, and one with cond_2 below limit / m is trusted
    Vinv, trusted = eigenbasis_inverse(V)
    m = V.shape[-1]
    for q in range(len(V)):
        cond2 = np.linalg.cond(V[q])
        if trusted[q]:
            assert cond2 < DEFECT_COND_LIMIT
            assert np.array_equal(Vinv[q], np.linalg.inv(V[q]))
        else:
            assert not cond2 < DEFECT_COND_LIMIT / (2 * m)
            assert np.array_equal(Vinv[q], np.eye(m))


def test_eigenbasis_inverse_refuses_the_damped_wave_jordan_point():
    V = _damped_wave_jordan_basis()
    Vinv, trusted = eigenbasis_inverse(V[None])
    assert np.linalg.cond(V) >= DEFECT_COND_LIMIT
    assert not trusted[0]
    assert np.array_equal(Vinv[0], np.eye(2))


def test_eigenbasis_inverse_screens_a_singular_basis_only_after_inv_fails(monkeypatch):
    # the stacked inv runs first; only its failure at the zero column of V[2]
    # runs det, which screens that point out to an untrusted identity, and
    # the other points keep the bits of the first inv
    rng = np.random.default_rng(5)
    V = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    singular = V.copy()
    singular[2][:, 1] = 0.0
    dets, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda A: dets.append(len(A)) or det(A))
    Vinv, trusted = eigenbasis_inverse(V)
    assert dets == [] and trusted.all()
    got, got_trusted = eigenbasis_inverse(singular)
    assert dets == [5]
    assert got_trusted.tolist() == [True, True, False, True, True]
    assert np.array_equal(got[2], np.eye(4))
    assert np.array_equal(got[[0, 1, 3, 4]], Vinv[[0, 1, 3, 4]])


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_sign_lyapunov_and_expm_kernels_on_random_models(n, d, seed):
    # at the stable points of a random model's frequency stack, the coupled
    # sign iteration from A = M^*, Q = rho I gives P = W / 2 with
    # P M + M^* P = -rho I to a small relative residual, and expm_stack
    # matches scipy's expm
    import scipy.linalg as sla

    from hypdiss.conditions import frequency_grid, rho_profile

    model = random_stable_model(np.random.default_rng(seed), n=n, d=d)
    _, _, xi, _, mags, _ = frequency_grid(model, xi_loggrid=np.logspace(-3, 3, 7))
    Ms = assemble_M_stack(model, model.reference_state, xi)
    stable = np.linalg.eigvals(Ms).real.max(axis=1) < 0.0
    assume(stable.any())
    Ms, rho = Ms[stable], rho_profile(mags[stable])
    eye = np.eye(Ms.shape[-1])
    S, W = sign_stack(Ms.conj().swapaxes(1, 2), rho[:, None, None] * eye)
    P = 0.5 * W
    residual = np.linalg.norm(P @ Ms + Ms.conj().swapaxes(1, 2) @ P + rho[:, None, None] * eye,
                              axis=(1, 2))
    assert np.all(residual <= 1e-12 * np.linalg.norm(P, axis=(1, 2)) * np.linalg.norm(Ms, axis=(1, 2)))
    assert np.abs(S + eye).max() <= 1e-8
    for t in (0.1, 1.0, 10.0, 100.0):
        want = np.array([sla.expm(t * M) for M in Ms])
        err = np.linalg.norm(expm_stack(t * Ms) - want, axis=(1, 2))
        assert np.all(err <= 1e-8 * np.linalg.norm(want, axis=(1, 2)))


def _gradable(X):
    # brute force over every parity vector p: diag(i^p) X diag(i^-p) is real
    # at every point; the phase products i^(p_i - p_j) in {1, i, -i} are exact
    m = X.shape[-1]
    for bits in range(2**m):
        p = (bits >> np.arange(m)) & 1
        phase = np.array([1, 1j, -1, -1j])[(p[:, None] - p[None, :]) % 4]
        if not np.any((phase * X).imag):
            return True
    return False


@st.composite
def phase_graded_stacks(draw):
    family = draw(st.sampled_from(["graded", "mixed", "odd-diagonal", "odd-cycle", "real"]))
    m = draw(st.integers(3 if family == "odd-cycle" else 2, 8))
    count = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.permutation(np.arange(m) % 2)
    odd = p[:, None] != p[None, :]
    base = rng.normal(size=(count, m, m)) * (rng.random((count, m, m)) > 0.15)
    i, j = np.argwhere(odd)[rng.integers(odd.sum())]
    base[0, i, j] = 1.0 + abs(base[0, i, j])
    X = np.where(odd, 1j * base, base + 0j)
    if family == "mixed":
        X[-1, i, j] += 0.5
    elif family == "odd-diagonal":
        X[-1, i, i] += 0.5j
    elif family == "odd-cycle":
        # an odd link between two equal-parity indices a, b that an even path a-c-b also joins
        a, b = np.argwhere(~odd & ~np.eye(m, dtype=bool))[rng.integers((~odd).sum() - m)]
        c = next(k for k in range(m) if k not in (a, b))
        kind = 1j if odd[a, c] else 1.0
        X[:, a, c] = X[:, c, a] = X[:, c, b] = X[:, b, c] = kind
        X[:, a, b] = X[:, b, a] = 1j
    elif family == "real":
        X = np.abs(X) + 0j
    return X


def _solver_inputs(fn, X):
    # fn(X) and the dtypes of the arrays it passed to numpy's eig and eigvals
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eig", "eigvals"):
            real_fn = getattr(np.linalg, name)
            mp.setattr(np.linalg, name, lambda A, _f=real_fn: seen.append(A.dtype) or _f(A))
        return fn(X), seen


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(phase_graded_stacks())
def test_graded_eig_solves_graded_stacks_in_real_arithmetic(X):
    # a stack that some phases make real, and that is not real already, is
    # solved by the real eigensolver, with a small residual and bit-equal
    # eigenvalues for X and conj X; any other stack gets numpy's own arrays
    eps = np.finfo(float).eps
    graded = bool(np.any(X.imag)) and _gradable(X)
    (w, V), seen = _solver_inputs(graded_eig, X)
    wv, seen_v = _solver_inputs(lambda A: graded_eig(A, vectors=False), X)
    if not graded:
        want_w, want_V = np.linalg.eig(X)
        assert seen == seen_v == [np.dtype(complex)]
        assert np.array_equal(w, want_w) and np.array_equal(V, want_V)
        assert np.array_equal(wv, np.linalg.eigvals(X))
        return
    assert seen == seen_v == [np.dtype(float)]
    assert w.dtype == wv.dtype == np.dtype(complex)
    residual = np.linalg.norm(X @ V - V * w[:, None, :], axis=(1, 2))
    bound = 64 * eps * np.linalg.norm(X, axis=(1, 2)) * np.linalg.norm(V, axis=(1, 2))
    assert np.all(residual <= bound)
    assert np.array_equal(graded_eig(X.conj())[0], w)
    assert np.array_equal(graded_eig(X.conj(), vectors=False), wv)


def _admissible_fluids():
    # 40 random fluids inside the admissible region mu > (4/3) eta + zeta
    rng = np.random.default_rng(0)
    fluids = []
    for k in range(40):
        r, eta = 1 + 4 * rng.random(), 0.1 + 2 * rng.random()
        zeta = 2 * rng.random() * (k % 2)
        mu = (4 / 3 * eta + zeta) * (1 + 10 ** rng.uniform(-3, 1))
        fluids.append(FluidParameters(r=r, mu=mu, nu=10 ** rng.uniform(-2, 1), eta=eta, zeta=zeta))
    return fluids


def test_graded_abscissa_of_the_fluids_matches_complex_eig():
    # on the folded default grid of D3 and UNIFORM, the graded spectral
    # abscissa is within 16 eps ||M||_F of complex eig's at every point, and
    # M(xi) and M(-xi) get bit-equal graded eigenvalues
    from hypdiss.conditions import frequency_grid
    from hypdiss.grids import antipodal_fold

    eps = np.finfo(float).eps
    worst = 0.0
    for params in [FLUID] + _admissible_fluids():
        m = ensure_normalized(builtin_barotropic_fluid(params))
        xi = frequency_grid(m)[2]
        keep, src = antipodal_fold(xi)
        Ms = assemble_M_stack(m, m.reference_state, xi)
        w = graded_eig(Ms)[0]
        assert np.array_equal(w[keep][src], w)
        Ms, w = Ms[keep], w[keep]
        gap = np.abs(w.real.max(axis=1) - np.linalg.eig(Ms)[0].real.max(axis=1))
        worst = max(worst, float(np.max(gap / (eps * np.linalg.norm(Ms, axis=(1, 2))))))
    assert worst <= 16.0
