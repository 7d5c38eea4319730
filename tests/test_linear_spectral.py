import re

import numpy as np
import pytest

from hypdiss.conditions import check_uniform_dissipativity, rho_profile
from hypdiss.errors import DegenerateFit, InvalidParameter, UnsupportedDataSpec
from hypdiss.linear_spectral import (
    GaussianData,
    ModeEnsemble,
    ModePropagator,
    SpectralGrid,
    decay_fit,
    decay_study,
    default_decay_times,
    init_ensemble,
    sobolev_norm,
)
from hypdiss.model import (
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_damped_wave,
    ensure_normalized,
)
from hypdiss.symbols import assemble_Mbar

FLUID = FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0)


@pytest.mark.parametrize("kwargs,field", [
    ({"amplitude": np.inf}, "amplitude"), ({"amplitude": -np.inf}, "amplitude"),
    ({"amplitude": 1.0, "sigma": -1.0}, "sigma"), ({"amplitude": 1.0, "sigma": 0.0}, "sigma"),
    ({"amplitude": 1.0, "sigma": np.nan}, "sigma"), ({"amplitude": 1.0, "sigma": np.inf}, "sigma"),
], ids=["amplitude-inf", "amplitude-minus-inf", "sigma-negative", "sigma-zero", "sigma-nan", "sigma-inf"])
def test_gaussian_data_out_of_range_is_refused(kwargs, field):
    with pytest.raises(InvalidParameter, match=f"GaussianData.{field} must be finite"):
        GaussianData(**kwargs)


class TestGrid:
    def test_weights_positive_and_measure(self):
        grid = SpectralGrid(xi_lo=1e-3, xi_hi=1e2, radial_count=64)
        xi, w = grid.build(3)
        assert np.all(w > 0)
        # sum approximates the shell volume 4 pi (hi^3 - lo^3)/3 to quadrature order
        shell = 4.0 * np.pi / 3.0 * (1e2**3 - 1e-9)
        assert np.sum(w) == pytest.approx(shell, rel=0.05)

    def test_dimension_one_directions(self):
        xi, w = SpectralGrid().build(1)
        assert xi.shape[1] == 1
        assert np.any(xi[:, 0] > 0) and np.any(xi[:, 0] < 0)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_radii_refused(self, count):
        # the trapezoid weights in log r need two radii
        with pytest.raises(InvalidParameter, match="at least 2 radii"):
            SpectralGrid(radial_count=count).build(3)
        assert len(SpectralGrid(radial_count=2).build(3)[1]) == 2 * 26


class TestInitEnsemble:
    def test_gaussian_closed_form(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=0.5, sigma=1.3))
        mags = np.linalg.norm(ens.xi, axis=1)
        br = ens.brackets()
        expect = 0.5 * 1.3**3 * np.exp(-0.5 * 1.3**2 * mags**2)
        assert np.allclose(ens.coefficients[:, 0], br * expect)
        assert np.allclose(ens.coefficients[:, 1], 0.0)

    def test_zero_data(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=0.0))
        assert np.all(ens.coefficients == 0.0)
        norms = sobolev_norm(ens, 2.0)
        assert norms.u + norms.ut == 0.0

    def test_two_bump_linearity(self):
        m = builtin_damped_wave(2.0, d=3)
        d1 = GaussianData(amplitude=0.3, sigma=1.0)
        d2 = GaussianData(amplitude=0.2, sigma=0.5, target="u1")
        e1 = init_ensemble(m, d1)
        e2 = init_ensemble(m, d2)
        e12 = init_ensemble(m, [d1, d2])
        assert np.allclose(e12.coefficients, e1.coefficients + e2.coefficients)

    def test_rejects_unknown_spec(self):
        m = builtin_damped_wave(2.0, d=3)
        with pytest.raises(UnsupportedDataSpec):
            init_ensemble(m, {"gridded": True})

    def test_rejects_bad_component(self):
        m = builtin_damped_wave(2.0, d=3)
        with pytest.raises(UnsupportedDataSpec):
            init_ensemble(m, GaussianData(amplitude=1.0, component=3))


class TestAntipodalFold:
    """The ensemble keeps one mode of each pair {xi, -xi} of the grid."""

    def test_pairs_share_one_mode_and_their_weight(self):
        xi, w = SpectralGrid().build(3)
        ens = init_ensemble(builtin_damped_wave(2.0, d=3), GaussianData(amplitude=1.0))
        assert len(ens.xi) == len(xi) // 2 == 832
        # each kept mode carries the weight of both modes of its pair
        for q, x in enumerate(ens.xi):
            pair = np.all(xi == x, axis=1) | np.all(xi == -x, axis=1)
            assert pair.sum() == 2 and ens.weights[q] == w[pair].sum()

    def test_folded_norms_match_the_full_grid(self):
        # the README fluid decay data: four real Gaussian bumps, sigma = 3
        m = builtin_barotropic_fluid(FLUID)
        data = [GaussianData(amplitude=1e-2, sigma=3.0, component=c) for c in range(m.n)]
        study = decay_study(m, data)
        xi, w = SpectralGrid().build(3)
        mags = np.linalg.norm(xi, axis=1)
        br = np.sqrt(1.0 + mags**2)
        coeff = np.zeros((len(xi), 2 * m.n), dtype=complex)
        coeff[:, :m.n] = (br * 1e-2 * 3.0**3 * np.exp(-4.5 * mags**2))[:, None]
        prop = ModePropagator(m, xi)
        full = [sobolev_norm(ModeEnsemble(m.n, 3, xi, w, prop.propagate(prop.project(coeff), t)), 2.0)
                for t in study.times]
        np.testing.assert_allclose(study.norms_u, [f.u for f in full], rtol=1e-13, atol=0)
        np.testing.assert_allclose(study.combined, [f.u + f.ut for f in full], rtol=1e-13, atol=0)
        # at t = 0 the u_t norm is rounding noise of zero on either grid
        np.testing.assert_allclose(study.norms_ut[1:], [f.ut for f in full[1:]], rtol=1e-13, atol=0)
        assert study.norms_ut[0] < 1e-14 * study.norms_u[0]


class TestSobolevNorm:
    def test_single_mode_weighting(self):
        # one mode at |xi| = 1 with coefficient (<xi> * 1, 0): the H^2 norm
        # squared is <xi>^{2s} * weight = 4 * weight
        m = builtin_damped_wave(2.0, d=1)
        ens = init_ensemble(m, GaussianData(amplitude=0.0))
        k = int(np.argmin(np.abs(np.linalg.norm(ens.xi, axis=1) - 1.0)))
        br = ens.brackets()[k]
        ens.coefficients[k, 0] = br * 1.0
        norms = sobolev_norm(ens, 2.0)
        assert norms.u**2 == pytest.approx(br**4 * ens.weights[k])

    def test_gaussian_l2_oracle(self):
        # ||u||_{L^2}^2 = amp^2 (pi sigma^2)^{d/2} by the Gaussian integral
        m = builtin_damped_wave(2.0, d=3)
        amp, sigma = 0.7, 1.1
        ens = init_ensemble(
            m, GaussianData(amplitude=amp, sigma=sigma),
            SpectralGrid(radial_count=128),
        )
        norms = sobolev_norm(ens, 0.0)
        want = amp * (np.pi * sigma**2) ** 0.75
        assert norms.u == pytest.approx(want, rel=1e-3)

    def test_monotonicity_in_s(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=1.0))
        assert sobolev_norm(ens, 0.0).u <= sobolev_norm(ens, 1.0).u


class TestDecayFit:
    def test_exact_power_law(self):
        t = default_decay_times(200.0)
        norms = 3.0 * (1.0 + t) ** (-0.75)
        fit = decay_fit(t, norms, (5.0, 200.0))
        assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.residual < 1e-12

    def test_exponential_mismatch_flagged(self):
        t = np.linspace(10.0, 100.0, 40)
        norms = np.exp(-t)
        fit = decay_fit(t, norms, (10.0, 100.0))
        assert fit.exponent < -5.0
        assert fit.residual > 0.5

    def test_nonpositive_norms_rejected(self):
        t = np.linspace(0.0, 50.0, 20)
        with pytest.raises(DegenerateFit):
            decay_fit(t, np.zeros(20), (0.0, 50.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_first_bad_norm_is_named(self, bad):
        # NaN used to pass the nonpositive screen and give a NaN exponent
        t = np.linspace(0.0, 50.0, 20)
        norms = np.exp(-0.1 * t)
        norms[[12, 15]] = bad
        with pytest.raises(DegenerateFit, match=re.escape(f"at t={t[12]:g} ")):
            decay_fit(t, norms, (0.0, 50.0))

    def test_small_window_rejected(self):
        with pytest.raises(DegenerateFit):
            decay_fit(np.array([1.0, 2.0]), np.array([1.0, 0.5]), (0.0, 3.0))

    def test_small_span_flag(self):
        t = default_decay_times(200.0)
        norms = 3.0 * (1.0 + t) ** (-0.05)
        fit = decay_fit(t, norms, (5.0, 200.0))
        assert not fit.reliable


class TestPipelines:
    def test_damped_wave_d3_rate(self):
        m = builtin_damped_wave(2.0, d=3)
        study = decay_study(m, GaussianData(amplitude=1e-2, sigma=2.0))
        assert -1.1 < study.fit.exponent < -0.6

    def test_fluid_study_peak_memory(self):
        # the data are projected once and propagated time by time: the peak
        # stays at about 4.3 (Q, 2n, 2n) complex stacks (the symbols, V, its
        # inverse and the decomposition's work space); a (T, Q, 2n) stack of
        # the 40 times would add 5 more
        import tracemalloc

        m = builtin_barotropic_fluid(FLUID)
        data = [GaussianData(amplitude=1e-2, sigma=3.0, component=c) for c in range(m.n)]
        stack = len(init_ensemble(m, data).xi) * (2 * m.n) ** 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            decay_study(m, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * stack

    def test_linearity_of_evolution(self):
        m = builtin_damped_wave(2.0, d=3)
        e1 = init_ensemble(m, GaussianData(amplitude=0.4, sigma=1.0))
        e2 = init_ensemble(m, GaussianData(amplitude=0.3, sigma=0.7, target="u1"))
        esum = init_ensemble(
            m,
            [GaussianData(amplitude=0.4, sigma=1.0),
             GaussianData(amplitude=0.3, sigma=0.7, target="u1")],
        )
        prop = ModePropagator(m, e1.xi)
        a = (prop.propagate(prop.project(e1.coefficients), 3.0)
             + prop.propagate(prop.project(e2.coefficients), 3.0))
        b = prop.propagate(prop.project(esum.coefficients), 3.0)
        assert np.abs(a - b).max() < 1e-10

    def test_mode_decoupling_bitwise(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=1.0))
        prop = ModePropagator(m, ens.xi)
        base = prop.propagate(prop.project(ens.coefficients), 2.0)
        pert = ens.coefficients.copy()
        pert[37] *= 3.0
        out = prop.propagate(prop.project(pert), 2.0)
        mask = np.ones(len(ens.xi), dtype=bool)
        mask[37] = False
        assert np.array_equal(out[mask], base[mask])

    def test_uniform_decay_bound(self):
        # ||exp(t Mbar)|| <= K e^{-(c_abs/2) rho t} with K from the balanced
        # Lyapunov conditioning
        import scipy.linalg as sla

        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        rep = check_uniform_dissipativity(f)
        c_abs = rep.trace["c_abs"]
        K = np.sqrt(rep.trace["cond_max"])
        rng = np.random.default_rng(2)
        for _ in range(10):
            om = rng.normal(size=3)
            om /= np.linalg.norm(om)
            x = rng.uniform(0.05, 20.0)
            mbar = assemble_Mbar(f, f.reference_state, x * om)
            r = float(rho_profile(x))
            for t in (1.0, 10.0, 100.0):
                nrm = np.linalg.norm(sla.expm(t * mbar), 2)
                assert nrm <= K * np.exp(-0.5 * c_abs * r * t) * (1 + 1e-9)

class TestModePropagator:
    """Stacked eigen-propagation against per-mode scipy expm."""

    def test_non_finite_symbol_raises_eigensolver_failure(self):
        # a constant model whose A^1 is NaN: numpy's stacked eig refuses it
        from hypdiss.errors import EigensolverFailure
        from hypdiss.model import CoefficientModel
        from hypdiss.symbols import dispersion_root_stack

        def A(j, u):
            return np.full((1, 1), np.nan) if j == 1 else np.eye(1)

        def B(j, k, u):
            return {(0, 0): -np.eye(1), (1, 1): np.eye(1)}.get((j, k), np.zeros((1, 1)))

        m = CoefficientModel(n=1, d=1, reference_state=np.zeros(1),
                             state_domain=(-np.ones(1), np.ones(1)), A=A, B=B,
                             varying=frozenset())
        xi = np.array([[1.0], [2.0]])
        with pytest.raises(EigensolverFailure):
            dispersion_root_stack(m, m.reference_state, xi)
        with pytest.raises(EigensolverFailure, match="eig failed on 2 frequencies"):
            ModePropagator(m, xi)

    def test_matches_per_mode_expm_with_defective_mode(self):
        import scipy.linalg as sla

        from hypdiss.symbols import DEFECT_COND_LIMIT
        from oracles import weighted_symbol_oracle

        m = builtin_damped_wave(2.0, d=3)
        rng = np.random.default_rng(4)
        xi = np.vstack([[1.0, 0.0, 0.0], rng.normal(size=(30, 3)) * 2.0, np.zeros((1, 3))])
        prop = ModePropagator(m, xi)
        # the double root -1 at |xi| = 1 is a Jordan block
        _, V = np.linalg.eig(prop.mats[0])
        assert np.linalg.cond(V) >= DEFECT_COND_LIMIT
        assert prop.eig[0] is None
        assert all(e is not None for e in prop.eig[1:])
        coeff = rng.normal(size=(len(xi), 2)) + 1j * rng.normal(size=(len(xi), 2))
        for dt in (0.0, 0.7, 5.0):
            got = prop.propagate(prop.project(coeff), dt)
            for q in range(len(xi)):
                M, _ = weighted_symbol_oracle(m, m.reference_state, xi[q])
                want = sla.expm(dt * M) @ coeff[q]
                assert np.abs(got[q] - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)
