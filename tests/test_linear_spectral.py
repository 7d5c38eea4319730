import numpy as np
import pytest

from hypdiss.conditions import check_uniform_dissipativity, rho_profile
from hypdiss.errors import DegenerateFit, GridMismatch, InvalidParameter, UnsupportedDataSpec
from hypdiss.linear_spectral import (
    FourierBumpData,
    GaussianData,
    ModePropagator,
    SpectralGrid,
    decay_fit,
    decay_study,
    default_decay_times,
    evolve_ensemble,
    evolve_mode,
    evolve_mode_with_forcing,
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
        assert norms.combined == 0.0

    def test_two_bump_linearity(self):
        m = builtin_damped_wave(2.0, d=3)
        d1 = GaussianData(amplitude=0.3, sigma=1.0)
        d2 = FourierBumpData(amplitude=0.2, radius=2.0)
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


class TestEvolveMode:
    def test_zero_frequency_stationary(self):
        m = builtin_damped_wave(2.0, d=1)
        mbar = assemble_Mbar(m, m.reference_state, np.zeros(1))
        u0 = np.array([0.7, 0.0])
        for t in (1.0, 10.0):
            assert np.allclose(evolve_mode(mbar, u0, t), u0, atol=1e-12)

    def test_defective_mode_closed_form(self):
        # damped wave a=2 at |xi| = 1: eigenvalue -1 is defective and
        # exp(t Mbar)(1,0) = e^{-t} (1 + t, -t)
        m = builtin_damped_wave(2.0, d=1)
        mbar = assemble_Mbar(m, m.reference_state, np.array([1.0]))
        for t in (0.5, 3.0):
            got = evolve_mode(mbar, np.array([1.0, 0.0]), t)
            want = np.exp(-t) * np.array([1.0 + t, -t])
            assert np.abs(got - want).max() < 1e-12

    def test_semigroup_property(self):
        f = ensure_normalized(builtin_barotropic_fluid(FLUID))
        mbar = assemble_Mbar(f, f.reference_state, np.array([0.4, -0.2, 0.1]))
        rng = np.random.default_rng(0)
        u0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        a = evolve_mode(mbar, evolve_mode(mbar, u0, 1.3), 0.9)
        b = evolve_mode(mbar, u0, 2.2)
        assert np.abs(a - b).max() < 1e-9

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_mode(np.eye(2), np.zeros(2), -1.0)


class TestForcing:
    def test_zero_forcing_reduces_to_evolve(self):
        m = builtin_damped_wave(2.0, d=1)
        mbar = assemble_Mbar(m, m.reference_state, np.array([0.7]))
        tg = np.linspace(0.0, 2.0, 81)
        u0 = np.array([1.0, -0.5], dtype=complex)
        traj = evolve_mode_with_forcing(mbar, u0, np.zeros((81, 2)), tg)
        for k in (20, 80):
            want = evolve_mode(mbar, u0, tg[k])
            assert np.abs(traj[k] - want).max() < 1e-12

    def test_constant_forcing_saturation(self):
        # Mbar = -I: solution (1 - e^{-t}) g
        tg = np.linspace(0.0, 8.0, 401)
        g = np.array([1.0, 2.0])
        traj = evolve_mode_with_forcing(-np.eye(2), np.zeros(2), np.tile(g, (401, 1)), tg)
        want = (1.0 - np.exp(-tg))[:, None] * g
        assert np.abs(traj - want).max() < 1e-4
        assert np.abs(traj[-1] - g).max() < 1e-3

    def test_second_order_convergence_manufactured(self):
        # generic manufactured solution U(t) = (e^{-t}, cos 2t) with forcing
        # f = U' - Mbar U computed exactly
        mbar = np.array([[0.0, 1.0], [-1.0, -2.0]])

        def uexact(t):
            return np.stack([np.exp(-t), np.cos(2 * t)], axis=1)

        def duexact(t):
            return np.stack([-np.exp(-t), -2 * np.sin(2 * t)], axis=1)

        errs = []
        for nsteps in (40, 80, 160):
            tg = np.linspace(0.0, 2.0, nsteps + 1)
            U = uexact(tg)
            f = duexact(tg) - U @ mbar.T
            traj = evolve_mode_with_forcing(mbar, U[0], f, tg)
            errs.append(np.abs(traj - U).max())
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.8) and np.all(rates < 2.3)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            evolve_mode_with_forcing(-np.eye(2), np.zeros(2), np.zeros((5, 2)), np.linspace(0, 1, 4))


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

    def test_linearity_of_evolution(self):
        m = builtin_damped_wave(2.0, d=3)
        e1 = init_ensemble(m, GaussianData(amplitude=0.4, sigma=1.0))
        e2 = init_ensemble(m, FourierBumpData(amplitude=0.3, radius=1.5, target="u1"))
        esum = init_ensemble(
            m,
            [GaussianData(amplitude=0.4, sigma=1.0),
             FourierBumpData(amplitude=0.3, radius=1.5, target="u1")],
        )
        prop = ModePropagator(m, e1.xi)
        a = prop.propagate(e1.coefficients, 3.0) + prop.propagate(e2.coefficients, 3.0)
        b = prop.propagate(esum.coefficients, 3.0)
        assert np.abs(a - b).max() < 1e-10

    def test_mode_decoupling_bitwise(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=1.0))
        prop = ModePropagator(m, ens.xi)
        base = prop.propagate(ens.coefficients, 2.0)
        pert = ens.coefficients.copy()
        pert[37] *= 3.0
        out = prop.propagate(pert, 2.0)
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

    def test_evolve_ensemble_advances_time(self):
        m = builtin_damped_wave(2.0, d=3)
        ens = init_ensemble(m, GaussianData(amplitude=1.0))
        out = evolve_ensemble(m, ens, 4.0)
        assert out.time == 4.0
        assert sobolev_norm(out, 2.0).combined < sobolev_norm(ens, 2.0).combined


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
                             constant_coefficients=True)
        xi = np.array([[1.0], [2.0]])
        with pytest.raises(EigensolverFailure):
            dispersion_root_stack(m, m.reference_state, xi)
        with pytest.raises(EigensolverFailure, match="eig failed on 2 frequencies"):
            ModePropagator(m, xi)

    def test_matches_per_mode_expm_with_defective_mode(self):
        import scipy.linalg as sla

        from hypdiss.linear_spectral import DEFECT_COND_LIMIT
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
            got = prop.propagate(coeff, dt)
            for q in range(len(xi)):
                M, _ = weighted_symbol_oracle(m, m.reference_state, xi[q])
                want = sla.expm(dt * M) @ coeff[q]
                assert np.abs(got[q] - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)
