import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as hst

import hypdiss.simulator as sim

from hypdiss.errors import (BlowUp, CFLViolation, DomainExit, InvalidParameter,
                            UnsupportedDataSpec)
from hypdiss.linear_spectral import GaussianData
from hypdiss.model import (
    builtin_convected_damped_wave,
    builtin_damped_wave,
    ensure_normalized,
    model_from_dict,
)
from hypdiss.paradiff import GridFunction, Lattice
from hypdiss.simulator import (
    EnergyForm,
    FieldState,
    LinearPart,
    PeriodicBumpData,
    SimConfig,
    TrigData,
    dissipation_symbol_field,
    energy_monitor,
    initial_state,
    monitor_rayleigh_floor,
    rhs,
    run,
    state_norms,
    step_rk4,
    two_thirds_mask,
    w_hat,
)
from hypdiss.symbols import assemble_Mbar, assemble_Mbar_stack

LAT = Lattice(d=1, N=64)


def nonlinear_convected_model(a=0.5):
    # convection speed a + u: quadratic nonlinearity
    return model_from_dict(
        {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[1.0]], "1": [[[[a, 0], [1.0, 1]]]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
            "label": "nonlinear-convected",
        }
    )


def coupled_state_dependent_model():
    # n = d = 2; monomials [c, e_1, e_2] stand for c u_1^e_1 u_2^e_2
    def lin(c, a1, a2):
        return [[c, 0, 0], [a1, 1, 0], [a2, 0, 1]]

    return model_from_dict(
        {
            "n": 2, "d": 2, "reference_state": [0.0, 0.0],
            "A": {"0": [[lin(1.0, 0.2, 0.0), 0.1], [0.0, lin(1.0, 0.0, 0.3)]],
                  "1": [[lin(0.5, 1.0, 0.0), 0.0], [0.2, lin(0.3, 0.0, 0.5)]],
                  "2": [[0.1, 0.0], [[[0.4, 1, 1]], 0.2]]},
            "B": {"0,0": [[lin(-1.0, 0.0, -0.1), 0.0], [0.0, -1.0]],
                  "1,1": [[lin(1.0, 0.3, 0.0), 0.0], [0.0, 1.0]],
                  "2,2": [[1.0, 0.0], [0.0, [[1.0, 0, 0], [0.2, 0, 2]]]],
                  "1,2": [[lin(0.1, 0.0, 0.4), 0.0], [0.0, 0.1]],
                  "2,1": [[0.0, lin(0.0, 0.2, 0.0)], [0.1, 0.0]],
                  "0,1": [[lin(0.0, 0.0, 0.2), 0.0], [0.0, 0.1]],
                  "2,0": [[0.1, 0.0], [lin(0.0, 0.3, 0.0), 0.0]]},
            "label": "coupled-state-dependent",
        }
    )


def dealiased(linear, values):
    # the dealiased part of real samples (P, n)
    return linear.samples(linear.spectrum(np.transpose(values))).T


def dealiased_random_state(linear, scale, seed):
    # random samples with energy in every dealiased mode and none above
    rng = np.random.default_rng(seed)
    shape = (linear.lattice.points, linear.model.n)
    return FieldState(linear.lattice, dealiased(linear, scale * rng.normal(size=shape)),
                      dealiased(linear, scale * rng.normal(size=shape)))


def assert_rhs_matches_oracle(m, st):
    # the physical-space right-hand side, to 1e-12 of its largest value
    from oracles import physical_rhs_oracle

    got, want = rhs(LinearPart(m, st.lattice), st), physical_rhs_oracle(m, st)
    scale = max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * scale


class TestRhs:
    def test_equilibrium(self):
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, TrigData(amplitude=0.0))
        ut, vt = rhs(lin, st)
        assert np.abs(ut).max() == 0.0
        assert np.abs(vt).max() < 1e-14

    def test_single_mode_matches_symbol(self):
        m = builtin_damped_wave(2.0, d=1)
        lin = LinearPart(m, LAT)
        st = initial_state(lin, [TrigData(amplitude=1.0, wavenumber=(3,)),
                                 TrigData(amplitude=0.3, wavenumber=(3,), target="u1")])
        ut, vt = rhs(lin, st)
        k = int(np.argmin(np.abs(LAT.xi_vectors()[:, 0] - 3.0)))
        U = np.array([LAT.fft(st.u)[k, 0], LAT.fft(st.ut)[k, 0]])
        dU = assemble_Mbar(m, m.reference_state, np.array([3.0])) @ U
        got = np.array([LAT.fft(ut)[k, 0], LAT.fft(vt)[k, 0]])
        assert np.abs(got - dU).max() < 1e-11

    def test_damped_wave_sine(self):
        # u = sin x, v = 0: v_t = u_xx = -sin x
        lin = LinearPart(builtin_damped_wave(2.0, d=1), LAT)
        st = initial_state(lin, TrigData(amplitude=1.0, wavenumber=(1,)))
        _, vt = rhs(lin, st)
        x = LAT.x_vectors()[:, 0]
        assert np.abs(vt[:, 0] + np.sin(x)).max() < 1e-12

    def test_domain_exit(self):
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, TrigData(amplitude=5.0))  # outside [-1, 1] box
        with pytest.raises(DomainExit) as exc:
            rhs(lin, st)
        assert exc.value.report["time"] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_physical_space_oracle(self, n, d):
        # random fields with energy in every mode, the dealiased band included
        from oracles import random_stable_model

        from hypdiss.simulator import FieldState

        rng = np.random.default_rng(10 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        lat = Lattice(d=d, N={1: 16, 2: 8, 3: 6}[d])
        st = FieldState(lat, 0.05 * rng.normal(size=(lat.points, n)),
                        0.05 * rng.normal(size=(lat.points, n)))
        assert_rhs_matches_oracle(m, st)

    @pytest.mark.parametrize("which", ["readme", "coupled-2d"])
    def test_state_dependent_remainder_matches_oracle(self, which):
        # the remainder carries coeffs(u) - coeffs(ubar); the d=2 model has
        # B^{12} != B^{21} and a state-dependent B^{00}
        if which == "readme":
            m = nonlinear_convected_model(0.5)
            st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=0.2))
            assert len(np.unique(st.u.real)) > 30
        else:
            m = coupled_state_dependent_model()
            st = dealiased_random_state(LinearPart(m, Lattice(d=2, N=8)), 0.1, seed=5)
        assert not m.constant_coefficients
        assert_rhs_matches_oracle(m, st)

    def test_state_dependent_rhs_acts_on_the_dealiased_state(self):
        # the remainder is formed from the dealiased part of the state, as
        # every state of a run is; the oracle's full-spectrum derivatives of a
        # random field would carry its (even-N Nyquist: imaginary) band
        m = coupled_state_dependent_model()
        lin = LinearPart(m, Lattice(d=2, N=8))
        rng = np.random.default_rng(5)
        raw = FieldState(lin.lattice, 0.1 * rng.normal(size=(lin.lattice.points, 2)),
                         0.1 * rng.normal(size=(lin.lattice.points, 2)))
        clean = FieldState(lin.lattice, dealiased(lin, raw.u), dealiased(lin, raw.ut))
        for g, w in zip(rhs(lin, raw), rhs(lin, clean)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_non_finite_state_leaves_domain(self):
        # NaN compares False against both box edges
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, TrigData(amplitude=1e-2))
        st.u[5, 0] = np.nan
        with pytest.raises(DomainExit) as exc:
            rhs(lin, st)
        assert exc.value.report["finite"] is False


class TestStepping:
    def test_rk4_fourth_order(self):
        m = builtin_damped_wave(2.0, d=1)
        k = int(np.argmin(np.abs(LAT.xi_vectors()[:, 0] - 3.0)))
        mbar = assemble_Mbar(m, m.reference_state, np.array([3.0]))
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            lin = LinearPart(m, LAT)
            st = initial_state(lin, TrigData(amplitude=1.0, wavenumber=(3,)))
            U0 = np.array([LAT.fft(st.u)[k, 0], LAT.fft(st.ut)[k, 0]])
            for _ in range(int(round(1.0 / dt))):
                st = step_rk4(lin, st, dt)
            U = np.array([LAT.fft(st.u)[k, 0], LAT.fft(st.ut)[k, 0]])
            errs.append(np.abs(U - sla.expm(mbar) @ U0).max())
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 4.0) <= 0.2)

    def test_zero_data_stays_zero(self):
        lin = LinearPart(builtin_damped_wave(2.0, d=1), LAT)
        st = initial_state(lin, TrigData(amplitude=0.0))
        for _ in range(10):
            st = step_rk4(lin, st, 0.01)
        assert np.abs(st.u).max() == 0.0 and np.abs(st.ut).max() == 0.0

    def test_equilibrium_unchanged(self):
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, TrigData(amplitude=0.0))
        st2 = step_rk4(lin, st, 0.01)
        assert np.abs(st2.u - st.u).max() < 1e-14

    def test_cfl_guard(self):
        lin = LinearPart(builtin_damped_wave(2.0, d=1), LAT)
        st = initial_state(lin, TrigData(amplitude=0.1))
        with pytest.raises(CFLViolation):
            step_rk4(lin, st, 1.0)

    def test_cfl_guard_negative_step(self):
        # the bound is on |dt|; a backward step is as unstable as a forward one
        lin = LinearPart(builtin_damped_wave(2.0, d=1), LAT)
        st = initial_state(lin, TrigData(amplitude=0.1))
        dt_max = lin.dt_max
        with pytest.raises(CFLViolation):
            step_rk4(lin, st, -1.0)
        with pytest.raises(CFLViolation):
            step_rk4(lin, st, -1.01 * dt_max)
        step_rk4(lin, st, -0.25 * dt_max)

    @pytest.mark.parametrize("which, limit", [("fluid", 5), ("quasilinear", 10)])
    def test_transforms_per_step(self, monkeypatch, which, limit):
        # bounds that hold whether or not the state carries its spectrum:
        # constant coefficients take at most one forward transform of the
        # state, three inverse ones for the domain check of stages 2-4 and
        # one for the new state; the README quasi-linear model transforms
        # every stage's derivatives and its remainder instead
        # (TestCarriedSpectrum counts the carried case exactly)
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        if which == "fluid":
            m = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
            lat = Lattice(d=3, N=8)
        else:
            m, lat = nonlinear_convected_model(0.5), LAT
        lin = LinearPart(m, lat)
        st = initial_state(lin, PeriodicBumpData(amplitude=1e-2))
        calls = []
        for name in ("fft", "ifft"):
            orig = getattr(Lattice, name)

            def counted(self, values, _orig=orig, **kwargs):
                calls.append(1)
                return _orig(self, values, **kwargs)

            monkeypatch.setattr(Lattice, name, counted)
        step_rk4(lin, st, 0.5 * lin.dt_max)
        assert 0 < len(calls) <= limit

    def test_reality_preservation(self):
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, PeriodicBumpData(amplitude=0.05))
        for _ in range(200):
            st = step_rk4(lin, st, 0.02)
        assert np.abs(st.u.imag).max() < 1e-10
        assert np.abs(st.ut.imag).max() < 1e-10

    def test_dealiased_band_stays_zero(self):
        # the masked band is zeroed spectrally after every step; physical
        # storage reintroduces at most transform roundoff
        lin = LinearPart(nonlinear_convected_model(), LAT)
        st = initial_state(lin, TrigData(amplitude=0.05, wavenumber=(2,)))
        for _ in range(100):
            st = step_rk4(lin, st, 0.02)
        hat = LAT.fft(st.u)
        assert np.abs(hat[~two_thirds_mask(LAT)]).max() < 1e-15


def count_transforms(monkeypatch):
    # a Counter of Lattice.fft and Lattice.ifft calls from here on
    calls = Counter()
    for name in ("fft", "ifft"):
        orig = getattr(Lattice, name)

        def counted(self, values, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(self, values, **kwargs)

        monkeypatch.setattr(Lattice, name, counted)
    return calls


class TestCoefficientBound:
    """Stages 2-4 of a constant-coefficient step clear the domain box from
    their Fourier coefficients when they can, and check their samples when
    they cannot."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(d=hst.integers(1, 3), N=hst.integers(3, 10), m=hst.integers(1, 3),
           seed=hst.integers(0, 2**32 - 1), scale=hst.floats(1e-3, 1e3),
           density=hst.sampled_from([0.05, 0.5, 1.0]))
    def test_samples_lie_in_the_interval(self, d, N, m, seed, scale, density):
        # any dealiased half spectrum, also one whose zero plane is not
        # hermitian, sparse ones included, where the bound is nearly attained
        lin = LinearPart(builtin_damped_wave(1.0, d=d), Lattice(d=d, N=N))
        rng = np.random.default_rng(seed)
        shape = (m, len(lin.xi))
        hat = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        hat *= rng.random(shape) < density
        low, high = sim._sample_interval(hat)
        slack = (1e-13 * np.abs(hat).sum(axis=1))[:, None]
        u = lin.samples(hat)
        assert np.all(u >= low[:, None] - slack) and np.all(u <= high[:, None] + slack)

    def test_data_just_inside_the_box_takes_the_exact_check(self, monkeypatch):
        # u = 0.6 (sin x + sin 3x) lies in [-1, 1] at every sample (max
        # 0.92); its interval 0 -+ 1.2 does not, so stages 2-4 transform
        # their u and pass
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        s0 = initial_state(lin, [TrigData(amplitude=0.6, wavenumber=(k,)) for k in (1, 3)])
        low, high = sim._sample_interval(s0.spectrum[:1])
        assert low[0] < -1.0 and high[0] > 1.0
        calls = count_transforms(monkeypatch)
        state = step_rk4(lin, s0, lin.dt_max)
        assert calls == {"ifft": 4}
        for _ in range(4):
            state = step_rk4(lin, state, lin.dt_max)
        assert np.abs(state.u).max() < 1.0

    @pytest.mark.parametrize("hat", [[[0.0, np.inf]], [[np.inf, 0.0]], [[0.0, np.nan]]],
                             ids=["inf-mode", "inf-mean", "nan-mode"])
    def test_non_finite_interval_clears_nothing(self, hat):
        # not even a box without edges, which contains the infinite interval
        m = builtin_convected_damped_wave(0.5)
        unbounded = dataclasses.replace(m, state_domain=(np.full(1, -np.inf), np.full(1, np.inf)))
        assert not sim._inside_box(unbounded, np.array(hat, dtype=complex))
        assert sim._inside_box(unbounded, np.array([[0.0, 1e300]], dtype=complex))

    @pytest.mark.parametrize("which", ["outside", "nan", "inf-in-unbounded-box"])
    def test_exit_matches_the_exact_check(self, monkeypatch, which):
        # stage 1 passes on the state's samples and stage 2 leaves the box:
        # a large u_t, or a NaN (inf) u_t coefficient, which makes the
        # samples of the stage's u non-finite, also in a box without edges,
        # which an infinite interval would otherwise clear; the exit
        # carries the exact check's report
        m = builtin_convected_damped_wave(0.5)
        if which == "inf-in-unbounded-box":
            m = dataclasses.replace(m, state_domain=(np.full(1, -np.inf), np.full(1, np.inf)))
        lin = LinearPart(m, LAT)
        if which == "outside":
            s0 = initial_state(lin, [TrigData(amplitude=0.5),
                                     TrigData(amplitude=50.0, target="u1")])
        else:
            s0 = initial_state(lin, TrigData(amplitude=0.5))
            s0.spectrum[1, 3] = np.nan if which == "nan" else np.inf
        dt = lin.dt_max

        def exit_report():
            with pytest.raises(DomainExit) as exc, np.errstate(invalid="ignore"):
                step_rk4(lin, s0, dt)
            return exc.value.report

        got = exit_report()
        monkeypatch.setattr(sim, "_inside_box", lambda model, uh: False)
        assert repr(exit_report()) == repr(got)  # NaN-aware
        assert got["time"] == 0.5 * dt and got["finite"] is (which == "outside")


def constant_case(which):
    # a LinearPart of a constant model and small data on its lattice
    m, lat = ((builtin_convected_damped_wave(0.5), LAT) if which == "convected"
              else (readme_fluid(), Lattice(d=3, N=8)))
    lin = LinearPart(m, lat)
    return lin, initial_state(lin, PeriodicBumpData(amplitude=1e-2))


class TestCarriedSpectrum:
    """A step carries the dealiased spectrum of its new state, so the next
    step starts from it instead of transforming the samples again."""

    @pytest.mark.parametrize("which", ["convected", "fluid"])
    def test_carried_agrees_with_dropped(self, which):
        lin, carried = constant_case(which)
        dropped = carried
        for _ in range(10):
            carried = step_rk4(lin, carried, lin.dt_max)
            dropped = step_rk4(lin, dataclasses.replace(dropped, spectrum=None), lin.dt_max)
            scale = max(np.abs(dropped.u).max(), np.abs(dropped.ut).max())
            for g, w in ((carried.u, dropped.u), (carried.ut, dropped.ut)):
                assert np.abs(g - w).max() <= 1e-13 * scale

    @pytest.mark.parametrize("which", ["convected", "fluid"])
    def test_steps_are_the_rk4_polynomial_of_mbar(self, which):
        # for a linear system k RK4 steps are R(dt Mbar)^k mode by mode,
        # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
        lin, s0 = constant_case(which)
        dt, k = 0.7 * lin.dt_max, 12
        Z = dt * assemble_Mbar_stack(lin.model, lin.model.reference_state, lin.xi)
        R, term = np.eye(Z.shape[-1]) + Z, Z
        for j in (2, 3, 4):
            term = term @ Z / j
            R = R + term
        want = np.einsum("qij,jq->iq", np.linalg.matrix_power(R, k), s0.spectrum)
        state = s0
        for _ in range(k):
            state = step_rk4(lin, state, dt)
        assert np.abs(state.spectrum - want).max() <= 1e-12 * np.abs(s0.spectrum).max()

    def test_step_leaves_its_input_spectrum(self):
        # the monitor steps one state forward and backward
        lin, s0 = constant_case("convected")
        before = s0.spectrum.copy()
        fwd = step_rk4(lin, s0, lin.dt_max)
        assert np.array_equal(s0.spectrum, before)
        assert np.array_equal(step_rk4(lin, s0, lin.dt_max).u, fwd.u)

    @pytest.mark.parametrize("which", ["convected", "fluid"])
    def test_one_inverse_transform_per_step(self, monkeypatch, which):
        # small data: the coefficient bound clears stages 2-4
        lin, s0 = constant_case(which)
        state = step_rk4(lin, s0, lin.dt_max)
        calls = count_transforms(monkeypatch)
        for _ in range(3):
            state = step_rk4(lin, state, lin.dt_max)
        assert calls == {"ifft": 3}


class TestStepOracle:
    """step_rk4 on the half spectrum against the complex physical-space step
    it replaced (tests/oracles.py), to 1e-12 of the largest state value."""

    @staticmethod
    def assert_steps_match(m, linear, st, steps=4):
        from oracles import rk4_step_oracle

        dt = 0.5 * linear.dt_max
        ref = st
        for _ in range(steps):
            st = step_rk4(linear, st, dt)
            ref = FieldState(st.lattice, *rk4_step_oracle(m, ref, dt), st.time)
            scale = max(np.abs(ref.u).max(), np.abs(ref.ut).max())
            for g, w in zip((st.u, st.ut), (ref.u, ref.ut)):
                assert np.abs(g - w).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_stable_models(self, n, d):
        # constant coefficients: random fields with energy in every mode
        from oracles import random_stable_model

        rng = np.random.default_rng(100 + 10 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        lat = Lattice(d=d, N={1: 16, 2: 8, 3: 6}[d])
        shape = (lat.points, n)
        st = FieldState(lat, 0.05 * rng.normal(size=shape), 0.05 * rng.normal(size=shape))
        self.assert_steps_match(m, LinearPart(m, lat), st)

    @pytest.mark.parametrize("N", [64, 15])
    @pytest.mark.parametrize("which", ["convected", "quasilinear"])
    def test_readme_models(self, which, N):
        m = (builtin_convected_damped_wave(0.5) if which == "convected"
             else nonlinear_convected_model(0.5))
        lin = LinearPart(m, Lattice(d=1, N=N))
        self.assert_steps_match(m, lin, initial_state(lin, PeriodicBumpData(amplitude=0.2)))

    @pytest.mark.parametrize("N", [8, 15])
    def test_coupled_state_dependent_model(self, N):
        m = coupled_state_dependent_model()
        lin = LinearPart(m, Lattice(d=2, N=N))
        self.assert_steps_match(m, lin, dealiased_random_state(lin, 0.1, seed=N))


class TestLinearConsistency:
    def test_per_mode_agreement_with_exponential(self):
        # frozen coefficients: every lattice mode follows exp(t Mbar)
        m = builtin_convected_damped_wave(0.5)
        lin = LinearPart(m, LAT)
        st = initial_state(
            lin,
            [TrigData(amplitude=1e-2, wavenumber=(1,)),
             TrigData(amplitude=5e-3, wavenumber=(4,))],
        )
        u0hat, v0hat = LAT.fft(st.u), LAT.fft(st.ut)
        dt = 1e-3
        for _ in range(1000):
            st = step_rk4(lin, st, dt)
        uhat, vhat = LAT.fft(st.u), LAT.fft(st.ut)
        xi = LAT.xi_vectors()
        for k in range(LAT.points):
            U0 = np.array([u0hat[k, 0], v0hat[k, 0]])
            if np.abs(U0).max() < 1e-16:
                continue
            want = sla.expm(assemble_Mbar(m, m.reference_state, xi[k])) @ U0
            got = np.array([uhat[k, 0], vhat[k, 0]])
            assert np.abs(got - want).max() < 1e-8

    def test_small_amplitude_quadratic_signature(self):
        mnl = nonlinear_convected_model(0.5)
        mlin = builtin_convected_damped_wave(0.5)
        cfg = SimConfig(lattice=LAT, t_final=3.0, snapshots=7)
        ratios = []
        for eps in (1e-2, 1e-3):
            trn = run(mnl, TrigData(amplitude=eps, wavenumber=(1,)), cfg)
            trl = run(mlin, TrigData(amplitude=eps, wavenumber=(1,)), cfg)
            diff = np.abs(trn.final_state.u - trl.final_state.u).max()
            ratios.append(diff / eps**2)
        assert 0.5 < ratios[1] / ratios[0] < 2.0

    def test_linear_periodic_decay_and_zero_mode(self):
        # mean-free data decays; a nonzero u-mean persists (periodic-box
        # discrepancy with whole-space decay)
        m = builtin_damped_wave(2.0, d=1)
        data = [TrigData(amplitude=1e-2, wavenumber=(1,)),
                TrigData(amplitude=5e-3, wavenumber=(0,), phase="cos")]
        cfg = SimConfig(lattice=LAT, t_final=8.0, snapshots=5)
        tr = run(m, data, cfg)
        hat = LAT.fft(tr.final_state.u)
        k0 = int(np.argmin(LAT.xi_mags()))
        assert abs(hat[k0, 0] - 5e-3) < 1e-10  # zero mode frozen
        k1 = int(np.argmin(np.abs(LAT.xi_vectors()[:, 0] - 1.0)))
        # mode 1 decayed per its exact exponential
        U0 = np.array([1e-2 / 2j, 0.0])  # sin -> (e^{ix} - e^{-ix})/2i
        want = (sla.expm(8.0 * assemble_Mbar(m, m.reference_state, np.array([1.0]))) @ U0)[0]
        assert abs(hat[k1, 0] - want) < 1e-8


class TestRun:
    def test_zero_amplitude_flat_trace(self):
        m = builtin_convected_damped_wave(0.5)
        cfg = SimConfig(lattice=LAT, t_final=2.0, snapshots=5)
        tr = run(m, TrigData(amplitude=0.0), cfg)
        assert np.all(tr.w_norm == 0.0)
        assert np.all(np.diff(tr.dissipation_integral) >= 0.0)

    def test_bounded_norms_small_amplitude(self):
        m = builtin_convected_damped_wave(0.5)
        cfg = SimConfig(lattice=LAT, t_final=20.0, snapshots=21)
        tr = run(m, PeriodicBumpData(amplitude=1e-2), cfg)
        assert tr.w_norm.max() <= 2.0 * tr.w_norm[0]
        assert np.all(np.diff(tr.dissipation_integral) >= 0.0)

    def test_blowup_detected(self):
        # anti-damped medium: A^0 = -1 grows exponentially
        m = model_from_dict(
            {
                "n": 1, "d": 1, "reference_state": [0.0],
                "A": {"0": [[-1.0]]},
                "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
                "domain_lo": [-100.0], "domain_hi": [100.0],
            }
        )
        cfg = SimConfig(lattice=LAT, t_final=40.0, snapshots=41)
        with pytest.raises(BlowUp):
            run(m, TrigData(amplitude=1e-2, wavenumber=(1,)), cfg)

    @pytest.mark.parametrize("monitor", [False, True])
    def test_nan_amplitude_raises(self, monitor):
        m = builtin_convected_damped_wave(0.5)
        cfg = SimConfig(lattice=LAT, t_final=1.0, snapshots=3, monitor=monitor)
        with pytest.raises(BlowUp, match="not finite"):
            run(m, PeriodicBumpData(amplitude=float("nan")), cfg)

    def test_csv_output(self, tmp_path):
        m = builtin_convected_damped_wave(0.5)
        cfg = SimConfig(lattice=LAT, t_final=1.0, snapshots=3, monitor=True)
        tr = run(m, PeriodicBumpData(amplitude=1e-2), cfg)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert "energy_functional" in lines[0]
        assert len(lines) == 4


class TestEnergyMonitor:
    def test_constant_coefficient_multiplier_exactness(self):
        # at the reference state the functional is a Fourier multiplier:
        # <G W, W> = sum_xi What^* Dtilde(ubar, xi) What exactly
        m = builtin_convected_damped_wave(0.5)
        lin = LinearPart(m, LAT)
        st = initial_state(lin, TrigData(amplitude=0.0))
        # put energy into u_t only so u stays at the reference state
        st2 = initial_state(lin, TrigData(amplitude=1e-3, wavenumber=(2,), target="u1"))
        form = EnergyForm(lin)
        val = form.value(st2)
        ref = form.reference
        what = w_hat(m, st2)
        want = float(
            np.real(np.sum(np.conj(what) * np.einsum("qab,qb->qa", ref, what)))
            * LAT.L_box
        )
        assert val == pytest.approx(want, rel=1e-10)

    def test_inequality_along_run(self):
        form = EnergyForm(LinearPart(builtin_convected_damped_wave(0.5), LAT))
        st = initial_state(form.linear, PeriodicBumpData(amplitude=1e-2))
        checked = 0
        for _ in range(20):
            res = energy_monitor(form, st)
            assert res.satisfied, (res.lhs, res.budget)
            checked += 1
            for _ in range(10):
                st = step_rk4(form.linear, st, 0.02)
        assert checked == 20

    def test_nonlinear_inequality(self):
        form = EnergyForm(LinearPart(nonlinear_convected_model(0.5), LAT))
        st = initial_state(form.linear, PeriodicBumpData(amplitude=1e-2))
        for _ in range(5):
            res = energy_monitor(form, st)
            assert res.satisfied
            for _ in range(10):
                st = step_rk4(form.linear, st, 0.02)

    def test_rayleigh_positivity(self):
        form = EnergyForm(LinearPart(builtin_convected_damped_wave(0.5), LAT))
        st = initial_state(form.linear, PeriodicBumpData(amplitude=1e-2))
        floor = monitor_rayleigh_floor(form, st, count=50)
        assert floor > 0.01

    def test_one_form_serves_monitor_and_run(self):
        # README quasi-linear model: the state-dependent symbol is built by the
        # same form whether energy_monitor or run asks for it
        m = nonlinear_convected_model(0.5)
        data = PeriodicBumpData(amplitude=1e-2)
        form = EnergyForm(LinearPart(m, LAT))
        res = energy_monitor(form, initial_state(form.linear, data))
        cfg = SimConfig(lattice=LAT, t_final=0.1, snapshots=2, monitor=True)
        assert res.value == run(m, data, cfg).energy[0]

    def test_low_band_allowance_finite(self):
        m = builtin_convected_damped_wave(0.5)
        c_low = EnergyForm(LinearPart(m, LAT)).low_band_allowance()
        assert 0.0 <= c_low < 10.0


class TestDerivedOnce:
    def test_raw_model_normalized_once(self, monkeypatch):
        # the B^{00} scan of a state-dependent model runs when its LinearPart
        # is built, not on every step
        import hypdiss.model as model_module

        calls = []
        orig = model_module.normalize_b00
        monkeypatch.setattr(model_module, "normalize_b00",
                            lambda m: calls.append(1) or orig(m))
        m = nonlinear_convected_model(0.5)
        assert not m.normalized and not m.constant_coefficients
        lin = LinearPart(m, LAT)
        st = initial_state(lin, PeriodicBumpData(amplitude=1e-2))
        for _ in range(10):
            st = step_rk4(lin, st, 0.02)
        assert len(calls) == 1

    def test_one_form_serves_many_monitor_calls(self, monkeypatch):
        # the reference multiplier is built with the form, not per call
        import hypdiss.simulator as sim

        calls = []
        orig = sim._dissipation_values
        monkeypatch.setattr(sim, "_dissipation_values",
                            lambda *args: calls.append(1) or orig(*args))
        form = EnergyForm(LinearPart(builtin_convected_damped_wave(0.5), LAT))
        st = initial_state(form.linear, PeriodicBumpData(amplitude=1e-2))
        for _ in range(3):
            assert energy_monitor(form, st).satisfied
        assert len(calls) == 1


def readme_fluid():
    from hypdiss.model import FluidParameters, builtin_barotropic_fluid

    return builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))


def assert_form_matches_oracle(m, st):
    # the split form against the full (P, P) para-operator plus correction
    from oracles import energy_form_oracle

    lat = st.lattice
    want = energy_form_oracle(m, st.u, lat, lat.ifft(w_hat(m, st)))
    got = EnergyForm(LinearPart(m, lat)).value(st)
    assert abs(got - want) <= 1e-12 * abs(want)


class TestEnergyFormSplit:
    @pytest.mark.parametrize("which", ["convected-0.5", "quasilinear", "fluid", "damped-wave-d3"])
    def test_value_matches_full_field_oracle(self, which):
        m, lat = {
            "convected-0.5": (builtin_convected_damped_wave(0.5), LAT),
            "quasilinear": (nonlinear_convected_model(0.5), LAT),
            "fluid": (readme_fluid(), Lattice(d=3, N=4)),
            "damped-wave-d3": (builtin_damped_wave(2.0, d=3), Lattice(d=3, N=4)),
        }[which]
        # not dealiased, so that the active band |xi| >= 2 of N = 4 is populated
        from hypdiss.simulator import FieldState

        rng = np.random.default_rng(7)
        shape = (lat.points, m.n)
        st = FieldState(lat, m.reference_state + 0.05 * rng.normal(size=shape),
                        0.05 * rng.normal(size=shape))
        assert_form_matches_oracle(m, st)

    def test_quasilinear_along_a_run(self):
        m = nonlinear_convected_model(0.5)
        lin = LinearPart(m, LAT)
        st = initial_state(lin, PeriodicBumpData(amplitude=0.2))
        for _ in range(4):
            assert_form_matches_oracle(m, st)
            for _ in range(10):
                st = step_rk4(lin, st, 0.02)
        assert st.time > 0.7

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_models_match_oracle(self, n, d):
        from oracles import random_stable_model

        from hypdiss.simulator import FieldState

        rng = np.random.default_rng(100 + 10 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        lat = Lattice(d=d, N={1: 16, 2: 8, 3: 4}[d])
        st = FieldState(lat, 0.05 * rng.normal(size=(lat.points, n)),
                        0.05 * rng.normal(size=(lat.points, n)))
        assert_form_matches_oracle(m, st)

    @pytest.mark.parametrize("which", ["convected-0.5", "quasilinear"])
    def test_rayleigh_floor_matches_oracle(self, which):
        # the same random fields through the full para-operator
        from oracles import energy_form_oracle

        if which == "quasilinear":
            m = nonlinear_convected_model(0.5)
        else:
            m = builtin_convected_damped_wave(0.5)
        form = EnergyForm(LinearPart(m, LAT))
        st = initial_state(form.linear, PeriodicBumpData(amplitude=0.2))
        rng = np.random.default_rng(3)
        want = np.inf
        for _ in range(10):
            vals = rng.normal(size=(LAT.points, 2)) + 1j * rng.normal(size=(LAT.points, 2))
            den = float(np.sum(np.abs(vals) ** 2) * LAT.L_box / LAT.points)
            want = min(want, energy_form_oracle(m, st.u, LAT, vals) / den)
        got = monitor_rayleigh_floor(form, st, count=10)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("which", ["convected-0.5", "fluid", "quasilinear"])
    def test_constant_model_builds_no_field(self, monkeypatch, which):
        # a constant model's form is a Fourier multiplier: no (P, P) field, no
        # smoothing and no phase matrix; the quasi-linear model is the control
        import hypdiss.simulator as sim

        m, lat = {
            "convected-0.5": (builtin_convected_damped_wave(0.5), LAT),
            "fluid": (readme_fluid(), Lattice(d=3, N=4)),
            "quasilinear": (nonlinear_convected_model(0.5), LAT),
        }[which]
        calls = []
        for name in ("dissipation_symbol_field", "smooth_symbol", "apply_op"):
            def counted(*args, _name=name, _orig=getattr(sim, name)):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(sim, name, counted)
        phase = Lattice.phase_matrix
        monkeypatch.setattr(Lattice, "phase_matrix",
                            lambda self: calls.append("phase") or phase(self))
        data = PeriodicBumpData(amplitude=1e-2)
        form = EnergyForm(LinearPart(m, lat))
        energy_monitor(form, initial_state(form.linear, data))
        monitor_rayleigh_floor(form, initial_state(form.linear, data), count=2)
        tr = run(m, data, SimConfig(lattice=lat, t_final=0.1, snapshots=2, monitor=True))
        assert np.all(np.isfinite(tr.energy))
        if m.constant_coefficients:
            assert calls == []
        else:
            assert {"dissipation_symbol_field", "smooth_symbol", "apply_op", "phase"} <= set(calls)

    def test_multiplier_guard_refuses_fluid_n64_up_front(self):
        # fluid, d=3, N=64: P = 262144 points, 8x8 symbols; four (P, 8, 8)
        # complex stacks plus three Kronecker slices of 512 points x 8^4
        # values need 16 (4 P 64 + 3 512 4096) = 1174405120 bytes
        import tracemalloc

        import hypdiss.simulator as sim

        f = readme_fluid()
        lat = Lattice(d=3, N=64)
        lin = LinearPart(f, lat)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="needs about 1174405120 bytes"):
                EnergyForm(lin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < lat.points * 8 * 8 * 16 // 100
        sim._require_multiplier_fits(f.n, Lattice(d=3, N=32))


def test_state_norms_match_grid_functions():
    # the norms read from the half spectrum against the H^{s+1} and H^s
    # norms of GridFunctions of u - ubar and u_t, computed independently
    cases = [
        (builtin_convected_damped_wave(0.5), TrigData(amplitude=0.1, wavenumber=(2,)), LAT),
        (nonlinear_convected_model(), [PeriodicBumpData(amplitude=0.05),
                                       TrigData(amplitude=0.02, target="u1", phase="cos")], LAT),
        (coupled_state_dependent_model(), [PeriodicBumpData(amplitude=0.05, component=1),
                                           TrigData(amplitude=0.02, wavenumber=(1, 2))],
         Lattice(d=2, N=16)),
        # ubar = (1, 0, 0, 0): the density's mean is subtracted
        (readme_fluid(), [PeriodicBumpData(amplitude=0.05),
                          TrigData(amplitude=0.02, wavenumber=(1, 0, 1), target="u1")],
         Lattice(d=3, N=8)),
    ]
    for model, data, lat in cases:
        linear = LinearPart(model, lat)
        st = initial_state(linear, data)
        st = FieldState(lat, st.u + 0.01 * np.cos(lat.x_vectors()[:, :1]), st.ut)
        nu, nut = state_norms(linear, st)
        ubar = ensure_normalized(model).reference_state
        assert nu == pytest.approx(GridFunction(lat, st.u - ubar).sobolev_norm(3.0), rel=1e-13)
        assert nut == pytest.approx(GridFunction(lat, st.ut).sobolev_norm(2.0), rel=1e-13)
        what = w_hat(model, st)
        combined = np.sqrt(np.sum(np.abs(what) ** 2) * lat.L_box**lat.d)
        assert combined == pytest.approx(np.sqrt(nu**2 + nut**2), rel=1e-12)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=hst.integers(1, 3), d=hst.integers(1, 3), N=hst.integers(3, 8),
       seed=hst.integers(0, 2**32 - 1))
def test_state_norms_match_w_hat(n, d, N, seed):
    # the norms read from the half spectrum equal the block norms of the full
    # spectrum of W, for a state that carries its spectrum (after a step) and
    # for one built from its samples alone
    from oracles import random_stable_model

    rng = np.random.default_rng(seed)
    linear = LinearPart(random_stable_model(rng, n=n, d=d), Lattice(d=d, N=N))
    lat = linear.lattice
    st = FieldState(lat, 0.05 * rng.normal(size=(lat.points, n)),
                    0.05 * rng.normal(size=(lat.points, n)))
    st = step_rk4(linear, st, linear.dt_max)
    sq = lat.L_box**d * np.sum(np.abs(w_hat(linear.model, st)) ** 2, axis=0)
    want = [np.sqrt(np.sum(b)) for b in np.split(sq, 2)]
    for state in (st, FieldState(lat, st.u, st.ut)):
        assert state_norms(linear, state) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("spec", [
    TrigData(amplitude=0.1, component=3),
    TrigData(amplitude=0.1, component=-1),
    TrigData(amplitude=0.1, target="u2"),
    TrigData(amplitude=0.1, phase="tan"),
    TrigData(amplitude=0.1, wavenumber=(1, 2)),
    PeriodicBumpData(amplitude=0.1, center=(1.0, 2.0)),
    GaussianData(amplitude=0.1),
], ids=["component-3", "component-negative", "target-u2", "phase-tan", "wavenumber-length",
        "center-length", "unknown-spec"])
def test_initial_state_refuses_data_it_cannot_place(spec):
    linear = LinearPart(builtin_convected_damped_wave(0.5), LAT)
    with pytest.raises(UnsupportedDataSpec):
        initial_state(linear, spec)


class TestLatticeGuard:
    def test_refuses_fluid_n128_without_allocating(self):
        # the CLI's default --n-grid 128 in d=3: 2.1 M points, 128 MiB per
        # (P, n) complex array; the step would hold 16 + n real ones
        import tracemalloc

        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        lat = Lattice(d=3, N=128)
        array_bytes = lat.points * f.n * 16
        cfg = SimConfig(lattice=lat, t_final=0.1, snapshots=2)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=str((16 + f.n) * array_bytes // 2)):
                run(f, PeriodicBumpData(amplitude=1e-2), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < array_bytes // 100

    def test_cli_refuses_fluid_n128(self, tmp_path, capsys):
        from hypdiss.cli import EXIT_ERROR, main

        code = main(["simulate", "--builtin", "fluid", "--n-grid", "128",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "InvalidParameter" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,lattice", [
        (["--builtin", "fluid"], Lattice(d=3, N=64)),
        (["--builtin", "damped-wave", "--d", "3"], Lattice(d=3, N=64)),
        (["--builtin", "damped-wave", "--d", "2"], Lattice(d=2, N=128)),
        (["--builtin", "convected-damped-wave", "--a", "0.5"], Lattice(d=1, N=128)),
        (["--builtin", "fluid", "--n-grid", "16"], Lattice(d=3, N=16)),
    ])
    def test_cli_default_lattice_per_dimension(self, tmp_path, monkeypatch, argv, lattice):
        # the largest power of two <= 128 that the guard accepts; run is
        # replaced, so nothing is simulated
        import hypdiss.simulator as sim
        from hypdiss.cli import EXIT_ERROR, main

        seen = []

        def fake_run(model, data_spec, config):
            sim._require_lattice_fits(model, config.lattice)
            seen.append(config.lattice)
            raise RuntimeError("not simulated")

        monkeypatch.setattr(sim, "run", fake_run)
        assert main(["simulate", *argv, "--output-dir", str(tmp_path)]) == EXIT_ERROR
        assert seen == [lattice]

    def test_largest_fluid_lattice_allowed(self):
        # 20 real (P, 4) arrays: N = 74 in d=3 fits, N = 75 does not; a
        # working set of exactly the limit is still accepted
        import hypdiss.simulator as sim
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        sim._require_lattice_fits(f, Lattice(d=3, N=64))
        sim._require_lattice_fits(f, Lattice(d=3, N=74))
        with pytest.raises(InvalidParameter):
            sim._require_lattice_fits(f, Lattice(d=3, N=75))
        sim._refuse_above_limit(sim.SYMBOL_FIELD_MAX_BYTES, "exactly the limit")
        with pytest.raises(InvalidParameter):
            sim._refuse_above_limit(sim.SYMBOL_FIELD_MAX_BYTES + 1, "one byte above")

    @pytest.mark.parametrize("N", [16, 32])
    def test_estimate_bounds_measured_step(self, N):
        # a LinearPart and one step of the d=3 fluid, the zero-padded work
        # spectra included, peak at about 0.7 of the guard's estimate
        import tracemalloc

        import hypdiss.simulator as sim
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        lat = Lattice(d=3, N=N)
        tracemalloc.start()
        try:
            lin = LinearPart(f, lat)
            st = initial_state(lin, PeriodicBumpData(amplitude=1e-2))
            tracemalloc.reset_peak()
            step_rk4(lin, st, lin.dt_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 <= peak / sim._rk4_bytes(lin.model, lat) <= 1.0


class TestDissipationSymbolField:
    @pytest.mark.xfail(strict=True, reason=(
        "_batched_lyapunov's Kronecker form solves D M + conj(M) D = -I (entrywise "
        "conjugate, residual ~0.5 of the true equation) instead of D M + M^* D = -I; "
        "the benchmark fingerprint pins the energy column of that form"))
    def test_matches_per_state_lyapunov_oracle(self):
        # README quasi-linear model: every grid point against scipy's solver
        from oracles import weighted_symbol_oracle

        from hypdiss.simulator import _phi, _psi

        m = nonlinear_convected_model(0.5)
        st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=0.2))
        vals = dissipation_symbol_field(m, st.u, LAT).values
        xi = LAT.xi_vectors()
        mags = np.linalg.norm(xi, axis=1)
        phi, psi = _phi(mags), _psi(mags)
        assert len(np.unique(st.u.real)) > 30
        eye = np.eye(2)
        worst = 0.0
        for p in range(0, LAT.points, 3):
            for q in range(LAT.points):
                want = psi[q] * eye
                if phi[q] > 0.0:
                    M, _ = weighted_symbol_oracle(m, st.u[p].real, xi[q])
                    D = sla.solve_continuous_lyapunov(M.conj().T, -eye)
                    want = want + phi[q] * D
                worst = max(worst, np.abs(vals[p, q] - want).max() / np.abs(want).max())
        assert worst < 1e-10

    def test_distinct_states_scatter_to_their_points(self):
        # one batch over the distinct states equals the field of each point alone
        m = nonlinear_convected_model(0.5)
        st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=0.2))
        vals = dissipation_symbol_field(m, st.u, LAT).values
        for p in (0, 7, 31, 50):
            flat = np.tile(st.u[p], (LAT.points, 1))
            alone = dissipation_symbol_field(m, flat, LAT).values[0]
            assert np.array_equal(vals[p], alone)

    def test_size_guard_refuses_fluid_n16(self):
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        lat = Lattice(d=3, N=16)
        u = np.tile(f.reference_state, (lat.points, 1))
        need = lat.points**2 * 8 * 8 * 16
        with pytest.raises(InvalidParameter, match=str(need)):
            dissipation_symbol_field(f, u, lat)
        # the monitor's form of a constant model builds no field
        cfg = SimConfig(lattice=lat, t_final=0.1, snapshots=2, monitor=True)
        tr = run(f, PeriodicBumpData(amplitude=1e-2), cfg)
        assert np.all(np.isfinite(tr.energy)) and tr.energy[0] > 0.0

    def test_size_guard_allocates_nothing(self, monkeypatch):
        import tracemalloc

        import hypdiss.simulator as sim

        m = builtin_convected_damped_wave(0.5)
        st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=1e-2))
        field_bytes = LAT.points**2 * 2 * 2 * 16
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", field_bytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=str(field_bytes)):
                dissipation_symbol_field(m, st.u, LAT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes // 4
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", field_bytes)
        assert dissipation_symbol_field(m, st.u, LAT).values.nbytes == field_bytes


def test_lattice_of_another_dimension_is_refused():
    # SimConfig's default lattice has d = 1; the d = 3 fluid used to run on it
    fluid = readme_fluid()
    with pytest.raises(InvalidParameter, match="for a model with d = 3"):
        LinearPart(fluid, Lattice(d=1, N=16))
    with pytest.raises(InvalidParameter, match="for a model with d = 3"):
        run(fluid, PeriodicBumpData(amplitude=1e-2), SimConfig(t_final=0.1, snapshots=2))


def test_sobolev_index_is_a_constant(tmp_path):
    # no run setting or argument carries s; the trace header names its norms
    from hypdiss.simulator import SOBOLEV_INDEX

    assert SOBOLEV_INDEX == 2.0 and "s" not in SimConfig.__dataclass_fields__
    cfg = SimConfig(lattice=LAT, t_final=0.1, snapshots=2)
    run(builtin_convected_damped_wave(0.5), TrigData(amplitude=0.01), cfg).write_csv(tmp_path / "t.csv")
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "t,norm_H3_u,norm_H2_ut,w_norm,dissipation_integral"
