import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
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
    w_spectrum,
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


def sampled_state(linear, u, ut, time=0.0):
    # the state of samples u, ut (P, n) on the lattice of a LinearPart: the
    # dealiased half spectrum of their real parts
    rows = np.concatenate([np.transpose(u), np.transpose(ut)])
    return FieldState(linear, linear.spectrum(rows.real), time)


def dealiased_random_state(linear, scale, seed):
    # random samples with energy in every dealiased mode
    rng = np.random.default_rng(seed)
    shape = (linear.lattice.points, linear.model.n)
    return sampled_state(linear, scale * rng.normal(size=shape), scale * rng.normal(size=shape))


def assert_rhs_matches_oracle(m, st):
    # the physical-space right-hand side, to 1e-12 of its largest value
    from oracles import physical_rhs_oracle

    got, want = rhs(st.linear, st), physical_rhs_oracle(m, st)
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
        # random fields with energy in every dealiased mode
        from oracles import random_stable_model

        rng = np.random.default_rng(10 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        lat = Lattice(d=d, N={1: 16, 2: 8, 3: 6}[d])
        st = sampled_state(LinearPart(m, lat), 0.05 * rng.normal(size=(lat.points, n)),
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
        # a state is the dealiased part of the samples it is built from, so
        # rebuilding it from its own samples leaves its remainder as it is
        m = coupled_state_dependent_model()
        lin = LinearPart(m, Lattice(d=2, N=8))
        rng = np.random.default_rng(5)
        raw = sampled_state(lin, 0.1 * rng.normal(size=(lin.lattice.points, 2)),
                            0.1 * rng.normal(size=(lin.lattice.points, 2)))
        clean = sampled_state(lin, raw.u, raw.ut)
        for g, w in zip(rhs(lin, raw), rhs(lin, clean)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_non_finite_state_leaves_domain(self):
        # NaN compares False against both box edges
        lin = LinearPart(builtin_convected_damped_wave(0.5), LAT)
        st = initial_state(lin, TrigData(amplitude=1e-2))
        st.spectrum[0, 3] = np.nan
        with pytest.raises(DomainExit) as exc:
            rhs(lin, st)
        assert exc.value.report["finite"] is False


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


@hst.composite
def varying_documents(draw):
    """JSON models with n, d in {1, 2} and random constant parts, each of
    whose families A^j and B^{jk} but B^{00} varies with u in one random
    entry with probability 1/2, through one or two monomials (exponents in
    0..2, so some are constant); B^{00} is diagonal: -I, -2I (normalized)
    or varying."""
    n, d = draw(hst.integers(1, 2)), draw(hst.integers(1, 2))
    b00 = draw(hst.sampled_from(["identity", "scaled", "varying"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))

    def constant(diagonal):
        return (diagonal * np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))).tolist()

    doc = {"n": n, "d": d, "reference_state": [0.0] * n,
           "A": {str(j): constant(j == 0) for j in range(d + 1)},
           "B": {f"{j},{k}": constant(j == k) for j in range(d + 1) for k in range(d + 1)}}
    doc["B"]["0,0"] = (-(1.0 if b00 == "identity" else 2.0) * np.eye(n)).tolist()
    if b00 == "varying":
        doc["B"]["0,0"][0][0] = [[-2.0] + [0] * n, [0.3] + [1] * n]
    # two monomials move an entry by at most 0.8 on the box, so A^0 and
    # B^{jj} stay away from 0
    for f in ("A", "B"):
        for key in doc[f]:
            if key != "0,0" and rng.random() < 0.5:
                r, c = rng.integers(0, n, size=2)
                doc[f][key][r][c] = [[doc[f][key][r][c]] + [0] * n] + [
                    [rng.uniform(-0.4, 0.4)] + rng.integers(0, 3, size=n).tolist()
                    for _ in range(rng.integers(1, 3))]
    return doc


class TestRemainderTerms:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(doc=varying_documents(), seed=hst.integers(0, 2**32 - 1))
    def test_matches_all_families(self, doc, seed):
        # the terms left out are exactly zero, and the kept ones are summed
        # in the arithmetic of evaluating and transforming everything
        from oracles import remainder_all_families

        linear = LinearPart(model_from_dict(doc), Lattice(d=doc["d"], N={1: 16, 2: 8}[doc["d"]]))
        y = dealiased_random_state(linear, 0.05, seed).spectrum
        want = remainder_all_families(linear, y)
        if linear.terms:
            assert np.array_equal(sim._remainder(linear, y, 0.0), want)
        else:
            assert not np.any(want)

    def test_readme_stage_transforms_u_and_u_x(self, monkeypatch):
        # A^1 = 0.5 + u is the one family that varies: the stage transforms
        # 2 rows (u, u_x) instead of the 2 + 2d + d(d+1)/2 = 5 of every family
        linear = LinearPart(nonlinear_convected_model(0.5), LAT)
        st = initial_state(linear, PeriodicBumpData(amplitude=0.2))
        assert [(t.family, t.index) for t in linear.terms] == [("A", (0,))]
        rows = []
        ifft = Lattice.ifft
        monkeypatch.setattr(Lattice, "ifft",
                            lambda self, c, half=False: rows.append(len(c)) or ifft(self, c, half))
        sim._stage(linear, st.spectrum, 0.0)
        assert rows == [2]


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

    @pytest.mark.parametrize("which, counts", [("fluid", {}),
                                               ("quasilinear", {"fft": 4, "ifft": 4})],
                             ids=["fluid", "quasilinear"])
    def test_transforms_per_step(self, monkeypatch, which, counts):
        # small data: the coefficient bound clears every stage of the
        # constant-coefficient fluid, which transforms nothing; the README
        # quasi-linear model samples each stage's derivatives in one inverse
        # transform and transforms its remainder back in one forward one
        if which == "fluid":
            m, lat = readme_fluid(), Lattice(d=3, N=8)
        else:
            m, lat = nonlinear_convected_model(0.5), LAT
        lin = LinearPart(m, lat)
        st = initial_state(lin, PeriodicBumpData(amplitude=1e-2))
        calls = count_transforms(monkeypatch)
        step_rk4(lin, st, 0.5 * lin.dt_max)
        assert calls == counts

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


class TestCoefficientBound:
    """Every stage of a constant-coefficient step clears the domain box from
    its Fourier coefficients when it can, and checks its samples when it
    cannot."""

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
        # 0.92); its interval 0 -+ 1.2 does not, so all four stages
        # transform their u and pass
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
        # stage 1 passes and stage 2 leaves the box:
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
    """A state is its dealiased spectrum, which a step carries into the
    next; samples are formed only where they are read."""

    @pytest.mark.parametrize("which", ["convected", "fluid"])
    def test_samples_are_read_from_the_spectrum(self, which):
        # formed on each read, so they follow a change of the spectrum
        lin, state = constant_case(which)
        state = step_rk4(lin, state, lin.dt_max)
        n = lin.model.n
        both = lin.samples(state.spectrum)
        assert np.array_equal(state.u, both[:n].T) and np.array_equal(state.ut, both[n:].T)
        assert state.lattice is lin.lattice
        state.spectrum *= 2.0
        assert np.array_equal(state.u, 2.0 * both[:n].T)

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
    def test_no_transform_per_step(self, monkeypatch, which):
        # small data: the coefficient bound clears every stage
        lin, state = constant_case(which)
        calls = count_transforms(monkeypatch)
        for _ in range(3):
            state = step_rk4(lin, state, lin.dt_max)
        assert calls == {}

    @pytest.mark.parametrize("which", ["convected", "fluid"])
    def test_run_transforms_only_the_initial_data(self, monkeypatch, which):
        # without the monitor: one forward transform, none per step or
        # per snapshot
        lin, _ = constant_case(which)
        calls = count_transforms(monkeypatch)
        tr = run(lin.model, PeriodicBumpData(amplitude=1e-2),
                 SimConfig(lattice=lin.lattice, t_final=10 * lin.dt_max, snapshots=4))
        assert calls == {"fft": 1} and tr.times[-1] > 9 * lin.dt_max


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
            ref = sampled_state(linear, *rk4_step_oracle(m, ref, dt), st.time)
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
        linear = LinearPart(m, lat)
        st = sampled_state(linear, 0.05 * rng.normal(size=shape), 0.05 * rng.normal(size=shape))
        self.assert_steps_match(m, linear, st)

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
        # <G W, W> = sum_xi What^* Dtilde(ubar, xi) What exactly, summed over
        # the half spectrum (a mode at xi > 0 also stands for -xi) and over
        # the full spectrum of W
        from oracles import w_hat

        m = builtin_convected_damped_wave(0.5)
        lin = LinearPart(m, LAT)
        # put energy into u_t only so u stays at the reference state
        st2 = initial_state(lin, TrigData(amplitude=1e-3, wavenumber=(2,), target="u1"))
        form = EnergyForm(lin)
        val = form.value(st2)
        ref = form.reference
        assert ref.shape == (len(lin.xi), 2, 2)
        what = w_spectrum(lin, st2)
        half = sum((2.0 if xi > 0.0 else 1.0) * np.vdot(what[:, q], ref[q] @ what[:, q]).real
                   for q, xi in enumerate(lin.xi[:, 0])) * LAT.L_box
        assert val == pytest.approx(half, rel=1e-13)
        full_ref = sim._dissipation_values(m, m.reference_state[None, :], LAT.xi_vectors())[0]
        full = w_hat(m, st2)
        want = float(
            np.real(np.sum(np.conj(full) * np.einsum("qab,qb->qa", full_ref, full)))
            * LAT.L_box
        )
        assert val == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("which", ["convected-0.5", "quasilinear", "fluid"])
    def test_w_norms_match_state_norms(self, which):
        # the monitor's ||W||^2 is the traced norms' sum of squares, and its
        # low band the full spectrum's, for a stepped state and for that
        # state rebuilt from its samples
        from oracles import w_hat

        m, lat = {
            "convected-0.5": (builtin_convected_damped_wave(0.5), LAT),
            "quasilinear": (nonlinear_convected_model(0.5), LAT),
            "fluid": (readme_fluid(), Lattice(d=3, N=8)),
        }[which]
        form = EnergyForm(LinearPart(m, lat))
        st = step_rk4(form.linear, initial_state(form.linear, PeriodicBumpData(amplitude=0.05)),
                      0.01)
        low = np.linalg.norm(lat.xi_vectors(), axis=1) < 3.0
        for state in (st, sampled_state(form.linear, st.u, st.ut)):
            res = energy_monitor(form, state)
            want = sum(x**2 for x in state_norms(form.linear, state))
            assert res.w_norm2 == pytest.approx(want, rel=1e-13)
            full = w_hat(form.model, state)
            want_low = np.sum(np.abs(full[low]) ** 2) * lat.L_box**lat.d
            assert res.w_low_norm2 == pytest.approx(want_low, rel=1e-12)

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
    # the split form on the half spectrum against the full (P, P)
    # para-operator plus correction, given the dealiased W on the full
    # spectrum: the W the form reads
    from oracles import energy_form_oracle, w_hat

    lat = st.lattice
    what = w_hat(m, st)
    what[~two_thirds_mask(lat)] = 0.0
    want = energy_form_oracle(m, st.u, lat, lat.ifft(what))
    got = EnergyForm(LinearPart(m, lat)).value(st)
    assert abs(got - want) <= 1e-12 * abs(want)


def oracle_inputs(linear, st):
    # a state of random samples, the state one step from it, and that state
    # rebuilt from its samples
    stepped = step_rk4(linear, st, 0.5 * linear.dt_max)
    return st, stepped, sampled_state(linear, stepped.u, stepped.ut)


class TestEnergyFormSplit:
    @pytest.mark.parametrize("which", ["convected-0.5", "quasilinear", "fluid", "damped-wave-d3"])
    def test_value_matches_full_field_oracle(self, which):
        m, lat = {
            "convected-0.5": (builtin_convected_damped_wave(0.5), LAT),
            "quasilinear": (nonlinear_convected_model(0.5), LAT),
            "fluid": (readme_fluid(), Lattice(d=3, N=6)),
            "damped-wave-d3": (builtin_damped_wave(2.0, d=3), Lattice(d=3, N=6)),
        }[which]
        # N = 6 in d = 3: the 2/3 mask keeps |xi_j| <= 2, so the active band
        # |xi| >= 2 is populated (at N = 4 it keeps |xi_j| <= 1)
        rng = np.random.default_rng(7)
        shape = (lat.points, m.n)
        linear = LinearPart(m, lat)
        st = sampled_state(linear, m.reference_state + 0.05 * rng.normal(size=shape),
                           0.05 * rng.normal(size=shape))
        for state in oracle_inputs(linear, st):
            assert_form_matches_oracle(m, state)

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

        rng = np.random.default_rng(100 + 10 * n + d)
        m = random_stable_model(rng, n=n, d=d)
        linear = LinearPart(m, Lattice(d=d, N={1: 16, 2: 8, 3: 6}[d]))
        P = linear.lattice.points
        st = sampled_state(linear, 0.05 * rng.normal(size=(P, n)), 0.05 * rng.normal(size=(P, n)))
        for state in oracle_inputs(linear, st):
            assert_form_matches_oracle(m, state)

    @pytest.mark.parametrize("N", [7, 8])
    def test_coupled_d2_model_matches_oracle(self, N):
        # a state-dependent d = 2 model: besides xi = 0, the half spectrum
        # holds the plane xi_2 = 0, whose pairs {xi, -xi} weigh 1 each
        m = coupled_state_dependent_model()
        linear = LinearPart(m, Lattice(d=2, N=N))
        rng = np.random.default_rng(N)
        shape = (linear.lattice.points, m.n)
        st = sampled_state(linear, 0.05 * rng.normal(size=shape), 0.05 * rng.normal(size=shape))
        for state in oracle_inputs(linear, st):
            assert_form_matches_oracle(m, state)

    @pytest.mark.parametrize("which", ["convected-0.5", "quasilinear"])
    def test_rayleigh_floor_matches_oracle(self, which):
        # the dealiased parts of the same random real fields through the
        # full para-operator
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
            hat = LAT.fft(rng.normal(size=(2, LAT.points)).T)
            hat[~two_thirds_mask(LAT)] = 0.0
            vals = LAT.ifft(hat)
            den = float(np.sum(np.abs(vals) ** 2) * LAT.L_box / LAT.points)
            want = min(want, energy_form_oracle(m, st.u, LAT, vals) / den)
        got = monitor_rayleigh_floor(form, st, count=10)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("which", ["convected-0.5", "fluid", "quasilinear"])
    def test_constant_model_builds_no_field(self, monkeypatch, which):
        # a constant model's form is a Fourier multiplier: no field at all; the
        # quasi-linear model is the control, whose remainder lives on the
        # (P, Q) half spectrum of W: no (P, P) mask, smoothing, quantization
        # or phase matrix
        import hypdiss.paradiff as paradiff
        import hypdiss.simulator as sim

        m, lat = {
            "convected-0.5": (builtin_convected_damped_wave(0.5), LAT),
            "fluid": (readme_fluid(), Lattice(d=3, N=4)),
            "quasilinear": (nonlinear_convected_model(0.5), LAT),
        }[which]
        full_lattice = ("DiscreteSymbol", "GridFunction", "cutoff_mask", "smooth_symbol",
                        "apply_op")
        assert not any(hasattr(sim, name) for name in full_lattice)
        calls = []
        for module, name in ((sim, "dissipation_symbol_field"), (paradiff, "cutoff_mask"),
                             (paradiff, "smooth_symbol"), (paradiff, "apply_op")):
            def counted(*args, _name=name, _orig=getattr(module, name)):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(module, name, counted)
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
            assert set(calls) == {"dissipation_symbol_field"}

    def test_multiplier_guard_refuses_fluid_n66_up_front(self):
        # fluid, d=3, N=66: the half spectrum keeps Q = 45 x 45 x 23 = 46575
        # frequencies, 8x8 symbols; four (Q, 8, 8) complex stacks plus three
        # Kronecker slices of 512 points x 8^4 values need
        # 16 (4 Q 64 + 3 512 4096) = 291434496 bytes.  N = 64 (Q = 40678,
        # 267280384 bytes) is the finest power of two that fits.
        import tracemalloc

        import hypdiss.simulator as sim

        f = readme_fluid()
        lin = LinearPart(f, Lattice(d=3, N=66))
        Q = len(lin.xi)
        assert Q == 45 * 45 * 23
        need = 16 * (4 * Q * 64 + 3 * 512 * 4096)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=f"needs about {need} bytes"):
                EnergyForm(lin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < Q * 8 * 8 * 16 // 100
        sim._require_multiplier_fits(f.n, len(LinearPart(f, Lattice(d=3, N=64)).xi))


def test_state_norms_match_grid_functions():
    # the norms read from the half spectrum against the H^{s+1} and H^s
    # norms of GridFunctions of u - ubar and u_t, computed independently
    from oracles import w_hat

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
        st = sampled_state(linear, st.u + 0.01 * np.cos(lat.x_vectors()[:, :1]), st.ut)
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
    # spectrum of W, for a state after a step and for that state rebuilt
    # from its samples
    from oracles import random_stable_model, w_hat

    rng = np.random.default_rng(seed)
    linear = LinearPart(random_stable_model(rng, n=n, d=d), Lattice(d=d, N=N))
    lat = linear.lattice
    st = sampled_state(linear, 0.05 * rng.normal(size=(lat.points, n)),
                       0.05 * rng.normal(size=(lat.points, n)))
    st = step_rk4(linear, st, linear.dt_max)
    sq = lat.L_box**d * np.sum(np.abs(w_hat(linear.model, st)) ** 2, axis=0)
    want = [np.sqrt(np.sum(b)) for b in np.split(sq, 2)]
    for state in (st, sampled_state(linear, st.u, st.ut)):
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
        # (P, n) complex array; a run would hold 4n + 2d + (8/27)(2n^2 + 10n)
        # = 130/3 real lattice fields
        import tracemalloc

        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        lat = Lattice(d=3, N=128)
        array_bytes = lat.points * f.n * 16
        cfg = SimConfig(lattice=lat, t_final=0.1, snapshots=2)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=str(130 * 8 * lat.points // 3)):
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
        (["--builtin", "damped-wave", "--d", "3"], Lattice(d=3, N=128)),
        (["--builtin", "damped-wave", "--d", "2"], Lattice(d=2, N=128)),
        (["--builtin", "convected-damped-wave", "--a", "0.5"], Lattice(d=1, N=128)),
        (["--builtin", "fluid", "--n-grid", "16"], Lattice(d=3, N=16)),
    ])
    def test_cli_default_lattice_per_dimension(self, tmp_path, monkeypatch, argv, lattice):
        # the largest power of two <= 128 that the guard accepts; the run's
        # LinearPart is replaced, so nothing is simulated
        import hypdiss.simulator as sim
        from hypdiss.cli import EXIT_ERROR, main

        seen = []

        def fake_linear_part(model, lattice):
            sim._require_lattice_fits(model, lattice)
            seen.append(lattice)
            raise RuntimeError("not simulated")

        monkeypatch.setattr(sim, "LinearPart", fake_linear_part)
        assert main(["simulate", *argv, "--output-dir", str(tmp_path)]) == EXIT_ERROR
        assert seen == [lattice]

    def test_largest_fluid_lattice_allowed(self):
        # 130/3 real lattice fields: N = 91 in d=3 fits, N = 92 does not; a
        # working set of exactly the limit is still accepted
        import hypdiss.simulator as sim
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        f = builtin_barotropic_fluid(FluidParameters(r=3, mu=2, nu=1, eta=1))
        sim._require_lattice_fits(f, Lattice(d=3, N=64))
        sim._require_lattice_fits(f, Lattice(d=3, N=91))
        with pytest.raises(InvalidParameter):
            sim._require_lattice_fits(f, Lattice(d=3, N=92))
        sim._refuse_above_limit(sim.SYMBOL_FIELD_MAX_BYTES, "exactly the limit")
        with pytest.raises(InvalidParameter):
            sim._refuse_above_limit(sim.SYMBOL_FIELD_MAX_BYTES + 1, "one byte above")

    @pytest.mark.parametrize("N", [16, 32])
    def test_estimate_bounds_measured_step(self, N):
        # a LinearPart and one step of the d=3 fluid peak at 0.67 (N = 16)
        # and 0.54 (N = 32) of the guard's estimate, whose largest phase is
        # the transform of the initial data
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

    def test_rows_are_built_in_place(self):
        # the bottom rows of Mbar, bit for bit, built through one (Q, n, n)
        # buffer: 0.82 of the guard's estimate for n = 4, d = 1 at N = 4096
        # (0.92 with both halves and their concatenation)
        import tracemalloc

        from oracles import random_stable_model

        m = ensure_normalized(random_stable_model(np.random.default_rng(4), n=4, d=1))
        lat = Lattice(d=1, N=4096)
        tracemalloc.start()
        try:
            lin = LinearPart(m, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.85 * sim._rk4_bytes(m, lat)
        want = assemble_Mbar_stack(m, m.reference_state, lin.xi)[:, m.n:]
        assert lin.rows.tobytes() == want.tobytes()


class TestDissipationSymbolField:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "_batched_lyapunov's Kronecker form solves D M + conj(M) D = -I (entrywise "
        "conjugate, residual ~0.5 of the true equation) instead of D M + M^* D = -I; "
        "the benchmark fingerprint pins the energy column of that form"))
    def test_matches_per_state_lyapunov_oracle(self):
        # README quasi-linear model: every grid point against scipy's solver
        from oracles import weighted_symbol_oracle

        from hypdiss.simulator import _phi, _psi

        m = nonlinear_convected_model(0.5)
        st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=0.2))
        xi = LAT.xi_vectors()
        vals = dissipation_symbol_field(m, st.u, xi)
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
        xi = LAT.xi_vectors()
        vals = dissipation_symbol_field(m, st.u, xi)
        for p in (0, 7, 31, 50):
            flat = np.tile(st.u[p], (LAT.points, 1))
            alone = dissipation_symbol_field(m, flat, xi)[0]
            assert np.array_equal(vals[p], alone)

    def test_size_guard_refuses_fluid_n16(self):
        # d = 3, N = 16: P = 4096 points and Q = 11 x 11 x 6 = 726 half-spectrum
        # frequencies, 8x8 symbols; three (P, Q, 8, 8) complex fields (more
        # than two beside three slices of 512 Kronecker systems) and the
        # (P, Q) phase and cut-off need 16 (3 P Q 64) + 24 P Q bytes
        f = readme_fluid()
        lat = Lattice(d=3, N=16)
        xi = LinearPart(f, lat).xi
        assert len(xi) == 11 * 11 * 6
        u = np.tile(f.reference_state, (lat.points, 1))
        need = 16 * 3 * lat.points * len(xi) * 64 + 24 * lat.points * len(xi)
        with pytest.raises(InvalidParameter, match=f"needs about {need} bytes"):
            dissipation_symbol_field(f, u, xi)
        # the monitor's form of a constant model builds no field
        cfg = SimConfig(lattice=lat, t_final=0.1, snapshots=2, monitor=True)
        tr = run(f, PeriodicBumpData(amplitude=1e-2), cfg)
        assert np.all(np.isfinite(tr.energy)) and tr.energy[0] > 0.0

    def test_state_dependent_form_refuses_the_field_up_front(self, monkeypatch):
        # the form forms its (P, Q) cut-off and phase only once the
        # remainder is known to fit; the multiplier alone would fit here
        lin = LinearPart(nonlinear_convected_model(0.5), LAT)
        need = sim._field_bytes(1, LAT.points, len(lin.xi))
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", need - 1)
        calls = []
        monkeypatch.setattr(sim, "CHI", lambda *args: calls.append("cutoff"))
        monkeypatch.setattr(Lattice, "x_vectors", lambda self: calls.append("phase"))
        with pytest.raises(InvalidParameter, match=str(need)):
            EnergyForm(lin)
        assert calls == []
        EnergyForm(LinearPart(builtin_convected_damped_wave(0.5), LAT))
        assert calls == []

    def test_size_guard_allocates_nothing(self, monkeypatch):
        import tracemalloc

        import hypdiss.simulator as sim

        m = builtin_convected_damped_wave(0.5)
        st = initial_state(LinearPart(m, LAT), PeriodicBumpData(amplitude=1e-2))
        xi = LAT.xi_vectors()
        need = sim._field_bytes(m.n, LAT.points, len(xi))
        field_bytes = LAT.points * len(xi) * 2 * 2 * 16
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match=str(need)):
                dissipation_symbol_field(m, st.u, xi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes // 4
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", need)
        assert dissipation_symbol_field(m, st.u, xi).nbytes == field_bytes

    @pytest.mark.parametrize("which", ["quasilinear-N256", "coupled-N16"])
    def test_estimate_bounds_measured_value(self, which):
        # building the form and one value on a state of distinct samples
        # peak at about 0.80 (d = 1) and 0.93 (d = 2) of the guard's estimate
        import tracemalloc

        m, lat = {
            "quasilinear-N256": (nonlinear_convected_model(0.5), Lattice(d=1, N=256)),
            "coupled-N16": (coupled_state_dependent_model(), Lattice(d=2, N=16)),
        }[which]
        lin = LinearPart(m, lat)
        rng = np.random.default_rng(0)
        shape = (lat.points, m.n)
        st = sampled_state(lin, 0.05 * rng.normal(size=shape), 0.05 * rng.normal(size=shape))
        assert len(np.unique(st.u, axis=0)) == lat.points
        tracemalloc.start()
        try:
            EnergyForm(lin).value(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 <= peak / sim._field_bytes(m.n, lat.points, len(lin.xi)) <= 1.0


def lattice_negation(lattice):
    """(q, r) index pairs with xi_r = -xi_q, over every q whose negation is
    on the lattice (all of them for odd N; not the Nyquist rows of even N)."""
    xi = lattice.xi_vectors()
    where = {tuple(x): r for r, x in enumerate((xi + 0.0).tolist())}
    pairs = [(q, where.get(tuple(x))) for q, x in enumerate((0.0 - xi).tolist())]
    return np.array([p for p in pairs if p[1] is not None]).T


class TestDissipationFold:
    """`_dissipation_values` solves one frequency of each pair {xi, -xi}."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=hst.integers(1, 3), d=hst.integers(1, 3), odd=hst.booleans(),
           count=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    @example(n=3, d=2, odd=False, count=4, seed=0)
    @example(n=3, d=2, odd=True, count=2, seed=1)
    def test_matches_unfolded_oracle(self, n, d, odd, count, seed):
        from oracles import random_stable_model, unfolded_dissipation_values

        from hypdiss.simulator import _dissipation_values

        rng = np.random.default_rng(seed)
        m = ensure_normalized(random_stable_model(rng, n=n, d=d))
        lat = Lattice(d=d, N={1: 16, 2: 8, 3: 4}[d] + odd)
        states = m.reference_state + 0.05 * rng.normal(size=(count, n))
        got = _dissipation_values(m, states, lat.xi_vectors())
        assert np.array_equal(got, unfolded_dissipation_values(m, states, lat))
        q, r = lattice_negation(lat)
        assert len(q) == (lat.points if odd else (lat.N - 1) ** d)
        assert np.array_equal(got[:, r], np.conj(got[:, q]))

    @pytest.mark.parametrize("N", [16, 15])
    def test_state_dependent_models(self, N):
        # distinct states of the README quasi-linear model and of a coupled
        # n = d = 2 model, each against the unfolded oracle
        from oracles import unfolded_dissipation_values

        from hypdiss.simulator import _dissipation_values

        rng = np.random.default_rng(N)
        for m, d in ((nonlinear_convected_model(0.5), 1), (coupled_state_dependent_model(), 2)):
            m = ensure_normalized(m)
            lat = Lattice(d=d, N=N if d == 1 else N // 2)
            states = 0.2 * rng.normal(size=(5, m.n))
            got = _dissipation_values(m, states, lat.xi_vectors())
            assert np.array_equal(got, unfolded_dissipation_values(m, states, lat))
            q, r = lattice_negation(lat)
            assert np.array_equal(got[:, r], np.conj(got[:, q]))


def test_lattice_of_another_dimension_is_refused():
    # the d = 3 fluid used to run on a d = 1 lattice
    fluid = readme_fluid()
    with pytest.raises(InvalidParameter, match="for a model with d = 3"):
        LinearPart(fluid, Lattice(d=1, N=16))
    with pytest.raises(InvalidParameter, match="for a model with d = 3"):
        run(fluid, PeriodicBumpData(amplitude=1e-2),
            SimConfig(lattice=Lattice(d=1, N=16), t_final=0.1, snapshots=2))


def test_default_config_runs_on_the_model_lattice():
    # SimConfig() leaves the lattice to default_lattice(model); it used to
    # carry Lattice(d=1, N=128), which a d = 2 model refused
    model = builtin_damped_wave(2.0, d=2)
    data = PeriodicBumpData(amplitude=1e-2)
    got = run(model, data, SimConfig(t_final=0.05, snapshots=2))
    want = run(model, data, SimConfig(lattice=Lattice(d=2, N=128), t_final=0.05, snapshots=2))
    assert np.array_equal(got.w_norm, want.w_norm)
    assert got.w_norm[-1] > 0.0


def test_zero_spectral_radius_is_refused(tmp_path, capsys):
    # Mbar(ubar, xi) = [[0, 1], [0, 0]] at every xi: no RK4 step bound (this
    # used to raise ZeroDivisionError)
    import json

    from hypdiss.cli import EXIT_ERROR, main

    doc = {"n": 1, "d": 1, "A": {"0": [[0.0]], "1": [[[[1.0, 2]]]]},
           "B": {"0,0": [[-1.0]], "1,1": [[0.0]]}}
    with pytest.raises(InvalidParameter, match="spectral radius 0"):
        LinearPart(model_from_dict(doc), LAT)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: InvalidParameter: Mbar(ubar, xi) has spectral radius 0")


def test_sobolev_index_is_a_constant(tmp_path):
    # no run setting or argument carries s; the trace header names its norms
    from hypdiss.simulator import SOBOLEV_INDEX

    assert SOBOLEV_INDEX == 2.0 and "s" not in SimConfig.__dataclass_fields__
    cfg = SimConfig(lattice=LAT, t_final=0.1, snapshots=2)
    run(builtin_convected_damped_wave(0.5), TrigData(amplitude=0.01), cfg).write_csv(tmp_path / "t.csv")
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "t,norm_H3_u,norm_H2_ut,w_norm,dissipation_integral"
