import json
import re

import numpy as np
import pytest

from hypdiss.errors import InvalidParameter, SingularB00
from hypdiss.model import (
    CoefficientModel,
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_convected_damped_wave,
    builtin_damped_wave,
    load_model,
    model_from_dict,
    normalize_b00,
)
from hypdiss.symbols import directional_stack, dispersion_roots

from oracles import fluid_bases, multiset_distance

FLUID = FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0)


class TestBuiltins:
    def test_damped_wave_blocks(self):
        m = builtin_damped_wave(2.0, d=3)
        u = m.reference_state
        assert m.n == 1 and m.d == 3
        assert np.allclose(m.A(0, u), [[2.0]])
        assert np.allclose(m.B(0, 0, u), [[-1.0]])
        for j in range(1, 4):
            assert np.allclose(m.B(j, j, u), [[1.0]])
            assert np.allclose(m.A(j, u), [[0.0]])
        assert np.allclose(m.B(1, 2, u), [[0.0]])

    def test_damped_wave_rejects_nonpositive_damping(self):
        with pytest.raises(InvalidParameter):
            builtin_damped_wave(0.0, d=1)

    def test_damped_wave_dispersion(self):
        # plane waves of u_tt + 2 u_t = u_xx satisfy lambda^2 + 2 lambda + xi^2 = 0
        m = builtin_damped_wave(2.0, d=1)
        roots = dispersion_roots(m, m.reference_state, np.array([0.7])).roots
        residual = [abs(lam**2 + 2 * lam + 0.49) for lam in roots]
        assert max(residual) < 1e-12

    def test_convected_wave_reduces_to_damped_wave_at_zero(self):
        mc = builtin_convected_damped_wave(0.0)
        u = mc.reference_state
        assert np.allclose(mc.A(1, u), [[0.0]])
        assert np.allclose(mc.A(0, u), [[1.0]])

    def test_evaluators_deterministic(self):
        f = builtin_barotropic_fluid(FLUID)
        u = f.reference_state + 0.1
        a1, a2 = f.A(1, u), f.A(1, u)
        b1, b2 = f.B(2, 3, u), f.B(2, 3, u)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


class TestFluidMatrices:
    def test_reference_displays(self):
        f = builtin_barotropic_fluid(FLUID)
        u = f.reference_state
        assert np.allclose(f.A(0, u), np.diag([3.0, 1, 1, 1]))
        assert np.allclose(f.B(0, 0, u), np.diag([-18.0, -1, -1, -1]))
        # coupling -(mu r + nu)/2 = -3.5
        b01 = f.B(0, 1, u)
        assert b01[0, 1] == pytest.approx(-3.5)
        assert np.allclose(b01, f.B(1, 0, u))

    def test_parameter_constraints(self):
        with pytest.raises(InvalidParameter):
            FluidParameters(r=3, mu=1.0, nu=1, eta=1, zeta=0)  # mu < 4/3 eta
        with pytest.raises(InvalidParameter):
            FluidParameters(r=0.5, mu=2, nu=1, eta=1)
        with pytest.raises(InvalidParameter):
            FluidParameters(r=3, mu=2, nu=-1, eta=1)
        # boundary value allowed only when asked for explicitly
        with pytest.raises(InvalidParameter):
            FluidParameters(r=3, mu=4.0 / 3.0, nu=1, eta=1, zeta=0)
        p = FluidParameters(r=3, mu=4.0 / 3.0, nu=1, eta=1, zeta=0, allow_boundary=True)
        assert p.eta_tilde == pytest.approx(4.0 / 3.0)


class TestNormalization:
    def test_scalar_rescaling(self):
        # B^{00} = -2: all coefficients halved
        doc = {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[4.0]]},
            "B": {"0,0": [[-2.0]], "1,1": [[2.0]]},
        }
        m = normalize_b00(model_from_dict(doc))
        u = m.reference_state
        assert np.allclose(m.B(0, 0, u), [[-1.0]])
        assert np.allclose(m.B(1, 1, u), [[1.0]])
        assert np.allclose(m.A(0, u), [[2.0]])

    def test_identity_case(self):
        m = builtin_damped_wave(2.0, d=1)
        m2 = normalize_b00(m)
        u = m.reference_state
        assert np.array_equal(m2.B(0, 0, u), m.B(0, 0, u))
        assert np.array_equal(m2.A(0, u), m.A(0, u))

    # B^{00} = [[-2, 0.1], [0, -1.5]] (constant, or varying through u_2 in its
    # first entry) beside entries of A^1, B^{01} and B^{11} that vary with u
    DOC = {
        "n": 2, "d": 1, "reference_state": [0.0, 0.0],
        "A": {"0": [[1.0, 0.2], [0.0, 1.0]], "1": [[[[0.5, 0, 0], [1.0, 1, 0]], 0.0], [0.3, 0.2]]},
        "B": {"0,0": [[-2.0, 0.1], [0.0, -1.5]], "1,1": [[1.0, 0.0], [[[0.2, 0, 2]], 1.0]],
              "0,1": [[0.0, [[0.3, 1, 1]]], [0.1, 0.0]]},
    }

    @pytest.mark.parametrize("b00", ["constant", "varying"])
    def test_values_match_the_per_call_inversion(self, b00):
        # bit-equal to left-multiplying by the inverse of -B^{00} at every state
        doc = json.loads(json.dumps(self.DOC))
        if b00 == "varying":
            doc["B"]["0,0"][0][0] = [[-2.0, 0, 0], [0.1, 0, 1]]
        m = model_from_dict(doc)
        nm = normalize_b00(m)
        assert nm.varying == ({("A", 1), ("B", 1, 1), ("B", 0, 1)} if b00 == "constant" else None)
        us = m.state_samples(64)
        inv = np.linalg.inv(-np.asarray(m.B(0, 0, us), float))
        for j in range(2):
            assert np.array_equal(nm.A(j, us), inv @ m.A(j, us))
            for k in range(2):
                assert np.array_equal(nm.B(j, k, us), inv @ m.B(j, k, us))

    def test_constant_b00_is_inverted_once(self):
        from dataclasses import replace

        calls = []
        m = model_from_dict(self.DOC)
        m = replace(m, B=lambda j, k, u, _B=m.B: calls.append((j, k)) or _B(j, k, u))
        nm = normalize_b00(m)
        calls.clear()
        us = m.state_samples(16)
        for j in range(2):
            nm.A(j, us)
            nm.B(1, j, us)
        assert (0, 0) not in calls

    def test_fluid_row_blocks(self):
        f = normalize_b00(builtin_barotropic_fluid(FLUID))
        u = f.reference_state
        assert np.allclose(f.B(0, 0, u), -np.eye(4))
        # first row divided by 18, the rest by 1
        assert f.A(0, u)[0, 0] == pytest.approx(3.0 / 18.0)
        assert f.A(0, u)[1, 1] == pytest.approx(1.0)

    def test_dispersion_roots_preserved(self):
        f = builtin_barotropic_fluid(FLUID)
        fn = normalize_b00(f)
        rng = np.random.default_rng(5)
        for _ in range(10):
            xi = rng.normal(size=3)
            r1 = dispersion_roots(f, f.reference_state, xi).roots
            r2 = dispersion_roots(fn, fn.reference_state, xi).roots
            scale = max(np.abs(r1).max(), 1.0)
            assert multiset_distance(r1, r2) / scale < 1e-9

    def test_singular_b00_rejected(self):
        doc = {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[1.0]]},
            "B": {"0,0": [[0.0]], "1,1": [[1.0]]},
        }
        with pytest.raises(SingularB00):
            normalize_b00(model_from_dict(doc))

    @pytest.mark.parametrize("b00,message", [
        # u^2 - 1/4 vanishes at the Halton samples u = -0.5 (index 2) and
        # u = 0.5 (index 3) of the box [-1, 1]
        ([[-0.25, 0], [1.0, 2]], r"condition number inf exceeds ceiling at u=\[-0\.5\]"),
        # -1 - u^-2 is infinite at the sample u = 0 (index 1)
        ([[-1.0, 0], [-1.0, -2]], r"non-finite entries at u=\[0\.\]"),
    ])
    def test_singular_b00_names_first_offending_sample(self, b00, message):
        doc = {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[1.0]]},
            "B": {"0,0": [[b00]], "1,1": [[1.0]]},
        }
        m = model_from_dict(doc)
        assert list(m.state_samples()[:4, 0]) == [-1.0, 0.0, -0.5, 0.5]
        with np.errstate(divide="ignore"), pytest.raises(SingularB00, match=message):
            normalize_b00(m)


def _fluid_symbols(f, om):
    # the fluid's five coefficient families in direction om at the reference state
    u = f.reference_state
    _, (A_dir,), (B_dir,), (C_dir,) = directional_stack(f, u, om)
    return {"A0": f.A(0, u), "A": A_dir, "B00": f.B(0, 0, u), "B": B_dir, "C": C_dir}


def _reduce(full, F):
    # the 2x2 reductions F^T X F along a 4x2 orthonormal basis F
    return {k: F.T @ v @ F for k, v in full.items()}


class TestBlockDecomposition:
    def test_transverse_damped_wave_identification(self):
        f = builtin_barotropic_fluid(FLUID)
        om = np.array([0.0, 1.0, 0.0])
        t = _reduce(_fluid_symbols(f, om), fluid_bases(om)[1])
        assert np.allclose(t["A0"], np.eye(2))
        assert np.allclose(t["A"], 0.0)
        assert np.allclose(t["B00"], -FLUID.nu * np.eye(2))
        assert np.allclose(t["B"], FLUID.eta * np.eye(2))
        assert np.allclose(t["C"], 0.0)

    def test_longitudinal_second_order_block(self):
        f = builtin_barotropic_fluid(FLUID)
        om = np.array([1.0, 0.0, 0.0])
        longitudinal = _reduce(_fluid_symbols(f, om), fluid_bases(om)[0])
        expect = np.diag([-FLUID.nu, FLUID.eta_tilde - FLUID.mu])
        assert np.allclose(longitudinal["B"], expect, atol=1e-14)

    def test_reassembly_many_directions(self):
        f = builtin_barotropic_fluid(FLUID)
        rng = np.random.default_rng(7)
        for _ in range(50):
            om = rng.normal(size=3)
            om /= np.linalg.norm(om)
            full = _fluid_symbols(f, om)
            Fl, Ft = fluid_bases(om)
            lon, tra = _reduce(full, Fl), _reduce(full, Ft)
            for key, mat in full.items():
                assert np.abs(Fl @ lon[key] @ Fl.T + Ft @ tra[key] @ Ft.T - mat).max() < 1e-12


class TestJsonModels:
    def test_builtin_document(self, tmp_path):
        doc = {"builtin": {"name": "fluid", "params": {"r": 3, "mu": 2, "nu": 1, "eta": 1}}}
        path = tmp_path / "fluid.json"
        path.write_text(json.dumps(doc))
        m = load_model(path)
        assert m.is_fluid and m.n == 4

    def test_polynomial_entries(self):
        doc = {
            "n": 2, "d": 1, "reference_state": [0.0, 0.0],
            "A": {"0": [[1.0, 0.0], [0.0, 1.0]],
                  "1": [[[[0.3, 0, 0]], 0.0], [0.0, [[1.0, 2, 0]]]]},
            "B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]],
                  "1,1": [[1.0, 0.0], [0.0, 1.0]]},
        }
        m = model_from_dict(doc)
        u = np.array([0.5, 2.0])
        a1 = m.A(1, u)
        assert a1[0, 0] == pytest.approx(0.3)
        assert a1[1, 1] == pytest.approx(0.25)  # u_0^2
        assert not m.constant_coefficients

    def test_varying_entries(self):
        # an entry varies when it is a monomial list with a nonzero exponent
        doc = {
            "n": 2, "d": 2, "reference_state": [0.0, 0.0],
            "A": {"0": [[1.0, 0.0], [0.0, [[1.0, 0, 0], [0.5, 0, 0]]]],
                  "2": [[0.0, [[0.2, 0, 1]]], [0.0, 0.0]]},
            "B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]], "1,2": [[[[0.1, 1, 0]], 0.0], [0.0, 0.0]],
                  "2,0": [[0.0, 0.0], [[[0.3, 2, 1]], 0.0]]},
        }
        m = model_from_dict(doc)
        assert m.varying == {("A", 2), ("B", 1, 2), ("B", 2, 0)}
        assert m.varies("B", 2, 0) and not m.varies("A", 0) and not m.varies("B", 2, 1)
        assert m.A(0, np.array([0.3, -0.7]))[1, 1] == 1.5
        doc["A"]["2"] = doc["B"]["1,2"] = doc["B"]["2,0"] = [[0.0, 0.0], [0.0, 0.0]]
        assert model_from_dict(doc).constant_coefficients

    def test_builtins_and_callables(self):
        # builtins vary nowhere; a model from bare callables varies everywhere
        assert builtin_barotropic_fluid(FLUID).varying == frozenset()
        assert builtin_damped_wave(2.0, d=2).constant_coefficients
        m = CoefficientModel(n=1, d=1, reference_state=np.zeros(1),
                             state_domain=(-np.ones(1), np.ones(1)),
                             A=lambda j, u: np.eye(1), B=lambda j, k, u: -np.eye(1))
        assert m.varying is None and m.varies("A", 0) and not m.constant_coefficients

    def test_unknown_builtin(self):
        with pytest.raises(InvalidParameter):
            model_from_dict({"builtin": {"name": "nonsense"}})

    @pytest.mark.parametrize("builtin, entry", [
        ("fluid", "entry builtin is not an object with a 'name'"),
        ({"params": {}}, "entry builtin is not an object with a 'name'"),
        ({"name": "fluid", "params": [1]}, "entry builtin['params'] = [1] is not an object"),
        ({"name": "fluid", "params": {"r": "x"}}, "builtin['params']['r'] = 'x' is not a number"),
        ({"name": "fluid", "params": {"r": 3, "mu": 2, "nu": 1}},
         "builtin['params']['eta'] is missing"),
        ({"name": "damped-wave", "params": {"a": "x"}},
         "builtin['params']['a'] = 'x' is not a number"),
        ({"name": "damped-wave", "params": {"a": 1, "d": 1.5}},
         "builtin['params']['d'] = 1.5 is not an integer"),
        ({"name": ["fluid"]}, "unknown builtin ['fluid']"),
    ], ids=["string", "no-name", "params-list", "fluid-r-string", "fluid-eta-missing",
            "damped-a-string", "damped-d-fraction", "name-list"])
    def test_malformed_builtin(self, builtin, entry):
        # these used to raise TypeError, KeyError or (d = 1.5) truncate silently
        with pytest.raises(InvalidParameter, match=re.escape(entry)):
            model_from_dict({"builtin": builtin})

    def test_missing_dimensions(self):
        with pytest.raises(InvalidParameter):
            model_from_dict({"A": {}})


def test_state_samples_deterministic():
    m = builtin_convected_damped_wave(0.5)
    doc = {
        "n": 1, "d": 1, "reference_state": [0.0],
        "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
        "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
    }
    nl = model_from_dict(doc)
    s1 = nl.state_samples(64)
    s2 = nl.state_samples(64)
    assert np.array_equal(s1, s2)
    assert s1.shape == (64, 1)
    # constant-coefficient models sample only the reference state
    assert m.state_samples(64).shape == (1, 1)


def _box_model(n):
    # a model of dimension n on the box [-1, 2]^n that samples its states
    return CoefficientModel(
        n=n, d=1, reference_state=np.zeros(n),
        state_domain=(-np.ones(n), 2.0 * np.ones(n)),
        A=lambda j, u: np.eye(n), B=lambda j, k, u: -np.eye(n),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_state_samples_are_scipy_halton(n):
    from scipy.stats import qmc

    lo, hi = -np.ones(n), 2.0 * np.ones(n)
    for count in (1, 7, 256, 1000):
        oracle = lo + qmc.Halton(d=n, scramble=False).random(count) * (hi - lo)
        assert np.array_equal(_box_model(n).state_samples(count), oracle)


def test_import_skips_scipy_stats():
    import os
    import subprocess
    import sys

    import hypdiss

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypdiss.__file__)))
    code = ("import sys, hypdiss.cli, hypdiss.conditions, hypdiss.simulator, "
            "hypdiss.linear_spectral, hypdiss.paradiff; print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestNonFiniteEntries:
    DOC = {
        "n": 1, "d": 1, "reference_state": [0.0],
        "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
        "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
    }

    @pytest.mark.parametrize("text,key", [
        ('"0": [[NaN]]', "A['0'][0][0]"),
        ('"0": [[Infinity]]', "A['0'][0][0]"),
    ])
    def test_load_model_rejects(self, tmp_path, text, key):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.DOC).replace('"0": [[1.0]]', text))
        with pytest.raises(InvalidParameter, match=re.escape(key)):
            load_model(path)

    def test_monomial_coefficient_and_reference_state(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["A"]["1"][0][0][1][0] = float("nan")
        with pytest.raises(InvalidParameter, match=re.escape("A['1'][0][0][1][0]")):
            model_from_dict(doc)
        doc = dict(self.DOC, reference_state=[float("-inf")])
        with pytest.raises(InvalidParameter, match="reference_state"):
            model_from_dict(doc)

    def test_builtin_parameters(self):
        doc = {"builtin": {"name": "fluid",
                           "params": {"r": 3, "mu": float("nan"), "nu": 1, "eta": 1}}}
        with pytest.raises(InvalidParameter, match=re.escape("builtin['params']['mu']")):
            model_from_dict(doc)


class TestMonomialExponents:
    DOC = {
        "n": 1, "d": 1, "reference_state": [0.0],
        "A": {"0": [[1.0]], "1": [[[[1.0, 1.5]]]]},
        "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
    }

    def test_non_integer_exponent_rejected(self):
        # u^1.5 used to be truncated to u (4.0 instead of 8.0 at u = 4)
        with pytest.raises(InvalidParameter, match=re.escape("A['1'][0][0]")):
            model_from_dict(self.DOC)

    def test_integral_float_exponent_accepted(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["A"]["1"] = [[[[1.0, 3.0]]]]
        m = model_from_dict(doc)
        assert m.A(1, np.array([2.0]))[0, 0] == 8.0

    @pytest.mark.parametrize("entry", [
        [[True]], [[None]], [[[5]]], [[[["a", 1]]]], [[[[1.0, True]]]], [[[[1.0, 1, 2]]]],
    ], ids=["bool", "null", "monomial-not-a-list", "string-coefficient", "bool-exponent",
            "monomial-length"])
    def test_malformed_entry_is_named(self, entry):
        # these used to be accepted (true as 1.0) or raise TypeError and ValueError
        doc = json.loads(json.dumps(self.DOC))
        doc["A"]["0"] = entry
        with pytest.raises(InvalidParameter, match=re.escape("A['0'][0][0]")):
            model_from_dict(doc)


class TestDocumentShape:
    """Malformed documents are refused at load with the offending entry named."""

    DOC = {
        "n": 1, "d": 1, "reference_state": [0.0],
        "A": {"0": [[1.0]], "1": [[0.5]]},
        "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
    }

    def doc(self, **changes):
        doc = json.loads(json.dumps(self.DOC))
        doc.update(changes)
        return doc

    def test_matrix_with_too_few_rows(self):
        doc = self.doc(n=2, reference_state=[0.0, 0.0])
        doc["A"] = {"0": [[1.0, 0.0]]}
        with pytest.raises(InvalidParameter, match=re.escape("A['0'] is not 2 rows of 2 entries")):
            model_from_dict(doc)

    def test_key_that_is_no_index(self):
        doc = self.doc()
        doc["A"]["x"] = [[1.0]]
        with pytest.raises(InvalidParameter, match=re.escape("A['x']")):
            model_from_dict(doc)

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 0)])
    def test_empty_dimension(self, n, d):
        with pytest.raises(InvalidParameter, match=f"n = {n}, d = {d}"):
            model_from_dict(self.doc(n=n, d=d, reference_state=[0.0] * n))

    @pytest.mark.parametrize("family, key", [("A", "2"), ("A", "0,0"), ("B", "1,2"),
                                             ("B", "1"), ("B", "1,1,1"), ("B", "-1,0")])
    def test_key_outside_the_model(self, family, key):
        # these used to be dropped silently, so check passed on another model
        doc = self.doc()
        doc[family][key] = [[1.0]]
        with pytest.raises(InvalidParameter, match=re.escape(f"{family}[{key!r}]")):
            model_from_dict(doc)

    @pytest.mark.parametrize("changes, entry", [
        ({"n": "x"}, "entry n = 'x' is not an integer"),
        ({"A": [[1.0]]}, "entry A is not an object of matrices keyed 'j'"),
        ({"reference_state": "ab"}, "entry reference_state = 'ab' is not numeric"),
    ], ids=["scalar", "container", "vector"])
    def test_malformed_entry(self, changes, entry):
        # these used to raise ValueError, AttributeError and ValueError
        with pytest.raises(InvalidParameter, match=re.escape(entry)):
            model_from_dict(self.doc(**changes))

    @pytest.mark.parametrize("changes, entries", [
        ({"domain_lo": [-1.0, -1.0]}, "domain_lo = [-1.0, -1.0] and domain_hi = [1.0]"),
        ({"domain_hi": []}, "domain_lo = [-1.0] and domain_hi = []"),
        ({"domain_lo": [1.0], "domain_hi": [0.5]}, "domain_lo = [1.0] and domain_hi = [0.5]"),
    ])
    def test_bad_state_domain(self, changes, entries):
        with pytest.raises(InvalidParameter, match=re.escape(entries)):
            model_from_dict(self.doc(**changes))

    @pytest.mark.parametrize("key, value", [("reference_state", [True]), ("domain_lo", [False]),
                                            ("domain_hi", [True]), ("reference_state", True)])
    def test_boolean_state_entry(self, key, value):
        # these used to load as 1.0 and 0.0
        with pytest.raises(InvalidParameter, match=re.escape(f"entry {key} = {value!r} is not numeric")):
            model_from_dict(self.doc(**{key: value}))

