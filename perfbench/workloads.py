"""The benchmark's workloads: generated CLI inputs and per-operation checks.

Each workload is one `hypdiss` command line.  `inputs(name, seed)` returns its
argv (without `--output-dir`) and, for the quasi-linear workload, the model
document to write next to it.  Seed 0 reproduces the README parameters
exactly; any other seed scales the model coefficients by up to +-2% and the
data amplitude and width by up to +-10%.  The coefficient range is small
because it moves the CFL step and therefore the work per operation; within
it every verdict stays as it is at seed 0.

`check(name, outdir, rc, seed, fingerprints)` returns the problems found in one
operation's output (empty when correct).  Invariants are checked at every
seed; at seed 0 the outputs must also match `fingerprint.json`, recorded at
the commit that introduced the benchmark, within the tolerances below.
"""

import csv
import json
import math
import os

import numpy as np

DEFAULT_SEED = 0
COEFF_JITTER = 0.02
DATA_JITTER = 0.10
CONDITIONS = ("HA", "HB", "D1", "D2", "D3", "UNIFORM")

#: Fingerprint tolerances at the default seed.
CBAR_RTOL = 1e-9         # UNIFORM c_bar (criterion 2 pins c_abs to 1e-9)
EXPONENT_ATOL = 1e-9     # fitted decay exponent
WNORM_RTOL = 1e-8        # final W-norm and dissipation integral
ENERGY_RTOL = 1e-6       # every entry of the energy-functional column
DECAY_BAND = 0.1         # `decay --band` default: |exponent + d/4| <= band

README_FLUID = {"r": 3.0, "mu": 2.0, "nu": 1.0, "eta": 1.0, "zeta": 0.0}
README_EPSILON = 1e-2
FLUID_SIGMA = 3.0

# Sized so that one operation takes 1-3 s on one core.
QUASILINEAR_T_FINAL, QUASILINEAR_SNAPSHOTS = "2", "6"
FLUID_SIM_T_FINAL, FLUID_SIM_SNAPSHOTS = "3", "4"

WHY = {
    "check-fluid3d": "all six certificates on the d=3 fluid; conditions and UNIFORM's "
                     "Lyapunov solves dominate, the propagator and simulator stay idle",
    "decay-fluid3d": "decay-rate study on 1664 fluid modes; ModePropagator init and "
                     "propagation dominate, the condition checkers stay idle",
    "simulate-quasilinear1d-monitor": "state-dependent JSON model with the energy monitor; "
                                      "many tiny symbol assemblies, evaluators, smoothing",
    "simulate-fluid3d": "constant-coefficient d=3 RK4 run without monitor; the FFT path "
                        "dominates, evaluators and the monitor stay idle",
}
NAMES = tuple(WHY)

#: Modules each command imports before its first operation (for set-up time).
MODULES = {
    "check-fluid3d": ("hypdiss.conditions",),
    "decay-fluid3d": ("hypdiss.linear_spectral", "hypdiss.conditions"),
    "simulate-quasilinear1d-monitor": ("hypdiss.simulator", "hypdiss.paradiff",
                                       "hypdiss.conditions"),
    "simulate-fluid3d": ("hypdiss.simulator", "hypdiss.paradiff", "hypdiss.conditions"),
}


def _factors(seed, count, width):
    if seed == DEFAULT_SEED:
        return [1.0] * count
    rng = np.random.default_rng([seed % 2**63, count, int(width * 1000)])
    return list(1.0 + rng.uniform(-width, width, size=count))


def _num(x):
    return repr(float(x))


def _fluid_args(seed):
    f = _factors(seed, 4, COEFF_JITTER)
    p = dict(README_FLUID)
    for k, key in enumerate(("r", "mu", "nu", "eta")):
        p[key] *= f[k]
    args = ["--builtin", "fluid"]
    for key in ("r", "mu", "nu", "eta", "zeta"):
        args += [f"--{key}", _num(p[key])]
    return args


def quasilinear_model(seed):
    """The README's convected damped wave with convection speed 0.5 + u."""
    a0, c0, c1, b11 = (x * y for x, y in zip((1.0, 0.5, 1.0, 1.0),
                                             _factors(seed, 4, COEFF_JITTER)))
    return {
        "n": 1, "d": 1, "reference_state": [0.0],
        "A": {"0": [[a0]], "1": [[[[c0, 0], [c1, 1]]]]},
        "B": {"0,0": [[-1.0]], "1,1": [[b11]]},
    }


def inputs(name, seed):
    """(argv, model document or None) for one workload at one seed."""
    amp, width = _factors(seed, 2, DATA_JITTER)
    if name == "check-fluid3d":
        return ["check"] + _fluid_args(seed), None
    if name == "decay-fluid3d":
        return (["decay"] + _fluid_args(seed)
                + ["--amplitude", _num(1e-2 * amp), "--sigma", _num(FLUID_SIGMA * width)]), None
    if name == "simulate-quasilinear1d-monitor":
        return (["simulate", "--model", "{model}", "--monitor", "--n-grid", "64",
                 "--t-final", QUASILINEAR_T_FINAL, "--snapshots", QUASILINEAR_SNAPSHOTS,
                 "--epsilon", _num(README_EPSILON * amp)], quasilinear_model(seed))
    if name == "simulate-fluid3d":
        return (["simulate"] + _fluid_args(seed)
                + ["--n-grid", "16", "--t-final", FLUID_SIM_T_FINAL,
                   "--snapshots", FLUID_SIM_SNAPSHOTS,
                   "--epsilon", _num(README_EPSILON * amp)]), None
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def observe(name, outdir):
    """The values the fingerprint pins, read from one operation's output."""
    if name == "check-fluid3d":
        return {"c_bar": _load_json(os.path.join(outdir, "report_UNIFORM.json"))["c_bar"]}
    if name == "decay-fluid3d":
        return {"exponent": _load_json(os.path.join(outdir, "decay_fit.json"))["exponent"]}
    sim = _load_json(os.path.join(outdir, "simulate.json"))
    obs = {"w_norm_final": sim["w_norm_final"],
           "dissipation_integral": sim["dissipation_integral"]}
    with open(os.path.join(outdir, "trace.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    if "energy_functional" in rows[0]:
        obs["energy"] = [float(r["energy_functional"]) for r in rows]
    return obs


def _invariants(name, outdir):
    if name == "check-fluid3d":
        summary = _load_json(os.path.join(outdir, "summary.json"))
        bad = [c for c in CONDITIONS if summary["verdicts"].get(c) != "pass"]
        problems = [f"verdict {c} = {summary['verdicts'].get(c)}" for c in bad]
        c_bar = _load_json(os.path.join(outdir, "report_UNIFORM.json"))["c_bar"]
        if not c_bar > 0:
            problems.append(f"UNIFORM c_bar {c_bar} not positive")
        return problems
    if name == "decay-fluid3d":
        fit = _load_json(os.path.join(outdir, "decay_fit.json"))
        target = -3.0 / 4.0
        if not abs(fit["exponent"] - target) <= DECAY_BAND:
            return [f"exponent {fit['exponent']} outside {target} +- {DECAY_BAND}"]
        return []
    sim = _load_json(os.path.join(outdir, "simulate.json"))
    problems = []
    if not (math.isfinite(sim["w_norm_final"]) and sim["w_norm_final"] < sim["w_norm_initial"]):
        problems.append(f"final W-norm {sim['w_norm_final']} not below initial "
                        f"{sim['w_norm_initial']}")
    has_energy = "energy" in observe(name, outdir)
    if has_energy != name.endswith("-monitor"):
        problems.append("energy column present without --monitor or missing with it")
    return problems


def _fingerprint(name, obs, ref):
    problems = []
    if "c_bar" in ref and not _rel(obs["c_bar"], ref["c_bar"]) <= CBAR_RTOL:
        problems.append(f"c_bar {obs['c_bar']!r} vs recorded {ref['c_bar']!r}")
    if "exponent" in ref and not abs(obs["exponent"] - ref["exponent"]) <= EXPONENT_ATOL:
        problems.append(f"exponent {obs['exponent']!r} vs recorded {ref['exponent']!r}")
    for key in ("w_norm_final", "dissipation_integral"):
        if key in ref and not _rel(obs[key], ref[key]) <= WNORM_RTOL:
            problems.append(f"{key} {obs[key]!r} vs recorded {ref[key]!r}")
    if "energy" in ref:
        if len(obs.get("energy", [])) != len(ref["energy"]) or not all(
                _rel(a, b) <= ENERGY_RTOL for a, b in zip(obs["energy"], ref["energy"])):
            problems.append("energy column differs from the recorded one")
    return problems


def check(name, outdir, rc, seed, fingerprints):
    """Problems in one operation's exit code and output files."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        problems = _invariants(name, outdir)
        if seed == DEFAULT_SEED:
            problems += _fingerprint(name, observe(name, outdir), fingerprints[name])
    except (OSError, KeyError, ValueError, IndexError) as e:
        problems = [f"unreadable output: {type(e).__name__}: {e}"]
    return problems
