"""Outside-in tracing of hypdiss layers.

The program is not instrumented.  `Tracer.install()` replaces the public
functions of each layer with wrappers that record a span (name, start, end,
parent) per call, and `Tracer.uninstall()` puts the originals back.  A
function that another module bound with `from .symbols import assemble_M`
is replaced under every name that refers to it in any loaded `hypdiss`
module; `Lattice` and `ModePropagator` methods are replaced on the class.

Spans stay in memory as parallel lists; `OpTrace.summary()` turns them into
per-name call counts, inclusive and self seconds, and the exact counts the
benchmark reports.  Model evaluator calls are only counted, because the
state-dependent model evaluates them about a million times per operation.
"""

import dataclasses
import importlib
import sys
import time
from collections import Counter

import numpy as np

#: (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("hypdiss.conditions", "check_ha", "conditions.check_ha"),
    ("hypdiss.conditions", "check_hb", "conditions.check_hb"),
    ("hypdiss.conditions", "check_d1", "conditions.check_d1"),
    ("hypdiss.conditions", "check_d2", "conditions.check_d2"),
    ("hypdiss.conditions", "check_d3", "conditions.check_d3"),
    ("hypdiss.conditions", "check_uniform_dissipativity",
     "conditions.check_uniform_dissipativity"),
    ("hypdiss.conditions", "lyapunov_certificate", "conditions.lyapunov_certificate"),
    ("hypdiss.conditions", "balanced_lyapunov_certificate",
     "conditions.balanced_lyapunov_certificate"),
    ("hypdiss.conditions", "eigstructure", "conditions.eigstructure"),
    ("hypdiss.conditions", "build_symmetrizer", "conditions.build_symmetrizer"),
    ("hypdiss.symbols", "assemble_M", "symbols.assemble_M"),
    ("hypdiss.symbols", "assemble_Mbar", "symbols.assemble_Mbar"),
    ("hypdiss.symbols", "dispersion_roots", "symbols.dispersion_roots"),
    ("hypdiss.linear_spectral", "ModePropagator.__init__",
     "linear_spectral.ModePropagator.init"),
    ("hypdiss.linear_spectral", "ModePropagator.propagate",
     "linear_spectral.ModePropagator.propagate"),
    ("hypdiss.linear_spectral", "init_ensemble", "linear_spectral.init_ensemble"),
    ("hypdiss.linear_spectral", "sobolev_norm", "linear_spectral.sobolev_norm"),
    ("hypdiss.simulator", "step_rk4", "simulator.step_rk4"),
    ("hypdiss.simulator", "rhs", "simulator.rhs"),
    ("hypdiss.simulator", "dissipation_symbol_field", "simulator.dissipation_symbol_field"),
    ("hypdiss.simulator", "state_norms", "simulator.state_norms"),
    ("hypdiss.paradiff", "Lattice.fft", "paradiff.Lattice.fft"),
    ("hypdiss.paradiff", "Lattice.ifft", "paradiff.Lattice.ifft"),
    ("hypdiss.paradiff", "smooth_symbol", "paradiff.smooth_symbol"),
    ("hypdiss.paradiff", "apply_op", "paradiff.apply_op"),
    ("hypdiss.model", "normalize_b00", "model.normalize_b00"),
)

#: Model constructors the CLI calls; their models get counted evaluators.
MODEL_BUILDERS = (
    "load_model",
    "builtin_damped_wave",
    "builtin_convected_damped_wave",
    "builtin_barotropic_fluid",
)

SPAN_NAMES = tuple(name for _, _, name in SPANS)
FFT_SPANS = ("paradiff.Lattice.fft", "paradiff.Lattice.ifft")
LYAPUNOV_SPANS = ("conditions.lyapunov_certificate",
                  "conditions.balanced_lyapunov_certificate")


class OpTrace:
    """Spans and counts of one traced operation."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counts = Counter()
        self.seconds = None

    def summary(self):
        """Per-name calls, inclusive and self seconds, and derived counts."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        in_step = [False] * n
        root_ns = 0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root_ns += dur[i]
            else:
                child[p] += dur[i]
            in_step[i] = self.name[i] == "simulator.step_rk4" or (p >= 0 and in_step[p])
        calls = Counter(self.name)
        incl = Counter()
        self_ns = Counter()
        step_transforms = 0
        for i in range(n):
            nm = self.name[i]
            incl[nm] += dur[i]
            self_ns[nm] += dur[i] - child[i]
            if in_step[i] and nm in FFT_SPANS:
                step_transforms += 1
        steps = calls["simulator.step_rk4"]
        points = self.counts["conditions.uniform_grid_points"]
        return {
            "spans": {
                nm: {"calls": calls[nm], "s": incl[nm] * 1e-9, "self_s": self_ns[nm] * 1e-9}
                for nm in SPAN_NAMES
            },
            "counts": dict(sorted(self.counts.items())),
            "root_s": root_ns * 1e-9,
            "transforms_per_step": step_transforms / steps if steps else 0.0,
            "lyapunov_solves_per_point": (
                sum(calls[nm] for nm in LYAPUNOV_SPANS) / points if points else 0.0
            ),
        }

    def spans_table(self):
        """Spans as compact columns (nanoseconds from the first span start)."""
        names = sorted(set(self.name))
        ids = {nm: k for k, nm in enumerate(names)}
        t0 = self.start[0] if self.start else 0
        return {
            "names": names,
            "columns": ["name_id", "start_ns", "end_ns", "parent"],
            "rows": [
                [ids[self.name[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i]]
                for i in range(len(self.name))
            ],
        }


def _after_propagator_init(op, args, result):
    self = args[0]
    op.counts["linear_spectral.modes"] += len(self.xi)
    op.counts["linear_spectral.defective_modes"] += sum(e is None for e in self.eig)


def _before_smooth_symbol(op, args):
    vals = args[0].values
    nbytes = int(np.prod(vals.shape)) * vals.dtype.itemsize
    op.counts["paradiff.smooth_symbol.field_bytes_computed"] = max(
        op.counts["paradiff.smooth_symbol.field_bytes_computed"], nbytes)


def _after_uniform(op, args, result):
    op.counts["conditions.uniform_grid_points"] += len(result.per_point)


_BEFORE = {"paradiff.smooth_symbol": _before_smooth_symbol}
_AFTER = {
    "linear_spectral.ModePropagator.init": _after_propagator_init,
    "conditions.check_uniform_dissipativity": _after_uniform,
}


class Tracer:
    """Installs span wrappers into the loaded hypdiss modules."""

    def __init__(self):
        self.op = None
        self.last = None
        self._restore = []

    def _span(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(op, args)
            i = len(op.name)
            op.name.append(name)
            op.parent.append(op.stack[-1])
            op.end.append(0)
            op.stack.append(i)
            op.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                op.end[i] = time.perf_counter_ns()
                op.stack.pop()
            if after is not None:
                after(op, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        def evaluator(*args):
            op = self.op
            if op is not None:
                op.counts["model.evaluator.calls"] += 1
            return fn(*args)

        evaluator.counted_evaluator = True
        return evaluator

    def _model_builder(self, fn):
        def build(*args, **kwargs):
            model = fn(*args, **kwargs)
            if getattr(model.A, "counted_evaluator", False):
                return model
            return dataclasses.replace(
                model, A=self._counted(model.A), B=self._counted(model.B))

        build.__wrapped__ = fn
        return build

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "hypdiss" or k.startswith("hypdiss."))]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in SPANS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._span(name, cls.__dict__[meth]))
            else:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self._span(name, orig))
        model = importlib.import_module("hypdiss.model")
        for attr in MODEL_BUILDERS:
            orig = getattr(model, attr)
            self._replace_everywhere(orig, self._model_builder(orig))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def run(self, fn):
        """Call fn() recording spans into a new OpTrace, kept as `self.last`."""
        self.op = self.last = OpTrace()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.last.seconds = time.perf_counter() - t0
            self.op = None
