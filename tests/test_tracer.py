"""The benchmark's tracer (`perfbench/tracer.py`) patches hypdiss functions by
name; every name it lists must resolve, and uninstalling must put every
original back."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hypdiss_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _owner(modname, attr):
    # (object holding the traced attribute, attribute name)
    *cls, name = attr.split(".")
    mod = importlib.import_module(modname)
    return (getattr(mod, cls[0]) if cls else mod), name


def _namespaces(spans):
    """Every loaded hypdiss module and every class the spans patch, with a
    copy of its namespace."""
    owners = [m for k, m in sys.modules.items()
              if m is not None and (k == "hypdiss" or k.startswith("hypdiss."))]
    owners += [_owner(modname, attr)[0] for modname, attr, _ in spans if "." in attr]
    return [(o, dict(vars(o))) for o in owners]


def test_install_resolves_every_span_and_uninstall_restores():
    tracer = _load_tracer()
    for modname, _, _ in tracer.SPANS:
        importlib.import_module(modname)
    before = _namespaces(tracer.SPANS)
    t = tracer.Tracer()
    try:
        t.install()
        for modname, attr, _ in tracer.SPANS:
            owner, name = _owner(modname, attr)
            assert hasattr(getattr(owner, name), "__wrapped__"), f"{modname}.{attr}"
    finally:
        t.uninstall()
    for owner, names in before:
        now = vars(owner)
        assert set(now) == set(names), owner
        changed = [k for k, v in names.items() if now[k] is not v]
        assert not changed, (owner, changed)
