"""Every name the benchmark's tracer wraps still exists in the library."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    """``Tracer.install`` looks each name up with ``getattr`` on its module,
    or on its class for ``Class.method``; a renamed function would make the
    traced benchmark fail.  Resolved here the same way, without installing."""
    missing = []
    names = 0
    for _, module_name, attrs in load_tracer().TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            names += 1
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            target = getattr(holder, leaf, None) if holder is not None else None
            if not callable(target) or (owner and not inspect.isclass(holder)):
                missing.append(f"{module_name}.{attr}")
    assert not missing, missing
    assert names >= 40
