"""The benchmark's tracer finds the functions it wraps by name.

``bench/tracing.py`` lists them in ``TRACED`` as ``(module, function,
span)``; a rename in the package would otherwise break
``bench/run.py --trace 1`` with no test failing. The file is compiled
from its source, so nothing is written under ``bench/``.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    mod = types.ModuleType("bench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_traced_function_resolves_in_the_package():
    traced = load_tracing().TRACED
    assert traced
    for module, name, _ in traced:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name} is not a function"
