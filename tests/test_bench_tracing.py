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


def test_a_traced_run_counts_every_solve_and_the_cli(tmp_path):
    # --trace 1 in small: the tracer wraps what it names, the package runs
    # through the wrappers, and every span closes. A change that breaks
    # only the traced run fails here rather than in the traced benchmark.
    import poismc
    from poismc import cli, synth

    tracing = load_tracing()
    region = poismc.FeasibleRegion(d1=12, d2=10, alpha=9.0, beta=1.0, r=2)
    truth = poismc.make_low_rank(poismc.SynthesisSpec(region=region, mask_m=60.0,
                                                      seed=0))
    obs = synth.observe(truth, 60.0, 0)
    untraced = poismc.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for algorithm in ("pg", "apg", "pmlsv"):
            cfg = poismc.SolverConfig(algorithm=algorithm, max_iter=20)
            assert poismc.solve(obs, region, cfg).algorithm == algorithm
        argv = ["demo-solar", "--iters", "5", "--out", str(tmp_path / "demo")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    calls = tracing.summarize(tracer.take())["calls"]
    # solve dispatches to solve_<algorithm>, and both are "solvers.solve":
    # two spans for each of the three solves and the demo's one.
    assert calls["solvers.solve"] == 2 * 4
    assert calls["cli.main"] == 1
    assert calls["imaging.read_image"] == 1
    assert calls["imaging.write_image"] >= 1 and calls["fileio.write_json"] >= 1
    assert poismc.solve is untraced
