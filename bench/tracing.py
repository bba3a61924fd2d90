"""In-memory span tracer that wraps poismc's functions from outside the package.

The package imports its helpers with ``from .x import y``, so a function
is looked up in the namespace of the module that calls it. ``Tracer``
therefore replaces every module attribute that *is* a traced function
with one wrapper, and puts the originals back on ``uninstall``. Spans
are ``[name, parent, start, end, note]`` lists kept in ``spans``; the
parent is the index of the enclosing span, -1 at the top.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, function, span name). The four solver entry points
# share one span name, so ``solvers.solve`` is the loops' own time.
TRACED = (
    ("poismc.core", "validate_region", "core.validate_region"),
    ("poismc.likelihood", "neg_log_likelihood", "likelihood.neg_log_likelihood"),
    ("poismc.likelihood", "gradient", "likelihood.gradient"),
    ("poismc.projections", "project_box", "projections.project_box"),
    ("poismc.projections", "project_nuclear_ball", "projections.project_nuclear_ball"),
    ("poismc.projections", "alternating_projection", "projections.alternating_projection"),
    ("poismc.solvers", "solve", "solvers.solve"),
    ("poismc.solvers", "solve_pg", "solvers.solve"),
    ("poismc.solvers", "solve_apg", "solvers.solve"),
    ("poismc.solvers", "solve_pmlsv", "solvers.solve"),
    ("poismc.synth", "make_low_rank", "synth.make_low_rank"),
    ("poismc.synth", "sample_mask", "synth.sample_mask"),
    ("poismc.synth", "sample_poisson", "synth.sample_poisson"),
    ("poismc.imaging", "read_image", "imaging.read_image"),
    ("poismc.imaging", "patchify", "imaging.patchify"),
    ("poismc.imaging", "write_image", "imaging.write_image"),
    ("poismc.fileio", "write_json", "fileio.write_json"),
    ("poismc.cli", "main", "cli.main"),
)

SVD_UV = "linalg.svd_uv"
SVD_NOVEC = "linalg.svd_novec"
BALL = "projections.project_nuclear_ball"


def svd_flops(shape, compute_uv):
    """Flop count of a thin SVD, from Golub & Van Loan's Golub-Reinsch table.

    Computed from the shape, not measured: ``14*M*k**2 + 8*k**3`` with
    vectors, ``4*M*k**2 - 4*k**3/3`` without (M = long side, k = short).
    """
    big, k = max(shape[-2:]), min(shape[-2:])
    if compute_uv:
        return 14.0 * big * k * k + 8.0 * k**3
    return 4.0 * big * k * k - 4.0 * k**3 / 3.0


def _svd_call(args, kwargs):
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    name = SVD_UV if compute_uv else SVD_NOVEC
    return name, svd_flops(np.shape(args[0]), compute_uv)


def _ball_binds(args, kwargs, out):
    x = args[0] if args else kwargs["x"]
    return not np.array_equal(out, x)


class Tracer:
    """Wraps the traced functions while installed; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, extra = name(args, kwargs) if callable(name) else (name, None)
            span = [span_name, self._stack[-1] if self._stack else -1, 0.0, 0.0, extra]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if note is not None:  # timed with the call, not its parent
                    span[4] = note(args, kwargs, out)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "poismc" or n.startswith("poismc.")]
        for modname, fname, span in TRACED:
            orig = getattr(importlib.import_module(modname), fname)
            note = _ball_binds if span == BALL else None
            wrapper = self._wrap(orig, span, note)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self._restore.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap(np.linalg.svd, _svd_call)

    def uninstall(self):
        while self._restore:
            mod, attr, orig = self._restore.pop()
            setattr(mod, attr, orig)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per-name call counts and self time, plus the SVD and ball counters.

    Self time is a span's duration minus that of its direct children;
    calls within one thread never overlap, so no interval union is needed.
    ``svt_trials`` counts SVDs with vectors not made by a nuclear-ball
    projection, i.e. the shrinkage trials of ``pmlsv``.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s = Counter(), defaultdict(float)
    flops, binds, svt_trials = 0.0, 0, 0
    for i, (name, parent, t0, t1, note) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        if name in (SVD_UV, SVD_NOVEC):
            flops += note
            if name == SVD_UV and (parent < 0 or spans[parent][0] != BALL):
                svt_trials += 1
        elif name == BALL:
            binds += bool(note)
    return {"calls": dict(calls), "self_s": dict(self_s), "svd_flops": flops,
            "ball_binds": binds, "svt_trials": svt_trials}
