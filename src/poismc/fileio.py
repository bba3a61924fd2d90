"""CSV and JSON artifact formats, and the package's one way to open a file.

Matrix CSV: plain comma-separated decimal rows, no header, %.17g so
doubles round-trip exactly. Observation CSV: header ``i,j,y`` with
zero-based indices. JSON is written sorted and indented so identical
payloads produce identical bytes.

Every file the package reads or writes is opened through ``_opened``,
the only place an ``OSError`` becomes ``IoFailure("cannot read|write
<path>: <errno text>")``. Content that does not parse is ``CorruptFile``.
"""

import contextlib
import json

import numpy as np

from .core import ObservationSet
from .errors import CorruptFile, IoFailure

# Version of every JSON artifact's layout; bump it when a key changes.
SCHEMA_VERSION = 1


@contextlib.contextmanager
def _opened(path, mode="r", **kwargs):
    """``open(path, mode, **kwargs)``, with any ``OSError`` raised as ``IoFailure``."""
    verb = "read" if "r" in mode else "write"
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot {verb} {path}: {exc}") from exc


def write_matrix_csv(m, path):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with _opened(path, "w") as fh:
        np.savetxt(fh, m, fmt="%.17g", delimiter=",")


def read_matrix_csv(path):
    with _opened(path) as fh:
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CorruptFile(f"bad matrix CSV {path}: {exc}") from exc


OBS_CSV_HEADER = "i,j,y"


def write_observations_csv(obs, path):
    with _opened(path, "w") as fh:
        fh.write(OBS_CSV_HEADER + "\n")
        for i, j, y in zip(obs.rows, obs.cols, obs.counts):
            fh.write(f"{i},{j},{y}\n")


def read_observations_csv(path, d1, d2, m_expected=None):
    with _opened(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != OBS_CSV_HEADER:
        raise CorruptFile(f"{path}: expected header '{OBS_CSV_HEADER}'")
    rows, cols, counts = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise CorruptFile(f"{path}: bad line {ln!r}")
        try:
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            counts.append(int(parts[2]))
        except ValueError as exc:
            raise CorruptFile(f"{path}: bad line {ln!r}") from exc
    return ObservationSet(
        d1=d1,
        d2=d2,
        rows=np.array(rows, dtype=np.intp),
        cols=np.array(cols, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64),
        m_expected=m_expected,
    )


def write_json(obj, path):
    with _opened(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with _opened(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptFile(f"bad JSON {path}: {exc}") from exc
