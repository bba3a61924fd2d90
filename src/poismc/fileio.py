"""CSV and JSON artifact formats.

Matrix CSV: plain comma-separated decimal rows, no header, %.17g so
doubles round-trip exactly. Observation CSV: header ``i,j,y`` with
zero-based indices. JSON is written sorted and indented so identical
payloads produce identical bytes.
"""

import json

import numpy as np

from .core import ObservationSet
from .errors import CorruptFile, IoFailure

# Version of every JSON artifact's layout; bump it when a key changes.
SCHEMA_VERSION = 1


def write_matrix_csv(m, path):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    try:
        np.savetxt(path, m, fmt="%.17g", delimiter=",")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_matrix_csv(path):
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CorruptFile(f"bad matrix CSV {path}: {exc}") from exc
    return m


OBS_CSV_HEADER = "i,j,y"


def write_observations_csv(obs, path):
    try:
        with open(path, "w") as fh:
            fh.write(OBS_CSV_HEADER + "\n")
            for i, j, y in zip(obs.rows, obs.cols, obs.counts):
                fh.write(f"{i},{j},{y}\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_observations_csv(path, d1, d2, m_expected=None):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
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
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"bad JSON {path}: {exc}") from exc
