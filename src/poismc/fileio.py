"""CSV and JSON artifact formats, and the package's one way to open a file.

Matrix CSV: plain comma-separated decimal rows, no header, %.17g so
doubles round-trip exactly. Observation CSV: header ``i,j,y`` with
zero-based indices, then one ``i,j,y`` row of integers per sample. JSON
is written sorted and indented so identical payloads produce identical
bytes. ``np.loadtxt`` parses and ``np.savetxt`` formats both tables.

Every file the package reads or writes is opened through ``_opened``,
the only place an ``OSError`` becomes ``IoFailure("cannot read|write
<path>: <errno text>")``. Content that does not parse is ``CorruptFile``,
and so is a matrix CSV with no rows (an observation CSV may hold the
header alone: no samples).
"""

import contextlib
import json
import warnings

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


def _parse_table(path, lines, **kwargs):
    """``np.loadtxt`` of the comma-separated, non-blank ``lines``.

    A table with no rows, or a field that does not parse, is
    ``CorruptFile``. Every warning counts as a parse failure: numpy
    parses an int field that fails as a float, casts it and only warns.
    """
    if not lines:
        raise CorruptFile(f"{path}: no data")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, delimiter=",", ndmin=2, **kwargs)
        except (ValueError, Warning) as exc:
            raise CorruptFile(f"bad CSV {path}: {exc}") from None


def _lines(path):
    with _opened(path) as fh:
        return [ln for ln in fh if ln.strip()]


def read_matrix_csv(path):
    return _parse_table(path, _lines(path))


OBS_CSV_HEADER = "i,j,y"


def write_observations_csv(obs, path):
    table = np.column_stack([obs.rows, obs.cols, obs.counts])
    with _opened(path, "w") as fh:
        np.savetxt(fh, table, fmt="%d", delimiter=",", header=OBS_CSV_HEADER,
                   comments="")


def read_observations_csv(path, d1, d2, m_expected=None):
    lines = _lines(path)
    if not lines or lines[0].strip() != OBS_CSV_HEADER:
        raise CorruptFile(f"{path}: expected header '{OBS_CSV_HEADER}'")
    table = np.empty((0, 3), dtype=np.int64)
    if len(lines) > 1:  # the header alone is an empty set
        table = _parse_table(path, lines[1:], dtype=np.int64, comments=None)
    if table.shape[1] != 3:
        raise CorruptFile(f"{path}: expected 3 columns, got {table.shape[1]}")
    rows, cols, counts = table.T
    return ObservationSet(d1, d2, rows, cols, counts, m_expected)


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
