"""CSV and JSON artifact formats, and the package's one way to open a file.

Matrix CSV: plain comma-separated decimal rows, no header, %.17g so
doubles round-trip exactly. Observation CSV: header ``i,j,y`` with
zero-based indices, then one ``i,j,y`` row of integers per sample. JSON
is written sorted and indented so identical payloads produce identical
bytes. ``np.loadtxt`` parses and ``np.savetxt`` formats both tables.

Every file the package reads or writes is opened through ``_opened``,
and every output directory is made by ``make_dir``; these are the only
places an ``OSError`` becomes ``IoFailure("cannot read|write <path>:
<errno text>")``. Every file the package reads enters through
``_read``, which decodes text as UTF-8 whatever the locale and owns the
parse failures: content that is not UTF-8 or does not parse is
``CorruptFile("<path>: ...")``, and so is a matrix CSV with no rows (an
observation CSV may hold the header alone: no samples).
"""

import contextlib
import io
import json
import os
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


def make_dir(path):
    """Make the directory ``path`` and its parents, and return ``path``.

    Any ``OSError`` is raised as ``IoFailure``.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def _read(path, parse, text=True):
    """``parse`` of the file at ``path``: a text stream of it, or its bytes.

    The one way a file enters the package. The bytes are read through
    ``_opened``. Unless ``text`` is False, ``parse`` gets them as a
    stream that reads like a text-mode file, decoded as UTF-8 whatever
    the locale, with universal newlines. A ``ValueError`` (undecodable
    bytes and JSON errors included), ``OverflowError``, ``RecursionError``
    or ``Warning`` raised while decoding or parsing is
    ``CorruptFile("<path>: <exc>")``, so a parser reports bad content by
    raising ``ValueError`` and never names the file itself. Every other
    error passes unchanged.
    """
    with _opened(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(io.StringIO(data.decode("utf-8"), newline=None) if text else data)
    except (ValueError, OverflowError, RecursionError, Warning) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def _lines(fh):
    return [ln for ln in fh if ln.strip()]


def write_matrix_csv(m, path):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with _opened(path, "w") as fh:
        np.savetxt(fh, m, fmt="%.17g", delimiter=",")


def _parse_table(lines, **kwargs):
    """``np.loadtxt`` of the comma-separated, non-blank ``lines``.

    A table with no rows is a ``ValueError``. Every warning is raised as
    an error: numpy parses an int field that fails as a float, casts it
    and only warns.
    """
    if not lines:
        raise ValueError("no data")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, delimiter=",", ndmin=2, **kwargs)


def read_matrix_csv(path):
    return _read(path, lambda fh: _parse_table(_lines(fh)))


OBS_CSV_HEADER = "i,j,y"


def write_observations_csv(obs, path):
    table = np.column_stack([obs.rows, obs.cols, obs.counts])
    with _opened(path, "w") as fh:
        np.savetxt(fh, table, fmt="%d", delimiter=",", header=OBS_CSV_HEADER,
                   comments="")


def _observation_table(fh):
    """The ``(n, 3)`` int table of an observation CSV read from ``fh``."""
    lines = _lines(fh)
    if not lines or lines[0].strip() != OBS_CSV_HEADER:
        raise ValueError(f"expected header '{OBS_CSV_HEADER}'")
    if len(lines) == 1:  # the header alone is an empty set
        return np.empty((0, 3), dtype=np.int64)
    table = _parse_table(lines[1:], dtype=np.int64, comments=None)
    if table.shape[1] != 3:
        raise ValueError(f"expected 3 columns, got {table.shape[1]}")
    return table


def read_observations_csv(path, d1, d2, m_expected=None):
    rows, cols, counts = _read(path, _observation_table).T
    return ObservationSet(d1, d2, rows, cols, counts, m_expected)


def write_json(obj, path):
    with _opened(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    return _read(path, json.load)
