import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismc import FeasibleRegion, ObservationSet, SolverConfig, SynthesisSpec, synth
from poismc.errors import BadObservations, CorruptFile, IoFailure, UnsupportedFormat
from poismc.fileio import (
    read_json,
    read_matrix_csv,
    read_observations_csv,
    write_json,
    write_matrix_csv,
    write_observations_csv,
)
from poismc.imaging import read_image, write_image
from poismc.synth import sweep_m


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(scale=12.3, size=(5, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    assert np.array_equal(read_matrix_csv(path), m)


def test_matrix_csv_single_row(tmp_path):
    path = tmp_path / "r.csv"
    write_matrix_csv(np.array([[1.0, 2.0, 3.0]]), path)
    back = read_matrix_csv(path)
    assert back.shape == (1, 3)


def test_matrix_csv_corrupt(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,banana\n")
    with pytest.raises(CorruptFile):
        read_matrix_csv(path)


def test_matrix_csv_missing(tmp_path):
    with pytest.raises(IoFailure):
        read_matrix_csv(tmp_path / "absent.csv")


def test_observations_round_trip(tmp_path):
    obs = ObservationSet(
        d1=5, d2=4, rows=[0, 2, 4], cols=[1, 3, 0], counts=[7, 0, 12],
        m_expected=10.0,
    )
    path = tmp_path / "obs.csv"
    write_observations_csv(obs, path)
    assert path.read_text().splitlines()[0] == "i,j,y"
    back = read_observations_csv(path, 5, 4, m_expected=10.0)
    assert np.array_equal(back.rows, obs.rows)
    assert np.array_equal(back.cols, obs.cols)
    assert np.array_equal(back.counts, obs.counts)


def test_observations_csv_bytes_are_pinned(tmp_path):
    obs = ObservationSet(d1=5, d2=4, rows=[0, 2, 4], cols=[1, 3, 0],
                         counts=[7, 0, 5 * 10**12])
    path = tmp_path / "obs.csv"
    write_observations_csv(obs, path)
    assert path.read_bytes() == b"i,j,y\n0,1,7\n2,3,0\n4,0,5000000000000\n"
    empty = ObservationSet(d1=5, d2=4, rows=[], cols=[], counts=[])
    write_observations_csv(empty, path)
    assert path.read_bytes() == b"i,j,y\n"


def read_obs(path):
    return read_observations_csv(path, 2, 2)


# name: (reader, content); each must raise CorruptFile.
MALFORMED = {
    "obs-count-overflow": (read_obs, b"i,j,y\n0,0,99999999999999999999\n"),
    "obs-fractional-count": (read_obs, b"i,j,y\n0,0,1.5\n"),
    "obs-fractional-index": (read_obs, b"i,j,y\n0.9,0,3\n"),
    "obs-exponent-count": (read_obs, b"i,j,y\n0,0,1e3\n"),
    "obs-two-columns": (read_obs, b"i,j,y\n0,0\n"),
    "matrix-empty": (read_matrix_csv, b""),
    "p2-sample-overflow": (read_image, b"P2\n1 1\n255\n99999999999999999999\n"),
    "p2-hash-inside-a-sample": (read_image, b"P2\n2 1\n255\n12#3 4\n"),
    "p2-negative-sample": (read_image, b"P2\n2 1\n255\n-3 4\n"),
    "p5-16-bit-truncated": (read_image, b"P5\n2 2\n65535\n" + bytes(6)),
    "pgm-empty": (read_image, b""),
    "pgm-short-header": (read_image, b"P2\n2 1\n"),
    "pgm-zero-width": (read_image, b"P2\n0 1\n255\n"),
    "obs-not-utf8": (read_obs, b"i,j,y\n\xff,0,1\n"),
    "matrix-not-utf8": (read_matrix_csv, b"1,\xff\n"),
    "json-not-utf8": (read_json, b'{"a": "\xff"}'),
    "json-nested-too-deep": (read_json, b"[" * 200_000),
}


# "error": no warning escapes; "ignore": Python's default for the
# DeprecationWarning numpy issues when it casts a float field to int.
@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_content_is_corrupt_file(name, action, tmp_path):
    read, content = MALFORMED[name]
    path = tmp_path / "f.pgm"  # read_image picks PGM by extension
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(CorruptFile) as info:
            read(path)
    assert str(path) in str(info.value)


@pytest.mark.filterwarnings("error")
def test_header_only_observation_file_is_an_empty_set(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("i,j,y\n\n")
    obs = read_obs(path)
    assert len(obs) == 0 and obs.counts.dtype == np.int64


def test_observations_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("x,y,z\n0,0,1\n")
    with pytest.raises(CorruptFile):
        read_observations_csv(path, 2, 2)


def test_observations_bad_line(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("i,j,y\n0,0\n")
    with pytest.raises(CorruptFile):
        read_observations_csv(path, 2, 2)


def test_json_round_trip_and_stable_bytes(tmp_path):
    payload = {"b": [1, 2, 3], "a": {"x": 1.5}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(payload, p1)
    write_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_json(p1) == payload


OBS = ObservationSet(d1=2, d2=2, rows=[0], cols=[1], counts=[3])
SWEEP_SPEC = SynthesisSpec(
    region=FeasibleRegion(d1=6, d2=6, alpha=9.0, beta=1.0, r=2), mask_m=18.0, seed=0
)

# (verb, file suffix, call): every reader and writer the package has.
IO_CALLS = {
    "write_matrix_csv": ("write", ".csv", lambda p: write_matrix_csv(np.eye(2), p)),
    "read_matrix_csv": ("read", ".csv", read_matrix_csv),
    "write_observations_csv": ("write", ".csv", lambda p: write_observations_csv(OBS, p)),
    "read_observations_csv": ("read", ".csv", lambda p: read_observations_csv(p, 2, 2)),
    "write_json": ("write", ".json", lambda p: write_json({"a": 1}, p)),
    "read_json": ("read", ".json", read_json),
    "write_image-pgm": ("write", ".pgm", lambda p: write_image(np.eye(2), p)),
    "read_image-pgm": ("read", ".pgm", read_image),
    "write_image-csv": ("write", ".csv", lambda p: write_image(np.eye(2), p)),
    "read_image-csv": ("read", ".csv", read_image),
    "sweep_m": ("write", ".csv", lambda p: sweep_m(
        SWEEP_SPEC, [18.0], 1, SolverConfig(algorithm="pg", max_iter=2), csv_path=p)),
}


@pytest.mark.parametrize("bad", ["missing-parent", "directory"])
@pytest.mark.parametrize("name", IO_CALLS)
def test_every_reader_and_writer_fails_as_io_failure(name, bad, tmp_path):
    verb, suffix, call = IO_CALLS[name]
    path = tmp_path / f"f{suffix}"
    if bad == "missing-parent":
        path = tmp_path / "absent" / path.name
    else:
        path.mkdir()
    with pytest.raises(IoFailure) as info:
        call(path)
    assert str(info.value).startswith(f"cannot {verb} {path}: [Errno ")


@pytest.mark.parametrize("bad", ["missing-parent", "directory"])
def test_sweep_m_fails_before_any_trial(bad, tmp_path, monkeypatch):
    # The CSV is opened first, so a bad path costs no trial.
    trials = []
    monkeypatch.setattr(synth, "run_trial", lambda *args: trials.append(args))
    path = tmp_path / "sweep.csv"
    if bad == "missing-parent":
        path = tmp_path / "absent" / path.name
    else:
        path.mkdir()
    with pytest.raises(IoFailure):
        IO_CALLS["sweep_m"][2](path)
    assert trials == []


# --- every reader, on any bytes -------------------------------------------------

# reader name: (read, file name, headers a fuzzed body follows, the errors
# it may raise). Besides a result, only a file error that names the path
# is allowed; an observation table that parses but is out of range is
# BadObservations, since ObservationSet is built after the file is read.
READERS = {
    "observations": (read_obs, "f.csv",
                     [b"i,j,y\n", b"i,j,y\r\n", b"i,j,y\r", b"i,j\n", b""],
                     (CorruptFile, BadObservations)),
    "matrix": (read_matrix_csv, "f.csv", [b"", b"1,2\n", b"1.5,-2e3\r\n"], (CorruptFile,)),
    "json": (read_json, "f.json", [b"", b"{", b"[", b'{"argv": ['], (CorruptFile,)),
    "image-pgm": (read_image, "f.pgm",
                  [b"P2\n2 2\n255\n", b"P2 1 1 65535 ", b"P5\n2 2\n255\n",
                   b"P5\n1 2\n65535\n", b"P", b""],
                  (CorruptFile, UnsupportedFormat)),
    "image-csv": (read_image, "f.csv", [b"", b"0,255\n"], (CorruptFile,)),
}

# Near-numeric text, separators, comment marks, nesting and bytes that
# are not UTF-8 (or decode to line breaks text mode does not split at).
TOKENS = [b"0", b"1", b"7", b"255", b"-", b".", b"e", b"+", b"_", b",", b" ", b"\t",
          b"\n", b"\r", b"\r\n", b"#", b"[", b"]", b"{", b'"', b"nan", b"inf",
          b"1e400", b"99999999999999999999", b"\xff", b"\xc2", b"\xc2\x85",
          b"\xe2\x80\xa8", b"\x0c", b"\x00"]
BODIES = st.one_of(st.binary(max_size=48),
                   st.lists(st.sampled_from(TOKENS), max_size=24).map(b"".join))


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_reader_returns_or_raises_a_file_error_naming_the_path(reader, data):
    read, name, headers, allowed = READERS[reader]
    content = data.draw(st.sampled_from(headers)) + data.draw(BODIES)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            read(path)
        except allowed as exc:
            assert isinstance(exc, BadObservations) or str(exc).startswith(f"{path}: ")


@pytest.mark.parametrize("read", [read_matrix_csv, read_obs], ids=["matrix", "observations"])
def test_a_table_parse_that_only_warns_is_corrupt_file(read, tmp_path, monkeypatch):
    # numpy 1.23-1.26 cast an int field that fails as a float and only
    # warn; the reader must still refuse the file.
    def loadtxt_that_warns(*args, **kwargs):
        warnings.warn("cast a float field to int", DeprecationWarning)
        return np.zeros((1, 3), dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", loadtxt_that_warns)
    path = tmp_path / "f.csv"
    path.write_text("i,j,y\n0,0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CorruptFile, match="^" + str(path) + ": cast a float field"):
            read(path)


def test_lines_split_as_text_mode_splits_them(tmp_path):
    # Universal newlines: \r\n and a lone \r end a line; U+0085 and U+2028
    # do not, so the row holding them fails as one field.
    path = tmp_path / "obs.csv"
    path.write_bytes(b"i,j,y\r0,1,2\r\n1,0,3\r")
    obs = read_obs(path)
    assert obs.rows.tolist() == [0, 1] and obs.counts.tolist() == [2, 3]
    path.write_bytes("i,j,y\n0,1,2\u20281,0,3\n".encode())
    with pytest.raises(CorruptFile, match="to int64 at row 0, column 3"):
        read_obs(path)


# --- round trips ------------------------------------------------------------------


@st.composite
def observation_sets(draw):
    d1, d2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, d1 * d2 - 1), unique=True, max_size=d1 * d2))
    counts = draw(st.lists(st.integers(0, 2**53 - 1), min_size=len(cells),
                           max_size=len(cells)))
    rows, cols = np.divmod(np.array(cells, dtype=np.int64), d2)
    return ObservationSet(d1=d1, d2=d2, rows=rows, cols=cols, counts=counts)


@settings(max_examples=100, deadline=None)
@given(observation_sets())
def test_observation_csv_round_trip(obs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.csv")
        write_observations_csv(obs, path)
        back = read_observations_csv(path, obs.d1, obs.d2)
    for field in ("rows", "cols", "counts"):
        assert np.array_equal(getattr(back, field), getattr(obs, field))
    assert back.counts.dtype == np.int64


MATRICES = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.floats(allow_nan=False), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1])
    .map(lambda v: np.array(v, dtype=float).reshape(shape)))


@settings(max_examples=100, deadline=None)
@given(MATRICES)
def test_matrix_csv_round_trip_keeps_every_bit(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
    assert back.shape == m.shape and back.tobytes() == m.tobytes()


@pytest.mark.parametrize("name", ["img.pgm", "img.csv"])
@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       peak=st.sampled_from([1, 255, 256, 65535]), data=st.data())
def test_image_round_trip_keeps_the_raster(name, shape, peak, data):
    values = data.draw(st.lists(st.integers(0, peak), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    grid = np.array(values, dtype=np.int64).reshape(shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        write_image(grid, path)
        back = read_image(path)
    assert back.shape == grid.shape and np.array_equal(back, grid)
