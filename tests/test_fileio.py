import warnings

import numpy as np
import pytest

from poismc import FeasibleRegion, ObservationSet, SolverConfig, SynthesisSpec, synth
from poismc.errors import CorruptFile, IoFailure
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
        with pytest.raises(CorruptFile):
            read(path)


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
