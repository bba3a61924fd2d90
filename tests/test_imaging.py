import numpy as np
import pytest

from poismc import (
    FeasibleRegion,
    PatchLayout,
    SolverConfig,
    mask_overlay,
    patchify,
    read_image,
    recover_image,
    unpatchify,
    write_image,
)
from poismc.errors import (
    CorruptFile,
    IndivisibleLayout,
    IoFailure,
    ShapeMismatch,
    UnsupportedFormat,
)
from poismc.imaging import to_display


# --- layout -----------------------------------------------------------------


def test_layout_rejects_indivisible():
    with pytest.raises(IndivisibleLayout):
        PatchLayout(image_h=10, image_w=10, patch_h=3, patch_w=5)
    with pytest.raises(IndivisibleLayout):
        PatchLayout(image_h=0, image_w=8, patch_h=1, patch_w=1)


def test_layout_matrix_shape():
    layout = PatchLayout(image_h=48, image_w=48, patch_h=8, patch_w=8)
    assert layout.matrix_shape == (64, 36)


# --- patchify / unpatchify ----------------------------------------------------


def test_patchify_unit_patches_is_flatten():
    layout = PatchLayout(image_h=2, image_w=2, patch_h=1, patch_w=1)
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = patchify(img, layout)
    assert m.shape == (1, 4)
    assert np.array_equal(m, np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert np.array_equal(unpatchify(m, layout), img)


def test_patchify_48x48_shape():
    layout = PatchLayout(image_h=48, image_w=48, patch_h=8, patch_w=8)
    img = np.arange(48 * 48, dtype=float).reshape(48, 48)
    assert patchify(img, layout).shape == (64, 36)


def test_patchify_constant_image_rank_one():
    layout = PatchLayout(image_h=16, image_w=8, patch_h=4, patch_w=4)
    m = patchify(np.full((16, 8), 3.7), layout)
    assert np.all(m == 3.7)
    assert np.linalg.matrix_rank(m) == 1


def test_patchify_column_ordering():
    # column p holds patch p (row-major over patches, row-major inside)
    layout = PatchLayout(image_h=4, image_w=4, patch_h=2, patch_w=2)
    img = np.arange(16, dtype=float).reshape(4, 4)
    m = patchify(img, layout)
    assert np.array_equal(m[:, 0], np.array([0.0, 1.0, 4.0, 5.0]))
    assert np.array_equal(m[:, 1], np.array([2.0, 3.0, 6.0, 7.0]))
    assert np.array_equal(m[:, 3], np.array([10.0, 11.0, 14.0, 15.0]))


def test_round_trip_random_shapes():
    rng = np.random.default_rng(4)
    for ih, iw, ph, pw in ((48, 48, 8, 8), (6, 10, 3, 2), (9, 4, 9, 1), (8, 8, 8, 8)):
        layout = PatchLayout(image_h=ih, image_w=iw, patch_h=ph, patch_w=pw)
        img = rng.normal(size=(ih, iw))
        assert np.array_equal(unpatchify(patchify(img, layout), layout), img)


def test_column_permutation_breaks_reassembly():
    layout = PatchLayout(image_h=4, image_w=6, patch_h=2, patch_w=2)
    rng = np.random.default_rng(5)
    img = rng.normal(size=(4, 6))
    m = patchify(img, layout)
    perm = m[:, ::-1]
    assert not np.array_equal(unpatchify(perm, layout), img)


def test_patchify_linear():
    layout = PatchLayout(image_h=6, image_w=6, patch_h=2, patch_w=3)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 6))
    y = rng.normal(size=(6, 6))
    lhs = patchify(2.5 * x - 1.5 * y, layout)
    rhs = 2.5 * patchify(x, layout) - 1.5 * patchify(y, layout)
    assert np.allclose(lhs, rhs, atol=1e-12)


# --- overlay ------------------------------------------------------------------


def test_overlay_full_mask_identity():
    layout = PatchLayout(image_h=4, image_w=4, patch_h=2, patch_w=2)
    img = np.arange(16, dtype=float).reshape(4, 4)
    mask = np.ones(layout.matrix_shape, dtype=bool)
    assert np.array_equal(mask_overlay(img, mask, layout), img)


def test_overlay_empty_mask_zero():
    layout = PatchLayout(image_h=4, image_w=4, patch_h=2, patch_w=2)
    img = np.arange(16, dtype=float).reshape(4, 4) + 1
    mask = np.zeros(layout.matrix_shape, dtype=bool)
    assert np.all(mask_overlay(img, mask, layout) == 0.0)


def test_overlay_positions():
    layout = PatchLayout(image_h=4, image_w=4, patch_h=2, patch_w=2)
    img = np.ones((4, 4))
    rng = np.random.default_rng(7)
    mask = rng.random(layout.matrix_shape) < 0.5
    out = mask_overlay(img, mask, layout)
    # zeroed pixels are exactly the unobserved matrix cells mapped to pixels
    back = patchify(out, layout)
    assert np.array_equal(back == 0.0, ~mask)


def test_overlay_shape_mismatch():
    layout = PatchLayout(image_h=4, image_w=4, patch_h=2, patch_w=2)
    with pytest.raises(ShapeMismatch):
        mask_overlay(np.ones((4, 4)), np.ones((3, 3), dtype=bool), layout)


# --- PGM / CSV ------------------------------------------------------------------


def test_p2_hand_fixture(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n0 12 255\n7 130 9\n")
    grid = read_image(path)
    assert np.array_equal(grid, np.array([[0, 12, 255], [7, 130, 9]]))


@pytest.mark.parametrize("grid, expected", [
    ([[0, 12, 255], [7, 130, 9]], b"P2\n3 2\n255\n0 12 255\n7 130 9\n"),
    ([[256.0, 0.0]], b"P2\n2 1\n65535\n256 0\n"),
], ids=["8-bit", "16-bit"])
def test_p2_bytes_are_pinned(grid, expected, tmp_path):
    path = tmp_path / "img.pgm"
    write_image(np.array(grid), path)
    assert path.read_bytes() == expected


def test_p2_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    grid = rng.integers(0, 256, size=(5, 7))
    path = tmp_path / "img.pgm"
    write_image(grid, path)
    assert np.array_equal(read_image(path), grid)


def test_p5_round_trip_8_and_16_bit(tmp_path):
    rng = np.random.default_rng(9)
    for peak in (255, 65535):
        grid = rng.integers(0, peak + 1, size=(6, 4))
        raster = grid.astype(np.uint8 if peak < 256 else ">u2").tobytes()
        path = tmp_path / f"img{peak}.pgm"
        path.write_bytes(f"P5\n4 6\n{peak}\n".encode() + raster)
        assert np.array_equal(read_image(path), grid)


def test_truncated_pgm_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(CorruptFile):
        read_image(path)
    path.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(CorruptFile):
        read_image(path)


def test_unsupported_magic(tmp_path):
    path = tmp_path / "color.pgm"
    path.write_text("P3\n1 1\n255\n1 2 3\n")
    with pytest.raises(UnsupportedFormat):
        read_image(path)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_image(tmp_path / "absent.pgm")


def test_csv_image_round_trip(tmp_path):
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "img.csv"
    write_image(grid, path)
    assert np.array_equal(read_image(path), grid)


def test_write_rejects_non_integer_grid(tmp_path):
    with pytest.raises(ValueError):
        write_image(np.array([[0.5]]), tmp_path / "x.pgm")


# --- display map ------------------------------------------------------------------


def test_display_maps_box_to_full_range():
    reg = FeasibleRegion(d1=1, d2=3, alpha=9.0, beta=1.0, r=1)
    vals = np.array([[1.0, 5.0, 9.0]])
    assert np.array_equal(to_display(vals, reg), np.array([[0, 128, 255]]))


def test_display_rounds_half_up():
    reg = FeasibleRegion(d1=1, d2=1, alpha=3.0, beta=1.0, r=1)
    out = to_display(np.array([[2.0]]), reg)
    assert out[0, 0] == 128  # 127.5 rounds up


# --- end-to-end recovery ------------------------------------------------------------


def test_recover_image_runs_the_configured_algorithm():
    image = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7 + 1
    cfg = SolverConfig(algorithm="apg", max_iter=5)
    rec = recover_image(image, 0.8, cfg, seed=1, patch=4)
    assert rec.report.algorithm == "apg"
    assert rec.report.iterations_run == 5
