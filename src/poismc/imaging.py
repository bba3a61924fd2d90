"""Patch-based image pipeline and grayscale image file I/O.

An image is cut into non-overlapping patches; each patch is vectorized
row-major and becomes one column of the working matrix, with patches
traversed row-major as well. Natural images make that matrix
approximately low rank, which is what the completion solvers exploit.

File formats: Netpbm PGM (read as P2 ASCII or P5 binary, maxval up to
65535; written as P2) and headerless CSV. This module parses and formats
them; ``fileio`` opens every file and owns the I/O failures. The PGM
header is read token by token; numpy casts the raster (one split and
cast for P2, ``np.frombuffer`` for P5) and ``np.savetxt`` writes it.
A sample that is not an integer or overflows, a short raster, or a
sample below 0 or above maxval is ``CorruptFile``. Every ``CorruptFile``
and ``UnsupportedFormat`` names the file.
"""

import re
from dataclasses import dataclass

import numpy as np

from .core import FeasibleRegion, as_matrix
from .errors import (
    CorruptFile,
    IndivisibleLayout,
    ShapeMismatch,
    UnsupportedFormat,
)
from .fileio import _opened, read_matrix_csv, write_matrix_csv
from .synth import TrialResult, run_trial

PGM_MAXVAL_LIMIT = 65535


@dataclass(frozen=True)
class PatchLayout:
    """Non-overlapping tiling of an image; patch sizes must divide."""

    image_h: int
    image_w: int
    patch_h: int
    patch_w: int

    def __post_init__(self):
        if min(self.image_h, self.image_w, self.patch_h, self.patch_w) < 1:
            raise IndivisibleLayout("all layout dimensions must be >= 1")
        if self.image_h % self.patch_h or self.image_w % self.patch_w:
            raise IndivisibleLayout(
                f"{self.patch_h}x{self.patch_w} patches do not tile a "
                f"{self.image_h}x{self.image_w} image"
            )

    @property
    def grid_h(self):
        return self.image_h // self.patch_h

    @property
    def grid_w(self):
        return self.image_w // self.patch_w

    @property
    def matrix_shape(self):
        return (self.patch_h * self.patch_w, self.grid_h * self.grid_w)


def patchify(image, layout):
    """Stack vectorized patches as columns; shape ``layout.matrix_shape``."""
    img = as_matrix(image, shape=(layout.image_h, layout.image_w))
    blocks = img.reshape(
        layout.grid_h, layout.patch_h, layout.grid_w, layout.patch_w
    ).transpose(0, 2, 1, 3)
    return blocks.reshape(layout.grid_h * layout.grid_w, -1).T


def unpatchify(m, layout):
    """Exact inverse of :func:`patchify`."""
    m = as_matrix(m, shape=layout.matrix_shape)
    blocks = m.T.reshape(
        layout.grid_h, layout.grid_w, layout.patch_h, layout.patch_w
    ).transpose(0, 2, 1, 3)
    return blocks.reshape(layout.image_h, layout.image_w)


# --- PGM / CSV files ----------------------------------------------------------


def _pgm_tokens(data):
    """Lazily yield ``(token, end offset)`` for whitespace-separated tokens.

    A ``#`` at the start of a token opens a comment that runs to the end
    of the line; inside a token it is an ordinary byte.
    """
    return ((m[1], m.end()) for m in re.finditer(rb"#[^\n]*|(\S+)", data) if m[1])


def _parse_pgm(path, data):
    """The grid of the PGM bytes ``data`` read from ``path``."""
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise CorruptFile(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat(f"{path}: unsupported magic {magic!r}")
    try:
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError):
        raise CorruptFile(f"{path}: bad PGM header") from None
    if width < 1 or height < 1 or not 0 < maxval <= PGM_MAXVAL_LIMIT:
        raise CorruptFile(
            f"{path}: bad PGM dimensions {width}x{height} maxval {maxval}"
        )
    try:
        if magic == b"P2":
            raster = re.sub(rb"(?<!\S)#[^\n]*", b"", data[end:]).split()
        else:  # a single whitespace byte follows maxval
            dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
            raster = np.frombuffer(data, dtype, width * height, end + 1)
        grid = np.asarray(raster, dtype=np.int64)[: width * height]
        grid = grid.reshape(height, width)
    except (ValueError, OverflowError) as exc:
        raise CorruptFile(f"bad PGM raster {path}: {exc}") from None
    if grid.min() < 0 or grid.max() > maxval:
        raise CorruptFile(f"{path}: sample outside 0..{maxval}")
    return grid


def read_image(path):
    """Read a PGM (by magic) or CSV (by extension) grayscale grid."""
    path = str(path)
    if path.lower().endswith(".csv"):
        return read_matrix_csv(path)
    with _opened(path, "rb") as fh:
        data = fh.read()
    return _parse_pgm(path, data)


def write_image(grid, path):
    """Write an integer-valued grid as P2 PGM (or CSV by extension).

    The maxval is 255 when the data allows, else 65535. A written file
    reads back identically for in-range integer grids.
    """
    path = str(path)
    grid = np.asarray(grid)
    if path.lower().endswith(".csv"):
        write_matrix_csv(grid, path)
        return
    if grid.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D grid, got ndim={grid.ndim}")
    if np.any(grid != np.floor(grid)) or grid.min(initial=0) < 0:
        raise ValueError("PGM grids must hold nonnegative integers")
    g = grid.astype(np.int64)
    peak = int(g.max(initial=0))
    maxval = 255 if peak <= 255 else PGM_MAXVAL_LIMIT
    if peak > maxval:
        raise ValueError(f"maxval {maxval} cannot represent peak {peak}")
    h, w = g.shape
    with _opened(path, "wb") as fh:
        np.savetxt(fh, g, fmt="%d", header=f"P2\n{w} {h}\n{maxval}", comments="")


def to_display(values, region):
    """Map intensities linearly from [beta, alpha] to 0..255.

    Rounds half-up; out-of-range intensities are clipped first. A
    degenerate region (alpha == beta) maps to mid-gray.
    """
    v = region.clip(np.asarray(values, dtype=float))
    span = region.alpha - region.beta
    if span == 0.0:
        return np.full(v.shape, 127, dtype=np.int64)
    scaled = (v - region.beta) / span * 255
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.int64)


# --- end-to-end recovery of a partially observed image -------------------------


@dataclass(frozen=True)
class ImageRecovery:
    """An image's patch layout, solving region and patch-matrix truth, and
    the :func:`~poismc.synth.run_trial` result that recovered it.

    ``trial`` holds the observations, the solver's report with its
    estimate and wall time, the MSE and the box-midpoint baseline MSE.
    """

    layout: PatchLayout
    region: FeasibleRegion
    truth: np.ndarray
    trial: TrialResult


def recover_image(image, p, cfg, seed=0, patch=8, scale=1.0, alpha=None, beta=1.0):
    """Run the image-recovery pipeline on a grayscale grid.

    Pixels are scaled and clamped into the box ``[beta, alpha]``: lifted
    to at least ``beta`` (rates must be positive) and capped at ``alpha``
    (default: the scaled maximum, or ``beta`` if that is larger).
    The patch matrix is the truth of one ``run_trial`` step over the
    full-rank region of the box: an expected fraction ``p`` of its cells
    is sampled with seed ``seed``, Poisson counts are drawn, the solver
    that ``cfg.algorithm`` names recovers the matrix, and the estimate and
    the constant box-midpoint guess are scored.
    """
    img = as_matrix(image)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    layout = PatchLayout(img.shape[0], img.shape[1], patch, patch)
    scaled = img * scale
    if alpha is None:
        alpha = float(np.maximum(scaled.max(), beta))
    d1, d2 = layout.matrix_shape
    region = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=min(d1, d2))
    truth = patchify(region.clip(scaled), layout)
    trial = run_trial(truth, region, p * d1 * d2, seed, cfg)
    return ImageRecovery(layout=layout, region=region, truth=truth, trial=trial)
