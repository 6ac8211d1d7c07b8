"""Golden digests: the encoded byte format must not move.

Each case encodes seeded, integer-only coefficient planes with
``encode_coefficients`` and compares the stream's sha1 with a digest
recorded before the one-pass encoder replaced the per-scan one.  No float
stage runs (no forward transform, no matmul), so BLAS cannot perturb the
planes and a changed digest always means a changed stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codecs.markers import SUBSAMPLING_420, SUBSAMPLING_NONE, FrameHeader, ScanHeader
from repro.codecs.progressive import (
    ScanScript,
    decode_coefficients,
    empty_coefficients,
    encode_coefficients,
)
from repro.codecs.quantization import QuantizationTables


def _planes(n_components, subsampling, seed, kind="natural", height=93, width=130):
    """Seeded integer coefficient planes for a ``height`` x ``width`` frame.

    ``natural``: magnitudes and densities fall with the zigzag index, like
    a quantized photo.  ``sparse``: a few isolated high-frequency entries
    per block, so bands need ZRL runs.  ``zero``: every coefficient 0.
    ``extreme``: DC near +-2**30 and AC at the +-32767 edge of the format.
    """
    header = FrameHeader(
        height=height,
        width=width,
        n_components=n_components,
        subsampling=subsampling,
        quant_tables=QuantizationTables.for_quality(90),
    )
    coefficients = empty_coefficients(header)
    rng = np.random.default_rng(seed)
    for plane in coefficients.planes:
        n_blocks = plane.shape[0]
        if kind == "natural":
            scale = np.maximum(1, 256 >> (np.arange(64) // 6))
            values = rng.integers(-scale, scale + 1, size=(n_blocks, 64))
            keep = rng.integers(0, 64, size=(n_blocks, 64)) >= np.arange(64)
            plane[:] = values * keep
            plane[:, 0] = rng.integers(-1024, 1024, size=n_blocks)
        elif kind == "sparse":
            positions = rng.integers(17, 64, size=(n_blocks, 2))
            values = rng.integers(1, 8, size=(n_blocks, 2)) * rng.choice([-1, 1], size=(n_blocks, 2))
            rows = np.repeat(np.arange(n_blocks), 2)
            plane[rows, positions.ravel()] = values.ravel()
        elif kind == "extreme":
            plane[:, 0] = rng.choice([-(1 << 30), 1 << 30, 0, 7], size=n_blocks)
            plane[:, 1] = rng.choice([-32767, 32767, 0], size=n_blocks)
            plane[:, 40] = rng.choice([-32767, 32767, 1], size=n_blocks)
            plane[:, 63] = 16384
    return coefficients


_CUSTOM_SCRIPT = ScanScript(
    scans=(
        ScanHeader((0, 1), 0, 10),
        ScanHeader((2,), 0, 10),
        ScanHeader((1, 2), 11, 63),
        ScanHeader((0,), 11, 30),
        ScanHeader((0,), 31, 63),
    )
)

#: case -> (planes, script, sha1 of the stream), recorded at the per-scan encoder.
CASES = {
    "color_420": (
        lambda: _planes(3, SUBSAMPLING_420, 1),
        ScanScript.default_color(),
        "c3a318c9c3d36e919191c76bf92a569e63369b22",
    ),
    "color_444": (
        lambda: _planes(3, SUBSAMPLING_NONE, 2),
        ScanScript.default_color(),
        "d1b186f46db43dbfb02881574e81bd94ee70893d",
    ),
    "grayscale": (
        lambda: _planes(1, SUBSAMPLING_NONE, 3),
        ScanScript.default_grayscale(),
        "b0d7eae0715295cee3108266e00f97f7b954b14b",
    ),
    "sequential": (
        lambda: _planes(3, SUBSAMPLING_420, 4),
        ScanScript.sequential(3),
        "b08246dd4f69839c840ea5749ed4515ab0b75808",
    ),
    "zrl_sparse_color": (
        lambda: _planes(3, SUBSAMPLING_420, 5, "sparse"),
        ScanScript.default_color(),
        "f5ea9d8fed52cee5fcd19b653ad774f0f2a5b0a8",
    ),
    "zrl_sparse_sequential": (
        lambda: _planes(1, SUBSAMPLING_NONE, 6, "sparse"),
        ScanScript.sequential(1),
        "bf283675d74488aa9545107644e5323f5e5153b1",
    ),
    "all_zero": (
        lambda: _planes(3, SUBSAMPLING_420, 7, "zero"),
        ScanScript.default_color(),
        "8aabda2f6acb991b86bcbcc5d026908581fac070",
    ),
    "custom_multi_component": (
        lambda: _planes(3, SUBSAMPLING_420, 8),
        _CUSTOM_SCRIPT,
        "19e0187a16d3383c34a6a893b7af5942251e073b",
    ),
    "extreme_magnitudes": (
        lambda: _planes(3, SUBSAMPLING_NONE, 9, "extreme"),
        ScanScript.default_color(),
        "a8c37fe765410df8ca208e9bf4cc4a7a26620cbc",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_digest_is_unchanged(case):
    make, script, digest = CASES[case]
    coefficients = make()
    stream = encode_coefficients(coefficients, script)
    assert hashlib.sha1(stream).hexdigest() == digest
    decoded, _ = decode_coefficients(stream)
    for original, plane in zip(coefficients.planes, decoded.planes):
        assert np.array_equal(original, plane)
