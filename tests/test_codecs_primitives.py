"""Tests for the low-level codec primitives: colour, blocks, DCT, zigzag, quantization.

The float64 primitives the vectorized forward and pixel paths replace are the
test oracle in ``tests/codec_reference.py``; they are tested here alongside
the runtime tables and layouts they share.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.codecs import blocks as blocks_mod
from repro.codecs import quantization, zigzag
from tests import codec_reference as reference


class TestColor:
    def test_rgb_ycbcr_roundtrip_is_identity(self):
        rng = np.random.default_rng(0)
        rgb = rng.uniform(0, 255, size=(16, 16, 3))
        back = reference.ycbcr_to_rgb(reference.rgb_to_ycbcr(rgb))
        assert np.allclose(back, rgb, atol=1e-8)

    def test_gray_pixel_maps_to_zero_chroma(self):
        rgb = np.full((4, 4, 3), 117.0)
        ycc = reference.rgb_to_ycbcr(rgb)
        assert np.allclose(ycc[..., 0], 117.0)
        assert np.allclose(ycc[..., 1], 128.0)
        assert np.allclose(ycc[..., 2], 128.0)

    def test_luma_weights_sum_to_one(self):
        white = np.full((2, 2, 3), 255.0)
        ycc = reference.rgb_to_ycbcr(white)
        assert np.allclose(ycc[..., 0], 255.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            reference.rgb_to_ycbcr(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            reference.ycbcr_to_rgb(np.zeros((4, 4, 2)))

    def test_subsample_halves_dimensions(self):
        channel = np.arange(64, dtype=float).reshape(8, 8)
        sub = reference.subsample_420(channel)
        assert sub.shape == (4, 4)

    def test_subsample_handles_odd_dimensions(self):
        channel = np.ones((7, 5))
        sub = reference.subsample_420(channel)
        assert sub.shape == (4, 3)
        assert np.allclose(sub, 1.0)

    def test_subsample_is_local_average(self):
        channel = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert reference.subsample_420(channel)[0, 0] == pytest.approx(3.0)

    def test_upsample_restores_shape(self):
        channel = np.random.default_rng(1).uniform(size=(4, 4))
        up = reference.upsample_420(channel, 8, 8)
        assert up.shape == (8, 8)

    def test_upsample_crops_to_odd_target(self):
        channel = np.ones((4, 4))
        up = reference.upsample_420(channel, 7, 5)
        assert up.shape == (7, 5)

    def test_constant_channel_roundtrips_through_subsampling(self):
        channel = np.full((10, 10), 42.0)
        up = reference.upsample_420(reference.subsample_420(channel), 10, 10)
        assert np.allclose(up, 42.0)


class TestBlocks:
    def test_split_shape(self):
        channel = np.zeros((16, 24))
        split = reference.split_into_blocks(channel)
        assert split.shape == (2, 3, 8, 8)

    def test_split_pads_non_multiples(self):
        channel = np.zeros((9, 10))
        split = reference.split_into_blocks(channel)
        assert split.shape == (2, 2, 8, 8)

    def test_padding_replicates_edges(self):
        channel = np.arange(9.0)[:, None] * np.ones((1, 9))
        padded = blocks_mod.pad_to_block_multiple(channel)
        assert padded.shape == (16, 16)
        assert np.allclose(padded[9:, :9], channel[-1, :])

    def test_merge_inverts_split(self):
        rng = np.random.default_rng(2)
        channel = rng.uniform(size=(20, 30))
        blocks = reference.split_into_blocks(channel)
        merged = reference.merge_blocks(blocks, 20, 30)
        assert np.allclose(merged, channel)

    def test_block_grid_shape(self):
        assert blocks_mod.block_grid_shape(8, 8) == (1, 1)
        assert blocks_mod.block_grid_shape(9, 8) == (2, 1)
        assert blocks_mod.block_grid_shape(17, 25) == (3, 4)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_split_merge_roundtrip_property(self, height, width):
        rng = np.random.default_rng(height * 100 + width)
        channel = rng.uniform(0, 255, size=(height, width))
        blocks = reference.split_into_blocks(channel)
        merged = reference.merge_blocks(blocks, height, width)
        assert np.allclose(merged, channel)


class TestDCT:
    def test_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        blocks = rng.uniform(0, 255, size=(4, 4, 8, 8))
        coefficients = reference.forward_dct_blocks(blocks)
        back = reference.inverse_dct_blocks(coefficients)
        assert np.allclose(back, blocks, atol=1e-9)

    def test_constant_block_has_only_dc(self):
        block = np.full((1, 8, 8), 200.0)
        coefficients = reference.forward_dct_blocks(block)
        assert abs(coefficients[0, 0, 0] - (200.0 - 128.0) * 8.0) < 1e-9
        assert np.allclose(coefficients[0].ravel()[1:], 0.0, atol=1e-9)

    def test_dc_coefficient_is_shifted_mean_times_eight(self):
        rng = np.random.default_rng(4)
        block = rng.uniform(0, 255, size=(1, 8, 8))
        coefficients = reference.forward_dct_blocks(block)
        assert coefficients[0, 0, 0] == pytest.approx((block.mean() - 128.0) * 8.0)

    def test_rejects_non_8x8_blocks(self):
        with pytest.raises(ValueError):
            reference.forward_dct_blocks(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            reference.inverse_dct_blocks(np.zeros((2, 7, 7)))

    def test_energy_preserved(self):
        rng = np.random.default_rng(5)
        blocks = rng.uniform(0, 255, size=(3, 8, 8))
        coefficients = reference.forward_dct_blocks(blocks)
        assert np.sum(coefficients**2) == pytest.approx(np.sum((blocks - 128.0) ** 2))


class TestZigzag:
    def test_order_covers_all_indices(self):
        assert sorted(zigzag.ZIGZAG_ORDER.tolist()) == list(range(64))

    def test_order_starts_with_low_frequencies(self):
        # First entries: DC, then (0,1), (1,0), (2,0), (1,1), (0,2)...
        assert zigzag.ZIGZAG_ORDER[0] == 0
        assert set(zigzag.ZIGZAG_ORDER[:3].tolist()) == {0, 1, 8}

    def test_last_entry_is_highest_frequency(self):
        assert zigzag.ZIGZAG_ORDER[-1] == 63

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        blocks = rng.integers(-100, 100, size=(5, 8, 8))
        zz = reference.blocks_to_zigzag(blocks)
        back = reference.zigzag_to_blocks(zz)
        assert np.array_equal(back, blocks)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            reference.blocks_to_zigzag(np.zeros((4, 7, 8)))
        with pytest.raises(ValueError):
            reference.zigzag_to_blocks(np.zeros((4, 63)))


class TestQuantization:
    def test_quality_scale_factor_extremes(self):
        assert quantization.quality_scale_factor(50) == pytest.approx(100.0)
        assert quantization.quality_scale_factor(100) == pytest.approx(0.0)
        assert quantization.quality_scale_factor(1) == pytest.approx(5000.0)

    def test_quality_out_of_range(self):
        with pytest.raises(ValueError):
            quantization.quality_scale_factor(0)
        with pytest.raises(ValueError):
            quantization.quality_scale_factor(101)

    def test_higher_quality_gives_smaller_table_entries(self):
        q50 = quantization.scaled_table(quantization.BASE_LUMA_TABLE, 50)
        q90 = quantization.scaled_table(quantization.BASE_LUMA_TABLE, 90)
        assert (q90 <= q50).all()
        assert q90.min() >= 1.0

    def test_quality_100_table_is_all_ones(self):
        q100 = quantization.scaled_table(quantization.BASE_LUMA_TABLE, 100)
        assert np.allclose(q100, 1.0)

    def test_tables_serialize_roundtrip(self):
        tables = quantization.QuantizationTables.for_quality(83)
        restored = quantization.QuantizationTables.from_bytes(tables.to_bytes())
        assert restored.quality == 83
        assert np.array_equal(restored.luma, tables.luma)
        assert np.array_equal(restored.chroma, tables.chroma)

    def test_table_for_component(self):
        tables = quantization.QuantizationTables.for_quality(75)
        assert np.array_equal(tables.table_for_component(0), tables.luma)
        assert np.array_equal(tables.table_for_component(1), tables.chroma)
        assert np.array_equal(tables.table_for_component(2), tables.chroma)

    def test_quantize_dequantize_bounded_error(self):
        rng = np.random.default_rng(7)
        table = quantization.QuantizationTables.for_quality(90).luma
        coefficients = rng.uniform(-500, 500, size=(6, 8, 8))
        quantized = reference.quantize(coefficients, table)
        restored = reference.dequantize(quantized, table)
        assert np.max(np.abs(restored - coefficients)) <= table.max() / 2 + 1e-9

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            quantization.QuantizationTables.from_bytes(b"\x00" * 10)


class TestEnvironmentKnobs:
    """Every environment variable ``src/repro`` reads, by AST — so a new
    knob cannot land without being listed here and documented."""

    KNOBS = {"REPRO_HUFFMAN_TABLE_CACHE_BYTES"}
    READERS = ("os.environ.get", "os.getenv", "environ.get", "getenv")

    @classmethod
    def _names_read(cls, tree: ast.Module) -> set[str]:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in cls.READERS:
                key = node.args[0]
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith("environ"):
                key = node.slice
            else:
                continue
            # A computed key would hide the name from this inventory.
            assert isinstance(key, ast.Constant), ast.unparse(key)
            names.add(key.value)
        return names

    def test_inventory_is_exact_and_documented(self):
        root = Path(__file__).resolve().parents[1]
        found = set()
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            found |= self._names_read(ast.parse(path.read_text()))
        assert found == self.KNOBS
        documented = (root / "docs" / "performance.md").read_text()
        assert [name for name in sorted(found) if name not in documented] == []

    def test_a_computed_key_fails_the_inventory(self):
        tree = ast.parse("import os\nname = 'X'\nos.environ.get(name)\n")
        with pytest.raises(AssertionError):
            self._names_read(tree)

    @staticmethod
    def _import_codecs(budget: str) -> subprocess.CompletedProcess:
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_HUFFMAN_TABLE_CACHE_BYTES=budget)
        code = "import repro.codecs.huffman as h; print(h._TABLE_CACHE.max_bytes)"
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    @pytest.mark.parametrize("budget", ["256M", "-1"])
    def test_bad_budget_fails_the_import(self, budget):
        result = self._import_codecs(budget)
        assert result.returncode != 0
        assert "ValueError: REPRO_HUFFMAN_TABLE_CACHE_BYTES" in result.stderr
        assert repr(budget) in result.stderr

    def test_table_cache_budget_is_read_at_import(self):
        result = self._import_codecs("1048576")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1048576"


class TestOracleLivesInTests:
    """The scalar oracle is ``tests/codec_reference.py``; ``src`` holds what a run executes."""

    def test_no_repro_module_defines_a_reference(self):
        walked, found = set(), []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            walked.add(info.name)
            for name, value in vars(module).items():
                names = [name]
                if isinstance(value, type) and value.__module__ == info.name:
                    names += [f"{name}.{member}" for member in vars(value)]
                found += [f"{info.name}.{n}" for n in names if n.endswith("_reference")]
        assert {"repro.codecs.progressive", "repro.codecs.fastpath"} <= walked
        assert found == []
