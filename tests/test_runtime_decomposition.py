"""Tests for array decomposition (Figure 1) and CMArray scatter/gather."""

import numpy as np
import pytest

from repro.machine.geometry import NodeCoord
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.decomposition import Decomposition


@pytest.fixture
def machine16():
    return CM2(MachineParams(num_nodes=16))


class TestDecomposition:
    def test_figure1_shapes(self, machine16):
        """256x256 over 16 nodes: 64x64 subgrids (paper Figure 1)."""
        decomp = Decomposition((256, 256), machine16)
        assert decomp.subgrid_shape == (64, 64)
        assert decomp.points_per_node == 4096

    def test_figure1_corner_blocks(self, machine16):
        decomp = Decomposition((256, 256), machine16)
        assert decomp.block(NodeCoord(0, 0)).fortran_ranges() == "A(1:64,1:64)"
        assert (
            decomp.block(NodeCoord(3, 3)).fortran_ranges()
            == "A(193:256,193:256)"
        )

    def test_figure1_interior_block(self, machine16):
        """Paper Figure 1 shows A(65:128,65:128) for node (1,1)."""
        decomp = Decomposition((256, 256), machine16)
        assert (
            decomp.block(NodeCoord(1, 1)).fortran_ranges()
            == "A(65:128,65:128)"
        )

    def test_figure1_text_contains_all_blocks(self, machine16):
        text = Decomposition((256, 256), machine16).figure1_text()
        assert "A(1:64,1:64)" in text
        assert "A(193:256,129:192)" in text
        assert text.count("A(") == 16

    def test_blocks_cover_array_exactly(self, machine16):
        decomp = Decomposition((128, 256), machine16)
        covered = np.zeros((128, 256), dtype=int)
        for r in range(4):
            for c in range(4):
                covered[decomp.block(NodeCoord(r, c)).slices()] += 1
        assert (covered == 1).all()

    def test_non_divisible_rejected(self, machine16):
        with pytest.raises(ValueError, match="divide"):
            Decomposition((66, 256), machine16)

    def test_rectangular_subgrids(self, machine16):
        decomp = Decomposition((256, 512), machine16)
        assert decomp.subgrid_shape == (64, 128)

    def test_scatter_gather_round_trip(self, machine16):
        decomp = Decomposition((64, 64), machine16)
        rng = np.random.default_rng(0)
        array = rng.standard_normal((64, 64)).astype(np.float32)
        stack = decomp.scatter(array)
        assert stack.shape == (4, 4, 16, 16)
        np.testing.assert_array_equal(decomp.gather(stack), array)

    def test_scatter_shape_mismatch(self, machine16):
        decomp = Decomposition((64, 64), machine16)
        with pytest.raises(ValueError, match="shape"):
            decomp.scatter(np.zeros((32, 32)))

    def test_scatter_places_correct_values(self, machine16):
        decomp = Decomposition((64, 64), machine16)
        array = np.arange(64 * 64, dtype=np.float32).reshape(64, 64)
        stack = decomp.scatter(array)
        assert stack[1, 2][0, 0] == array[16, 32]


class TestCMArray:
    def test_from_numpy_round_trip(self, machine16):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((64, 128)).astype(np.float32)
        array = CMArray.from_numpy("A", machine16, data)
        np.testing.assert_array_equal(array.to_numpy(), data)

    def test_allocation_is_zeroed(self, machine16):
        array = CMArray("Z", machine16, (64, 64))
        assert not array.to_numpy().any()

    def test_fill(self, machine16):
        array = CMArray("F", machine16, (64, 64))
        array.fill(2.5)
        assert (array.to_numpy() == np.float32(2.5)).all()

    def test_subgrid_view_is_live(self, machine16):
        array = CMArray("V", machine16, (64, 64))
        array.subgrid(2, 3)[0, 0] = 7.0
        assert array.to_numpy()[32, 48] == 7.0

    def test_like_creates_sibling(self, machine16):
        a = CMArray("A", machine16, (64, 64))
        b = a.like("B")
        assert b.global_shape == a.global_shape
        assert b.name == "B"

    def test_buffers_installed_on_every_node(self, machine16):
        CMArray("EVERY", machine16, (64, 64))
        for node in machine16.nodes():
            assert node.memory.has_buffer("EVERY")

    def test_float32_conversion(self, machine16):
        data = np.ones((64, 64), dtype=np.float64)
        array = CMArray.from_numpy("D", machine16, data)
        assert array.to_numpy().dtype == np.float32
