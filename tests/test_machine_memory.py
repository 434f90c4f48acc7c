"""Tests for node memory and machine parameters."""

import numpy as np
import pytest

from repro.machine.isa import ONES_BUFFER, MemRef, const_buffer_name
from repro.machine.machine import CM2
from repro.machine.memory import (
    MemoryError_,
    NodeMemory,
    global_view,
    node_view,
)
from repro.machine.microcode import (
    MICROCODE_MEMORY_WORDS,
    full_strip_routine,
    half_strip_routine,
    routine_set,
)
from repro.machine.params import FULL_CM2, SIXTEEN_NODE, MachineParams
from repro.runtime.batch import CMBatch
from repro.runtime.cm_array import CMArray, CMArray3D
from repro.runtime.halo import halo_buffer_name


class TestNodeMemory:
    def test_allocate_zeroed(self):
        mem = NodeMemory()
        buf = mem.allocate("a", (2, 3))
        assert buf.shape == (2, 3)
        assert buf.dtype == np.float32
        assert not buf.any()

    def test_install_copies_as_float32(self):
        mem = NodeMemory()
        data = np.ones((2, 2), dtype=np.float64)
        buf = mem.install("a", data)
        assert buf.dtype == np.float32
        data[0, 0] = 5.0
        assert mem.buffer("a")[0, 0] == 1.0  # a copy, not a view

    def test_install_rejects_non_2d(self):
        mem = NodeMemory()
        with pytest.raises(MemoryError_):
            mem.install("a", np.ones(4))

    def test_read_write(self):
        mem = NodeMemory()
        mem.allocate("a", (2, 2))
        mem.write(MemRef("a", 1, 1), 3.5)
        assert mem.read(MemRef("a", 1, 1)) == np.float32(3.5)

    def test_unknown_buffer(self):
        mem = NodeMemory()
        with pytest.raises(MemoryError_, match="no buffer"):
            mem.read(MemRef("nope", 0, 0))

    def test_out_of_bounds(self):
        mem = NodeMemory()
        mem.allocate("a", (2, 2))
        with pytest.raises(MemoryError_, match="outside"):
            mem.read(MemRef("a", 2, 0))
        with pytest.raises(MemoryError_, match="outside"):
            mem.read(MemRef("a", 0, -1))

    def test_constant_pages(self):
        mem = NodeMemory()
        mem.ensure_constant_pages([0.5, -2.0])
        assert mem.read(MemRef(ONES_BUFFER, 0, 0)) == np.float32(1.0)
        assert mem.read(MemRef(const_buffer_name(0.5), 0, 0)) == np.float32(0.5)
        assert mem.read(MemRef(const_buffer_name(-2.0), 0, 0)) == np.float32(-2.0)

    def test_constant_pages_idempotent(self):
        mem = NodeMemory()
        mem.ensure_constant_pages([1.5])
        mem.ensure_constant_pages([1.5])
        names = [n for n in mem.buffer_names if "const" in n]
        assert len(names) == 1

    def test_total_words(self):
        mem = NodeMemory()
        mem.allocate("a", (4, 4))
        mem.allocate("b", (2, 2))
        assert mem.total_words() == 20

    def test_free(self):
        mem = NodeMemory()
        mem.allocate("a", (2, 2))
        mem.free("a")
        assert not mem.has_buffer("a")

    def test_standalone_memory_aliases_and_frees_privately(self):
        mem = NodeMemory()
        mem.install("a", np.ones((2, 2)))
        mem.alias("b", "a")
        assert mem.buffer("b") is mem.buffer("a")
        mem.free("a")
        assert not mem.has_buffer("a")
        assert mem.has_buffer("b")


def assert_every_node_reads_its_tile(machine, name):
    stack = machine.stacked(name)
    for node in machine.nodes():
        row, col = node.coord.row, node.coord.col
        assert np.shares_memory(node.memory.buffer(name), stack[row, col])
        assert node.memory.buffer(name).shape == stack.shape[2:]


class TestOneStorage:
    """Machine storage is the only map from a distributed name to its
    data; every node's memory reads its tile of the current stack."""

    def test_alloc_alias_free_and_reallocation(self):
        machine = CM2(MachineParams(num_nodes=8))
        machine.storage.allocate("A", (2, 3))
        assert_every_node_reads_its_tile(machine, "A")
        machine.storage.alias("B", "A")
        assert machine.stacked("B") is machine.stacked("A")
        assert_every_node_reads_its_tile(machine, "B")
        machine.storage.allocate("A", (4, 5))  # same name, new stack
        assert_every_node_reads_its_tile(machine, "A")
        assert machine.node(1, 2).memory.buffer("A").shape == (4, 5)
        assert_every_node_reads_its_tile(machine, "B")  # still the old one
        machine.storage.free("B")
        for node in machine.nodes():
            assert not node.memory.has_buffer("B")
            with pytest.raises(MemoryError_, match="no buffer named 'B'"):
                node.memory.buffer("B")

    def test_remap_serves_old_and_new_stacks(self):
        machine = CM2(MachineParams(num_nodes=4), spares=1)
        machine.storage.allocate("A", (2, 2))
        machine.stacked("A")[...] = np.arange(16, dtype=np.float32).reshape(
            2, 2, 2, 2
        )
        spare = machine.remap_node(0, 1)
        assert machine.node(0, 1) is spare
        assert_every_node_reads_its_tile(machine, "A")
        machine.storage.allocate("C", (3, 3))  # allocated after the remap
        assert_every_node_reads_its_tile(machine, "C")
        assert np.shares_memory(
            spare.memory.buffer("C"), machine.stacked("C")[0, 1]
        )

    def test_batched_stacks_stay_whole_machine(self):
        machine = CM2(MachineParams(num_nodes=4))
        machine.storage.allocate("Q", (2, 2), (3,))
        node = machine.node(0, 0)
        assert not node.memory.has_buffer("Q")
        with pytest.raises(MemoryError_, match="'Q'"):
            node.memory.install("Q", np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "action",
        [
            lambda mem: mem.install("A", np.zeros((2, 2))),
            lambda mem: mem.allocate("A", (2, 2)),
            lambda mem: mem.alias("A", ONES_BUFFER),
            lambda mem: mem.alias("P", "A"),
            lambda mem: mem.free("A"),
        ],
        ids=["install", "allocate", "alias-name", "alias-target", "free"],
    )
    def test_changing_a_distributed_name_is_refused(self, action):
        machine = CM2(MachineParams(num_nodes=4), spares=1)
        machine.storage.allocate("A", (2, 2))
        for memory in [node.memory for node in machine.nodes()] + [
            machine._spare_nodes[4].memory
        ]:
            memory.ensure_constant_pages()
            with pytest.raises(MemoryError_, match="'A'"):
                action(memory)
        assert_every_node_reads_its_tile(machine, "A")

    def test_private_buffers_live_beside_distributed_ones(self):
        machine = CM2(MachineParams(num_nodes=4))
        machine.storage.allocate("A", (2, 2))
        memory = machine.node(1, 1).memory
        memory.ensure_constant_pages([0.5])
        assert memory.has_buffer("A") and "A" not in memory.buffer_names
        assert memory.total_words() == 2
        assert not machine.node(0, 0).memory.has_buffer(ONES_BUFFER)

    def test_a_second_array_of_one_name_is_the_same_array(self):
        machine = CM2(MachineParams(num_nodes=4))
        first = CMArray.from_numpy("X", machine, np.zeros((4, 4)))
        second = CMArray("X", machine, (4, 4))  # re-allocates "X"
        data = np.arange(16, dtype=np.float32).reshape(4, 4)
        first.set(data)
        np.testing.assert_array_equal(first.to_numpy(), data)
        np.testing.assert_array_equal(second.to_numpy(), data)
        assert first.stacked is second.stacked

    def test_to_numpy_is_a_copy_on_every_grid(self):
        machine = CM2(MachineParams(num_nodes=1))
        array = CMArray.from_numpy("X", machine, np.ones((3, 5)))
        batch = CMBatch.from_numpy("B", machine, np.ones((2, 3, 5)))
        for distributed in (array, batch):
            host = distributed.to_numpy()
            host[...] = 7.0
            assert (distributed.to_numpy() == 1.0).all()


class TestGlobalRowLayout:
    """Every array the storage holds is one float32 array in global row
    order; the stacks it hands out are node views of it."""

    @staticmethod
    def held_stacks(machine):
        """A stack of every kind the storage hands out, by label."""
        rng = np.random.default_rng(3)
        volume = CMArray3D.from_numpy(
            "V", machine, rng.standard_normal((8, 12, 3)).astype(np.float32)
        )
        storage = machine.storage
        ping, pong = storage.pingpong("X", (6, 8), (2,))
        return {
            "distributed": CMArray("A", machine, (8, 12)).stacked,
            "batched": CMBatch("B", machine, (2, 3), (8, 12)).stacked,
            "3-D": volume.stacked,
            "plane view": volume.slab(1).stacked,
            "halo": storage.allocate(halo_buffer_name("A"), (6, 8)),
            "scratch": storage.scratch("S", (4, 6), (5,)),
            "ping": ping,
            "pong": pong,
        }

    def test_every_stack_is_a_view_of_its_global_array(self):
        machine = CM2(MachineParams(num_nodes=4))
        for label, stack in self.held_stacks(machine).items():
            rows = global_view(stack)
            *lead, grid_rows, grid_cols, sub_rows, sub_cols = stack.shape
            assert rows.shape == tuple(lead) + (
                grid_rows * sub_rows, grid_cols * sub_cols
            ), label
            assert np.shares_memory(stack, rows), label
            assert rows.flags.c_contiguous, label
        for name in ("A", "B", "V"):
            assert np.shares_memory(
                machine.storage.global_array(name), machine.stacked(name)
            )
            assert machine.storage.global_array(name).flags.c_contiguous

    def test_a_node_tile_write_lands_at_its_global_rows_and_columns(self):
        machine = CM2(MachineParams(num_nodes=8))
        array = CMArray("A", machine, (8, 16))
        rows, cols = array.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            node.memory.write(MemRef("A", 1, 2), float(10 * r + c + 1))
        host = array.to_numpy()
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            assert host[r * rows + 1, c * cols + 2] == 10 * r + c + 1
        assert np.count_nonzero(host) == machine.num_nodes
        array.subgrid(1, 3)[...] = -1.0
        block = array.global_array[rows : 2 * rows, 3 * cols : 4 * cols]
        assert (block == -1.0).all()
        assert np.count_nonzero(array.global_array == -1.0) == rows * cols

    def test_the_view_helper_raises_rather_than_copy(self):
        # A node-layout stack of its own has no global-row view: the
        # rows of two node columns are not one run of words.
        with pytest.raises(MemoryError_, match="no .* view"):
            global_view(np.zeros((2, 2, 4, 6), dtype=np.float32))
        with pytest.raises(MemoryError_, match="no .* view"):
            global_view(node_view(np.zeros((8, 12), np.float32), (2, 2)).copy())
        rows = np.arange(96, dtype=np.float32).reshape(8, 12)
        tiles = node_view(rows, (2, 2))
        assert np.shares_memory(tiles, rows) and tiles.shape == (2, 2, 4, 6)
        np.testing.assert_array_equal(tiles[1, 0], rows[4:8, 0:6])
        assert np.shares_memory(global_view(tiles), rows)

    def test_set_and_to_numpy_round_trip(self):
        machine = CM2(MachineParams(num_nodes=4))
        rng = np.random.default_rng(5)
        for array, data in [
            (CMArray("A", machine, (8, 12)), rng.standard_normal((8, 12))),
            (
                CMBatch("B", machine, (2, 3), (8, 12)),
                rng.standard_normal((2, 3, 8, 12)),
            ),
            (CMArray3D("V", machine, (8, 12, 3)), rng.standard_normal((8, 12, 3))),
        ]:
            data = data.astype(np.float32)
            array.set(data)
            host = array.to_numpy()
            np.testing.assert_array_equal(host, data)
            assert not np.shares_memory(host, array.stacked)
            host[...] = 0.0
            np.testing.assert_array_equal(array.to_numpy(), data)
        # Node (1, 0) holds the grid's second band of rows.
        np.testing.assert_array_equal(
            machine.stacked("A")[1, 0], machine.storage.global_array("A")[4:8, 0:6]
        )


class TestMachineParams:
    def test_paper_clock_rate(self):
        assert MachineParams().clock_hz == 7.0e6

    def test_peak_mflops_per_node(self):
        """2 flops/cycle at 7 MHz = 14 Mflops/node."""
        assert MachineParams().peak_mflops_per_node == 14.0

    def test_writeback_latency_is_four(self):
        """Mult at k, add at k+2, writeback at k+4."""
        assert MachineParams().writeback_latency == 4

    def test_presets(self):
        assert SIXTEEN_NODE.num_nodes == 16
        assert FULL_CM2.num_nodes == 2048

    def test_with_nodes(self):
        params = SIXTEEN_NODE.with_nodes(2048)
        assert params.num_nodes == 2048
        assert params.clock_hz == SIXTEEN_NODE.clock_hz

    def test_seconds(self):
        assert MachineParams().seconds(7_000_000) == pytest.approx(1.0)

    def test_host_overhead_recoding(self):
        fast = MachineParams(host_overhead_recoded=True)
        slow = MachineParams(host_overhead_recoded=False)
        assert slow.host_overhead_s(10) > fast.host_overhead_s(10)

    def test_host_overhead_scales_with_halfstrips(self):
        params = MachineParams()
        assert params.host_overhead_s(64) > params.host_overhead_s(16)

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            MachineParams(num_nodes=0)


class TestCM2:
    def test_sixteen_node_machine(self):
        machine = CM2(MachineParams(num_nodes=16))
        assert machine.num_nodes == 16
        assert machine.shape == (4, 4)

    def test_node_lookup_wraps(self):
        machine = CM2(MachineParams(num_nodes=16))
        assert machine.node(4, 4) is machine.node(0, 0)

    def test_full_machine_peak(self):
        """2,048 nodes x 14 Mflops = 28.7 Gflops peak."""
        machine = CM2(FULL_CM2)
        assert machine.peak_gflops() == pytest.approx(28.672)

    def test_nodes_have_unique_addresses(self):
        machine = CM2(MachineParams(num_nodes=64))
        addresses = {node.address for node in machine.nodes()}
        assert len(addresses) == 64

    def test_describe(self):
        text = CM2(MachineParams(num_nodes=16)).describe()
        assert "16 nodes" in text and "4x4" in text


class TestMicrocode:
    def test_half_strip_routine(self):
        routine = half_strip_routine(8, MachineParams())
        assert routine.half_strip
        assert routine.width == 8

    def test_full_strip_costs_more_dispatch(self):
        params = MachineParams()
        half = half_strip_routine(4, params)
        full = full_strip_routine(4, params)
        assert full.dispatch_cycles > half.dispatch_cycles
        assert full.instruction_words > half.instruction_words

    def test_routine_set_fits_microcode_memory(self):
        routines = routine_set(MachineParams())
        total = sum(r.instruction_words for r in routines.values())
        assert total <= MICROCODE_MEMORY_WORDS
        assert set(routines) == {8, 4, 2, 1}


class TestNode:
    def test_describe_names_coordinates(self):
        machine = CM2(MachineParams(num_nodes=16))
        node = machine.node(1, 2)
        text = node.describe()
        assert "node(1,2)" in text
        assert "cube" in text

    def test_alias_shares_storage(self):
        mem = NodeMemory()
        mem.allocate("a", (2, 2))
        mem.alias("b", "a")
        mem.write(MemRef("b", 0, 0), 4.0)
        assert mem.read(MemRef("a", 0, 0)) == np.float32(4.0)

    def test_alias_of_missing_target_raises(self):
        mem = NodeMemory()
        with pytest.raises(MemoryError_):
            mem.alias("b", "missing")


class TestParityWord:
    def test_single_bit_flip_changes_word(self):
        from repro.machine.memory import parity_word

        rng = np.random.default_rng(0)
        buf = rng.standard_normal((4, 6)).astype(np.float32)
        sealed = parity_word(buf)
        buf.view(np.uint32)[2, 3] ^= np.uint32(1 << 17)
        assert parity_word(buf) != sealed
        buf.view(np.uint32)[2, 3] ^= np.uint32(1 << 17)
        assert parity_word(buf) == sealed

    def test_empty_region_is_zero(self):
        from repro.machine.memory import parity_word

        assert parity_word(np.zeros((0, 3), dtype=np.float32)) == 0

    def test_non_contiguous_view_matches_copy(self):
        from repro.machine.memory import parity_word

        rng = np.random.default_rng(1)
        stack = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        view = stack[:, :, 2:6, 3:7]
        assert not view.flags.c_contiguous
        assert parity_word(view) == parity_word(view.copy())


class TestCheckpointRestore:
    @staticmethod
    def _storage():
        from repro.machine.memory import MachineStorage

        storage = MachineStorage((2, 2))
        stack = storage.allocate("R", (3, 5))
        stack[...] = np.arange(stack.size, dtype=np.float32).reshape(
            stack.shape
        )
        return storage, stack

    def test_restore_rewrites_in_place(self):
        storage, stack = self._storage()
        snapshot = storage.checkpoint(["R"])
        original = stack.copy()
        stack[...] = -1.0
        storage.restore(snapshot)
        np.testing.assert_array_equal(stack, original)
        # In place: node-memory views into the stack stay valid.
        assert storage.lookup("R") is stack

    def test_checkpoint_is_a_deep_copy(self):
        storage, stack = self._storage()
        snapshot = storage.checkpoint(["R"])
        stack[0, 0, 0, 0] = 99.0
        assert snapshot.stacks["R"][0, 0, 0, 0] != np.float32(99.0)
        assert snapshot.words == stack.size

    def test_checkpoint_covers_scratch_stacks(self):
        storage, _ = self._storage()
        ping, _pong = storage.pingpong("R", (7, 9))
        ping[...] = 4.0
        snapshot = storage.checkpoint(["R__ping__"])
        ping[...] = 0.0
        storage.restore(snapshot)
        assert (ping == 4.0).all()

    def test_unknown_name_raises(self):
        storage, _ = self._storage()
        with pytest.raises(MemoryError_, match="unknown buffer"):
            storage.checkpoint(["NOPE"])

    def test_restore_after_free_raises(self):
        storage, _ = self._storage()
        snapshot = storage.checkpoint(["R"])
        storage.free("R")
        with pytest.raises(MemoryError_, match="missing or"):
            storage.restore(snapshot)

    def test_restore_after_reshape_raises(self):
        storage, _ = self._storage()
        snapshot = storage.checkpoint(["R"])
        storage.allocate("R", (4, 4))
        with pytest.raises(MemoryError_, match="reshaped"):
            storage.restore(snapshot)
