"""Property-based tests (hypothesis) on the core invariants.

The generator-driven end-to-end property is the strongest test in the
suite: arbitrary stencil patterns, coefficient kinds, subgrid shapes,
and machine sizes must produce bit-identical results across the
reference semantics, the vectorized fast path, and the cycle-stepped
WTL3164 datapath -- with the closed-form cycle model matching the
stepped simulator exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.reference import reference_stencil
from repro.compiler.allocation import AllocationError, allocate
from repro.compiler.plan import StencilCompileError, compile_pattern
from repro.compiler.ringbuf import RingBuffer, column_span, plan_ring_sizes
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import apply_stencil_batch
from repro.runtime.cm_array import CMArray
from repro.runtime.halo import exchange_halo, halo_buffer_name
from repro.runtime.stencil_op import apply_stencil
from repro.runtime.strips import StripSchedule
from repro.stencil.multistencil import ColumnProfile, Multistencil
from repro.stencil.offsets import (
    BoundaryMode,
    Shift,
    ShiftKind,
    apply_shift_chain,
    compose_offsets,
)
from repro.stencil.pattern import (
    Coefficient,
    StencilPattern,
    Tap,
    pattern_from_offsets,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

offsets_strategy = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    min_size=1,
    max_size=7,
    unique=True,
)


@st.composite
def patterns(draw):
    """Random stencil patterns with mixed coefficient kinds."""
    offsets = draw(offsets_strategy)
    taps = []
    for index, offset in enumerate(offsets):
        kind = draw(st.sampled_from(["array", "scalar", "unit"]))
        if kind == "array":
            coeff = Coefficient.array(f"C{index + 1}")
        elif kind == "scalar":
            coeff = Coefficient.scalar(
                draw(st.floats(-4.0, 4.0, allow_nan=False, width=32))
            )
        else:
            coeff = Coefficient.unit()
        taps.append(Tap(offset=offset, coeff=coeff))
    if draw(st.booleans()):
        taps.append(
            Tap(
                offset=(0, 0),
                coeff=Coefficient.array("CCONST"),
                is_constant_term=True,
            )
        )
    boundary = {
        1: draw(st.sampled_from(list(BoundaryMode))),
        2: draw(st.sampled_from(list(BoundaryMode))),
    }
    return StencilPattern(taps, boundary=boundary, name="random")


cshift_chains = st.lists(
    st.builds(
        Shift,
        kind=st.just(ShiftKind.CSHIFT),
        dim=st.integers(1, 2),
        amount=st.integers(-3, 3),
    ),
    min_size=1,
    max_size=4,
)


# ----------------------------------------------------------------------
# Shift composition
# ----------------------------------------------------------------------


class TestShiftProperties:
    @given(chain=cshift_chains)
    @settings(max_examples=60, deadline=None)
    def test_cshift_chain_equals_net_roll(self, chain):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 9)).astype(np.float32)
        chained = apply_shift_chain(x, chain)
        totals = compose_offsets(chain)
        rolled = np.roll(
            x, (-totals.get(1, 0), -totals.get(2, 0)), axis=(0, 1)
        )
        np.testing.assert_array_equal(chained, rolled)

    @given(chain=cshift_chains)
    @settings(max_examples=40, deadline=None)
    def test_cshift_chain_order_irrelevant(self, chain):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 6)).astype(np.float32)
        forward = apply_shift_chain(x, chain)
        backward = apply_shift_chain(x, list(reversed(chain)))
        np.testing.assert_array_equal(forward, backward)


# ----------------------------------------------------------------------
# Ring buffers
# ----------------------------------------------------------------------


@st.composite
def columns(draw):
    rows = draw(
        st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True)
    )
    return ColumnProfile(x=0, rows=tuple(sorted(rows)))


class TestRingProperties:
    @given(column=columns(), extra=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_live_elements_never_collide(self, column, extra):
        size = column_span(column) + extra
        ring = RingBuffer(
            column=column, size=size, registers=tuple(range(size))
        )
        for line in range(2 * size + 1):
            slots = [ring.slot_for(row, line) for row in column.rows]
            assert len(slots) == len(set(slots))

    @given(column=columns())
    @settings(max_examples=60, deadline=None)
    def test_load_slot_matches_new_top_element(self, column):
        size = column_span(column)
        ring = RingBuffer(
            column=column, size=size, registers=tuple(range(size))
        )
        for line in range(3 * size):
            assert ring.slot_for(column.top, line) == ring.load_slot(line)

    @given(
        heights=st.lists(st.integers(1, 6), min_size=1, max_size=10),
        budget=st.integers(4, 31),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_plan_respects_budget_when_feasible(self, heights, budget):
        cols = [
            ColumnProfile(x=i, rows=tuple(range(h)))
            for i, h in enumerate(heights)
        ]
        sizes = plan_ring_sizes(cols, budget)
        if sizes is None:
            assert sum(heights) > budget
        else:
            assert sum(sizes) <= budget
            for size, height in zip(sizes, heights):
                assert size >= height


# ----------------------------------------------------------------------
# Multistencils
# ----------------------------------------------------------------------


class TestMultistencilProperties:
    @given(offsets=offsets_strategy, width=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_positions_at_most_naive(self, offsets, width):
        pattern = pattern_from_offsets(offsets)
        ms = Multistencil(pattern, width)
        assert ms.num_positions <= ms.naive_load_count()

    @given(offsets=offsets_strategy, width=st.sampled_from([2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_accumulator_safe_from_later_occurrences(self, offsets, width):
        pattern = pattern_from_offsets(offsets)
        ms = Multistencil(pattern, width)
        for r in range(width):
            acc = ms.accumulator_position(r)
            for later in range(r + 1, width):
                assert acc not in ms.occurrence_positions(later)

    @given(offsets=offsets_strategy, width=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_leading_edge_covers_new_footprint(self, offsets, width):
        """Moving the footprint one line North, every newly needed
        position is either the column's loaded leading-edge element or a
        gap-fill already held by the ring (an element loaded on an
        earlier line, aged through the column's span)."""
        pattern = pattern_from_offsets(offsets)
        ms = Multistencil(pattern, width)
        here = set(ms.positions)
        above = {(dy - 1, dx) for (dy, dx) in here}
        loaded = {(row - 1, x) for row, x in ms.leading_edge()}
        spans = {col.x: (col.top, col.bottom) for col in ms.columns}
        for (row, x) in above - here:
            if (row, x) in loaded:
                continue
            top, bottom = spans[x]
            # Shifted back to the original line's coordinates, the
            # element at (row + 1, x) lies inside the ring's span.
            assert top < row + 1 <= bottom

    @given(offsets=offsets_strategy, width=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_contiguous_columns_leading_edge_exact(self, offsets, width):
        pattern = pattern_from_offsets(offsets)
        ms = Multistencil(pattern, width)
        if any(
            col.rows != tuple(range(col.top, col.bottom + 1))
            for col in ms.columns
        ):
            return  # gapped columns covered by the weaker property above
        here = set(ms.positions)
        above = {(dy - 1, dx) for (dy, dx) in here}
        assert (above - here) == {
            (row - 1, x) for row, x in ms.leading_edge()
        }


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------


class TestAllocationProperties:
    @given(offsets=offsets_strategy, width=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_allocations_fit_register_file(self, offsets, width):
        pattern = pattern_from_offsets(offsets)
        try:
            alloc = allocate(pattern, width)
        except AllocationError:
            return
        assert alloc.total_registers <= 32
        regs = [r for ring in alloc.rings for r in ring.registers]
        assert len(regs) == len(set(regs))
        assert 0 not in regs  # the zero register is reserved


# ----------------------------------------------------------------------
# Halo exchange
# ----------------------------------------------------------------------


class TestHaloProperties:
    @given(
        seed=st.integers(0, 10_000),
        mode1=st.sampled_from(list(BoundaryMode)),
        mode2=st.sampled_from(list(BoundaryMode)),
    )
    @settings(max_examples=25, deadline=None)
    def test_padded_buffer_equals_global_window(self, seed, mode1, mode2):
        pattern = pattern_from_offsets(
            [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)],
            boundary={1: mode1, 2: mode2},
            fill_value=0.0,
        )
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((8, 12)).astype(np.float32)
        x = CMArray.from_numpy("X", machine, data)
        exchange_halo(x, pattern, params)
        mode_str = {
            BoundaryMode.CIRCULAR: "wrap",
            BoundaryMode.FILL: "constant",
        }
        rows = np.pad(data, ((1, 1), (0, 0)), mode=mode_str[mode1])
        full = np.pad(rows, ((0, 0), (1, 1)), mode=mode_str[mode2])
        sr, sc = x.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            window = full[r * sr : (r + 1) * sr + 2, c * sc : (c + 1) * sc + 2]
            padded = node.memory.buffer(halo_buffer_name("X"))
            np.testing.assert_array_equal(padded, window)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


class TestEndToEndProperties:
    @given(
        pattern=patterns(),
        seed=st.integers(0, 10_000),
        shape=st.sampled_from([(8, 8), (6, 10), (10, 14), (12, 16)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fast_path_matches_reference(self, pattern, seed, shape):
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        rng = np.random.default_rng(seed)
        gshape = (shape[0] * 2, shape[1] * 2)
        x = rng.standard_normal(gshape).astype(np.float32)
        coeffs = {
            name: rng.standard_normal(gshape).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        try:
            compiled = compile_pattern(pattern, params)
        except StencilCompileError:
            return
        X = CMArray.from_numpy("X", machine, x)
        C = {
            name: CMArray.from_numpy(name, machine, data)
            for name, data in coeffs.items()
        }
        run = apply_stencil(compiled, X, C)
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference_stencil(pattern, x, coeffs)
        )

    @given(
        filters=st.lists(patterns(), min_size=1, max_size=2),
        grids=st.integers(1, 3),
        node_grid=st.sampled_from([(2, 2), (1, 4), (4, 1), (4, 4), (1, 1)]),
        subgrid=st.sampled_from([(7, 11), (4, 6), (3, 9)]),
        batched=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exact_datapath_matches_fast_and_cycle_model(
        self, filters, grids, node_grid, subgrid, batched, seed
    ):
        """Exact bits equal fast bits equal the reference, and every
        filter's stepped pass cycles equal the closed form, solo or
        batched (1-3 grids x 1-2 filters), on every node grid."""
        rows, cols = node_grid
        params = MachineParams(num_nodes=rows * cols)
        machine = CM2(params, shape=node_grid)
        if not batched:
            filters, grids = filters[:1], 1
        try:
            compiled = [compile_pattern(p, params) for p in filters]
        except StencilCompileError:
            return
        rng = np.random.default_rng(seed)
        gshape = (rows * subgrid[0], cols * subgrid[1])
        xs = [
            rng.standard_normal(gshape).astype(np.float32)
            for _ in range(grids)
        ]
        coeffs = {
            name: rng.standard_normal(gshape).astype(np.float32)
            for p in filters
            for name in p.coefficient_names()
        }
        X = [CMArray.from_numpy(f"X{b}", machine, x) for b, x in enumerate(xs)]
        C = {
            name: CMArray.from_numpy(name, machine, data)
            for name, data in coeffs.items()
        }
        if batched:
            fast = apply_stencil_batch(compiled, X, C, "RF")
            exact = apply_stencil_batch(compiled, X, C, "RE", exact=True)
            got = exact.result.to_numpy()
        else:
            fast = apply_stencil(compiled[0], X[0], C, "RF")
            exact = apply_stencil(compiled[0], X[0], C, "RE", exact=True)
            got = exact.result.to_numpy()[None, None]
        np.testing.assert_array_equal(
            exact.result.to_numpy(), fast.result.to_numpy()
        )
        for b, x in enumerate(xs):
            for f, pattern in enumerate(filters):
                np.testing.assert_array_equal(
                    got[b, f], reference_stencil(pattern, x, coeffs)
                )
        for cost, c in zip(exact.per_filter, compiled):
            schedule = StripSchedule.cached(c, subgrid)
            assert cost.pass_cycles == schedule.compute_cycles(params)


# ----------------------------------------------------------------------
# Front-end round trips
# ----------------------------------------------------------------------


@st.composite
def fortran_statements(draw):
    """Random stencil statements rendered as Fortran source.

    At least one term carries a CSHIFT: a statement with no shifting
    intrinsic at all cannot name its data variable and is (correctly)
    rejected by the recognizer.
    """
    offsets = draw(offsets_strategy)
    if all(dy == 0 and dx == 0 for dy, dx in offsets):
        extra = draw(st.sampled_from([(-1, 0), (0, 1), (1, -1)]))
        offsets = offsets + [extra]
    terms = []
    for index, (dy, dx) in enumerate(offsets):
        ref = "X"
        if dy:
            ref = f"CSHIFT({ref}, 1, {dy:+d})"
        if dx:
            ref = f"CSHIFT({ref}, 2, {dx:+d})"
        kind = draw(st.sampled_from(["array", "scalar", "bare"]))
        if kind == "array":
            terms.append(f"C{index + 1} * {ref}")
        elif kind == "scalar":
            value = draw(st.integers(1, 9))
            terms.append(f"{value}.5 * {ref}")
        else:
            terms.append(ref)
    return " + ".join(terms), offsets


class TestFrontEndRoundTrip:
    @given(data=fortran_statements())
    @settings(max_examples=60, deadline=None)
    def test_recognizer_recovers_offsets(self, data):
        from repro.fortran.parser import parse_assignment
        from repro.fortran.recognizer import recognize_assignment

        source, offsets = data
        pattern = recognize_assignment(parse_assignment("R = " + source))
        assert set(pattern.offsets) == set(offsets)

    @given(data=fortran_statements(), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_recognized_pattern_matches_direct_interpretation(
        self, data, seed
    ):
        """Recognize-and-evaluate equals executing the statement."""
        from repro.baseline.reference import (
            evaluate_assignment,
            reference_stencil,
        )
        from repro.fortran.parser import parse_assignment
        from repro.fortran.recognizer import recognize_assignment

        source, offsets = data
        statement = parse_assignment("R = " + source)
        pattern = recognize_assignment(statement)
        rng = np.random.default_rng(seed)
        env = {"X": rng.standard_normal((8, 10)).astype(np.float32)}
        for index in range(len(offsets)):
            env[f"C{index + 1}"] = rng.standard_normal((8, 10)).astype(
                np.float32
            )
        direct = evaluate_assignment(statement, env)
        coeffs = {
            name: env[name] for name in pattern.coefficient_names()
        }
        via_pattern = reference_stencil(pattern, env["X"], coeffs)
        np.testing.assert_allclose(via_pattern, direct, rtol=2e-6, atol=1e-6)


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------


class TestFusionProperties:
    @given(
        offsets=offsets_strategy,
        num_extra=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_fused_fast_path_matches_reference(self, offsets, num_extra, seed):
        from repro.baseline.reference import reference_stencil
        from repro.compiler.codegen import ExtraTerm
        from repro.compiler.fusion import fuse
        from repro.compiler.plan import StencilCompileError

        pattern = pattern_from_offsets(offsets)
        terms = [
            ExtraTerm(source=f"Y{i}", coeff=Coefficient.array(f"CY{i}"))
            for i in range(num_extra)
        ]
        params = MachineParams(num_nodes=4)
        try:
            fused = fuse(pattern, terms, params)
        except StencilCompileError:
            return
        machine = CM2(params)
        rng = np.random.default_rng(seed)
        shape = (8, 12)
        x = rng.standard_normal(shape).astype(np.float32)
        X = CMArray.from_numpy("X", machine, x)
        host = {"X": x}
        for term in terms:
            data = rng.standard_normal(shape).astype(np.float32)
            CMArray.from_numpy(term.source, machine, data)
            host[term.source] = data
        coeffs = {}
        for name in fused.pattern.coefficient_names():
            data = rng.standard_normal(shape).astype(np.float32)
            coeffs[name] = CMArray.from_numpy(name, machine, data)
            host[name] = data
        run = apply_stencil(fused, X, coeffs, "R")
        expected = reference_stencil(
            pattern,
            x,
            {n: host[n] for n in pattern.coefficient_names()},
        )
        for term in terms:
            product = (
                host[term.coeff.name] * host[term.source]
            ).astype(np.float32)
            expected = (expected + product).astype(np.float32)
        np.testing.assert_array_equal(run.result.to_numpy(), expected)
