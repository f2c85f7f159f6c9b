"""Memory spaces: allocation, capacity enforcement, free-list invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, CapacityError
from repro.hw.memory import Buffer, MemKind, MemorySpace, make_core_spaces


def space(capacity=4096, alignment=64):
    return MemorySpace("test", MemKind.AM, capacity, alignment)


class TestAlloc:
    def test_simple_alloc(self):
        sp = space()
        buf = sp.alloc((8, 8), np.float32, label="t")
        assert buf.nbytes >= 8 * 8 * 4
        assert buf.offset == 0
        assert sp.used == buf.nbytes

    def test_alloc_backed_gives_zeroed_array(self):
        buf = space().alloc((4, 4), backed=True)
        assert buf.array().shape == (4, 4)
        assert np.all(buf.array() == 0)

    def test_arena_backed_buffers_are_views_at_their_offset(self):
        def arena_space(owner):
            return MemorySpace("arena-test", MemKind.AM, 4096, arena_owner=owner)

        first, second = arena_space("x"), arena_space("x")
        a = first.alloc((4, 4), np.float32, backed=True)
        b = first.alloc((2, 2), np.float64, backed=True)
        a.array()[...] = 1.0
        b.array()[...] = 2.0
        # a second space of the same owner shares the bytes...
        again = second.alloc((4, 4), np.float32, backed=True)
        assert np.shares_memory(again.array(), a.array())
        assert np.all(again.array() == 1.0)
        # ...disjoint buffers do not overlap, other owners do not share
        assert not np.shares_memory(a.array(), b.array())
        other = arena_space("y").alloc((4, 4), np.float32, backed=True)
        assert not np.shares_memory(other.array(), a.array())

    def test_alloc_unbacked_array_raises(self):
        buf = space().alloc((4, 4))
        with pytest.raises(AllocationError):
            buf.array()

    def test_alignment_rounding(self):
        sp = space(alignment=64)
        buf = sp.alloc((1, 1), np.float32)  # 4 bytes -> 64
        assert buf.nbytes == 64

    def test_offsets_do_not_overlap(self):
        sp = space()
        bufs = [sp.alloc((4, 4)) for _ in range(8)]
        spans = sorted((b.offset, b.end) for b in bufs)
        for (o1, e1), (o2, _e2) in zip(spans, spans[1:]):
            assert e1 <= o2

    def test_capacity_exceeded_raises(self):
        sp = space(capacity=256)
        with pytest.raises(CapacityError):
            sp.alloc((100, 100))

    def test_capacity_exact_fit_allowed(self):
        sp = space(capacity=256)
        buf = sp.alloc((8, 8), np.float32)  # exactly 256 B
        assert buf.nbytes == 256
        assert sp.free_bytes == 0

    def test_negative_extent_rejected(self):
        with pytest.raises(AllocationError):
            space().alloc((-1, 4))

    def test_dtype_respected(self):
        buf = space().alloc((4, 4), np.float64)
        assert buf.nbytes >= 4 * 4 * 8

    def test_peak_used_tracks_high_water(self):
        sp = space()
        a = sp.alloc((8, 8))
        b = sp.alloc((8, 8))
        peak = sp.used
        sp.free(a)
        sp.free(b)
        assert sp.peak_used == peak
        assert sp.used == 0


class TestFree:
    def test_free_returns_bytes(self):
        sp = space()
        buf = sp.alloc((8, 8))
        sp.free(buf)
        assert sp.used == 0
        assert sp.live_buffers == 0

    def test_double_free_raises(self):
        sp = space()
        buf = sp.alloc((8, 8))
        sp.free(buf)
        with pytest.raises(AllocationError):
            sp.free(buf)

    def test_free_foreign_buffer_raises(self):
        sp1, sp2 = space(), space()
        buf = sp1.alloc((4, 4))
        with pytest.raises(AllocationError):
            sp2.free(buf)

    def test_coalescing_allows_full_realloc(self):
        sp = space(capacity=1024)
        bufs = [sp.alloc((4, 16)) for _ in range(4)]  # 4 x 256
        for buf in bufs:
            sp.free(buf)
        big = sp.alloc((16, 16))  # 1024 B only fits if coalesced
        assert big.nbytes == 1024

    def test_reset_clears_everything(self):
        sp = space()
        sp.alloc((8, 8))
        sp.reset()
        assert sp.used == 0
        assert sp.alloc((8, 8)).offset == 0


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            MemorySpace("x", MemKind.AM, 0)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(CapacityError):
            MemorySpace("x", MemKind.AM, 128, alignment=48)

    def test_kind_on_chip(self):
        assert MemKind.AM.on_chip and MemKind.GSM.on_chip and MemKind.SM.on_chip
        assert not MemKind.DDR.on_chip

    def test_make_core_spaces(self):
        spaces = make_core_spaces(3, 1024, 512)
        assert spaces[MemKind.AM].capacity == 1024
        assert spaces[MemKind.SM].capacity == 512
        assert spaces[MemKind.AM].name == "am3"


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 40), st.integers(1, 40)),
            st.tuples(st.just("free"), st.integers(0, 30), st.integers(0, 0)),
        ),
        max_size=40,
    )
)
def test_allocator_invariants(ops):
    """Random alloc/free sequences never corrupt the free list.

    Invariants: live allocations are disjoint and in bounds; used bytes
    equal the sum of live buffer sizes; free + used == capacity.
    """
    sp = MemorySpace("prop", MemKind.AM, 64 * 1024)
    live: list[Buffer] = []
    for op, a, b in ops:
        if op == "alloc":
            try:
                live.append(sp.alloc((a, b), np.float32))
            except CapacityError:
                pass
        elif live:
            sp.free(live.pop(a % len(live)))
    spans = sorted((buf.offset, buf.end) for buf in live)
    for (o1, e1), (o2, _e2) in zip(spans, spans[1:]):
        assert e1 <= o2, "live buffers overlap"
    for o, e in spans:
        assert 0 <= o and e <= sp.capacity
    assert sp.used == sum(buf.nbytes for buf in live)
    assert sp.live_buffers == len(live)
