"""Software-managed memory spaces of the FT-m7032 model.

DSP cores in FT-m7032 have no data cache for vector data: kernels work on
explicitly allocated buffers in the Scalar Memory (SM), Array Memory (AM)
and the cluster-shared GSM, filled by DMA.  The paper's blocking parameters
are chosen precisely to fit these capacities (Section IV-C), so enforcing
them is load-bearing for the reproduction: a plan whose tiles don't fit must
fail loudly.

:class:`MemorySpace` is a first-fit allocator with coalescing free list.
Buffers optionally carry a NumPy array (functional execution); timing-only
runs allocate unbacked buffers so multi-gigabyte DDR operands cost nothing.

A space with an ``arena_owner`` is backed by a **scratch arena**
(:func:`scratch_arena`): one byte array per (owner, space) sized at the
modeled capacity, of which every backed buffer is a view at its
allocated offset.  All lowerings for one cluster configuration then
share the same on-chip scratch — exactly as on the chip — so resident
scratch is bounded by the simulated memory, not by how many lowered
plans are alive.  Arena bytes are never zeroed: a plan replaying on an
arena must write every scratch byte before it reads it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from ..errors import AllocationError, CapacityError


class MemKind(enum.Enum):
    """The four levels of the memory hierarchy (Fig. 1 / Fig. 2)."""

    DDR = "ddr"   # off-chip main memory (42.6 GB/s per cluster)
    GSM = "gsm"   # 6 MB cluster-shared on-chip memory
    SM = "sm"     # 64 KB per-core scalar memory
    AM = "am"     # 768 KB per-core array memory

    @property
    def on_chip(self) -> bool:
        return self is not MemKind.DDR


@dataclass
class Buffer:
    """A live allocation inside a :class:`MemorySpace`.

    ``shape``/``dtype`` describe the logical tile.  ``data`` is present only
    for functionally-backed buffers.  ``offset`` is the byte offset within
    the space, kept so tests can assert deterministic, in-bounds placement.
    """

    space: "MemorySpace"
    offset: int
    nbytes: int
    shape: tuple[int, ...]
    dtype: np.dtype
    data: np.ndarray | None = None
    label: str = ""
    freed: bool = False

    @property
    def end(self) -> int:
        return self.offset + self.nbytes

    def array(self) -> np.ndarray:
        """The backing array; raises for unbacked (timing-only) buffers."""
        if self.data is None:
            raise AllocationError(
                f"buffer {self.label or '<anon>'} in {self.space.name} is "
                "not backed by data (timing-only allocation)"
            )
        return self.data

    def free(self) -> None:
        self.space.free(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        backed = "backed" if self.data is not None else "unbacked"
        return (
            f"Buffer({self.label or 'anon'}@{self.space.name}"
            f"+{self.offset}, {self.shape}, {backed})"
        )


@dataclass
class MemorySpace:
    """One addressable memory with capacity enforcement.

    Allocation is first-fit over a sorted free list with coalescing on free.
    This is deliberately simple — kernels allocate a handful of long-lived
    tiles — but it catches the two bugs that matter: exceeding capacity and
    double-free/leak of ping-pong buffers.
    """

    name: str
    kind: MemKind
    capacity: int
    alignment: int = 64
    #: when set, backed buffers are views into the scratch arena of
    #: (``arena_owner``, ``name``) at their offset instead of fresh
    #: zeroed arrays
    arena_owner: Hashable | None = field(default=None, repr=False)
    _free: list[tuple[int, int]] = field(default_factory=list)  # (offset, size)
    _used: int = 0
    _live: int = 0
    peak_used: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise CapacityError(f"{self.name}: capacity must be positive")
        if self.alignment < 1 or self.alignment & (self.alignment - 1):
            raise CapacityError(f"{self.name}: alignment must be a power of 2")
        self._free = [(0, self.capacity)]

    # -- queries ---------------------------------------------------------

    @property
    def used(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def live_buffers(self) -> int:
        return self._live

    # -- allocation ------------------------------------------------------

    def alloc(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype | str = np.float32,
        *,
        backed: bool = False,
        label: str = "",
    ) -> Buffer:
        """Allocate a tile of ``shape`` x ``dtype``.

        Raises :class:`CapacityError` when the space cannot hold it — this is
        how an over-sized blocking plan is rejected, mirroring what a real
        FT-m7032 build would catch at link time.
        """
        dt = np.dtype(dtype)
        nelems = 1
        for extent in shape:
            if extent < 0:
                raise AllocationError(f"negative extent in shape {shape}")
            nelems *= extent
        nbytes = nelems * dt.itemsize
        rounded = max(self._round(nbytes), self.alignment)
        offset = self._take(rounded)
        if offset is None:
            raise CapacityError(
                f"{self.name} ({self.kind.value}): cannot allocate "
                f"{nbytes} B for {label or shape}; "
                f"{self.free_bytes} B free of {self.capacity}"
            )
        self._used += rounded
        self._live += 1
        self.peak_used = max(self.peak_used, self._used)
        data = None
        if backed:
            if self.arena_owner is None:
                data = np.zeros(shape, dtype=dt)
            else:
                arena = scratch_arena(self.arena_owner, self.name, self.capacity)
                data = arena[offset : offset + nbytes].view(dt).reshape(shape)
        return Buffer(
            space=self,
            offset=offset,
            nbytes=rounded,
            shape=tuple(shape),
            dtype=dt,
            data=data,
            label=label,
        )

    def free(self, buf: Buffer) -> None:
        if buf.space is not self:
            raise AllocationError(
                f"buffer {buf.label!r} belongs to {buf.space.name}, "
                f"not {self.name}"
            )
        if buf.freed:
            raise AllocationError(f"double free of buffer {buf.label!r}")
        buf.freed = True
        self._used -= buf.nbytes
        self._live -= 1
        self._insert_free(buf.offset, buf.nbytes)

    def reset(self) -> None:
        """Drop all allocations (used between independent plan executions)."""
        self._free = [(0, self.capacity)]
        self._used = 0
        self._live = 0

    # -- internals -------------------------------------------------------

    def _round(self, nbytes: int) -> int:
        a = self.alignment
        return (nbytes + a - 1) // a * a

    def _take(self, nbytes: int) -> int | None:
        for i, (off, size) in enumerate(self._free):
            if size >= nbytes:
                if size == nbytes:
                    del self._free[i]
                else:
                    self._free[i] = (off + nbytes, size - nbytes)
                return off
        return None

    def _insert_free(self, offset: int, size: int) -> None:
        # insert keeping the list sorted by offset, then coalesce neighbours
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (offset, size))
        merged: list[tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self._free = merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemorySpace({self.name}, {self.kind.value}, "
            f"{self._used}/{self.capacity} B used)"
        )


#: (owner, space name) -> the arena backing that space's tiles
_ARENAS: dict[tuple[Hashable, str], np.ndarray] = {}


def scratch_arena(owner: Hashable, name: str, capacity: int) -> np.ndarray:
    """The scratch arena of space ``name`` for ``owner`` (created once).

    ``owner`` is a value key (a cluster configuration): every
    :class:`MemorySpace` built for the same owner and name shares one
    uninitialized ``capacity``-byte array.
    """
    key = (owner, name)
    arena = _ARENAS.get(key)
    if arena is None:
        arena = _ARENAS[key] = np.empty(capacity, dtype=np.uint8)
    return arena


def scratch_arenas() -> Iterator[np.ndarray]:
    """Every scratch arena created in this process (tests poison them to
    prove no replay reads scratch before writing it)."""
    return iter(list(_ARENAS.values()))


def make_core_spaces(core_id: int, am_bytes: int, sm_bytes: int) -> dict[MemKind, MemorySpace]:
    """Create the per-core private spaces (SM + AM)."""
    return {
        MemKind.AM: MemorySpace(f"am{core_id}", MemKind.AM, am_bytes),
        MemKind.SM: MemorySpace(f"sm{core_id}", MemKind.SM, sm_bytes),
    }
