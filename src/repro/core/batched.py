"""Batched and grouped GEMM (the FEM / libxsmm use case of the intro).

The paper motivates irregular GEMM with workloads that issue *many* small
multiplications — FEM operator application, per-layer CNN lowering.
Issuing them one `ftimm_gemm` at a time repays the fixed costs (panel
fills, barriers, strategy setup) per call.  Two batching tools:

* :func:`grouped_gemm` — many A/C pairs sharing one B (exactly FEM's
  per-element operator): the A blocks are a *logical* vertical stack, so
  the whole group runs as one tall-and-skinny GEMM; the shared B is cached
  in GSM once instead of once per element block.

* :func:`batched_gemm` — arbitrary ``(a, b, c)`` triples: greedily groups
  items that share the same B, runs each group with :func:`grouped_gemm`,
  and reports the aggregate alongside the modeled time of the naive
  one-call-per-item loop so the grouping win is visible.

Sharing is decided by **content digest** by default (:func:`b_digest`):
two B arrays that are equal but distinct objects — the normal case for
requests deserialized from a stream — still coalesce.  Each distinct B
content is hashed once per process: later equal Bs are recognised by a
full byte comparison against a private snapshot (:class:`DigestMemo`).
Pass ``group_by="identity"`` to group by object instead (``id(b)``),
which skips even that comparison when the caller guarantees sharing.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError, ShapeError
from ..faults.plan import FaultPlan
from ..hw.config import MachineConfig, default_machine
from ..obs.registry import current as _obs_current
from .ftimm import GemmResult, ftimm_gemm
from .lowering import dtype_tag
from .shapes import GemmShape

#: bytes of B snapshots the digest memo keeps; a larger B is hashed on
#: every call and never kept
DIGEST_MEMO_BYTES = 64 << 20

#: bytes taken from each end of B's contiguous bytes for the memo key
_SAMPLE_BYTES = 512


class DigestMemo:
    """blake2b content digests, each distinct B hashed once, LRU-bounded.

    An entry is keyed by (dtype, shape, the first and last
    ``_SAMPLE_BYTES`` of B's C-order bytes) and holds a private snapshot
    of all of them.  A lookup is a hit only when B's full bytes equal
    the snapshot, so a hit sees exactly the inputs blake2b would hash
    and returns the same digest; anything else (a sample collision, an
    array mutated since it was seen) is hashed afresh and replaces the
    entry.  Bytes are compared, never values: -0.0 and 0.0 differ, and a
    NaN equals its own bit pattern.  Hits are counted as
    ``core/batched/digest_hits``, full hashes as ``core/batched/digests``.
    """

    def __init__(self, capacity_bytes: int = DIGEST_MEMO_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        #: total length of the snapshots held
        self.nbytes = 0
        self._entries: OrderedDict[tuple, tuple[bytes, str]] = OrderedDict()

    def lookup(self, b: np.ndarray) -> str:
        m = _obs_current()
        dtype = str(b.dtype)
        raw = b.tobytes()
        key = (dtype, b.shape, raw[:_SAMPLE_BYTES], raw[-_SAMPLE_BYTES:])
        entry = self._entries.get(key)
        if entry is not None and entry[0] == raw:
            self._entries.move_to_end(key)
            if m is not None:
                m.counter("core/batched/digest_hits").inc()
            return entry[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(dtype.encode())
        h.update(str(b.shape).encode())
        h.update(raw)
        digest = h.hexdigest()
        if m is not None:
            m.counter("core/batched/digests").inc()
        if entry is not None:
            del self._entries[key]
            self.nbytes -= len(entry[0])
        if len(raw) <= self.capacity_bytes:
            self._entries[key] = (raw, digest)
            self.nbytes += len(raw)
            while self.nbytes > self.capacity_bytes:
                _key, (old, _digest) = self._entries.popitem(last=False)
                self.nbytes -= len(old)
        return digest

    def clear(self) -> None:
        """Drop every entry (tests compare against uncached digests)."""
        self._entries.clear()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide memo behind :func:`b_digest`
DIGESTS = DigestMemo()


def b_digest(b: np.ndarray) -> str:
    """Content digest of an operand: dtype + shape + bytes, blake2b-16.

    Equal arrays (same dtype, shape and element bytes) digest equally even
    when they are distinct objects or non-contiguous views.  Served from
    :data:`DIGESTS` after the first time a content is seen.
    """
    return DIGESTS.lookup(b)


@dataclass
class GroupedGemmResult:
    """One grouped call: many (A_i, C_i) against a shared B."""

    shape: GemmShape          # the stacked (sum M_i) x N x K problem
    n_items: int
    result: GemmResult

    @property
    def seconds(self) -> float:
        return self.result.seconds

    @property
    def gflops(self) -> float:
        return self.result.gflops


@dataclass
class BatchedGemmResult:
    """Aggregate of a heterogeneous batch."""

    groups: list[GroupedGemmResult] = field(default_factory=list)

    @property
    def n_items(self) -> int:
        return sum(g.n_items for g in self.groups)

    @property
    def seconds(self) -> float:
        return sum(g.seconds for g in self.groups)

    @property
    def total_flops(self) -> int:
        return sum(g.shape.flops for g in self.groups)

    @property
    def gflops(self) -> float:
        return self.total_flops / self.seconds / 1e9 if self.seconds else 0.0


def grouped_gemm(
    a_blocks: list[np.ndarray] | None,
    b: np.ndarray | None,
    c_blocks: list[np.ndarray] | None,
    *,
    m_blocks: list[int] | None = None,
    n: int | None = None,
    k: int | None = None,
    machine: MachineConfig | None = None,
    timing: str = "auto",
    faults: FaultPlan | None = None,
    dtype: str | None = None,
) -> GroupedGemmResult:
    """Run ``C_i += A_i @ B`` for all i as one stacked GEMM.

    Either pass real operands (``a_blocks``/``b``/``c_blocks``) or, for a
    timing-only estimate, pass ``m_blocks``/``n``/``k``.  ``faults`` arms
    seeded fault injection on the stacked run (see :mod:`repro.faults`):
    the group either completes exactly or raises a typed ``FaultError``
    before any ``c_blocks`` entry is written back.  ``dtype`` defaults
    to B's dtype with operands and to ``"f32"`` without.
    """
    machine = machine or default_machine()
    if a_blocks is not None:
        if b is None or c_blocks is None or len(a_blocks) != len(c_blocks):
            raise PlanError("grouped_gemm needs matching a_blocks/c_blocks and b")
        if not a_blocks:
            raise ShapeError("empty group")
        k_, n_ = b.shape
        for a_i, c_i in zip(a_blocks, c_blocks):
            if a_i.shape[1] != k_ or c_i.shape[1] != n_ or a_i.shape[0] != c_i.shape[0]:
                raise PlanError(
                    f"group member shapes A{a_i.shape} C{c_i.shape} do not "
                    f"match B{b.shape}"
                )
        stacked_a = np.ascontiguousarray(np.vstack(a_blocks))
        stacked_c = np.ascontiguousarray(np.vstack(c_blocks))
        total_m = stacked_a.shape[0]
        result = ftimm_gemm(
            total_m, n_, k_, a=stacked_a, b=b, c=stacked_c,
            machine=machine, timing=timing, faults=faults,
            dtype=dtype or dtype_tag(b.dtype),
        )
        row = 0
        for c_i in c_blocks:
            rows = c_i.shape[0]
            c_i[:, :] = stacked_c[row : row + rows]
            row += rows
        return GroupedGemmResult(
            shape=GemmShape(total_m, n_, k_), n_items=len(a_blocks), result=result
        )

    if m_blocks is None or n is None or k is None:
        raise PlanError("pass operands, or m_blocks + n + k for timing-only")
    if not m_blocks:
        raise ShapeError("empty group")
    total_m = sum(m_blocks)
    result = ftimm_gemm(
        total_m, n, k, machine=machine, timing=timing, faults=faults,
        dtype=dtype or "f32",
    )
    return GroupedGemmResult(
        shape=GemmShape(total_m, n, k), n_items=len(m_blocks), result=result
    )


def batched_gemm(
    items: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    *,
    machine: MachineConfig | None = None,
    timing: str = "auto",
    group_by: str = "digest",
) -> BatchedGemmResult:
    """Run a heterogeneous batch, grouping items that share a B operand.

    ``group_by="digest"`` (default) treats equal-but-distinct B arrays as
    shared; ``group_by="identity"`` requires the same object.
    """
    machine = machine or default_machine()
    if not items:
        raise ShapeError("empty batch")
    if group_by not in ("digest", "identity"):
        raise PlanError(f"unknown group_by {group_by!r}")
    groups: dict[tuple[object, tuple[int, int]], list[int]] = {}
    for idx, (a, b, c) in enumerate(items):
        key = b_digest(b) if group_by == "digest" else id(b)
        groups.setdefault((key, b.shape), []).append(idx)
    out = BatchedGemmResult()
    for (_bkey, _bshape), indices in groups.items():
        a_blocks = [items[i][0] for i in indices]
        c_blocks = [items[i][2] for i in indices]
        out.groups.append(
            grouped_gemm(
                a_blocks, items[indices[0]][1], c_blocks,
                machine=machine, timing=timing,
            )
        )
    return out


def naive_batch_seconds(
    shapes: list[GemmShape],
    *,
    machine: MachineConfig | None = None,
) -> float:
    """Modeled time of issuing the batch one GEMM call at a time."""
    machine = machine or default_machine()
    return sum(
        ftimm_gemm(s.m, s.n, s.k, machine=machine, timing="analytic").seconds
        for s in shapes
    )
