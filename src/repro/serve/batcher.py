"""Shape-bucketed batching with a max-wait / max-batch policy.

Requests are bucketed by *coalescibility*: two requests can run as one
:func:`~repro.core.batched.grouped_gemm` call iff they share N, K, dtype
and B **content** (digest, not object identity — stream-deserialized
requests never share objects).  M may differ per member; the group runs
as one stacked tall GEMM, which is exactly where ftIMM's irregular-shape
machinery earns its keep.

A bucket closes into a :class:`Batch` when it holds ``max_batch``
requests, when its oldest member has waited ``max_wait_s``, or when the
stream drains.  The trade is the classic one: waiting longer builds
taller (more efficient) stacks but spends latency budget; the serving
experiment measures both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.batched import b_digest
from ..core.blocking import DTYPE_SIZES
from ..errors import PlanError
from ..obs.trace import current_tracer
from .request import GemmRequest

#: bucket key: (N, K, dtype-str, B-content-digest-or-id)
BucketKey = tuple[int, int, str, object]

#: numpy dtype name -> the repo's dtype tags (core.blocking.DTYPE_SIZES)
_DTYPE_TAGS = {"float32": "f32", "float64": "f64"}


def dtype_tag(dtype) -> str:
    name = str(dtype)
    try:
        return _DTYPE_TAGS[name]
    except KeyError:
        raise PlanError(f"unsupported operand dtype {name!r}") from None


def bucket_key(req: GemmRequest, *, by_digest: bool = True) -> BucketKey:
    """The coalescibility class of a request."""
    b_id = b_digest(req.b) if by_digest else id(req.b)
    return (req.shape.n, req.shape.k, dtype_tag(req.b.dtype), b_id)


def bucket_label(key: BucketKey) -> str:
    n, k, dtype, b_id = key
    tag = b_id[:8] if isinstance(b_id, str) else f"id{b_id:x}"[:10]
    return f"*x{n}x{k}/{dtype}/{tag}"


def bucket_b_bytes(key: BucketKey) -> int:
    """Size of the bucket's shared B matrix in bytes.

    A pure function of the bucket key (K x N at the dtype's width), so
    the placement layer can budget replica memory without touching
    request operands.
    """
    n, k, dtype, _b_id = key
    return n * k * DTYPE_SIZES[dtype]


@dataclass
class Batch:
    """A closed group of coalescible requests, ready to dispatch."""

    batch_id: int
    key: BucketKey
    requests: list[GemmRequest]
    close_s: float
    reason: str = "full"           # "full" | "timeout" | "drain"

    @property
    def n_items(self) -> int:
        return len(self.requests)

    @property
    def b_digest(self) -> object:
        """The shared-B content token the bucket coalesced on.

        A blake2b content digest with ``by_digest=True`` (the default),
        an object id otherwise — either way the token the placement
        layer keys replica sets on.
        """
        return self.key[3]

    @property
    def b_bytes(self) -> int:
        """Size of the batch's shared B matrix in bytes."""
        return bucket_b_bytes(self.key)

    @property
    def stacked_m(self) -> int:
        return sum(r.shape.m for r in self.requests)

    @property
    def deadline_s(self) -> float | None:
        """Earliest member deadline (what EDF sorts on)."""
        deadlines = [
            r.deadline_s for r in self.requests if r.deadline_s is not None
        ]
        return min(deadlines) if deadlines else None


class ShapeBucketBatcher:
    """Accumulates requests into buckets; closes them into batches."""

    def __init__(
        self,
        *,
        max_batch: int = 16,
        max_wait_s: float = 5e-4,
        by_digest: bool = True,
    ) -> None:
        if max_batch < 1:
            raise PlanError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise PlanError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.by_digest = by_digest
        self._buckets: dict[BucketKey, list[GemmRequest]] = {}
        self._next_id = 0

    @property
    def waiting(self) -> int:
        """Requests admitted but not yet closed into a batch."""
        return sum(len(reqs) for reqs in self._buckets.values())

    def add(
        self, req: GemmRequest, now: float, key: BucketKey | None = None
    ) -> Batch | None:
        """Admit one request; returns a batch if its bucket just filled.

        ``key`` is the request's :func:`bucket_key` when the caller has
        already computed it (hashing B is the costly part).
        """
        if key is None:
            key = bucket_key(req, by_digest=self.by_digest)
        bucket = self._buckets.setdefault(key, [])
        bucket.append(req)
        if len(bucket) >= self.max_batch:
            return self._close(key, now, reason="full")
        return None

    def due_at(self, key: BucketKey) -> float | None:
        """When this bucket's oldest member hits max_wait (None if empty)."""
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        return bucket[0].arrival_s + self.max_wait_s

    def close_due(self, key: BucketKey, now: float) -> Batch | None:
        """Close the bucket if its oldest member has waited long enough."""
        due = self.due_at(key)
        if due is not None and due <= now:
            return self._close(key, now, reason="timeout")
        return None

    def drain(self, now: float) -> list[Batch]:
        """Close every non-empty bucket (end of stream)."""
        return [self._close(key, now, reason="drain")
                for key in list(self._buckets) if self._buckets[key]]

    def _close(self, key: BucketKey, now: float, *, reason: str) -> Batch:
        requests = self._buckets.pop(key)
        if not requests:
            raise PlanError("closing an empty bucket")
        batch = Batch(
            batch_id=self._next_id, key=key, requests=requests,
            close_s=now, reason=reason,
        )
        self._next_id += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                f"coalesce b{batch.batch_id}",
                at_s=now,
                category="coalesce",
                track="batcher",
                pid=0,
                args={
                    "batch_id": batch.batch_id,
                    "reason": reason,
                    "n_items": batch.n_items,
                    "stacked_m": batch.stacked_m,
                    "bucket": bucket_label(key),
                },
            )
        return batch


@dataclass
class BucketStats:
    """Per-bucket aggregate for the report."""

    label: str
    batches: int = 0
    items: int = 0
    stacked_m: int = 0
    coalesced: int = 0  # items that shared a batch with at least one other

    def absorb(self, batch: Batch) -> None:
        self.batches += 1
        self.items += batch.n_items
        self.stacked_m += batch.stacked_m
        if batch.n_items > 1:
            self.coalesced += batch.n_items

    @property
    def mean_batch(self) -> float:
        return self.items / self.batches if self.batches else 0.0


def collect_bucket_stats(batches: list[Batch]) -> dict[str, BucketStats]:
    stats: dict[str, BucketStats] = {}
    for batch in batches:
        label = bucket_label(batch.key)
        stats.setdefault(label, BucketStats(label)).absorb(batch)
    return stats
