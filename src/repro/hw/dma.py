"""DMA engine model: 2-D strided descriptors and their timing.

Each DSP core owns a DMA engine used to move tiles between DDR, GSM, SM and
AM (Fig. 2).  A descriptor describes a 2-D transfer: ``rows`` rows of
``row_bytes`` contiguous bytes each (strides exist in the real hardware but
only the row geometry affects timing, via per-row burst overhead).

Timing of one descriptor::

    startup  +  effective_bytes / bandwidth(medium, contention)

* ``startup`` — engine programming + first-burst latency
  (``DmaConfig.startup_cycles``).
* ``effective_bytes`` — ``rows * (row_bytes + row_overhead)`` when the
  transfer touches DDR: short rows waste DDR bursts.  On-chip media move
  exactly ``rows * row_bytes``.
* the *medium* is the slowest memory touched: DDR if either endpoint is
  DDR, else GSM if either endpoint is GSM, else the core-local link.

The per-row overhead is what makes measured DDR bandwidth fall short of the
theoretical 42.6 GB/s for skinny tiles — the effect the paper invokes to
explain ftIMM reaching only ~67% of its roofline (Section V-C1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..errors import DmaTransferError, PlanError
from ..obs.trace import current_tracer
from .bandwidth import LocalChannel, SharedChannel
from .config import DmaConfig, DspCoreConfig
from .event_sim import Event, Resource, Simulator
from .memory import MemKind

Channel = Union[SharedChannel, LocalChannel]


@dataclass(frozen=True)
class DmaDescriptor:
    """One 2-D DMA transfer: ``rows`` rows of ``row_bytes`` each."""

    src: MemKind
    dst: MemKind
    rows: int
    row_bytes: int
    tag: str = ""
    #: the slowest memory level this transfer touches (derived)
    medium: MemKind = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.row_bytes < 0:
            raise PlanError(f"negative DMA geometry in {self}")
        if MemKind.DDR in (self.src, self.dst):
            medium = MemKind.DDR
        elif MemKind.GSM in (self.src, self.dst):
            medium = MemKind.GSM
        else:
            medium = MemKind.AM
        object.__setattr__(self, "medium", medium)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes

    def effective_bytes(self, cfg: DmaConfig) -> int:
        if self.medium is MemKind.DDR:
            return self.rows * (self.row_bytes + cfg.row_overhead_bytes)
        return self.nbytes


class DmaTimingModel:
    """Pure (simulator-free) timing of a descriptor at a known bandwidth.

    Used by the analytic executor, which composes closed-form loop times
    instead of simulating each transfer.
    """

    def __init__(self, core: DspCoreConfig, dma: DmaConfig) -> None:
        self.core = core
        self.dma = dma
        self.startup_s = dma.startup_cycles / core.clock_hz
        self.local_bandwidth = core.am_bytes_per_cycle * core.clock_hz

    def seconds(self, desc: DmaDescriptor, bandwidth: float) -> float:
        """Duration at a fixed ``bandwidth`` for the shared medium."""
        if desc.medium is MemKind.AM:
            bandwidth = self.local_bandwidth
        if desc.nbytes == 0:
            return 0.0
        return self.startup_s + desc.effective_bytes(self.dma) / bandwidth


class DmaEngine:
    """The per-core DMA engine, for discrete-event execution.

    ``channels_per_core`` descriptors may be in flight concurrently; further
    requests queue FIFO at the engine.  The data movement itself is charged
    to the medium's bandwidth channel (shared for DDR/GSM).
    """

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        core_cfg: DspCoreConfig,
        dma_cfg: DmaConfig,
        channels: dict[MemKind, Channel],
        faults=None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.cfg = dma_cfg
        self.core_cfg = core_cfg
        self.channels = channels
        self.slots = Resource(sim, dma_cfg.channels_per_core, name=f"dma{core_id}")
        self.startup_s = dma_cfg.startup_cycles / core_cfg.clock_hz
        self.bytes_moved = 0
        self.transfers = 0
        #: optional :class:`~repro.faults.inject.FaultInjector`; when set,
        #: transfers can fail (seeded) and are retried with exponential
        #: backoff — every retry costed in simulated time.
        self.faults = faults
        self._issued = 0
        #: failed-transfer retries performed, and the simulated seconds
        #: they consumed (wasted transfer time + backoff)
        self.retries = 0
        self.retry_s = 0.0
        # observation-only accounting (never feeds back into timing):
        #: total seconds descriptors waited for a free engine channel
        self.queue_wait_s = 0.0
        #: high-water mark of descriptors queued behind the channels
        self.queue_depth_peak = 0
        #: payload bytes moved, keyed by medium value ("ddr", "gsm", "am")
        self.bytes_by_medium: dict[str, int] = {}

    def issue(self, desc: DmaDescriptor) -> "DmaTransfer":
        """Start a transfer; returns the event that fires at completion."""
        xfer = DmaTransfer(self, desc)
        xfer.launch()
        return xfer


class DmaTransfer(Event):
    """One descriptor's trip through a :class:`DmaEngine`, as callbacks.

    Each step is one simulator push: :meth:`launch` pushes the slot
    request; the engine's slot FIFO pushes the grant; the grant pushes
    the startup delay, after which the medium's channel moves
    ``effective_bytes``.  A failed attempt (fault injection) backs off
    and restarts from the startup delay.  On success the slot is
    released and :meth:`_complete` fires this event.  Subclasses (the
    timed executor's ops) extend :meth:`_complete` with their own
    accounting.
    """

    __slots__ = ("engine", "desc", "eff_bytes", "t_request", "t0",
                 "issue_idx", "attempt")

    def __init__(self, engine: DmaEngine, desc: DmaDescriptor) -> None:
        Event.__init__(self, engine.sim, desc.tag)
        self.engine = engine
        self.desc = desc

    def launch(self) -> None:
        """Issue at the current simulated time."""
        self.sim._call_at(self.sim.now, self._request)

    def _request(self, _arg) -> None:
        eng = self.engine
        slots = eng.slots
        queued = slots.queued
        if queued + 1 > eng.queue_depth_peak and slots.in_use >= slots.capacity:
            eng.queue_depth_peak = queued + 1
        self.t_request = self.sim.now
        slots.acquire(self._granted)

    def _granted(self, _arg) -> None:
        eng = self.engine
        eng.queue_wait_s += self.sim.now - self.t_request
        if self.desc.nbytes > 0:
            self.eff_bytes = self.desc.effective_bytes(eng.cfg)
            self.issue_idx = eng._issued
            eng._issued += 1
            self.attempt = 0
            self._startup()
        else:
            eng.transfers += 1
            eng.slots.release()
            self._complete()

    def _startup(self) -> None:
        sim = self.sim
        self.t0 = sim.now
        sim._call_at(sim.now + self.engine.startup_s, self._transfer)

    def _transfer(self, _arg) -> None:
        self.engine.channels[self.desc.medium].begin(
            self.eff_bytes, self._transferred
        )

    def _transferred(self, _arg) -> None:
        eng = self.engine
        inj = eng.faults
        if inj is not None and inj.dma_transfer_fails(
            eng.core_id, self.issue_idx, self.attempt
        ):
            self._failed(inj)
            return
        desc = self.desc
        now = self.sim.now
        eng.bytes_moved += desc.nbytes
        medium = desc.medium.value
        eng.bytes_by_medium[medium] = (
            eng.bytes_by_medium.get(medium, 0) + desc.nbytes
        )
        tracer = current_tracer()
        if tracer is not None:
            # queue wait + startup + transfer (+ retries), end to end
            tracer.record(
                desc.tag or "dma",
                category="dma",
                start_s=self.t_request,
                end_s=now,
                track=f"core{eng.core_id}/dma",
                args={"core": eng.core_id, "bytes": desc.nbytes,
                      "medium": medium, "rows": desc.rows},
            )
        eng.transfers += 1
        eng.slots.release()
        self._complete()

    def _failed(self, inj) -> None:
        """The attempt's time is spent: back off exponentially, then
        re-issue from the startup delay (or give up past the budget)."""
        eng = self.engine
        sim = self.sim
        self.attempt += 1
        attempt = self.attempt
        wasted = sim.now - self.t0
        if attempt > inj.plan.max_dma_retries:
            eng.retries += 1
            eng.retry_s += wasted
            inj.count("dma_retries")
            inj.count("dma_retry_s", wasted)
            eng.slots.release()
            raise DmaTransferError(
                f"DMA {self.desc.tag!r} on core {eng.core_id} failed "
                f"{attempt} times (giving up at t={sim.now:.3e}s)"
            )
        backoff = inj.backoff_s(attempt, eng.core_cfg.clock_hz)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                f"dma-retry {self.desc.tag or 'transfer'}",
                at_s=sim.now,
                category="dma-retry",
                track=f"core{eng.core_id}/dma",
                args={"core": eng.core_id, "attempt": attempt,
                      "wasted_s": wasted, "backoff_s": backoff},
            )
        sim._call_at(sim.now + backoff, self._retry, wasted + backoff)

    def _retry(self, spent: float) -> None:
        eng = self.engine
        inj = eng.faults
        eng.retries += 1
        eng.retry_s += spent
        inj.count("dma_retries")
        inj.count("dma_retry_s", spent)
        self._startup()

    def _complete(self) -> None:
        self.succeed()
