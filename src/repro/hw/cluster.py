"""GPDSP-cluster assemblies.

Two views of a cluster exist, matching the two execution modes:

* :class:`ClusterSpaces` — just the memory spaces (DDR, GSM, per-core SM/AM),
  used by the functional executor to enforce capacities while computing real
  results with NumPy.
* :class:`ClusterSim` — the discrete-event world: shared DDR/GSM bandwidth
  channels, one DMA engine + one compute pipeline per core, and a barrier,
  used by the timed executor.
"""

from __future__ import annotations

from ..errors import ConfigError
from .bandwidth import LocalChannel, SharedChannel
from .config import ClusterConfig
from .dma import Channel, DmaEngine
from .event_sim import Event, Resource, Simulator
from .memory import MemKind, MemorySpace

#: DDR is modeled as effectively unbounded for allocation purposes; the
#: operands of the largest experiment (M = 2^22) would occupy ~4 GB.
_DDR_CAPACITY = 1 << 40


class ClusterSpaces:
    """Memory spaces of one cluster, for capacity-checked functional runs.

    Backed buffers in the on-chip spaces (GSM, AM, SM) are views into
    the cluster configuration's shared scratch arenas
    (:func:`~repro.hw.memory.scratch_arena`), never fresh arrays.
    """

    def __init__(self, cfg: ClusterConfig) -> None:
        self.cfg = cfg
        self.ddr = MemorySpace("ddr", MemKind.DDR, _DDR_CAPACITY)
        self.gsm = MemorySpace(
            "gsm", MemKind.GSM, cfg.gsm_bytes, arena_owner=cfg
        )
        self.am = [
            MemorySpace(f"am{i}", MemKind.AM, cfg.core.am_bytes, arena_owner=cfg)
            for i in range(cfg.n_cores)
        ]
        self.sm = [
            MemorySpace(f"sm{i}", MemKind.SM, cfg.core.sm_bytes, arena_owner=cfg)
            for i in range(cfg.n_cores)
        ]

    def space(self, kind: MemKind, core_id: int = 0) -> MemorySpace:
        if kind is MemKind.DDR:
            return self.ddr
        if kind is MemKind.GSM:
            return self.gsm
        if not 0 <= core_id < self.cfg.n_cores:
            raise ConfigError(f"core id {core_id} outside cluster")
        return self.am[core_id] if kind is MemKind.AM else self.sm[core_id]

    def reset(self) -> None:
        for space in [self.ddr, self.gsm, *self.am, *self.sm]:
            space.reset()

    def peak_report(self) -> dict[str, int]:
        """Peak bytes used per space — handy for blocking-plan diagnostics."""
        report = {"gsm": self.gsm.peak_used}
        for i, (a, s) in enumerate(zip(self.am, self.sm)):
            report[f"am{i}"] = a.peak_used
            report[f"sm{i}"] = s.peak_used
        return report


class CoreSim:
    """DES resources of one DSP core: a DMA engine and a compute pipeline."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        cluster_cfg: ClusterConfig,
        channels: dict[MemKind, Channel],
        faults=None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.cfg = cluster_cfg.core
        self.dma = DmaEngine(
            sim, core_id, cluster_cfg.core, cluster_cfg.dma, channels,
            faults=faults,
        )
        #: the vector pipeline runs one micro-kernel at a time.
        self.compute = Resource(sim, 1, name=f"vpu{core_id}")
        self.compute_cycles = 0
        self.busy_time = 0.0

    def run_kernel(self, cycles: int, tag: str = "") -> Event:
        """Occupy the compute pipeline for ``cycles`` cycles."""
        return self.sim.process(self._compute(cycles), name=f"k{self.core_id}:{tag}")

    def _compute(self, cycles: int):
        yield self.compute.request()
        try:
            duration = cycles / self.cfg.clock_hz
            self.compute_cycles += cycles
            self.busy_time += duration
            yield self.sim.timeout(duration)
        finally:
            self.compute.release()


class ClusterSim:
    """The full DES world for one GPDSP cluster."""

    def __init__(
        self,
        cfg: ClusterConfig,
        sim: Simulator | None = None,
        *,
        record_bandwidth: bool = False,
        faults=None,
    ) -> None:
        self.cfg = cfg
        self.sim = sim or Simulator()
        achieved_ddr = cfg.ddr_bandwidth * cfg.dma.ddr_efficiency
        degradation = None
        if faults is not None and faults.plan.ddr_degradation:
            degradation = [
                (w.start_s, w.end_s, w.factor)
                for w in faults.plan.ddr_degradation
            ]
        self.ddr_channel = SharedChannel(
            self.sim, achieved_ddr, name="ddr",
            per_flow_cap=cfg.dma.channel_bandwidth,
            record_timeline=record_bandwidth,
            degradation=degradation,
        )
        self.gsm_channel = SharedChannel(self.sim, cfg.gsm_bandwidth, name="gsm")
        local_bw = cfg.core.am_bytes_per_cycle * cfg.core.clock_hz
        channels: dict[MemKind, Channel] = {
            MemKind.DDR: self.ddr_channel,
            MemKind.GSM: self.gsm_channel,
            MemKind.AM: LocalChannel(self.sim, local_bw, name="local"),
        }
        channels[MemKind.SM] = channels[MemKind.AM]
        self.cores = [
            CoreSim(self.sim, i, cfg, channels, faults=faults)
            for i in range(cfg.n_cores)
        ]

    def barrier(self, arrivals: list[Event], tag: str = "") -> Event:
        """All-cores synchronization: fires ``barrier_cycles`` after the last
        arrival event."""
        gathered = self.sim.all_of(arrivals, name=f"barrier:{tag}")
        done = self.sim.event(name=f"barrier_done:{tag}")
        delay = self.cfg.barrier_cycles / self.cfg.core.clock_hz

        def _release(_ev: Event) -> None:
            released = self.sim.timeout(delay)
            released.wait(lambda _e: done.succeed(None))

        gathered.wait(_release)
        return done

    def reduction_seconds(self, nbytes: int, n_cores: int) -> float:
        return reduction_seconds(self.cfg, nbytes, n_cores)

    def elapsed(self) -> float:
        return self.sim.now


def reduction_seconds(cfg: ClusterConfig, nbytes: int, n_cores: int) -> float:
    """Cost of a GSM-based all-reduce of an ``nbytes`` partial per core.

    Model (Alg. 5, line 12): every core writes its partial tile to GSM,
    then the cores cooperatively read all partials back, add them, and
    one result is written to DDR.  Traffic: ``n_cores`` writes +
    ``n_cores`` reads of the tile over the GSM crossbar, plus one
    DDR write, plus the vector adds (3 FMAC-equivalent add units).
    This overhead grows with core count — the reason the K-parallel
    strategy scales worst in the paper's Fig. 6.
    """
    if n_cores <= 1:
        return nbytes / cfg.ddr_bandwidth
    gsm_traffic = 2.0 * n_cores * nbytes
    t_gsm = gsm_traffic / cfg.gsm_bandwidth
    t_ddr = nbytes / cfg.ddr_bandwidth
    lanes = cfg.core.fma_lanes_per_cycle * 4  # bytes of adds per cycle
    add_cycles = (n_cores - 1) * nbytes / (lanes * max(1, n_cores))
    t_add = add_cycles / cfg.core.clock_hz
    t_barrier = cfg.barrier_cycles / cfg.core.clock_hz
    return t_gsm + t_ddr + t_add + t_barrier
