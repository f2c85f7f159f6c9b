"""Functional execution of a lowered plan.

Replays every op's closure in global emission order (``Op.seq``, sorted
once per plan — a cached template replays without re-sorting).  The
drivers emit in the sequential order of the paper's algorithms, so this
computes the exact blocked result — including TGEMM's implicit padding,
the K-parallel partial-sum reduction, and every edge/remainder tile —
while the capacity checks already happened at lowering time.

This is the path the correctness tests drive: for random shapes,
``run_functional`` must reproduce ``C + A @ B`` to float32 accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.plans import GemmExecution, OpKind


@dataclass
class FunctionalReport:
    """What happened during a functional replay."""

    ops_executed: int
    dma_ops: int
    kernel_ops: int
    sync_ops: int
    bytes_moved: int
    flops: int
    #: how KERNEL closures computed ("numpy", "compiled" or "interp")
    kernel_exec: str = "numpy"


def run_functional(execution: GemmExecution, faults=None) -> FunctionalReport:
    """Run all op closures; the bound C operand is updated.

    ``faults`` (a :class:`~repro.faults.inject.FaultInjector`) arms the
    core-failure model for this mode: before each op runs, the owning
    core's executed-op count is checked against the armed fault, raising
    :class:`~repro.errors.CoreFailureError` once it trips.  Tile-level
    corruption is injected inside the closures themselves (the lowering
    context routes copies and kernel applications through the injector's
    guards), so a replay either computes the exact blocked result or
    raises — never returns silently wrong data.
    """
    if faults is None:
        for run in execution.replay_runs:
            run()
    else:
        ops_done = [0] * len(execution.core_ops)
        for op in execution.replay_ops:
            faults.check_core_alive_functional(op.core, ops_done[op.core])
            ops_done[op.core] += 1
            if op.run is not None:
                op.run()
    counts = execution.op_counts
    return FunctionalReport(
        ops_executed=sum(counts.values()),
        dma_ops=counts[OpKind.DMA],
        kernel_ops=counts[OpKind.KERNEL],
        sync_ops=counts[OpKind.SYNC],
        bytes_moved=execution.total_dma_bytes,
        flops=execution.total_flops,
        kernel_exec=execution.meta.get("kernel_exec", "numpy"),
    )
