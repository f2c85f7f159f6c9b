"""TGEMM — the traditional GEMM implementation (Alg. 1), as the baseline.

Loop structure (Goto-style, adapted to FT-m7032 by [23], [24]):

* A is staged through GSM in ``m_g x k_g`` panels (``A_g``, ping-pong);
* the N dimension is split in ``n_a``-wide strips, **and this is the only
  multi-core parallel loop** — with ``N <= 96`` a single strip exists and
  only one DSP core computes, which is TGEMM's structural weakness on
  irregular shapes (Section III-C, problem 2);
* per strip, ``B_a`` (``k_g x n_a``) and ``C_a`` (``m_g x n_a``) live in AM
  (both ping-pong), ``A_s`` (``m_s x k_g``) in SM (ping-pong), and the fixed
  6x96 micro-kernel runs with implicit padding (problem 1).

The A_g panel loads are split across all cores' DMA engines (cooperative
fill); a cluster barrier separates panel fill from use, with the standard
two-slot discipline letting panel ``j+1`` stream in while panel ``j`` is
consumed.
"""

from __future__ import annotations

from ..errors import PlanError
from ..hw.config import ClusterConfig
from ..hw.memory import MemKind
from ..kernels.registry import KernelRegistry
from .blocking import TgemmPlan
from .lowering import GemmOperands, LoweringContext, Window, block_ranges
from .plans import GemmExecution, OpStreamBuilder
from .shapes import GemmShape


def build_tgemm(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: TgemmPlan | None = None,
    data: GemmOperands | None = None,
    registry: KernelRegistry | None = None,
    *,
    kernel_exec: str = "numpy",
) -> GemmExecution:
    """Lower a GEMM to TGEMM's op streams."""
    plan = (plan or TgemmPlan()).validate(cluster)
    ctx = LoweringContext(
        cluster, shape, data, registry, kernel_exec=kernel_exec
    )
    n_cores = cluster.n_cores
    builder = OpStreamBuilder(n_cores)
    m, n, k = shape.m, shape.n, shape.k

    # on-chip buffers: A_g in GSM (shared); per-core B_a / C_a in AM and
    # A_s in SM.  Only cores that own an N-strip ever touch their AM/SM
    # tiles, but TGEMM allocates them unconditionally (static layout).
    a_g = ctx.alloc(MemKind.GSM, 0, plan.m_g, plan.k_g, "A_g", slots=2)
    b_a = [
        ctx.alloc(MemKind.AM, c, plan.k_g, plan.n_a, "B_a", slots=2)
        for c in range(n_cores)
    ]
    c_a = [
        ctx.alloc(MemKind.AM, c, plan.m_g, plan.n_a, "C_a", slots=2)
        for c in range(n_cores)
    ]
    a_s = [
        ctx.alloc(MemKind.SM, c, plan.m_s, plan.k_g, "A_s", slots=2)
        for c in range(n_cores)
    ]

    for _i_idx, i0, mr in block_ranges(m, plan.m_g):
        for j_idx, j0, kc in block_ranges(k, plan.k_g):
            jslot = j_idx % 2
            ag_buf = a_g[jslot]
            # cooperative fill of the shared A_g panel
            for core, rs, re in ctx.split_rows(mr):
                builder.dma(
                    core,
                    ctx.desc(MemKind.DDR, MemKind.GSM, re, kc, "A->A_g"),
                    run=ctx.copy_in(
                        ag_buf, Window("a", i0 + rs, j0), re, kc, core, row=rs
                    ),
                    tag="A->A_g",
                )
            builder.sync(tag=f"A_g[{i0},{j0}] ready")

            # the parallel loop: N-strips round-robin across cores
            for t_idx, t0, nc in block_ranges(n, plan.n_a):
                core = t_idx % n_cores
                tslot = t_idx % 2
                ba_buf = b_a[core][tslot]
                ca_buf = c_a[core][tslot]
                c_tile = Window("c", i0, t0)
                builder.dma(
                    core,
                    ctx.desc(MemKind.DDR, MemKind.AM, kc, nc, "B->B_a"),
                    buffer="B_a",
                    slot=tslot,
                    run=ctx.copy_in(ba_buf, Window("b", j0, t0), kc, nc, core),
                    tag="B->B_a",
                )
                builder.dma(
                    core,
                    ctx.desc(MemKind.DDR, MemKind.AM, mr, nc, "C->C_a"),
                    buffer="C_a",
                    slot=tslot,
                    run=ctx.copy_in(ca_buf, c_tile, mr, nc, core),
                    tag="C->C_a",
                )
                last_kernel = -1
                for ii_idx, ii0, ms_r in block_ranges(mr, plan.m_s):
                    aslot = ii_idx % 2
                    as_buf = a_s[core][aslot]
                    builder.dma(
                        core,
                        ctx.desc(MemKind.GSM, MemKind.SM, ms_r, kc, "A_g->A_s"),
                        buffer="A_s",
                        slot=aslot,
                        run=ctx.copy_in(
                            as_buf, Window(ag_buf, ii0, 0), ms_r, kc, core
                        ),
                        tag="A_g->A_s",
                    )
                    kern = ctx.registry.tgemm(ms_r, nc, kc)
                    last_kernel = builder.kernel(
                        core,
                        kern.cycles,
                        kern.flops,
                        reads=(("A_s", aslot), ("B_a", tslot), ("C_a", tslot)),
                        run=ctx.kernel_call(
                            kern, as_buf, ba_buf, ca_buf, ms_r, nc, kc, core,
                            c_row=ii0,
                        ),
                        tag=f"mk{ms_r}x{nc}x{kc}",
                    )
                out_idx = builder.dma(
                    core,
                    ctx.desc(MemKind.AM, MemKind.DDR, mr, nc, "C_a->C"),
                    extra_deps=(last_kernel,) if last_kernel >= 0 else (),
                    run=ctx.copy_out(c_tile, ca_buf, mr, nc, core),
                    tag="C_a->C",
                )
                builder.consume(core, "C_a", tslot, out_idx)
                builder.consume(core, "B_a", tslot, out_idx if last_kernel < 0 else last_kernel)

    if shape.n == 0:
        raise PlanError("empty GEMM")
    return builder.finish(
        shape,
        "tgemm",
        cluster,
        plan=plan,
        kernel_exec=ctx.kernel_exec,
        peak_am=max(s.peak_used for s in ctx.spaces.am),
        peak_sm=max(s.peak_used for s in ctx.spaces.sm),
        peak_gsm=ctx.spaces.gsm.peak_used,
        context=ctx,
    )
