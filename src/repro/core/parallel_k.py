"""ftIMM's K-dimension parallelization (Alg. 5).

For GEMMs where both M and N are small and K is huge (the skinny-tall x
tall-skinny case), neither the N loop (TGEMM) nor the M loop can feed
eight cores.  Alg. 5 splits K instead: each core accumulates a *partial*
``C_a`` over its ``k_a`` chunks, and partials are reduced across cores
through GSM — data reuse is preserved at the price of a per-tile reduction,
which is why this strategy is reserved for small-M/N shapes and why its
scaling is the weakest in Fig. 6.

Two ping-pong levels overlap DMA and compute within a core: B_a tiles
across the core's K chunks and A_s row groups within a tile.  A cluster
SYNC implements the reduction (modeled cost from
:func:`repro.hw.cluster.reduction_seconds`; functional mode sums the
per-core partial buffers and accumulates into C).
"""

from __future__ import annotations

import numpy as np

from ..hw.cluster import reduction_seconds
from ..hw.config import ClusterConfig
from ..hw.memory import MemKind
from ..kernels.registry import KernelRegistry
from .blocking import FP32, KPlan, adjust_k_plan
from .lowering import GemmOperands, LoweringContext, Window, block_ranges
from .plans import GemmExecution, OpStreamBuilder
from .shapes import GemmShape


def build_parallel_k(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: KPlan | None = None,
    data: GemmOperands | None = None,
    registry: KernelRegistry | None = None,
    *,
    adjust: bool = True,
    pingpong: bool = True,
    kernel_exec: str = "numpy",
) -> GemmExecution:
    """Lower a GEMM to the K-parallel strategy's op streams.

    ``pingpong=False`` single-buffers B_a and A_s (double-buffering
    ablation).  ``kernel_exec`` selects how KERNEL closures compute (see
    :class:`~repro.core.lowering.LoweringContext`).  With ``data`` the
    plan is a functional template (see :func:`build_parallel_m`).
    """
    if plan is None:
        plan = KPlan()
    if adjust:
        plan = adjust_k_plan(plan, shape, cluster)
    else:
        plan = plan.validate(cluster)
    ctx = LoweringContext(
        cluster, shape, data, registry, dtype=plan.dtype,
        kernel_exec=kernel_exec,
    )
    n_cores = cluster.n_cores
    builder = OpStreamBuilder(n_cores)
    m, n, k = shape.m, shape.n, shape.k
    core_cfg = cluster.core

    n_slots = 2 if pingpong else 1
    b_a = [
        ctx.alloc(MemKind.AM, c, plan.k_a, plan.n_a, "B_a", slots=n_slots)
        for c in range(n_cores)
    ]
    c_a = [
        ctx.alloc(MemKind.AM, c, plan.m_a, plan.n_a, "C_a", slots=1)
        for c in range(n_cores)
    ]
    a_s = [
        ctx.alloc(MemKind.SM, c, plan.m_s, plan.k_a, "A_s", slots=n_slots)
        for c in range(n_cores)
    ]
    # C_g staging in GSM for the reduction (capacity accounting; the
    # functional reduction reads/writes DDR C directly, which is
    # numerically identical)
    gsm_rows = min(plan.m_g, max(m, 1))
    gsm_cols = min(plan.n_g, max(n, 1))
    ctx.alloc(MemKind.GSM, 0, gsm_rows, gsm_cols, "C_g", slots=1)

    k_chunks = list(block_ranges(k, plan.k_a))
    n_active = min(n_cores, len(k_chunks))

    for _i_idx, i0, mgr in block_ranges(m, plan.m_g):
        for _j_idx, j0, ngr in block_ranges(n, plan.n_g):
            for _ii_idx, ii0, mar in block_ranges(mgr, plan.m_a):
                for _jj_idx, jj0, nar in block_ranges(ngr, plan.n_a):
                    # zero the per-core C_a partials (VPU store pass in AM)
                    init_cycles = max(
                        1, mar * nar * plan.esize // core_cfg.am_bytes_per_cycle
                    )
                    for core in range(n_cores):
                        zrun = None
                        if ctx.backed:
                            ca_arr = c_a[core][0].array()

                            def zrun(ca_arr=ca_arr) -> None:
                                ca_arr[:] = 0.0

                        idx = builder.kernel(
                            core,
                            init_cycles,
                            0,
                            extra_deps=(),
                            run=zrun,
                            tag="C_a=0",
                        )
                        builder.consume(core, "C_a", 0, idx)  # placeholder
                    # each core accumulates its round-robin K chunks
                    local_counts = [0] * n_cores
                    for t_idx, t0, kc in k_chunks:
                        core = t_idx % n_cores
                        bslot = local_counts[core] % n_slots
                        local_counts[core] += 1
                        ba_buf = b_a[core][bslot]
                        builder.dma(
                            core,
                            ctx.desc(MemKind.DDR, MemKind.AM, kc, nar, "B->B_a"),
                            buffer="B_a",
                            slot=bslot,
                            run=ctx.copy_in(
                                ba_buf, Window("b", t0, j0 + jj0), kc, nar, core
                            ),
                            tag="B->B_a",
                        )
                        for u_idx, u0, ms_r in block_ranges(mar, plan.m_s):
                            aslot = u_idx % n_slots
                            as_buf = a_s[core][aslot]
                            builder.dma(
                                core,
                                ctx.desc(
                                    MemKind.DDR, MemKind.SM, ms_r, kc, "A->A_s"
                                ),
                                buffer="A_s",
                                slot=aslot,
                                run=ctx.copy_in(
                                    as_buf,
                                    Window("a", i0 + ii0 + u0, t0),
                                    ms_r,
                                    kc,
                                    core,
                                ),
                                tag="A->A_s",
                            )
                            kern = ctx.registry.ftimm(ms_r, nar, kc, plan.dtype)
                            kidx = builder.kernel(
                                core,
                                kern.cycles,
                                kern.flops,
                                reads=(("A_s", aslot), ("B_a", bslot)),
                                run=ctx.kernel_call(
                                    kern, as_buf, ba_buf, c_a[core][0], ms_r,
                                    nar, kc, core, c_row=u0,
                                ),
                                tag=f"mk{ms_r}x{nar}x{kc}",
                            )
                            builder.consume(core, "B_a", bslot, kidx)
                            builder.consume(core, "C_a", 0, kidx)
                    # GSM reduction of the partials + accumulate into C
                    red_s = reduction_seconds(
                        cluster, mar * nar * plan.esize, n_active
                    )
                    runs = None
                    if ctx.backed:
                        partials = [
                            c_a[core][0].array()[:mar, :nar]
                            for core in range(n_cores)
                        ]

                        def reduce_run(
                            partials=partials,
                            r0=i0 + ii0,
                            c0=j0 + jj0,
                            mar=mar,
                            nar=nar,
                        ) -> None:
                            c_view = ctx.data.c[r0 : r0 + mar, c0 : c0 + nar]
                            total = np.zeros((mar, nar), dtype=c_view.dtype)
                            for p in partials:
                                total += p
                            c_view += total

                        runs = {0: reduce_run}
                    builder.sync(
                        seconds=red_s, runs=runs, tag=f"reduce[{ii0},{jj0}]"
                    )

    return builder.finish(
        shape,
        "ftimm-k",
        cluster,
        plan=plan,
        kernel_exec=ctx.kernel_exec,
        n_active=n_active,
        peak_am=max(s.peak_used for s in ctx.spaces.am),
        peak_sm=max(s.peak_used for s in ctx.spaces.sm),
        peak_gsm=ctx.spaces.gsm.peak_used,
        context=ctx,
    )
