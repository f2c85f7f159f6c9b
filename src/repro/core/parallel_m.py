"""ftIMM's M-dimension parallelization (Alg. 4).

The roles of GSM and the parallel loop are inverted relative to TGEMM:
the *shared* operand B (small, since ``N <= 96``) is cached in GSM, and the
abundant M dimension is split across cores in ``m_a`` chunks — every core
computes on its own private rows of A and C streamed straight from DDR, so
all eight cores are busy regardless of N.  Three ping-pong levels overlap
DMA with compute: B_g panels across ``k_g`` chunks, B_a tiles across
``k_a`` chunks, and A_s row-groups across ``m_s`` steps.  C_a stays
resident in AM for a whole ``(t, ii)`` tile (single-buffered — with the
paper's blocks, B_a double + C_a single fill AM to the exact byte).
"""

from __future__ import annotations

from ..hw.config import ClusterConfig
from ..hw.memory import MemKind
from ..kernels.registry import KernelRegistry
from .blocking import MPlan, adjust_m_plan
from .lowering import GemmOperands, LoweringContext, Window, block_ranges
from .plans import GemmExecution, OpStreamBuilder
from .shapes import GemmShape


def build_parallel_m(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: MPlan | None = None,
    data: GemmOperands | None = None,
    registry: KernelRegistry | None = None,
    *,
    adjust: bool = True,
    pingpong: bool = True,
    kernel_exec: str = "numpy",
) -> GemmExecution:
    """Lower a GEMM to the M-parallel strategy's op streams.

    ``pingpong=False`` single-buffers every tile (the ablation of the
    paper's double-buffering scheme): each DMA then serializes against the
    compute consuming its buffer.  ``kernel_exec`` selects how KERNEL
    closures compute (see :class:`~repro.core.lowering.LoweringContext`).
    With ``data`` the plan is a functional template: its closures read
    the operands (and fault injector) bound to it when they run.
    """
    if plan is None:
        plan = MPlan()
    if adjust:
        plan = adjust_m_plan(plan, shape, cluster)
    else:
        plan = plan.validate(cluster)
    ctx = LoweringContext(
        cluster, shape, data, registry, dtype=plan.dtype,
        kernel_exec=kernel_exec,
    )
    n_cores = cluster.n_cores
    builder = OpStreamBuilder(n_cores)
    m, n, k = shape.m, shape.n, shape.k

    n_slots = 2 if pingpong else 1
    b_g = ctx.alloc(MemKind.GSM, 0, plan.k_g, plan.n_g, "B_g", slots=n_slots)
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

    for _i_idx, i0, ncg in block_ranges(n, plan.n_g):
        for j_idx, j0, kcg in block_ranges(k, plan.k_g):
            jslot = j_idx % n_slots
            bg_buf = b_g[jslot]
            # cooperative fill of the shared B_g panel (DDR -> GSM)
            for core, rs, re in ctx.split_rows(kcg):
                builder.dma(
                    core,
                    ctx.desc(MemKind.DDR, MemKind.GSM, re, ncg, "B->B_g"),
                    run=ctx.copy_in(
                        bg_buf, Window("b", j0 + rs, i0), re, ncg, core, row=rs
                    ),
                    tag="B->B_g",
                )
            builder.sync(tag=f"B_g[{j0},{i0}] ready")

            # the parallel loop: m_a chunks of M round-robin across cores
            for t_idx, t0, mr in block_ranges(m, plan.m_a):
                core = t_idx % n_cores
                ca_buf = c_a[core][0]
                for _ii_idx, ii0, nc in block_ranges(ncg, plan.n_a):
                    c_tile = Window("c", t0, i0 + ii0)
                    builder.dma(
                        core,
                        ctx.desc(MemKind.DDR, MemKind.AM, mr, nc, "C->C_a"),
                        buffer="C_a",
                        slot=0,
                        run=ctx.copy_in(ca_buf, c_tile, mr, nc, core),
                        tag="C->C_a",
                    )
                    last_kernel = -1
                    for jj_idx, jj0, kc in block_ranges(kcg, plan.k_a):
                        bslot = jj_idx % n_slots
                        ba_buf = b_a[core][bslot]
                        builder.dma(
                            core,
                            ctx.desc(MemKind.GSM, MemKind.AM, kc, nc, "B_g->B_a"),
                            buffer="B_a",
                            slot=bslot,
                            run=ctx.copy_in(
                                ba_buf, Window(bg_buf, jj0, ii0), kc, nc, core
                            ),
                            tag="B_g->B_a",
                        )
                        for tt_idx, tt0, ms_r in block_ranges(mr, plan.m_s):
                            aslot = tt_idx % n_slots
                            as_buf = a_s[core][aslot]
                            builder.dma(
                                core,
                                ctx.desc(MemKind.DDR, MemKind.SM, ms_r, kc, "A->A_s"),
                                buffer="A_s",
                                slot=aslot,
                                run=ctx.copy_in(
                                    as_buf,
                                    Window("a", t0 + tt0, j0 + jj0),
                                    ms_r,
                                    kc,
                                    core,
                                ),
                                tag="A->A_s",
                            )
                            kern = ctx.registry.ftimm(ms_r, nc, kc, plan.dtype)
                            last_kernel = builder.kernel(
                                core,
                                kern.cycles,
                                kern.flops,
                                reads=(("A_s", aslot), ("B_a", bslot), ("C_a", 0)),
                                run=ctx.kernel_call(
                                    kern, as_buf, ba_buf, ca_buf, ms_r, nc, kc,
                                    core, c_row=tt0,
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
                    builder.consume(core, "C_a", 0, out_idx)

    return builder.finish(
        shape,
        "ftimm-m",
        cluster,
        plan=plan,
        kernel_exec=ctx.kernel_exec,
        peak_am=max(s.peak_used for s in ctx.spaces.am),
        peak_sm=max(s.peak_used for s in ctx.spaces.sm),
        peak_gsm=ctx.spaces.gsm.peak_used,
        context=ctx,
    )
