"""ftIMM's top-level entry points.

:func:`ftimm_gemm` reproduces the library call the paper describes: given
an irregular-shaped single-precision GEMM, dynamically choose the
parallelization strategy and block sizes, generate/select micro-kernels,
and execute — here on the simulated FT-m7032 cluster, returning both the
numerical result (when operands are supplied) and the modeled performance.

:func:`tgemm_gemm` is the traditional baseline under the identical
interface, and :func:`gemm` dispatches between them.

Functional execution is *lower once, bind many*: the first call with a
given (shape, tuning decision, cluster, dtype, kernel execution mode)
lowers a data-independent op-stream template through the ``build_*``
drivers and caches it; every later call with that key attaches its own
operands and fault injector to the cached template, replays it and
detaches (:func:`_replay`).  Tile scratch lives in the cluster's shared
arenas, so the cache holds op graphs, not per-template memory.

Timing modes:

* ``"des"``      — discrete-event simulation (exact overlap/contention);
* ``"analytic"`` — closed-form composition (for huge shapes);
* ``"auto"``     — DES when the lowered plan is small enough, else
  analytic (the two agree within tolerance on their overlap domain).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Literal

import numpy as np

from ..errors import CoreFailureError, PlanError
from ..executor.analytic import (
    analytic_parallel_k,
    analytic_parallel_m,
    analytic_tgemm,
)
from ..executor.functional import FunctionalReport, run_functional
from ..executor.timed import TimedResult, run_timed
from ..faults.inject import FaultInjector, FaultReport
from ..faults.plan import FaultPlan
from ..hw.config import ClusterConfig, MachineConfig, default_machine
from ..kernels.registry import KernelRegistry, registry_for
from ..obs.registry import current as _obs_current
from ..obs.trace import current_tracer, maybe_scope
from .blocking import KPlan, MPlan, TgemmPlan
from .lowering import GemmOperands
from .parallel_k import build_parallel_k
from .parallel_m import build_parallel_m
from .plans import GemmExecution
from .shapes import GemmShape
from .tgemm import build_tgemm
from .tuner import Strategy, TuningDecision, tune

TimingMode = Literal["auto", "des", "analytic", "none"]

#: above roughly this many ops, "auto" switches from DES to analytic.
_DES_OP_LIMIT = 60_000


@dataclass
class GemmResult:
    """Outcome of one (simulated) GEMM call."""

    shape: GemmShape
    strategy: str
    decision: TuningDecision | None
    timing: TimedResult | None
    functional: FunctionalReport | None
    timing_mode: str
    n_cores: int
    #: set whenever a fault plan was supplied — what the run survived and
    #: what surviving cost (all-zero when the plan injected nothing)
    faults: FaultReport | None = None

    @property
    def seconds(self) -> float:
        if self.timing is None:
            raise PlanError("no timing was requested (timing_mode='none')")
        return self.timing.seconds

    @property
    def gflops(self) -> float:
        return self.timing.gflops if self.timing else 0.0

    @property
    def efficiency(self) -> float:
        return self.timing.efficiency if self.timing else 0.0


def _estimate_ops(shape: GemmShape, decision: TuningDecision) -> int:
    """Rough lowered-op count, to pick DES vs analytic in auto mode."""
    if decision.strategy == "m":
        p = decision.m_plan
        kernels = (
            math.ceil(shape.m / p.m_s)
            * math.ceil(shape.k / p.k_a)
            * math.ceil(shape.n / p.n_a)
        )
    elif decision.strategy == "k":
        p = decision.k_plan
        kernels = math.ceil(shape.m / p.m_s) * math.ceil(shape.k / p.k_a)
    else:
        p = decision.tgemm_plan
        kernels = (
            math.ceil(shape.m / p.m_s)
            * math.ceil(shape.k / p.k_g)
            * math.ceil(shape.n / p.n_a)
        )
    return 2 * kernels + 16


def _lower(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    data: GemmOperands | None,
    registry: KernelRegistry,
    kernel_exec: str = "numpy",
) -> GemmExecution:
    """Lower one call uncached: timing-only plans and template misses."""
    if decision.strategy == "m":
        return build_parallel_m(
            shape, cluster, plan=decision.m_plan, data=data,
            registry=registry, adjust=False, kernel_exec=kernel_exec,
        )
    if decision.strategy == "k":
        return build_parallel_k(
            shape, cluster, plan=decision.k_plan, data=data,
            registry=registry, adjust=False, kernel_exec=kernel_exec,
        )
    return build_tgemm(
        shape, cluster, plan=decision.tgemm_plan, data=data,
        registry=registry, kernel_exec=kernel_exec,
    )


class TemplateCache:
    """Functional op-stream templates, one per lowering key, LRU-bounded.

    A miss lowers through ``lower`` (counted as
    ``core/lowering/templates``); a hit returns the cached template
    (counted as ``core/lowering/binds``).  Templates hold no operands
    between calls, and their tile buffers are views into the shared
    scratch arenas, so only op graphs accumulate here.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._templates: OrderedDict[Hashable, GemmExecution] = OrderedDict()

    def lookup(
        self, key: Hashable, lower: Callable[[], GemmExecution]
    ) -> GemmExecution:
        m = _obs_current()
        template = self._templates.get(key)
        if template is None:
            template = lower()
            self._templates[key] = template
            if len(self._templates) > self.capacity:
                self._templates.popitem(last=False)
            if m is not None:
                m.counter("core/lowering/templates").inc()
        else:
            self._templates.move_to_end(key)
            if m is not None:
                m.counter("core/lowering/binds").inc()
        return template

    def clear(self) -> None:
        """Drop every template (tests compare against cold lowerings)."""
        self._templates.clear()

    def keys(self):
        return self._templates.keys()

    def values(self):
        return self._templates.values()

    def __len__(self) -> int:
        return len(self._templates)


#: the process-wide template cache of :func:`_replay`
TEMPLATES = TemplateCache()


def _replay(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    data: GemmOperands,
    registry: KernelRegistry,
    *,
    dtype: str = "f32",
    kernel_exec: str = "numpy",
    faults: FaultInjector | None = None,
) -> FunctionalReport:
    """Compute ``C += A @ B`` into ``data.c`` with the cached template.

    The template is looked up (or lowered) by key, ``data`` and
    ``faults`` are attached for one replay, and detached again however
    the replay ends.
    """
    template = TEMPLATES.lookup(
        (shape, decision, cluster, dtype, kernel_exec),
        lambda: _lower(shape, cluster, decision, data, registry, kernel_exec),
    )
    with template.bound(data, faults):
        return run_functional(template, faults=faults)


def _retune(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    dtype: str,
) -> TuningDecision:
    """Re-plan the same strategy for a reduced (post-failure) cluster."""
    return tune(
        shape, cluster, force_strategy=decision.strategy, adjust=True,
        dtype=dtype,
    )


def _analytic(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    registry: KernelRegistry,
) -> TimedResult:
    if decision.strategy == "m":
        return analytic_parallel_m(shape, cluster, decision.m_plan, registry)
    if decision.strategy == "k":
        return analytic_parallel_k(shape, cluster, decision.k_plan, registry)
    return analytic_tgemm(shape, cluster, decision.tgemm_plan, registry)


def _run(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    *,
    a: np.ndarray | None,
    b: np.ndarray | None,
    c: np.ndarray | None,
    timing: TimingMode,
    dtype: str = "f32",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    registry = registry_for(cluster.core)
    data = None
    if a is not None or b is not None or c is not None:
        if a is None or b is None or c is None:
            raise PlanError("provide all of a, b, c or none of them")
        data = GemmOperands.check(shape, a, b, c, dtype=dtype)

    if faults is not None:
        return _run_resilient(
            shape, cluster, decision, data=data, timing=timing, dtype=dtype,
            kernel_exec=kernel_exec, plan=faults, registry=registry,
        )

    with maybe_scope(
        f"gemm {shape.m}x{shape.n}x{shape.k}",
        category="gemm",
        track="gemm",
        args={"strategy": decision.strategy},
    ) as gscope:
        func_report = None
        if data is not None:
            with maybe_scope("functional", category="phase", track="gemm"):
                func_report = _replay(
                    shape, cluster, decision, data, registry, dtype=dtype,
                    kernel_exec=kernel_exec,
                )

        mode = timing
        if mode == "auto":
            mode = ("des" if _estimate_ops(shape, decision) <= _DES_OP_LIMIT
                    else "analytic")
        timed: TimedResult | None = None
        if mode == "des":
            with maybe_scope("timed/des", category="phase", track="gemm"):
                timed = run_timed(
                    _lower(shape, cluster, decision, None, registry)
                )
        elif mode == "analytic":
            with maybe_scope("timed/analytic", category="phase",
                             track="gemm"):
                timed = _analytic(shape, cluster, decision, registry)
        elif mode != "none":
            raise PlanError(f"unknown timing mode {timing!r}")

        if gscope is not None:
            gscope.args["timing_mode"] = mode
            if timed is not None:
                # modeled extent, anchored at the tracer's sim offset
                gscope.sim_start_s = 0.0
                gscope.sim_end_s = timed.seconds
                gscope.args["modeled_s"] = timed.seconds

    return GemmResult(
        shape=shape,
        strategy=decision.strategy,
        decision=decision,
        timing=timed,
        functional=func_report,
        timing_mode=mode,
        n_cores=cluster.n_cores,
    )


def _run_resilient(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    *,
    data: GemmOperands | None,
    timing: TimingMode,
    dtype: str,
    kernel_exec: str,
    plan: FaultPlan,
    registry: KernelRegistry,
) -> GemmResult:
    """The fault-plan execution path: inject, recover, account honestly.

    Functional and timed execution each run a re-dispatch loop: a
    :class:`~repro.errors.CoreFailureError` restores the C snapshot
    (functional) or accounts the lost simulated time (timed), shrinks the
    cluster by the failed core, re-tunes the *same* strategy for the
    survivors and retries with the next attempt's injector.  A plan's
    ``core_faults`` arm one failure per attempt, so the loop always
    terminates.  Unrecoverable faults (retry budgets exhausted, last core
    lost) propagate as typed :class:`~repro.errors.FaultError`\\ s.

    Timing ``"auto"`` forces DES: injection acts on simulated transfers
    and cores, which the analytic closed forms cannot see.
    """
    report = FaultReport(seed=plan.seed)
    final_cores = cluster.n_cores

    func_report = None
    if data is not None:
        c_snapshot = data.c.copy()
        cluster_f, decision_f = cluster, decision
        attempt = 0
        while True:
            inj = FaultInjector(plan, attempt)
            try:
                func_report = _replay(
                    shape, cluster_f, decision_f, data, registry,
                    dtype=dtype, kernel_exec=kernel_exec, faults=inj,
                )
                report.absorb(inj.counters)
                break
            except CoreFailureError as exc:
                report.absorb(inj.counters)
                if cluster_f.n_cores <= 1:
                    raise
                report.redispatches += 1
                tracer = current_tracer()
                if tracer is not None:
                    tracer.instant(
                        "re-dispatch (functional)",
                        category="redispatch",
                        track="gemm",
                        args={"attempt": attempt, "error": str(exc)},
                    )
                data.c[...] = c_snapshot
                cluster_f = cluster_f.with_cores(cluster_f.n_cores - 1)
                decision_f = _retune(shape, cluster_f, decision, dtype)
                attempt += 1
        final_cores = min(final_cores, cluster_f.n_cores)

    mode = timing
    if mode == "auto":
        mode = "des"  # injection needs the discrete-event timeline
    timed: TimedResult | None = None
    if mode == "des":
        cluster_t, decision_t = cluster, decision
        attempt = 0
        lost_s = 0.0
        while True:
            inj = FaultInjector(plan, attempt)
            try:
                timed = run_timed(
                    _lower(shape, cluster_t, decision_t, None, registry),
                    faults=inj,
                )
                report.absorb(inj.counters)
                break
            except CoreFailureError as exc:
                report.absorb(inj.counters)
                if cluster_t.n_cores <= 1:
                    raise
                report.redispatches += 1
                tracer = current_tracer()
                if tracer is not None:
                    tracer.instant(
                        "re-dispatch (timed)",
                        at_s=lost_s + exc.at_s,
                        category="redispatch",
                        track="gemm",
                        args={"attempt": attempt, "lost_s": exc.at_s,
                              "error": str(exc)},
                    )
                lost_s += exc.at_s
                cluster_t = cluster_t.with_cores(cluster_t.n_cores - 1)
                decision_t = _retune(shape, cluster_t, decision, dtype)
                attempt += 1
        if lost_s:
            # the honest wall clock: work thrown away before each failure
            # plus the completed run on the survivors
            timed = replace(timed, seconds=timed.seconds + lost_s)
        report.lost_s = lost_s
        final_cores = min(final_cores, cluster_t.n_cores)
    elif mode == "analytic":
        timed = _analytic(shape, cluster, decision, registry)
    elif mode != "none":
        raise PlanError(f"unknown timing mode {timing!r}")

    report.final_cores = final_cores
    return GemmResult(
        shape=shape,
        strategy=decision.strategy,
        decision=decision,
        timing=timed,
        functional=func_report,
        timing_mode=mode,
        n_cores=final_cores,
        faults=report,
    )


def ftimm_gemm(
    m: int,
    n: int,
    k: int,
    *,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    c: np.ndarray | None = None,
    machine: MachineConfig | None = None,
    cores: int | None = None,
    timing: TimingMode = "auto",
    force_strategy: Strategy | None = None,
    adjust: bool = True,
    dtype: str = "f32",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    """Run ``C += A @ B`` with ftIMM on the simulated GPDSP cluster.

    With operands the numerical result is computed in ``c`` (in place);
    timing is always modeled unless ``timing='none'``.  ``cores`` restricts
    the cluster (scalability experiments); ``adjust=False`` disables the
    dynamic block adjusting (ablation); ``force_strategy`` pins the
    parallelization strategy; ``dtype="f64"`` runs the double-precision
    extension (N <= 48, float64 operands).  ``kernel_exec`` selects how
    functional kernels compute: ``"numpy"`` (fast), or
    ``"compiled"``/``"interp"`` for ISA-fidelity execution of the
    generated instruction streams.

    ``faults`` arms seeded fault injection with resilient execution: the
    run either completes with the exact blocked result (recoveries and
    their cost reported in ``result.faults``) or raises a typed
    :class:`~repro.errors.FaultError` — never a silent wrong answer.
    """
    shape = GemmShape(m, n, k)
    cluster = (machine or default_machine()).cluster
    if cores is not None:
        cluster = cluster.with_cores(cores)
    decision = tune(
        shape, cluster, force_strategy=force_strategy, adjust=adjust,
        dtype=dtype,
    )
    return _run(
        shape, cluster, decision, a=a, b=b, c=c, timing=timing, dtype=dtype,
        kernel_exec=kernel_exec, faults=faults,
    )


def tgemm_gemm(
    m: int,
    n: int,
    k: int,
    *,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    c: np.ndarray | None = None,
    machine: MachineConfig | None = None,
    cores: int | None = None,
    timing: TimingMode = "auto",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    """Run ``C += A @ B`` with the traditional TGEMM implementation."""
    shape = GemmShape(m, n, k)
    cluster = (machine or default_machine()).cluster
    if cores is not None:
        cluster = cluster.with_cores(cores)
    decision = TuningDecision(
        strategy="tgemm",
        tgemm_plan=TgemmPlan().validate(cluster),
        reason="baseline",
    )
    return _run(
        shape, cluster, decision, a=a, b=b, c=c, timing=timing,
        kernel_exec=kernel_exec, faults=faults,
    )


def gemm(
    m: int,
    n: int,
    k: int,
    *,
    impl: Literal["ftimm", "tgemm"] = "ftimm",
    **kwargs,
) -> GemmResult:
    """Dispatch to :func:`ftimm_gemm` or :func:`tgemm_gemm`."""
    if impl == "ftimm":
        return ftimm_gemm(m, n, k, **kwargs)
    if impl == "tgemm":
        return tgemm_gemm(m, n, k, **kwargs)
    raise PlanError(f"unknown impl {impl!r}")
