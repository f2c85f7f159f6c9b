"""The benchmark's workloads: inputs from a seed, one timed pass, the
output checks and the simulated (FT-m7032 clock) metrics.

Every workload exposes the same four steps, driven by ``run.py``:

* ``setup(seed)`` — draw the inputs, then ``warm(warm_spec)``: warm the
  caches the way the program's own serve warmup does (rule-tune each
  bucket class or shape, which generates its micro-kernels).  The spec
  is a few shapes, so a fresh process can repeat the warmup without
  drawing the inputs (``setup_s``);
* ``run_pass(clock)`` — one timed pass, split into the phases ``serve``
  (serve workloads only), ``tune`` and ``model``, each timed per part
  (see :func:`fastest`); ``clock`` is a :class:`~layers.LayerClock` in
  the traced run, else ``None``;
* ``check(first)`` — output checks of the first pass, outside the timed
  region; ``run.py`` compares every later pass with it as that pass
  finishes (:func:`check_same`) and keeps only its timings;
* ``sim_metrics(first_pass)`` — the simulated-clock metrics, which are
  a pure function of the seed.

A serve workload's ``tune`` phase repeats the plan searches of the
engine's ``warmup_tune="search"`` warmup (each bucket class at its
expected stacked M, the warmup's own arguments); its ``model`` phase
times the *shape set*, every stacked (M, N, K) the batcher can form
(each class of the mix stacked 1 to ``max_batch`` high).  So every
end-to-end metric is defined on every workload.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import os
import time

import numpy as np

from repro import ftimm_gemm, tgemm_gemm
from repro.core.autotune import autotune
from repro.core.blocking import N_MAX
from repro.core.plan_search import PlanDB
from repro.core.shapes import GemmShape
from repro.faults import FaultPlan
from repro.hw.config import default_machine
from repro.serve import (
    DegradePolicy,
    ServeConfig,
    ServeEngine,
    gateway_replay,
    get_mix,
    make_requests,
    serve,
)
from repro.serve.request import COMPLETED, SHED
from repro.serve.scheduler import Scheduler
from repro.serve.server import expected_stack_hints

#: typed shed reasons the engine may give (``shutdown`` needs a gateway
#: closed undrained, which ``gateway_replay`` never does)
SHED_REASONS = {"queue_full", "class_shed", "burn_shed"}

#: nearest-rank p99 needs at least ten samples beyond it
MIN_COMPLETED = 1000


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile (the rule ``ServeReport`` uses)."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _call(clock, layer: str, fn, *args, **kwargs):
    if clock is None:
        return fn(*args, **kwargs)
    return clock.call(layer, fn, *args, **kwargs)


#: requests per timed part of the serve phase
CHUNK = 50

#: the arguments ``Scheduler.warm(tune="search")`` gives ``autotune``
#: (``validate_top=1`` is fixed in ``Scheduler._warm_one``)
WARMUP_SEARCH = {
    "validate_top": 1,
    "transfer_tol": inspect.signature(Scheduler.warm)
    .parameters["transfer_tol"].default,
}

#: the CPUs this process may run on, as started
CPUS = frozenset(os.sched_getaffinity(0))


def _spin() -> None:
    """A fixed pure-Python loop (a few ms): the CPU speed probe."""
    s = 0
    for i in range(30_000):
        s += i * i % 7


def pin_fastest_cpu() -> None:
    """Pin this process to the CPU of :data:`CPUS` that spins fastest.

    On a shared VM one vCPU can run ~1.4x slower than another for tens
    of seconds (co-tenants on its core), long enough to slow a whole
    run; choosing the faster one before each phase keeps most of that
    out of the host timings.  Single-threaded work only: BLAS and the
    plan search run one thread here.
    """
    def spin_s(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        _spin()  # settle after the migration
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            _spin()
            best = min(best, time.perf_counter() - t0)
        return best

    os.sched_setaffinity(0, {min(sorted(CPUS), key=spin_s)})


@dataclasses.dataclass
class Pass:
    """What one timed pass cost (host seconds) and produced."""

    phase_s: dict[str, float] = dataclasses.field(default_factory=dict)
    #: phase -> {part: host seconds}; a part does the same work in every
    #: pass (one shape's search or timing, or CHUNK consecutive requests)
    parts: dict[str, dict] = dataclasses.field(default_factory=dict)
    #: serve workloads: the ServeReport and the requests as served
    report: object = None
    served: list = dataclasses.field(default_factory=list)
    #: (M, N, K) -> (ftIMM result, TGEMM result), timing="auto"
    model: dict = dataclasses.field(default_factory=dict)
    #: (M, N, K) -> AutotuneResult
    tuned: dict = dataclasses.field(default_factory=dict)

    def strip(self) -> None:
        """Drop what the pass produced and keep its timings.

        Done to every pass after the first once it is checked against
        it, so the peak memory of a run does not grow with its passes.
        """
        self.report, self.served, self.model, self.tuned = None, [], {}, {}

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s.values())

    def timed(self, clock, name: str, fn, *args):
        """Run phase ``name``: ``fn`` returns (output, {part: seconds})."""
        if clock is not None:
            clock.phase = name
        pin_fastest_cpu()
        t0 = time.perf_counter()
        out, self.parts[name] = fn(*args)
        self.phase_s[name] = time.perf_counter() - t0
        return out


def fastest(passes: list[Pass], phase: str) -> float:
    """Host seconds of ``phase``: per part, the fastest pass, summed.

    On a shared host the noise is one-sided (the CPU runs slower for
    seconds at a time, never faster), so the fastest of several runs of
    the same deterministic part estimates its cost; pass 0 also pays the
    lazily generated kernels, which belong to set-up.
    """
    return sum(
        min(p.parts[phase][part] for p in passes)
        for part in passes[0].parts[phase]
    )


def _tune_phase(shapes, clock, search: dict):
    """Cold pruned search per shape: fresh memory-only plan DB, one job,
    ``autotune`` keyword arguments ``search``."""
    cluster = default_machine().cluster
    tuned, parts = {}, {}
    for s in shapes:
        t0 = time.perf_counter()
        tuned[(s.m, s.n, s.k)] = _call(
            clock, "core.autotune", autotune, s, cluster,
            jobs=1, plan_db=PlanDB(None), **search,
        )
        parts[(s.m, s.n, s.k)] = time.perf_counter() - t0
    return tuned, parts


def _model_phase(shapes):
    """ftIMM and TGEMM simulated timing, ``timing="auto"``, no operands."""
    model, parts = {}, {}
    for s in shapes:
        t0 = time.perf_counter()
        model[(s.m, s.n, s.k)] = (
            ftimm_gemm(s.m, s.n, s.k, timing="auto"),
            tgemm_gemm(s.m, s.n, s.k, timing="auto"),
        )
        parts[(s.m, s.n, s.k)] = time.perf_counter() - t0
    return model, parts


def _serve_phase(clock, layer: str, client, requests, config):
    """Serve the stream, timestamping every ``ServeEngine.offer``.

    Admission order is the arrival order in both clients, so the span
    between the i-th and the (i + CHUNK)-th offer is the same work in
    every pass.
    """
    marks: list[float] = []
    offer = ServeEngine.offer

    def marked(engine, req, **kwargs):
        marks.append(time.perf_counter())
        return offer(engine, req, **kwargs)

    ServeEngine.offer = marked
    t0 = time.perf_counter()
    try:
        report = _call(clock, layer, client, requests, config)
    finally:
        ServeEngine.offer = offer
    bounds = [t0] + marks[CHUNK::CHUNK] + [time.perf_counter()]
    return report, dict(enumerate(b - a for a, b in zip(bounds, bounds[1:])))


def fidelity(model: dict) -> list[dict]:
    """|analytic - DES| / DES for every shape the model phase timed by DES.

    Outside the timed region; the DES figure is the model phase's own.
    """
    rows = []
    for (m, n, k), (ft, _tg) in sorted(model.items()):
        if ft.timing_mode != "des":
            continue
        analytic = ftimm_gemm(m, n, k, timing="analytic").seconds
        rows.append({
            "shape": f"{m}x{n}x{k}",
            "analytic_s": analytic,
            "des_s": ft.seconds,
            "err": abs(analytic - ft.seconds) / ft.seconds,
        })
    return rows


def _model_metrics(model: dict) -> dict[str, float]:
    pairs = list(model.values())
    return {
        "sim_gflops_geomean": geomean([ft.gflops for ft, _ in pairs]),
        "sim_speedup_geomean": geomean(
            [tg.seconds / ft.seconds for ft, tg in pairs]
        ),
        "model_err_max": max(row["err"] for row in fidelity(model)),
    }


class ServeWorkload:
    """An open-loop request stream served by the simulated engine."""

    kind = "serve"

    def __init__(
        self,
        *,
        mix: str,
        rate_rps: float,
        n_requests: int,
        arrivals: str,
        config: ServeConfig,
        gateway: bool,
    ) -> None:
        self.mix = mix
        self.rate_rps = rate_rps
        self.n_requests = n_requests
        self.arrivals = arrivals
        self.config = config
        self.gateway = gateway
        # every bucket holds one class, so a batch of h members runs the
        # class shape stacked h high: the shape set is a property of the
        # mix and max_batch, the same for every seed
        h_max = config.max_batch
        classes = [c.shape for c in get_mix(mix)]
        self.shape_set = sorted(
            {GemmShape(h * c.m, c.n, c.k) for c in classes
             for h in range(1, h_max + 1)},
            key=lambda s: (s.m, s.n, s.k),
        )

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int) -> None:
        self.requests = make_requests(
            self.mix, rate_rps=self.rate_rps, n_requests=self.n_requests,
            seed=seed, arrivals=self.arrivals,
        )
        #: pristine C operands; every pass serves fresh copies
        self.c0 = {r.req_id: r.c.copy() for r in self.requests}
        ordered = sorted(self.requests, key=lambda r: (r.arrival_s, r.req_id))
        # what the engine's warmup tunes: each bucket class at its
        # expected stacked M
        hints = expected_stack_hints(ordered, self.config.max_batch)
        self.warm_spec = [[m, n, k, dtype] for (n, k, dtype), m in
                          hints.items()]
        # what a warmup_tune="search" warmup searches: the f32 classes
        # inside the search domain (the rest fall back to the rule tune)
        self.search_shapes = [
            GemmShape(m, n, k) for m, n, k, dtype in self.warm_spec
            if dtype == "f32" and n <= N_MAX
        ]
        self.warm(self.warm_spec)

    def warm(self, spec: list) -> None:
        """The serve warmup: rule-tune every bucket class in ``spec``."""
        engine = ServeEngine(self.config, default_machine())
        engine.sched.warm(
            [(GemmShape(m, n, k), dtype) for m, n, k, dtype in spec],
            tune=self.config.warmup_tune,
        )

    def fresh_requests(self) -> list:
        return [
            dataclasses.replace(r, c=self.c0[r.req_id].copy())
            for r in self.requests
        ]

    # -- the timed pass ----------------------------------------------------

    def run_pass(self, clock=None) -> Pass:
        p = Pass(served=self.fresh_requests())
        if self.gateway:
            client, layer = gateway_replay, "serve.gateway"
        else:
            client, layer = serve, "serve.server"
        p.report = p.timed(clock, "serve", _serve_phase, clock, layer,
                           client, p.served, self.config)
        p.tuned = p.timed(clock, "tune", _tune_phase, self.search_shapes,
                          clock, WARMUP_SEARCH)
        p.model = p.timed(clock, "model", _model_phase, self.shape_set)
        return p

    def ops(self, p: Pass) -> int:
        return len(p.report.records)

    def failed(self, p: Pass) -> int:
        return p.report.failed

    # -- checks ------------------------------------------------------------

    def check(self, first: Pass) -> list[str]:
        errors: list[str] = []
        rep = first.report
        n = len(self.requests)
        if rep.completed + rep.shed + rep.failed != n or len(rep.records) != n:
            errors.append(
                f"conservation: offered {n} != completed {rep.completed} "
                f"+ shed {rep.shed} + failed {rep.failed}"
            )
        if rep.completed < MIN_COMPLETED:
            errors.append(
                f"only {rep.completed} completed (< {MIN_COMPLETED}): "
                "p99 would rest on fewer than 10 tail samples"
            )
        shapes = {(s.m, s.n, s.k) for s in self.shape_set}
        for b in rep.batches:
            _star, bn, bk = b.bucket.split("/")[0].split("x")
            if (b.stacked_m, int(bn), int(bk)) not in shapes:
                errors.append(f"batch {b.batch_id}: stacked shape "
                              f"{b.stacked_m}x{bn}x{bk} not in the shape set")
        by_id = {r.req_id: r for r in first.served}
        for rec in rep.records:
            req = by_id[rec.req_id]
            c0 = self.c0[rec.req_id]
            if rec.status == COMPLETED:
                standalone = c0.copy()
                ftimm_gemm(
                    req.shape.m, req.shape.n, req.shape.k,
                    a=req.a, b=req.b, c=standalone, timing="none",
                )
                if not np.array_equal(standalone, req.c):
                    errors.append(f"request {rec.req_id}: served bits differ "
                                  "from standalone ftimm_gemm")
                ref = c0.astype(np.float64) + req.a.astype(np.float64) @ \
                    req.b.astype(np.float64)
                if not np.allclose(req.c, ref, rtol=1e-4, atol=1e-3):
                    errors.append(f"request {rec.req_id}: result is not "
                                  "C + A @ B")
            elif rec.status == SHED:
                if rec.shed_reason not in SHED_REASONS or not rec.error:
                    errors.append(f"request {rec.req_id}: untyped shed "
                                  f"{rec.shed_reason!r}")
                if not np.array_equal(req.c, c0):
                    errors.append(f"request {rec.req_id}: shed but C changed")
            elif not (rec.error and "Error" in rec.error.split(":")[0]):
                errors.append(f"request {rec.req_id}: untyped failure "
                              f"{rec.error!r}")
        return errors

    # -- simulated metrics -------------------------------------------------

    def sim_metrics(self, p: Pass) -> dict[str, float]:
        rep = p.report
        n = len(rep.records)
        met = sum(
            1 for r in rep.records
            if r.status == COMPLETED and r.deadline_met is not False
        )
        return {
            "sim_goodput_rps": rep.goodput_rps,
            "sim_p50_ms": rep.latency_quantile(0.50) * 1e3,
            "sim_p99_ms": rep.latency_quantile(0.99) * 1e3,
            "slo_met_frac": met / n,
            "ok_frac": rep.completed / n,
            "clean_frac": (rep.completed - rep.verify_repaired)
            / rep.completed,
            **_model_metrics(p.model),
        }

    def sample_counts(self, p: Pass) -> dict[str, int]:
        return {"latency_samples": p.report.completed,
                "shapes": len(p.model)}


def _sim_signature(p: Pass):
    """Everything a pass computed on the simulated clock."""
    sig = (
        {s: (t.best.strategy, t.best.plan, t.best.seconds)
         for s, t in p.tuned.items()},
        {s: (ft.seconds, ft.timing_mode, tg.seconds)
         for s, (ft, tg) in p.model.items()},
    )
    rep = p.report
    if rep is None:
        return sig
    return sig + (
        [dataclasses.astuple(r) for r in rep.records],
        [dataclasses.astuple(b) for b in rep.batches],
        rep.makespan_s,
        rep.verify_repaired,
    )


def check_same(first: Pass, others: list[Pass], start: int = 1) -> list[str]:
    """Simulated results, chosen plans and served bits identical to
    ``first`` in every other pass (numbered from ``start``)."""
    errors: list[str] = []
    ref = _sim_signature(first)
    bits = {r.req_id: r.c for r in first.served}
    for i, p in enumerate(others, start):
        if _sim_signature(p) != ref:
            errors.append(f"pass {i}: simulated results or chosen plans "
                          "differ from pass 0")
        if any(not np.array_equal(r.c, bits[r.req_id]) for r in p.served):
            errors.append(f"pass {i}: served bits differ from pass 0")
    return errors


#: one base shape per paper type; the seed jitters the large dimensions
PAPER_SHAPES = [
    (16384, 32, 32),      # type 1: M >> N, K
    (32, 32, 65536),      # type 2: K >> M, N
    (2048, 32, 2048),     # type 3: M = K, small N
    (4096, 64, 512),      # type 3
    (20480, 32, 20480),   # type 3, too large for the DES under "auto"
]

#: large dimensions move by at most this share of their base size, in
#: steps of 64 (off that grid the type-1 model error jumps from 4.5% to
#: 9.5%, which would make model_err_max a function of the seed's grid)
PAPER_JITTER = 0.02


class PaperTune:
    """Cold plan search and simulated timing of the paper's shape types."""

    kind = "paper"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0x7A])

        def jitter(d: int) -> int:
            if d < 512:
                return d
            scaled = d * (1.0 + rng.uniform(-PAPER_JITTER, PAPER_JITTER))
            return int(round(scaled / 64)) * 64

        self.shapes = [
            GemmShape(jitter(m), n, jitter(k)) for m, n, k in PAPER_SHAPES
        ]
        self.warm_spec = [[s.m, s.n, s.k] for s in self.shapes]
        self.warm(self.warm_spec)

    def warm(self, spec: list) -> None:
        """The serve warmup's rule tune: plan and kernels per shape."""
        for m, n, k in spec:
            ftimm_gemm(m, n, k, timing="analytic")

    def run_pass(self, clock=None) -> Pass:
        p = Pass()
        p.tuned = p.timed(clock, "tune", _tune_phase, self.shapes, clock,
                          {})
        p.model = p.timed(clock, "model", _model_phase, self.shapes)
        return p

    def ops(self, p: Pass) -> int:
        return len(self.shapes)

    def failed(self, p: Pass) -> int:
        return 0

    def check(self, first: Pass) -> list[str]:
        errors = []
        for (m, n, k), (ft, tg) in first.model.items():
            for name, res in (("ftIMM", ft), ("TGEMM", tg)):
                if not (res.seconds > 0 and math.isfinite(res.seconds)):
                    errors.append(f"{m}x{n}x{k}: {name} simulated time "
                                  f"{res.seconds!r}")
        return errors

    def sim_metrics(self, p: Pass) -> dict[str, float]:
        ft_s = [ft.seconds for ft, _tg in p.model.values()]
        return {
            # the shape set served back to back by ftIMM on one cluster
            "sim_goodput_rps": len(ft_s) / sum(ft_s),
            "sim_p50_ms": nearest_rank(ft_s, 0.50) * 1e3,
            "sim_p99_ms": nearest_rank(ft_s, 0.99) * 1e3,
            # no deadlines here: a shape meets its objective when ftIMM
            # beats TGEMM on it, the paper's per-shape claim
            "slo_met_frac": sum(
                1 for ft, tg in p.model.values() if ft.seconds < tg.seconds
            ) / len(ft_s),
            "ok_frac": 1.0,
            "clean_frac": 1.0,
            **_model_metrics(p.model),
        }

    def sample_counts(self, p: Pass) -> dict[str, int]:
        return {"latency_samples": len(p.model), "shapes": len(p.model)}


def make(name: str):
    """The workload called ``name`` (a fresh object per run)."""
    if name == "serve_overload":
        # the reference overload run: saturated (goodput ~78k rps), three
        # buckets with shared B and deep stacks, no faults; 1,300 requests
        # so every seed completes >= 1,000 for the p99
        return ServeWorkload(
            mix="overload", rate_rps=120e3, n_requests=1300,
            arrivals="poisson", config=ServeConfig(policy="edf"),
            gateway=False,
        )
    if name == "serve_mixed_chaos":
        # below saturation, many shallow buckets, one sick cluster whose
        # every batch bit-flips, degrade + adaptive replication, driven
        # through the async gateway
        return ServeWorkload(
            mix="mixed", rate_rps=60e3, n_requests=1200, arrivals="bursty",
            config=ServeConfig(
                policy="least_loaded",
                degrade=DegradePolicy(),
                replicate_b="adaptive",
                cluster_fault_scale=(1.0, 0.0, 0.0, 0.0),
                faults=FaultPlan(seed=7, bitflip_rate=1.0,
                                 max_kernel_retries=0),
                max_redispatch=1,
            ),
            gateway=True,
        )
    if name == "paper_tune":
        return PaperTune()
    raise KeyError(name)


WORKLOADS = ("serve_overload", "serve_mixed_chaos", "paper_tune")
