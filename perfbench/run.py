"""The repository benchmark: host-wall and simulated-clock metrics.

Run from the repository root::

    python3 perfbench/run.py --workload serve_overload --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another in this
process.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics (the traced run also makes the untraced passes, for
the tracing overhead).  A failed output check prints ``"correct":
false`` and exits 1.

Every run is hermetic: the kernel cache, plan database and stack hints
live in a fresh directory under ``.perfbench_work/`` (deleted on exit),
plan searches get a fresh memory-only ``PlanDB``, and BLAS and the
program's worker pool are pinned to one thread.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import ACCOUNTING_TOLERANCE, LAYERS, LayerClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: one BLAS thread and one plan-search job: the host clock then measures
#: the program, not the machine's core count
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_JOBS": "1",
}
os.environ.update(PINNED_ENV)

#: fresh processes whose set-up time gives setup_s (their median)
SETUP_PROBES = 7

#: timed passes a run makes at least, however long they take: the
#: per-part minimum needs a few runs of each part to choose from
MIN_PASSES = 3

#: numpy floor passes after the warm-up pass (their median)
FLOOR_PASSES = 3

END_TO_END_UNITS = {
    "host_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tune_s": "s",
    "model_s": "s",
    "sim_goodput_rps": "req/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "slo_met_frac": "frac",
    "ok_frac": "frac",
    "clean_frac": "frac",
    "model_err_max": "frac",
    "sim_gflops_geomean": "GFLOPS",
    "sim_speedup_geomean": "x",
}


def fresh_cache_dir(tag: str) -> Path:
    path = WORK / f"{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(workload: str, seed: int, warm_spec: list) -> float:
    """Host seconds from a fresh process to a warmed workload.

    The probe imports the program and repeats the workload's warmup from
    ``warm_spec``; drawing the inputs is the benchmark's work, not the
    program's, and is left out.  It starts on (inherits) the CPU that
    spins fastest, as the timed phases do.
    """
    from workloads import pin_fastest_cpu

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-probe", json.dumps(warm_spec),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "0",
    ]
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE"] = str(fresh_cache_dir("probe"))
    pin_fastest_cpu()
    out = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_kb() -> int:
    """This process's resident high-water mark (Linux ``VmHWM``)."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0])


def numpy_floor(requests, c0) -> float:
    """Median seconds of ``c += a @ b`` over the requests, BLAS warm."""
    times = []
    for i in range(FLOOR_PASSES + 1):
        cs = [c0[r.req_id].copy() for r in requests]
        t0 = time.perf_counter()
        for r, c in zip(requests, cs):
            c += r.a @ r.b
        if i:  # pass 0 warms BLAS and the allocator
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl, passes, setup_samples, peak_rss_mb) -> dict[str, float]:
    from workloads import fastest

    tune_s, model_s = fastest(passes, "tune"), fastest(passes, "model")
    host_s = fastest(passes, "serve") if wl.kind == "serve" \
        else tune_s + model_s
    metrics = {
        "host_rps": wl.ops(passes[0]) / host_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "tune_s": tune_s,
        "model_s": model_s,
        **wl.sim_metrics(passes[0]),
    }
    return {k: metrics[k] for k in END_TO_END_UNITS}


def traced_pass(wl):
    """One pass under the layer clock, metrics registry and tracer."""
    from repro import collecting
    from repro.obs.trace import tracing

    clock = LayerClock()
    with collecting() as reg, tracing(), clock.patched():
        p = wl.run_pass(clock)
    return p, clock, reg


#: per-layer metrics of the traced run (name -> unit); the layer
#: modules are named in ``layers.TARGETS``
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "serve.verify.incl_s": "s",
    "serve.verify.calls": "count",
    "serve.verify.repaired": "count",
    "serve.batcher.batches": "count",
    "serve.batcher.stack_mean": "req",
    "serve.scheduler.warm_s": "s",
    "serve.scheduler.util": "frac",
    "serve.scheduler.redispatches": "count",
    "serve.scheduler.quarantines": "count",
    "serve.placement.hits": "count",
    "serve.placement.restages": "count",
    "serve.placement.staged_mb": "MB",
    "serve.degrade.shed": "count",
    "core.tuner.calls": "count",
    "core.lowering.calls": "count",
    "core.lowering.keys": "count",
    "core.lowering.reuse_frac": "frac",
    "core.lowering.serve_calls": "count",
    "core.lowering.serve_keys": "count",
    "executor.functional.calls": "count",
    "executor.analytic.calls": "count",
    "executor.timed.calls": "count",
    "executor.timed.events": "count",
    "executor.timed.us_per_event": "us",
    "core.autotune.searches": "count",
    "core.autotune.scored_frac": "frac",
    "core.autotune.des_validated": "count",
    "kernels.registry.generated": "count",
    "kernels.registry.mem_hit_frac": "frac",
    "faults.injected": "count",
    "faults.retries": "count",
    "sim.queue_p99_ms": "ms",
    "sim.stage_p99_ms": "ms",
    "sim.gemm_p99_ms": "ms",
    "numpy_floor_s": "s",
    "host_over_floor": "x",
    "obs.trace_overhead_frac": "frac",
    "trace.wall_s": "s",
    "trace.accounting_err": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(p, clock, reg, untraced, floor_s) -> dict[str, float]:
    """The per-layer metrics of traced pass ``p``.

    ``untraced`` holds the untraced passes (for the tracing overhead and
    the floor ratio); metrics of a layer the workload does not use are 0.
    """
    def ctr(name: str) -> float:
        return reg.counter(name).value if name in reg else 0

    out = {f"{layer}.self_s": clock.self_s[layer] for layer in LAYERS}
    for layer in ("serve.verify", "core.tuner", "core.lowering",
                  "executor.functional", "executor.analytic",
                  "executor.timed"):
        out[f"{layer}.calls"] = clock.calls[layer]
    out["serve.verify.incl_s"] = clock.incl_s["serve.verify"]
    out["serve.scheduler.warm_s"] = clock.fn_incl_s[
        ("serve.scheduler", "warm")]

    rep = p.report
    if rep is not None:
        from repro.analysis.critical_path import critical_path

        from workloads import fastest

        busy = sum(b.finish_s - b.start_s for b in rep.batches)
        n_clusters = len({b.cluster for b in rep.batches})
        tail = critical_path(rep.records, rep.batches).tail_segments()
        serve_s = fastest(untraced, "serve")
        out.update({
            "serve.verify.repaired": rep.verify_repaired,
            "serve.batcher.batches": len(rep.batches),
            "serve.batcher.stack_mean": rep.mean_batch_size,
            "serve.scheduler.util": _ratio(busy, rep.makespan_s * n_clusters),
            "serve.scheduler.redispatches": rep.redispatches,
            "serve.scheduler.quarantines": (
                rep.degrade.quarantines if rep.degrade else 0),
            "serve.placement.hits": ctr("serve/placement/hits"),
            "serve.placement.restages": ctr("serve/placement/restages"),
            "serve.placement.staged_mb": (
                ctr("serve/placement/staged_bytes") / 2**20),
            "serve.degrade.shed": rep.shed,
            "sim.queue_p99_ms": (tail["queue"] + tail["batch"]) * 1e3,
            "sim.stage_p99_ms": tail["stage"] * 1e3,
            "sim.gemm_p99_ms": tail["gemm"] * 1e3,
            "numpy_floor_s": floor_s,
            "host_over_floor": _ratio(serve_s, floor_s),
        })

    # lowering over the whole pass, and in the serve phase alone (the
    # lower -> replay -> verify hot path)
    calls = clock.calls["core.lowering"]
    keys = len(set().union(*clock.lowering_keys.values()))
    out["core.lowering.keys"] = keys
    out["core.lowering.reuse_frac"] = _ratio(calls - keys, calls)
    out["core.lowering.serve_calls"] = clock.lowering_calls["serve"]
    out["core.lowering.serve_keys"] = len(clock.lowering_keys["serve"])
    events = ctr("sim/events_processed")
    out["executor.timed.events"] = events
    out["executor.timed.us_per_event"] = _ratio(
        clock.self_s["executor.timed"] * 1e6, events)

    stats = [t.stats for t in p.tuned.values() if t.stats is not None]
    out["core.autotune.searches"] = len(p.tuned)
    out["core.autotune.scored_frac"] = _ratio(
        sum(s.scored for s in stats), sum(s.generated for s in stats))
    out["core.autotune.des_validated"] = sum(s.des_validated for s in stats)

    hits, misses = ctr("kernels/cache/mem_hit"), ctr("kernels/cache/mem_miss")
    out["kernels.registry.generated"] = misses - ctr("kernels/cache/disk_hit")
    out["kernels.registry.mem_hit_frac"] = _ratio(hits, hits + misses)
    out["faults.injected"] = (
        ctr("faults/bitflips_injected") + ctr("faults/core_failures"))
    out["faults.retries"] = (
        ctr("faults/copy_retries") + ctr("faults/dma_retries")
        + ctr("faults/abft_recomputes"))

    untraced_wall = statistics.median(q.wall_s for q in untraced)
    out["obs.trace_overhead_frac"] = p.wall_s / untraced_wall - 1
    out["trace.wall_s"] = clock.wall_s
    out["trace.accounting_err"] = clock.accounting_error()
    return {name: out.get(name, 0) for name in PER_LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, check; returns this workload's result record."""
    import workloads

    wl = workloads.make(name)
    wl.setup(seed)
    setup_samples = [
        setup_probe(name, seed, wl.warm_spec) for _ in range(SETUP_PROBES)
    ]

    # the peak over the timed passes, not over drawing the inputs
    Path("/proc/self/clear_refs").write_text("5")
    t0 = time.perf_counter()
    passes = [wl.run_pass()]
    same_errors = []
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - t0 < seconds):
        p = wl.run_pass()
        # compared with pass 0 as it finishes, then only its timings
        # are kept: the peak memory does not depend on the pass count
        same_errors += workloads.check_same(passes[0], [p], len(passes))
        p.strip()
        passes.append(p)
    peak_rss_mb = peak_rss_kb() / 1024
    os.sched_setaffinity(0, workloads.CPUS)
    metrics = end_to_end(wl, passes, setup_samples, peak_rss_mb)
    errors = wl.check(passes[0]) + same_errors

    result = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "attempted": wl.ops(passes[0]),
        "failed": wl.failed(passes[0]),
        "metrics": metrics,
        "samples": wl.sample_counts(passes[0]),
        "fidelity": workloads.fidelity(passes[0].model),
        "setup_samples_s": setup_samples,
        "phase_s": {k: [p.phase_s[k] for p in passes]
                    for k in passes[0].phase_s},
        "errors": errors,
    }
    if trace:
        floor_s = numpy_floor(wl.requests, wl.c0) if wl.kind == "serve" \
            else 0.0
        tp, clock, reg = traced_pass(wl)
        errors += [f"traced {e}"
                   for e in workloads.check_same(passes[0], [tp])]
        if clock.accounting_error() > ACCOUNTING_TOLERANCE:
            errors.append(
                f"layer self times miss the traced wall by "
                f"{clock.accounting_error():.2%} "
                f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"
            )
        result["per_layer"] = per_layer(tp, clock, reg, passes, floor_s)
    return result


def render(result: dict) -> str:
    """Human-readable lines for one workload's result."""
    m = result["metrics"]
    lines = [
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['passes']} passes, {result['attempted']} operations, "
        f"{result['failed']} failed)"
    ]
    for key, unit in END_TO_END_UNITS.items():
        lines.append(f"  {key:22s} {m[key]:14.6g} {unit}")
    samples = result["samples"]
    lines.append(
        f"  p50/p99 over {samples['latency_samples']} samples; "
        f"model metrics over {samples['shapes']} shapes"
    )
    for row in result["fidelity"]:
        lines.append(
            f"  fidelity {row['shape']:>16s}  analytic "
            f"{row['analytic_s'] * 1e6:10.2f} us  DES "
            f"{row['des_s'] * 1e6:10.2f} us  err {row['err']:.2%}"
        )
    for name, value in result.get("per_layer", {}).items():
        lines.append(
            f"  {name:34s} {value:14.6g} {PER_LAYER_UNITS[name]}")
    for err in result["errors"]:
        lines.append(f"  CHECK FAILED: {err}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="also write the full result records (fidelity "
                        "tables, per-pass phase times) to this JSON file")
    parser.add_argument("--setup-probe", metavar="WARM_SPEC",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.setup_probe:
        import workloads

        workloads.make(args.workload).warm(json.loads(args.setup_probe))
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    os.environ["REPRO_KERNEL_CACHE"] = str(fresh_cache_dir("main"))
    try:
        import workloads

        names = workloads.WORKLOADS if args.workload == "all" \
            else (args.workload,)
        if any(n not in workloads.WORKLOADS for n in names):
            parser.error(f"--workload must be one of {workloads.WORKLOADS} "
                         "or all")
        results = [
            run_workload(n, args.seed, args.seconds, bool(args.trace))
            for n in names
        ]
    finally:
        shutil.rmtree(WORK / f"{os.getpid()}-main", ignore_errors=True)
        shutil.rmtree(WORK / f"{os.getpid()}-probe", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for result in results:
        print(render(result))
    if args.results is not None:
        args.results.write_text(json.dumps(results, indent=1))
    correct = not any(r["errors"] for r in results)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for r in results:
        values = r["per_layer"] if args.trace else r["metrics"]
        # one workload: the bare names; ``all``: prefixed by workload
        prefix = f"{r['workload']}/" if len(results) > 1 else ""
        metrics.update({
            prefix + name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        })
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
