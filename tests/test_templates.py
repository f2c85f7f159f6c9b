"""Lower once, bind many: cached op-stream templates.

A functional lowering is a data-independent template: its closures read
the operands and fault injector bound to it when they run, and its tile
buffers are views into the cluster's shared scratch arenas.  These tests
pin the three properties that make reusing one safe:

* a bound template computes the same bits as a fresh lowering even when
  every scratch arena was poisoned with NaN first — no replay reads a
  scratch byte before writing it;
* a call's operands are released when the call returns;
* the cache key separates every lowering that differs (a core-failure
  retry on the reduced cluster binds a different template).
"""

import gc
import weakref

import numpy as np
import pytest

from repro import collecting
from repro.core import ftimm as ftimm_mod
from repro.core.ftimm import TEMPLATES, TemplateCache, ftimm_gemm, tgemm_gemm
from repro.core.lowering import GemmOperands
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.core.tuner import tune
from repro.errors import CoreFailureError
from repro.executor.functional import run_functional
from repro.faults import CoreFault, FaultInjector, FaultPlan
from repro.hw.memory import scratch_arenas

NP = {"f32": np.float32, "f64": np.float64}

#: (strategy, shape, dtype): edge and remainder tiles in every loop
CASES = [
    ("m", (100, 32, 70), "f32"),
    ("m", (1000, 17, 900), "f32"),
    ("m", (333, 48, 130), "f64"),
    ("k", (40, 24, 3000), "f32"),
    ("k", (30, 20, 1500), "f64"),
    ("tgemm", (100, 130, 70), "f32"),
]

FLIPS = FaultPlan(seed=11, bitflip_rate=0.2)


def operands(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    m, n, k = shape
    return GemmOperands.check(
        GemmShape(m, n, k),
        rng.standard_normal((m, k)).astype(NP[dtype]),
        rng.standard_normal((k, n)).astype(NP[dtype]),
        rng.standard_normal((m, n)).astype(NP[dtype]),
        dtype=dtype,
    )


def lower(strategy, shape, cluster, dtype, data, pingpong):
    shape = GemmShape(*shape)
    if strategy == "tgemm":
        return build_tgemm(shape, cluster, data=data)
    plan = tune(shape, cluster, force_strategy=strategy, dtype=dtype).plan
    builder = build_parallel_m if strategy == "m" else build_parallel_k
    return builder(
        shape, cluster, plan=plan, data=data, adjust=False, pingpong=pingpong
    )


def poison_scratch():
    for arena in scratch_arenas():
        arena[:] = 0xFF  # all-ones bytes: NaN in float32 and float64


def fresh_run(strategy, shape, cluster, dtype, data, pingpong, plan=None):
    """A cold lowering's result (and its injector's counters)."""
    ex = lower(strategy, shape, cluster, dtype, data, pingpong)
    inj = FaultInjector(plan) if plan is not None else None
    with ex.bound(data, inj):
        run_functional(ex, faults=inj)
    return data.c, (inj.counters if inj is not None else {})


@pytest.mark.parametrize("armed", [False, True], ids=["unarmed", "armed"])
@pytest.mark.parametrize("pingpong", [True, False], ids=["pp", "single"])
@pytest.mark.parametrize("strategy,shape,dtype", CASES)
def test_bound_template_matches_fresh_lowering_on_poisoned_scratch(
    cluster, strategy, shape, dtype, pingpong, armed
):
    if strategy == "tgemm" and not pingpong:
        pytest.skip("TGEMM is always double-buffered")
    plan = FLIPS if armed else None
    ref, ref_counters = fresh_run(
        strategy, shape, cluster, dtype, operands(shape, dtype, 1), pingpong,
        plan,
    )
    # the template is lowered against other operands, replayed once on
    # them, then bound to this call's
    decoy = operands(shape, dtype, 2)
    template = lower(strategy, shape, cluster, dtype, decoy, pingpong)
    run_functional(template)
    decoy_c = decoy.c.copy()

    data = operands(shape, dtype, 1)
    poison_scratch()
    inj = FaultInjector(plan) if plan is not None else None
    with template.bound(data, inj):
        run_functional(template, faults=inj)
    assert np.array_equal(data.c, ref)
    assert np.array_equal(decoy.c, decoy_c)
    if armed:
        assert inj.counters == ref_counters
        assert inj.counters.get("bitflips_injected", 0) > 0
        unarmed, _ = fresh_run(
            strategy, shape, cluster, dtype, operands(shape, dtype, 1),
            pingpong,
        )
        assert np.array_equal(data.c, unarmed)  # exact bits under faults


@pytest.mark.parametrize("impl", ["ftimm", "tgemm"])
def test_cached_call_matches_cold_call_on_poisoned_scratch(impl):
    gemm = ftimm_gemm if impl == "ftimm" else tgemm_gemm
    m, n, k = 200, 40, 300
    data = operands((m, n, k), "f32", 3)
    cold = data.c.copy()
    TEMPLATES.clear()
    gemm(m, n, k, a=data.a, b=data.b, c=cold, timing="none")
    warm = data.c.copy()
    poison_scratch()
    gemm(m, n, k, a=data.a, b=data.b, c=warm, timing="none")
    assert np.array_equal(warm, cold)


@pytest.mark.parametrize("faults", [None, FLIPS], ids=["plain", "faulted"])
def test_operands_die_after_the_call(faults):
    m, n, k = 96, 32, 128
    data = operands((m, n, k), "f32", 4)
    a, b, c = data.a, data.b, data.c
    refs = [weakref.ref(x) for x in (a, b, c)]
    ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none", faults=faults)
    del data, a, b, c
    gc.collect()
    assert all(r() is None for r in refs)
    assert all(t.context.data is None and t.context.faults is None
               for t in TEMPLATES.values())


def test_detached_after_a_failed_replay(cluster):
    data = operands((96, 32, 128), "f32", 5)
    template = lower("m", (96, 32, 128), cluster, "f32", data, True)
    inj = FaultInjector(FaultPlan(core_faults=(CoreFault(1, after_ops=3),)))
    with pytest.raises(CoreFailureError):
        with template.bound(data, inj):
            run_functional(template, faults=inj)
    assert template.context.data is None and template.context.faults is None


def counts(reg):
    return (reg.counter("core/lowering/templates").value,
            reg.counter("core/lowering/binds").value)


def test_hits_do_not_lower(monkeypatch):
    calls = []
    real = ftimm_mod.build_parallel_m

    def counting(*args, **kwargs):
        calls.append(kwargs.get("data") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(ftimm_mod, "build_parallel_m", counting)
    m, n, k = 256, 48, 96
    served = []
    TEMPLATES.clear()
    with collecting() as reg:
        for seed in range(4):
            data = operands((m, n, k), "f32", seed)
            warm = data.c.copy()
            ftimm_gemm(m, n, k, a=data.a, b=data.b, c=warm, timing="none")
            served.append((data, warm))
        assert counts(reg) == (1, 3)
    assert calls == [True]
    for data, warm in served:
        TEMPLATES.clear()
        cold = data.c.copy()
        ftimm_gemm(m, n, k, a=data.a, b=data.b, c=cold, timing="none")
        assert np.array_equal(warm, cold)
    # timing-only plans are never cached
    ftimm_gemm(m, n, k, timing="des")
    assert calls[-1] is False and len(TEMPLATES) == 1


def test_core_failure_retry_binds_a_different_template():
    m, n, k = 96, 32, 128
    plan = FaultPlan(core_faults=(CoreFault(core=3, after_ops=5),))
    data = operands((m, n, k), "f32", 6)
    TEMPLATES.clear()
    with collecting() as reg:
        res = ftimm_gemm(
            m, n, k, a=data.a, b=data.b, c=data.c, timing="none", faults=plan
        )
        assert res.faults.redispatches == 1
        assert counts(reg) == (2, 0)
        ftimm_gemm(
            m, n, k, a=data.a, b=data.b, c=data.c.copy(), timing="none",
            faults=plan,
        )
        assert counts(reg) == (2, 2)
    assert sorted(key[2].n_cores for key in TEMPLATES.keys()) == [7, 8]


def test_cache_is_lru_bounded(cluster):
    cache = TemplateCache(capacity=2)
    data = operands((64, 16, 32), "f32", 7)
    for key in ("x", "y", "x", "z"):
        cache.lookup(
            key, lambda: lower("m", (64, 16, 32), cluster, "f32", data, True)
        )
    assert list(cache.keys()) == ["x", "z"]
    cache.clear()
    assert len(cache) == 0
