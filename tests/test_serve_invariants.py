"""Property-style serve invariants across seeds × policies × modes.

Hypothesis-style coverage without the dependency: a seeded parametrized
matrix (3 seeds × all 3 policies × replication off/static/adaptive ×
fault plan on/off) drives randomized request streams through the serve
engine and asserts the invariants every run must satisfy, whatever the
draw:

* **conservation** — offered == completed + shed + failed, every shed
  carries a typed reason, every failure a typed error;
* **latency decomposition** — queue + batch-wait + compute == end-to-end
  latency (within float rounding) for every completed request;
* **batch decomposition** — tune + stage + gemm + lost == finish − start
  for every dispatched batch;
* **cluster monotonicity** — per-cluster batch intervals never overlap
  and never run backwards (the ``busy_until_s`` monotone contract);
* **replica budget** — per-cluster replica residency never exceeds the
  configured budget, and placement accounting matches the batch records.

Plus the ``cold_tune_s`` regression: explicit (constant) values keep
replays bit-identical across runs — the contract
``WarmupReport.measured_tune_s`` documents as the thing ``None`` trades
away.
"""

import math
from dataclasses import replace as dc_replace

import pytest

from repro.faults import FaultPlan
from repro.serve import ServeConfig, make_requests, serve
from repro.serve.request import COMPLETED, FAILED, SHED

from test_serve import fast_requests

#: faulted cases must stay warning-clean: a bit-flipped inf/NaN tile is
#: an ABFT detection, never a numpy RuntimeWarning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = [0, 1, 2]
POLICIES = ["fifo", "least_loaded", "edf"]
REPLICATE = ["off", "static", "adaptive"]

#: typed shed reasons the admission path may emit
SHED_REASONS = {"queue_full", "class_shed", "burn_shed", "shutdown"}


def _config(policy, replicate, faulty, seed):
    kw = dict(
        policy=policy,
        queue_cap=8,
        replicate_b=replicate,
        promote_after=2,
    )
    if faulty:
        kw.update(
            faults=FaultPlan(seed=seed, bitflip_rate=0.3,
                             max_kernel_retries=0),
            max_redispatch=1,
        )
    return ServeConfig(**kw)


def _check_conservation(report, n_offered):
    assert len(report.records) == n_offered
    assert report.completed + report.shed + report.failed == n_offered
    for rec in report.records:
        assert rec.status in (COMPLETED, SHED, FAILED)
        if rec.status == SHED:
            assert rec.shed_reason in SHED_REASONS
            assert rec.error is not None
        if rec.status == FAILED:
            assert rec.error is not None


def _check_latency_decomposition(report):
    for rec in report.records:
        if rec.status != COMPLETED:
            continue
        assert rec.latency_s is not None
        total = rec.queue_s + rec.batch_s + rec.compute_s
        assert math.isclose(
            rec.latency_s, total, rel_tol=1e-9, abs_tol=1e-12
        ), f"req {rec.req_id}: {rec.latency_s} != {total}"
        assert rec.queue_s >= 0
        assert rec.batch_s >= -1e-12
        assert rec.compute_s > 0


def _check_batch_decomposition(report):
    for b in report.batches:
        span = b.tune_s + b.stage_s + b.gemm_s + b.lost_s
        assert math.isclose(
            b.finish_s - b.start_s, span, rel_tol=1e-9, abs_tol=1e-12
        ), f"batch {b.batch_id}: {b.finish_s - b.start_s} != {span}"
        assert b.start_s >= b.close_s - 1e-12


def _check_cluster_monotone(report):
    """Per-cluster intervals are ordered and non-overlapping.

    ``ClusterBackend.charge``/``occupy`` refuse to run backwards, so a
    cluster's dispatched batches — sorted by start — must tile forward in
    time.  Replica staging may insert gaps (it occupies the timeline
    without a batch record) but can never cause an overlap.
    """
    per = {}
    for b in report.batches:
        per.setdefault(b.cluster, []).append(b)
    for cluster, batches in per.items():
        batches.sort(key=lambda b: (b.start_s, b.batch_id))
        prev_finish = 0.0
        for b in batches:
            assert b.start_s >= prev_finish - 1e-12, (
                f"cluster {cluster}: batch {b.batch_id} starts at "
                f"{b.start_s} before previous finish {prev_finish}"
            )
            assert b.finish_s >= b.start_s
            prev_finish = b.finish_s


def _check_replica_budget(report):
    placement = report.placement
    if report.config.replicate_b == "off":
        assert placement is None
        assert not any(b.b_resident for b in report.batches)
        return
    assert placement is not None
    assert placement.mode == report.config.replicate_b
    for peak in placement.peak_bytes:
        assert peak <= placement.budget_bytes
    # placement accounting matches the batch records bit for bit
    assert placement.hits == sum(1 for b in report.batches if b.b_resident)
    assert placement.promotions >= placement.replica_sets


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("replicate", REPLICATE)
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
def test_serve_invariants(seed, policy, replicate, faulty):
    requests = fast_requests(n=24, rate=150_000, seed=seed)
    report = serve(requests, _config(policy, replicate, faulty, seed))
    _check_conservation(report, len(requests))
    _check_latency_decomposition(report)
    _check_batch_decomposition(report)
    _check_cluster_monotone(report)
    _check_replica_budget(report)


@pytest.mark.parametrize("policy", POLICIES)
def test_invariants_on_overload_mix(policy):
    """One richer draw per policy: the transformer overload mix."""
    requests = make_requests(
        "overload", rate_rps=240_000, n_requests=40, seed=3
    )
    report = serve(requests, ServeConfig(
        policy=policy, queue_cap=16, replicate_b="adaptive",
    ))
    _check_conservation(report, len(requests))
    _check_latency_decomposition(report)
    _check_batch_decomposition(report)
    _check_cluster_monotone(report)
    _check_replica_budget(report)


def test_sheds_happen_and_are_typed():
    """The conservation clause about sheds must not be vacuous."""
    requests = fast_requests(n=24, rate=500_000, seed=0)
    report = serve(requests, ServeConfig(
        policy="least_loaded", queue_cap=2, replicate_b="adaptive",
    ))
    assert report.shed > 0
    for rec in report.records:
        if rec.status == SHED:
            assert rec.shed_reason == "queue_full"
            assert rec.error is not None


def test_budget_pressure_demotes_lru_and_stays_under_budget():
    """A budget below two replicas forces LRU demotion, never overflow."""
    # FAST_MIX B sizes: tiny 16x16 f32 = 1 KiB, wide 64x48 f32 = 12 KiB
    requests = fast_requests(n=48, rate=150_000, seed=1)
    report = serve(requests, ServeConfig(
        policy="least_loaded", queue_cap=64,
        replicate_b="static", replica_budget_bytes=13 << 10,
        max_replicas=4, promote_after=1,
    ))
    placement = report.placement
    assert placement.demotions > 0
    for peak in placement.peak_bytes:
        assert peak <= 13 << 10
    _check_cluster_monotone(report)


def test_oversized_b_is_never_promoted():
    """A digest whose B exceeds the per-cluster budget stays pinned."""
    requests = fast_requests(n=24, rate=150_000, seed=0)
    report = serve(requests, ServeConfig(
        policy="least_loaded",
        replicate_b="static", replica_budget_bytes=2 << 10,
    ))
    placement = report.placement
    # only the 1 KiB tiny bucket fits the 2 KiB budget
    for e in placement.events:
        assert "x16x16/" in e.label
    for peak in placement.peak_bytes:
        assert peak <= 2 << 10


class TestColdTuneReplayContract:
    """Explicit ``cold_tune_s`` keeps replays bit-identical.

    ``cold_tune_s=None`` charges the *measured* warmup tune wall — a
    ``time.perf_counter`` quantity that varies run to run and machine to
    machine, which ``WarmupReport.measured_tune_s`` documents as trading
    away the deterministic-replay contract.  This is the regression
    test for the other side of that trade: any explicit constant must
    replay bit for bit, cold tunes included.
    """

    def test_explicit_cold_tune_bit_identical_across_runs(self):
        config = ServeConfig(
            policy="least_loaded", warmup=False, cold_tune_s=5e-4,
        )
        first = serve(fast_requests(n=24, seed=2), config)
        second = serve(fast_requests(n=24, seed=2), config)
        assert first.records == second.records
        assert first.batches == second.batches
        # the cold penalty actually landed (warmup was off)
        assert any(b.tune_s == 5e-4 for b in first.batches)

    def test_explicit_cold_tune_bit_identical_with_replication(self):
        config = ServeConfig(
            policy="edf", warmup=False, cold_tune_s=5e-4,
            replicate_b="adaptive",
        )
        first = serve(fast_requests(n=24, seed=2), config)
        second = serve(fast_requests(n=24, seed=2), config)
        assert first.records == second.records
        assert first.batches == second.batches

    def test_measured_tune_walls_are_flagged_machine_dependent(self):
        # the docstring is the documentation fix; hold it to naming the
        # machine-dependence so a rewrite cannot silently drop the caveat
        from repro.serve import WarmupReport

        doc = WarmupReport.measured_tune_s.fget.__doc__
        assert "Machine-dependent" in doc
        assert "cold_tune_s" in doc
