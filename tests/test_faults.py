"""Fault injection and the no-silent-corruption contract.

The resilience guarantee under test: a GEMM run with a ``FaultPlan``
either finishes with the *exact* bits the fault-free blocked algorithm
produces, or raises a typed :class:`~repro.errors.FaultError`.  Silent
wrong answers are the one outcome that must never occur — the chaos
sweep at the bottom asserts it wholesale, the focused tests pin down
each recovery mechanism (DMA read-back, ABFT recompute, core-failure
re-dispatch) and each loud-failure path (retry budgets, last core).
"""

import numpy as np
import pytest

from repro.core.ftimm import ftimm_gemm, tgemm_gemm
from repro.errors import (
    ConfigError,
    CoreFailureError,
    DmaTransferError,
    InputError,
)
from repro.faults import (
    NO_FAULTS,
    CoreFault,
    DegradationWindow,
    FaultInjector,
    FaultPlan,
    chaos_sweep,
)

M, N, K = 96, 32, 128


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    return a, b


@pytest.fixture(scope="module")
def baseline(operands):
    a, b = operands
    c = np.zeros((M, N), np.float32)
    ftimm_gemm(M, N, K, a=a, b=b, c=c, timing="none")
    return c


class TestFaultPlan:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            FaultPlan(dma_fail_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(bitflip_rate=-0.1)

    def test_degradation_validation(self):
        with pytest.raises(ConfigError):
            DegradationWindow(2.0, 1.0, 0.5).validate()   # empty window
        with pytest.raises(ConfigError):
            FaultPlan(ddr_degradation=(DegradationWindow(0.0, 1.0, 0.0),))
        with pytest.raises(ConfigError):  # overlapping windows
            FaultPlan(ddr_degradation=(
                DegradationWindow(0.0, 2.0, 0.5),
                DegradationWindow(1.0, 3.0, 0.5),
            ))

    def test_core_fault_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(core_faults=(CoreFault(core=-1, after_ops=0),))

    def test_enabled(self):
        assert not NO_FAULTS.enabled
        assert not FaultPlan(seed=42).enabled
        assert FaultPlan(bitflip_rate=1e-3).enabled
        assert FaultPlan(core_faults=(CoreFault(0, after_ops=1),)).enabled

    def test_core_fault_for_attempt_in_order(self):
        plan = FaultPlan(core_faults=(
            CoreFault(3, after_ops=1), CoreFault(1, after_ops=2),
        ))
        assert plan.core_fault_for_attempt(0).core == 3
        assert plan.core_fault_for_attempt(1).core == 1
        assert plan.core_fault_for_attempt(2) is None


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        one = FaultInjector(FaultPlan(seed=9, dma_fail_rate=0.5), attempt=0)
        two = FaultInjector(FaultPlan(seed=9, dma_fail_rate=0.5), attempt=0)
        sites = [("dma", c, i, a) for c in range(4) for i in range(8)
                 for a in range(2)]
        assert [one.unit(*s) for s in sites] == [two.unit(*s) for s in sites]

    def test_seed_and_attempt_decorrelate(self):
        base = FaultInjector(FaultPlan(seed=9), attempt=0)
        seed = FaultInjector(FaultPlan(seed=10), attempt=0)
        attempt = FaultInjector(FaultPlan(seed=9), attempt=1)
        sites = [("x", i) for i in range(64)]
        assert [base.unit(*s) for s in sites] != [seed.unit(*s) for s in sites]
        assert [base.unit(*s) for s in sites] != [
            attempt.unit(*s) for s in sites
        ]

    def test_unit_in_range(self):
        inj = FaultInjector(FaultPlan(seed=3), attempt=0)
        vals = [inj.unit("u", i) for i in range(256)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 200  # actually spread out


class TestNoFaultBitIdentity:
    def test_armed_but_silent_plan_is_bit_identical(self, operands, baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none", faults=NO_FAULTS
        )
        assert np.array_equal(c, baseline)
        assert result.faults is not None
        assert result.faults.recovered_faults == 0
        assert result.faults.injected_bitflips == 0

    def test_auto_timing_with_faults_uses_des(self, operands):
        a, b = operands
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=np.zeros((M, N), np.float32),
            faults=FaultPlan(seed=1),
        )
        assert result.timing_mode == "des"


class TestBitflipRecovery:
    def test_f32_copy_and_abft_recovery_exact(self, operands, baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(seed=0, bitflip_rate=8e-2),
        )
        report = result.faults
        # seed 0 at this rate deterministically exercises both guards
        assert report.injected_bitflips > 0
        assert report.copy_retries > 0
        assert report.abft_detected > 0
        assert report.abft_recomputes == report.abft_detected
        assert np.array_equal(c, baseline)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_checksum_is_a_detection(self, dtype, bad):
        from repro.faults.inject import _abft_expect, _abft_ok

        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 8)).astype(dtype)
        b = rng.standard_normal((8, 5)).astype(dtype)
        c = rng.standard_normal((6, 5)).astype(dtype)
        expect = _abft_expect(a, b, c)
        c += a @ b
        assert _abft_ok(c, *expect)
        c[2, 3] = bad
        c[4, 1] = -np.inf  # inf - inf: a NaN checksum
        assert not _abft_ok(c, *expect)

    def test_f64_abft_recovery_exact(self):
        rng = np.random.default_rng(2)
        m, n, k = 48, 16, 64
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        ref = np.zeros((m, n))
        ftimm_gemm(m, n, k, a=a, b=b, c=ref, timing="none", dtype="f64")
        c = np.zeros((m, n))
        result = ftimm_gemm(
            m, n, k, a=a, b=b, c=c, timing="none", dtype="f64",
            faults=FaultPlan(seed=1, bitflip_rate=8e-2),
        )
        assert result.faults.injected_bitflips > 0
        assert np.array_equal(c, ref)

    def test_tgemm_recovery_exact(self, operands):
        a, b = operands
        ref = np.zeros((M, N), np.float32)
        tgemm_gemm(M, N, K, a=a, b=b, c=ref, timing="none")
        c = np.zeros((M, N), np.float32)
        result = tgemm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(seed=0, bitflip_rate=8e-2),
        )
        assert result.faults.injected_bitflips > 0
        assert np.array_equal(c, ref)

    def test_same_plan_same_report(self, operands):
        a, b = operands
        plan = FaultPlan(seed=0, bitflip_rate=8e-2)
        runs = []
        for _ in range(2):
            c = np.zeros((M, N), np.float32)
            runs.append(
                ftimm_gemm(M, N, K, a=a, b=b, c=c, timing="none", faults=plan)
            )
        assert runs[0].faults == runs[1].faults


class TestCoreFailure:
    def test_functional_redispatch_matches_reduced_cluster(self, operands):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(core_faults=(CoreFault(core=2, after_ops=3),)),
        )
        report = result.faults
        assert report.core_failures == 1
        assert report.redispatches == 1
        assert result.n_cores == report.final_cores
        # re-dispatch must reproduce the fault-free run on the surviving
        # cores bit-for-bit (same strategy, one fewer core)
        ref = np.zeros((M, N), np.float32)
        ftimm_gemm(
            M, N, K, a=a, b=b, c=ref, timing="none",
            cores=result.n_cores, force_strategy=result.strategy,
        )
        assert np.array_equal(c, ref)

    def test_timed_redispatch_reports_lost_time(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        result = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(core_faults=(CoreFault(core=1, after_s=1e-6),)),
        )
        report = result.faults
        assert report.redispatches == 1
        assert report.lost_s > 0.0
        # the discarded work and the smaller cluster both cost time
        assert result.seconds > clean.seconds

    def test_last_core_failure_is_loud(self, operands):
        a, b = operands
        with pytest.raises(CoreFailureError):
            ftimm_gemm(
                M, N, K, a=a, b=b, c=np.zeros((M, N), np.float32),
                timing="none", cores=1,
                faults=FaultPlan(core_faults=(CoreFault(0, after_ops=1),)),
            )


class TestTimedFaults:
    def test_dma_retries_cost_simulated_time(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        faulted = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(seed=0, dma_fail_rate=0.2),
        )
        report = faulted.faults
        assert report.dma_retries > 0
        assert report.dma_retry_s > 0.0
        assert faulted.seconds > clean.seconds

    def test_degradation_window_slows_ddr(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        degraded = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(
                ddr_degradation=(DegradationWindow(0.0, 1.0, 0.25),)
            ),
        )
        assert degraded.seconds > clean.seconds

    def test_exhausted_dma_retries_raise_typed(self):
        with pytest.raises(DmaTransferError):
            ftimm_gemm(
                M, N, K, timing="des", faults=FaultPlan(dma_fail_rate=1.0)
            )


class TestInputValidation:
    def test_non_array(self):
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=[[1.0]], b=np.zeros((4, 4), np.float32),
                       c=np.zeros((4, 4), np.float32), timing="none")

    def test_non_2d(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros(16, np.float32),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_wrong_dtype(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros((4, 4), np.float64),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros((4, 5), np.float32),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_nonfinite_rejected(self):
        a = np.zeros((4, 4), np.float32)
        b = np.zeros((4, 4), np.float32)
        c = np.zeros((4, 4), np.float32)
        a[1, 2] = np.nan
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=a, b=b, c=c, timing="none")
        a[1, 2] = 0.0
        b[0, 0] = np.inf
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=a, b=b, c=c, timing="none")


class TestChaosSweep:
    def test_mini_sweep_no_silence(self):
        summary = chaos_sweep(
            shapes=((24, 8, 64),),
            rates=(1e-2,),
            seeds=range(2),
            impls=("ftimm",),
            core_failures=True,
            timed_probe=False,
        )
        assert summary.ok
        assert summary.silent == []
        counts = summary.counts()
        assert sum(counts.values()) == len(summary.outcomes) > 0
        assert "SILENT" not in summary.describe() or counts.get(
            "silent", 0
        ) == 0
