"""Pinned DES timelines: exact simulated seconds and event counts.

The discrete-event simulator breaks ties at equal simulated times by push
order, and ties are everywhere (the cores of a cluster run identical op
streams).  Any engine change that reorders a single push shows up here as
a different ``seconds`` bit pattern or event count, so these values pin
the engine's behaviour, not just its physics.  The expected values were
recorded with the generator-process engine this engine replaced.

Coverage: ftIMM M-parallel and K-parallel and TGEMM; 1, 3 and 8 cores;
f32 and f64; remainder shapes; DMA retries, a DDR degradation window and
a core failure that re-dispatches on the survivors.
"""

from __future__ import annotations

import pytest

from repro.core.ftimm import _lower, ftimm_gemm, tgemm_gemm
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.executor.timed import run_timed
from repro.faults.plan import CoreFault, DegradationWindow, FaultPlan

IMPLS = {"ftimm": ftimm_gemm, "tgemm": tgemm_gemm}

#: (impl, (m, n, k), keyword arguments, float.hex(seconds), events)
PINS = [
    ("ftimm", (4096, 32, 512), {"force_strategy": "m"},
     "0x1.6793f53e96a30p-12", 4810),
    ("ftimm", (4096, 32, 512), {"force_strategy": "m", "cores": 1},
     "0x1.d6d5770bb2716p-11", 4887),
    ("ftimm", (4096, 32, 512), {"force_strategy": "m", "cores": 3},
     "0x1.65b85d4fce59cp-12", 5014),
    ("ftimm", (1000, 17, 333), {}, "0x1.dd682dd32e316p-15", 1319),
    ("ftimm", (1000, 17, 333), {"cores": 3}, "0x1.ee7961ced35f1p-15", 1272),
    ("ftimm", (64, 32, 8192), {"force_strategy": "k"},
     "0x1.09da088599fd6p-13", 662),
    ("ftimm", (64, 32, 8192), {"force_strategy": "k", "cores": 3},
     "0x1.06d84ba77b325p-13", 741),
    ("ftimm", (61, 29, 5000), {"force_strategy": "k"},
     "0x1.3408ce0ae0c0dp-14", 599),
    ("ftimm", (2048, 24, 256), {"dtype": "f64"},
     "0x1.7d9d707339897p-13", 2490),
    ("ftimm", (96, 24, 4096),
     {"dtype": "f64", "force_strategy": "k", "cores": 3},
     "0x1.2d527d6b3327dp-13", 1082),
    ("ftimm", (784, 64, 1152), {}, "0x1.44efcbbfb597dp-13", 2003),
    ("tgemm", (512, 96, 512), {}, "0x1.e332d8e926b9ap-13", 838),
    ("tgemm", (1000, 17, 333), {"cores": 3}, "0x1.029d42f34e07ap-12", 1582),
    ("tgemm", (300, 40, 700), {"cores": 1}, "0x1.be6548a13192fp-13", 946),
]

#: faulted runs: (impl, shape, kwargs, plan, seconds hex, events,
#: dma_retries, redispatches)
FAULT_PINS = [
    ("ftimm", (2048, 32, 512), {}, FaultPlan(seed=3, dma_fail_rate=0.05),
     "0x1.90f6c8cd1d309p-13", 2645, 22, 0),
    ("ftimm", (64, 32, 8192), {"force_strategy": "k"},
     FaultPlan(seed=5, dma_fail_rate=0.1),
     "0x1.4f1c2885209bcp-13", 692, 6, 0),
    ("ftimm", (2048, 32, 512), {},
     FaultPlan(seed=1, ddr_degradation=(DegradationWindow(2e-6, 9e-6, 0.3),)),
     "0x1.77b3c0726c104p-13", 2492, 0, 0),
    ("ftimm", (2048, 32, 512), {},
     FaultPlan(seed=2, core_faults=(CoreFault(core=2, after_s=3e-6),)),
     "0x1.710a76631cb3ap-13", 2523, 0, 1),
    ("tgemm", (512, 96, 512), {},
     FaultPlan(seed=4, dma_fail_rate=0.1,
               ddr_degradation=(DegradationWindow(1e-6, 4e-6, 0.5),)),
     "0x1.003072e93ebeap-12", 867, 9, 0),
]


def _label(pin) -> str:
    impl, (m, n, k), kw = pin[:3]
    extra = ",".join(f"{key}={val}" for key, val in sorted(kw.items()))
    return f"{impl}-{m}x{n}x{k}" + (f"-{extra}" if extra else "")


@pytest.mark.parametrize("pin", PINS, ids=_label)
def test_clean_timeline_pinned(pin):
    impl, (m, n, k), kw, seconds_hex, events = pin
    timing = IMPLS[impl](m, n, k, timing="des", **kw).timing
    assert timing.seconds.hex() == seconds_hex
    assert timing.events_processed == events


@pytest.mark.parametrize("pin", FAULT_PINS, ids=_label)
def test_faulted_timeline_pinned(pin):
    impl, (m, n, k), kw, plan, seconds_hex, events, retries, redispatch = pin
    result = IMPLS[impl](m, n, k, timing="des", faults=plan, **kw)
    assert result.timing.seconds.hex() == seconds_hex
    assert result.timing.events_processed == events
    assert result.faults.dma_retries == retries
    assert result.faults.redispatches == redispatch


def test_ddr_utilization_pinned(cluster, registry):
    shape = GemmShape(2048, 32, 512)
    lowered = _lower(shape, cluster, tune(shape, cluster), None, registry)
    result = run_timed(lowered, record_bandwidth=True)
    assert result.seconds.hex() == "0x1.6dea5aaa01f02p-13"
    assert result.events_processed == 2490
    assert result.ddr_utilization.hex() == "0x1.66e2d4bc3e062p-1"
