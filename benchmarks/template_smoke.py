"""CI template smoke: lower once, bind many, hash each B once, with
unchanged results.

Serves the fixed-seed overload mix twice per configuration (clean, and
with seeded bit flips) and fails (exit 1) unless all hold:

1. **One lowering per key.**  With a cold template cache at the start,
   the number of ``build_*`` lowerings that carry operands equals the
   number of distinct lowering keys, and every other functional call is
   a bind (the ``core/lowering/templates`` and ``core/lowering/binds``
   counters agree).

2. **One hash per B content.**  With a cold digest memo at the start,
   the full blake2b hashes (``core/batched/digests``) equal the number
   of distinct B contents among the requests that reached admission,
   and every other admitted request is a memo hit
   (``core/batched/digest_hits``).

3. **Caching changes nothing.**  The records, batches, makespan and
   served bits equal those of a run that clears the template cache and
   the digest memo before every lookup, so every call lowers afresh and
   every B is hashed afresh.

Both runs are deterministic (simulated time, fixed seed), so a failure
here is a regression, not noise.

Usage::

    PYTHONPATH=src python benchmarks/template_smoke.py [seed]
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager

import numpy as np

from repro import collecting
from repro.core import batched, ftimm
from repro.faults import FaultPlan
from repro.serve import ServeConfig, make_requests, serve
from repro.serve.request import SHED

SEED = 7
RATE_RPS = 120_000.0
N_REQUESTS = 400
BUILDERS = ("build_parallel_m", "build_parallel_k", "build_tgemm")


@contextmanager
def counting_lowerings():
    """Record (builder, shape, plan, cluster, kernel exec) of every
    lowering with operands made while the block runs."""
    keys: list[tuple] = []
    originals = {name: getattr(ftimm, name) for name in BUILDERS}

    def wrap(name, fn):
        def lower(shape, cluster, plan=None, data=None, registry=None, **kw):
            if data is not None:
                keys.append((name, shape, plan, cluster,
                             kw.get("kernel_exec", "numpy")))
            return fn(shape, cluster, plan=plan, data=data,
                      registry=registry, **kw)
        return lower

    for name, fn in originals.items():
        setattr(ftimm, name, wrap(name, fn))
    try:
        yield keys
    finally:
        for name, fn in originals.items():
            setattr(ftimm, name, fn)


@contextmanager
def cold_every_call():
    """Clear the template cache and the digest memo before every lookup."""
    lookup = ftimm.TEMPLATES.lookup
    digest = batched.DIGESTS.lookup

    def cold(key, lower):
        ftimm.TEMPLATES.clear()
        return lookup(key, lower)

    def cold_digest(b):
        batched.DIGESTS.clear()
        return digest(b)

    ftimm.TEMPLATES.lookup = cold
    batched.DIGESTS.lookup = cold_digest
    try:
        yield
    finally:
        del ftimm.TEMPLATES.lookup
        del batched.DIGESTS.lookup


def run(requests, c0, config):
    served = [dataclasses.replace(r, c=c0[r.req_id].copy()) for r in requests]
    with collecting() as reg, counting_lowerings() as keys:
        report = serve(served, config)
    counters = (reg.counter("core/lowering/templates").value,
                reg.counter("core/lowering/binds").value,
                reg.counter("faults/bitflips_injected").value,
                reg.counter("core/batched/digests").value,
                reg.counter("core/batched/digest_hits").value)
    return report, served, keys, counters


def check(label, requests, config) -> list[str]:
    failures = []
    c0 = {r.req_id: r.c.copy() for r in requests}
    ftimm.TEMPLATES.clear()
    batched.DIGESTS.clear()
    report, served, keys, (templates, binds, flips, digests, hits) = run(
        requests, c0, config
    )
    distinct = len(set(keys))
    print(f"{label}: {len(keys)} lowerings with operands for {distinct} "
          f"keys; templates={templates} binds={binds} bitflips={flips}")
    admitted = {r.req_id for r in report.records if r.status != SHED}
    contents = {(str(r.b.dtype), r.b.shape, r.b.tobytes())
                for r in requests if r.req_id in admitted}
    print(f"{label}: {digests} B hashes for {len(contents)} distinct B "
          f"contents; {hits} memo hits over {len(admitted)} admitted")
    if digests != len(contents) or digests + hits != len(admitted):
        failures.append(f"{label}: {digests} B hashes and {hits} memo hits "
                        f"for {len(contents)} distinct B contents over "
                        f"{len(admitted)} admitted requests")
    if config.faults is not None and flips <= 0:
        failures.append(f"{label}: the fault plan injected nothing")
    if len(keys) != distinct or templates != distinct:
        failures.append(f"{label}: {len(keys)} lowerings with operands "
                        f"(templates counter {templates}) for {distinct} keys")
    if binds <= 0:
        failures.append(f"{label}: no call bound a cached template")

    with cold_every_call():
        cold, cold_served, cold_keys, cold_counters = run(
            requests, c0, config
        )
    print(f"{label} (caches cleared before every lookup): "
          f"{len(cold_keys)} lowerings, {cold_counters[3]} B hashes")
    if cold_counters[3] != len(admitted):
        failures.append(f"{label}: the cold run hashed {cold_counters[3]} "
                        f"Bs for {len(admitted)} admitted requests")
    if len(cold_keys) != templates + binds:
        failures.append(f"{label}: the cold run lowered {len(cold_keys)} "
                        f"times for {templates + binds} functional calls")
    same = (
        [dataclasses.astuple(r) for r in report.records]
        == [dataclasses.astuple(r) for r in cold.records]
        and [dataclasses.astuple(b) for b in report.batches]
        == [dataclasses.astuple(b) for b in cold.batches]
        and report.makespan_s == cold.makespan_s
    )
    if not same:
        failures.append(f"{label}: records differ from the cold run")
    if any(not np.array_equal(w.c, c.c) for w, c in zip(served, cold_served)):
        failures.append(f"{label}: served bits differ from the cold run")
    return failures


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else SEED
    requests = make_requests(
        "overload", rate_rps=RATE_RPS, n_requests=N_REQUESTS, seed=seed,
    )
    failures = check("clean", requests, ServeConfig(policy="edf"))
    faulted = ServeConfig(
        policy="edf",
        faults=FaultPlan(seed=seed, bitflip_rate=0.05),
        max_redispatch=2,
    )
    failures += check("faulted", requests, faulted)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("template smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
