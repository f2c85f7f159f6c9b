"""Per-layer host-time accounting, measured from outside the program.

:class:`LayerClock` patches public functions and methods of ``repro``
where their consumers look them up (a module attribute or a class
attribute), times every call on one stack, and restores the originals on
exit.  A layer's *self* time is its inclusive time minus the time its
wrapped children cover, so the self times of all layers plus the
benchmark's residual partition the traced wall exactly when every call
nests properly; :meth:`LayerClock.accounting_error` checks that.

Nothing under ``src/`` is changed: the same code runs traced and
untraced, only the bindings differ for the duration of the ``with``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: layer name -> [(owner, attribute)] patched while tracing.  ``owner``
#: is a dotted module path, or ``module:Class`` for a method.  Each
#: entry is the binding a consumer actually calls, e.g. the verify path
#: is ``repro.serve.server.ftimm_gemm`` (the only ftimm_gemm the engine
#: calls) and lowering is patched in ``repro.core.ftimm`` (the
#: top-level GEMM entry's imports) and in the defining modules (autotune imports them lazily).
TARGETS: dict[str, list[tuple[str, str]]] = {
    "serve.server": [
        ("repro.serve.server:ServeEngine", "offer"),
        ("repro.serve.server:ServeEngine", "advance_until"),
        ("repro.serve.server:ServeEngine", "finish"),
    ],
    "serve.verify": [("repro.serve.server", "ftimm_gemm")],
    "serve.batcher": [
        ("repro.serve.batcher:ShapeBucketBatcher", "add"),
        ("repro.serve.batcher:ShapeBucketBatcher", "due_at"),
        ("repro.serve.batcher:ShapeBucketBatcher", "close_due"),
        ("repro.serve.batcher:ShapeBucketBatcher", "drain"),
    ],
    "serve.scheduler": [
        ("repro.serve.scheduler:Scheduler", "warm"),
        ("repro.serve.scheduler:Scheduler", "pick_backend"),
        ("repro.serve.scheduler:Scheduler", "idle_backend"),
        ("repro.serve.scheduler:Scheduler", "route_retry"),
        ("repro.serve.scheduler:Scheduler", "next_ready_s"),
        ("repro.serve.scheduler:Scheduler", "note_fault"),
        ("repro.serve.scheduler:Scheduler", "note_success"),
        ("repro.serve.scheduler:Scheduler", "tune_penalty"),
    ],
    "serve.placement": [
        ("repro.serve.placement:PlacementManager", "on_close"),
        ("repro.serve.placement:PlacementManager", "holder_in"),
        ("repro.serve.placement:PlacementManager", "use_replica"),
    ],
    "serve.degrade": [
        ("repro.serve.degrade:DegradePolicy", "classify"),
        ("repro.serve.degrade:OnlineBurn", "add"),
        ("repro.serve.degrade:OnlineBurn", "burn_at"),
    ],
    "core.batched": [("repro.serve.server", "grouped_gemm")],
    "core.tuner": [
        ("repro.core.ftimm", "tune"),
        ("repro.core.autotune", "tune"),
    ],
    "core.lowering": [
        ("repro.core.ftimm", "build_parallel_m"),
        ("repro.core.ftimm", "build_parallel_k"),
        ("repro.core.ftimm", "build_tgemm"),
        ("repro.core.parallel_m", "build_parallel_m"),
        ("repro.core.parallel_k", "build_parallel_k"),
    ],
    "executor.functional": [("repro.core.ftimm", "run_functional")],
    "executor.analytic": [
        ("repro.core.ftimm", "analytic_parallel_m"),
        ("repro.core.ftimm", "analytic_parallel_k"),
        ("repro.core.ftimm", "analytic_tgemm"),
        ("repro.core.autotune", "analytic_parallel_m"),
        ("repro.core.autotune", "analytic_parallel_k"),
        ("repro.executor.analytic", "analytic_parallel_m"),
        ("repro.executor.analytic", "analytic_parallel_k"),
    ],
    "executor.timed": [
        ("repro.core.ftimm", "run_timed"),
        ("repro.core.autotune", "run_timed"),
    ],
    "kernels.registry": [
        ("repro.kernels.registry:KernelRegistry", "ftimm"),
        ("repro.kernels.registry:KernelRegistry", "tgemm"),
    ],
}

#: layers the benchmark enters itself (its own calls into public APIs)
ENTRY_LAYERS = ("serve.gateway", "core.autotune")

#: every layer with a self time, in report order; "bench" is the
#: residual: benchmark code and anything no wrapped call covers
LAYERS = tuple(TARGETS) + ENTRY_LAYERS + ("bench",)

#: the per-layer self times plus the residual must add up to the traced
#: wall within this share of it
ACCOUNTING_TOLERANCE = 0.02


def _resolve(owner: str):
    import importlib

    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class LayerClock:
    """Inclusive/self host time and call counts per layer."""

    def __init__(self) -> None:
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: inclusive seconds per (layer, function) for named sub-metrics
        self.fn_incl_s: dict[tuple[str, str], float] = defaultdict(float)
        #: the workload phase being timed (set by the workload)
        self.phase = ""
        #: per phase: lowering calls, and the distinct lowering keys
        #: (function, shape, plan, with operands)
        self.lowering_calls: dict[str, int] = defaultdict(int)
        self.lowering_keys: dict[str, set[tuple]] = defaultdict(set)
        self.wall_s = 0.0
        # each frame: [layer, start, child seconds]
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- timing ------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        self.calls[layer] += 1
        return frame

    def _exit(self, frame: list, fn_name: str) -> None:
        end = time.perf_counter()
        layer, start, child = frame
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - nesting broken
            raise RuntimeError(f"layer stack out of order at {layer}")
        incl = end - start
        self._depth[layer] -= 1
        # a layer re-entered below itself counts its inclusive time once
        if self._depth[layer] == 0:
            self.incl_s[layer] += incl
            self.fn_incl_s[(layer, fn_name)] += incl
        self.self_s[layer] += incl - child
        if self._stack:
            self._stack[-1][2] += incl

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one entry into ``layer``."""
        frame = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, getattr(fn, "__name__", "call"))

    def _wrap(self, layer: str, fn_name: str, fn):
        clock = self

        def timed(*args, **kwargs):
            if layer == "core.lowering":
                clock._note_lowering(fn_name, args, kwargs)
            frame = clock._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                clock._exit(frame, fn_name)

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", fn_name)
        return timed

    def _note_lowering(self, fn_name: str, args, kwargs) -> None:
        shape = args[0] if args else kwargs.get("shape")
        plan = args[2] if len(args) > 2 else kwargs.get("plan")
        data = args[3] if len(args) > 3 else kwargs.get("data")
        self.lowering_calls[self.phase] += 1
        self.lowering_keys[self.phase].add(
            (fn_name, repr(shape), repr(plan), data is not None)
        )

    # -- patching ----------------------------------------------------------

    @contextmanager
    def patched(self):
        """Install the wrappers; time the block as the residual's frame."""
        patched = []
        for layer, targets in TARGETS.items():
            for owner, attr in targets:
                obj = _resolve(owner)
                original = getattr(obj, attr)
                patched.append((obj, attr, original))
                setattr(obj, attr, self._wrap(layer, attr, original))
        t0 = time.perf_counter()
        root = self._enter("bench")
        try:
            yield self
        finally:
            self._exit(root, "bench")
            self.wall_s = time.perf_counter() - t0
            for obj, attr, original in reversed(patched):
                setattr(obj, attr, original)

    # -- reporting ---------------------------------------------------------

    def accounting_error(self) -> float:
        """|sum of self times - traced wall| / traced wall."""
        total = sum(self.self_s[layer] for layer in LAYERS)
        return abs(total - self.wall_s) / self.wall_s if self.wall_s else 0.0
