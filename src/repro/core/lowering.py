"""Shared machinery for lowering GEMM drivers to op streams.

The three drivers (TGEMM, M-parallel, K-parallel) differ in loop structure
but share everything else: tile buffer allocation against the capacity-
checked :class:`~repro.hw.cluster.ClusterSpaces`, DMA descriptor creation,
functional copy-in/copy-out closures, cooperative (split-across-cores)
loads of shared GSM tiles, and round-robin chunk assignment.

In *timing-only* mode (``data=None``) buffers are unbacked and closures are
omitted — the emitted plan carries only geometry and cycle counts, so
multi-gigabyte problems lower cheaply.

In functional mode the closures never capture operand arrays: they read
DDR operands through the context (``ctx.data``) when they run, and their
tile buffers are views into the cluster's shared scratch arenas.  A
functional lowering is therefore a reusable *template*: attach another
call's operands and fault injector to its context and replay it (see
:meth:`~repro.core.plans.GemmExecution.bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..errors import InputError, PlanError
from ..hw.cluster import ClusterSpaces
from ..hw.config import ClusterConfig
from ..hw.dma import DmaDescriptor
from ..hw.memory import Buffer, MemKind
from ..kernels.registry import KernelRegistry, registry_for
from .blocking import DTYPE_SIZES
from .shapes import GemmShape

FP32 = 4
DTYPE_NUMPY = {"f32": np.float32, "f64": np.float64}


def block_ranges(total: int, block: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(index, start, extent)`` for blocking ``total`` by ``block``."""
    if block < 1:
        raise PlanError(f"block size must be >= 1, got {block}")
    index = 0
    start = 0
    while start < total:
        yield index, start, min(block, total - start)
        index += 1
        start += block


def chunks_for_core(total: int, block: int, core: int, n_cores: int):
    """Round-robin assignment of blocked chunks to one core."""
    for index, start, extent in block_ranges(total, block):
        if index % n_cores == core:
            yield index, start, extent


class Window(NamedTuple):
    """The tile of ``source`` whose top-left element is ``(row, col)``.

    ``source`` is a DDR operand by name (``"a"``, ``"b"`` or ``"c"``),
    resolved against the operands bound when the copy runs, or an
    on-chip :class:`~repro.hw.memory.Buffer`.  The extent comes from the
    copy using the window.
    """

    source: str | Buffer
    row: int = 0
    col: int = 0


@dataclass
class GemmOperands:
    """The DDR-resident operands of one GEMM call (functional mode)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @classmethod
    def check(cls, shape: GemmShape, a, b, c, dtype: str = "f32") -> "GemmOperands":
        """Validate operands at the API boundary.

        Raises :class:`~repro.errors.InputError` (a :class:`PlanError`
        subclass) for anything unusable: non-array operands, wrong rank,
        wrong dtype, shape mismatches against ``shape``, and non-finite
        entries in A or B — a NaN/Inf input would otherwise poison the
        whole result and defeat the ABFT checksums, which must assume
        finite inputs.
        """
        expected = DTYPE_NUMPY[dtype]
        for name, arr in (("A", a), ("B", b), ("C", c)):
            if not isinstance(arr, np.ndarray):
                raise InputError(
                    f"{name} must be a numpy array, got {type(arr).__name__}"
                )
            if arr.ndim != 2:
                raise InputError(f"{name} must be 2-D, got {arr.ndim}-D")
            if arr.dtype != expected:
                raise InputError(
                    f"{name} must be {np.dtype(expected).name}, got {arr.dtype}"
                )
        if a.shape != (shape.m, shape.k):
            raise InputError(f"A shape {a.shape} != {(shape.m, shape.k)}")
        if b.shape != (shape.k, shape.n):
            raise InputError(f"B shape {b.shape} != {(shape.k, shape.n)}")
        if c.shape != (shape.m, shape.n):
            raise InputError(f"C shape {c.shape} != {(shape.m, shape.n)}")
        for name, arr in (("A", a), ("B", b)):
            if not np.isfinite(arr).all():
                raise InputError(f"{name} contains NaN or Inf entries")
        return cls(a, b, c)


class LoweringContext:
    """Per-lowering state: spaces, kernel registry, functional operands.

    ``kernel_exec`` selects how emitted KERNEL closures compute:
    ``"numpy"`` (default, ``c += a @ b``), or ``"compiled"``/``"interp"``
    to run the generated instruction stream on the ISA machine model —
    ISA-fidelity functional runs at trace-compiled or interpreter speed.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        shape: GemmShape,
        data: GemmOperands | None,
        registry: KernelRegistry | None = None,
        dtype: str = "f32",
        kernel_exec: str = "numpy",
    ) -> None:
        self.cluster = cluster
        self.shape = shape
        #: the operands closures read when they run; swapped per call by
        #: :meth:`~repro.core.plans.GemmExecution.bound`
        self.data = data
        #: functional lowering: emit closures and back the tile buffers
        self.backed = data is not None
        self.dtype = dtype
        self.esize = DTYPE_SIZES[dtype]
        self.spaces = ClusterSpaces(cluster)
        self.registry = registry or registry_for(cluster.core)
        if kernel_exec not in ("numpy", "compiled", "interp"):
            raise PlanError(
                f"unknown kernel execution mode {kernel_exec!r}; "
                "expected 'numpy', 'compiled' or 'interp'"
            )
        self.kernel_exec = kernel_exec
        #: the bound :class:`~repro.faults.inject.FaultInjector`, if any;
        #: when set, tile stores and kernel applications route through its
        #: guards (read-back verified copies, ABFT-checked GEMMs).  When
        #: ``None`` the fast paths below are plain assignment /
        #: ``apply_exec`` — bit-identical to a run without faults.
        self.faults = None

    # -- fault-guarded primitives ------------------------------------------

    def store(self, dst: np.ndarray, src: np.ndarray, core: int = 0) -> None:
        """``dst[...] = src``, read-back verified when faults are armed."""
        if self.faults is None:
            dst[...] = src
        else:
            self.faults.guarded_copy(dst, src, core)

    def apply_kernel(self, kern, a, b, c, core: int = 0) -> None:
        """Tile GEMM ``c += a @ b``, ABFT-checked when faults are armed."""
        if self.faults is None:
            kern.apply_exec(a, b, c, self.kernel_exec)
        else:
            self.faults.guarded_gemm(kern, a, b, c, self.kernel_exec, core)

    # -- buffers -----------------------------------------------------------

    def alloc(
        self,
        kind: MemKind,
        core: int,
        rows: int,
        cols: int,
        label: str,
        *,
        slots: int = 1,
    ) -> list[Buffer]:
        """Allocate ``slots`` identical tile buffers (ping-pong pairs)."""
        space = self.spaces.space(kind, core)
        return [
            space.alloc(
                (rows, cols),
                DTYPE_NUMPY[self.dtype],
                backed=self.backed,
                label=f"{label}[{s}]" if slots > 1 else label,
            )
            for s in range(slots)
        ]

    # -- functional closures -------------------------------------------------

    def _getter(
        self, where: np.ndarray | Window, rows: int, cols: int
    ) -> Callable[[], np.ndarray]:
        """The ``rows x cols`` tile at ``where`` as a zero-argument getter.

        Buffer windows and plain arrays are sliced once, here; operand
        windows are sliced from whatever operands are bound at call time.
        """
        if not isinstance(where, Window):
            return lambda: where
        source, r0, c0 = where
        if isinstance(source, Buffer):
            view = source.array()[r0 : r0 + rows, c0 : c0 + cols]
            return lambda: view
        return lambda: getattr(self.data, source)[r0 : r0 + rows, c0 : c0 + cols]

    def copy_in(
        self,
        buf: Buffer,
        src: np.ndarray | Window,
        rows: int,
        cols: int,
        core: int = 0,
        *,
        row: int = 0,
    ) -> Callable[[], None] | None:
        """Copy ``src`` (``rows x cols``) into ``buf`` from row ``row``."""
        if not self.backed:
            return None
        dst = buf.array()[row : row + rows, :cols]
        get = self._getter(src, rows, cols)

        def run() -> None:
            self.store(dst, get(), core)

        return run

    def copy_out(
        self,
        dst: np.ndarray | Window,
        buf: Buffer,
        rows: int,
        cols: int,
        core: int = 0,
    ) -> Callable[[], None] | None:
        """Copy the top-left ``rows x cols`` of ``buf`` out to ``dst``."""
        if not self.backed:
            return None
        src = buf.array()[:rows, :cols]
        get = self._getter(dst, rows, cols)

        def run() -> None:
            self.store(get(), src, core)

        return run

    def kernel_call(
        self,
        kern,
        a: Buffer,
        b: Buffer,
        c: Buffer,
        m: int,
        n: int,
        k: int,
        core: int = 0,
        *,
        c_row: int = 0,
    ) -> Callable[[], None] | None:
        """``C[c_row:c_row+m, :n] += A[:m, :k] @ B[:k, :n]`` on tile buffers."""
        if not self.backed:
            return None
        a_t = a.array()[:m, :k]
        b_t = b.array()[:k, :n]
        c_t = c.array()[c_row : c_row + m, :n]

        def run() -> None:
            self.apply_kernel(kern, a_t, b_t, c_t, core)

        return run

    # -- descriptors ---------------------------------------------------------

    def desc(
        self, src: MemKind, dst: MemKind, rows: int, cols: int, tag: str
    ) -> DmaDescriptor:
        return DmaDescriptor(
            src, dst, rows=rows, row_bytes=cols * self.esize, tag=tag
        )

    # -- cooperative GSM fills -------------------------------------------------

    def split_rows(self, rows: int) -> list[tuple[int, int, int]]:
        """Split ``rows`` as evenly as possible across cores.

        Returns ``(core, start, extent)`` triples; cores with no share are
        omitted.  Used for loading shared GSM tiles (A_g in Alg. 1, B_g in
        Alg. 4, C_g in Alg. 5) with all DMA engines cooperating.
        """
        n = self.cluster.n_cores
        base, rem = divmod(rows, n)
        out = []
        start = 0
        for core in range(n):
            extent = base + (1 if core < rem else 0)
            if extent > 0:
                out.append((core, start, extent))
            start += extent
        return out
