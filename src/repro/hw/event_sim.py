"""A small discrete-event simulation (DES) kernel.

This is the substrate under the timed executor: DMA engines, compute units
and shared-bandwidth channels share one simulated clock.  The engine is
callback-driven: the heap holds ``(time, seq, callback, arg)`` entries and
the loop calls ``callback(arg)`` when one comes due.  The hot per-op
machinery (a DMA descriptor's trip through its engine, a micro-kernel on
the compute pipeline) is built as small state machines that push their own
next step (:class:`~repro.hw.dma.DmaTransfer`,
:class:`~repro.hw.cluster.KernelRun`).  On top sit the classic
generator-process primitives, kept deliberately small, for the op-stream
walkers, barriers and tests:

* :class:`Event` — one-shot occurrence carrying an optional value.
* :class:`Timeout` — event that fires after a simulated delay.
* :class:`Process` — wraps a generator that ``yield``-s events; itself an
  event that fires when the generator returns (value = its return value).
* :class:`AllOf` — barrier over a set of events.
* :class:`Resource` — FIFO resource with integer capacity (DMA channels,
  the single compute pipeline of a core).

Time is in **seconds** (float).  Determinism: ties on the event heap break on
a monotonically increasing sequence number, so runs are exactly repeatable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

from ..errors import SimulationError

ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot event.  Processes wait on it by ``yield``-ing it."""

    __slots__ = ("sim", "callbacks", "_value", "triggered", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self.triggered = False
        self.name = name

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event immediately (at the current simulated time)."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def _fire(self, value: Any) -> None:
        """Heap callback: trigger unless something triggered it first."""
        if not self.triggered:
            self.succeed(value)

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.triggered else "pending"
        return f"Event({self.name or hex(id(self))}, {state})"


class Timeout(Event):
    """Event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim, name="timeout")
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        sim._call_at(sim.now + delay, self._fire, value)


class Process(Event):
    """Drives a generator; fires (as an event) when the generator returns."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        super().__init__(sim, name=name)
        self._gen = gen
        # start the process at the current time, not synchronously, so a
        # spawner can create several processes "at once"
        sim._call_at(sim.now, self._send, None)

    def _resume(self, event: Event) -> None:
        self._send(event._value)

    def _send(self, value: Any) -> None:
        self.sim._wakeups += 1
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            name = self.name or getattr(self._gen, "__name__", "proc")
            raise SimulationError(
                f"process {name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        target.wait(self._resume)


class AllOf(Event):
    """Fires when every event in ``events`` has fired (a barrier).

    Value is the list of the constituent events' values, in input order.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str = "") -> None:
        super().__init__(sim, name=name or "all_of")
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            sim._schedule_at(sim.now, self, [])
            return
        for ev in self._events:
            ev.wait(self._one_done)

    def _one_done(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev.value for ev in self._events])


class Simulator:
    """Event loop: a heap of ``(time, seq, callback, arg)`` entries."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event, Any]] = []
        self._seq = 0
        self._processed = 0
        self._heap_peak = 0
        self._wakeups = 0

    # -- factory helpers ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        return AllOf(self, events, name)

    # -- scheduling --------------------------------------------------------

    def _call_at(self, when: float, callback: Callable[[Any], None],
                 arg: Any = None) -> None:
        """Push ``callback(arg)`` to run at simulated time ``when``."""
        if when < self.now - 1e-18:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.now}"
            )
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (when, self._seq, callback, arg))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def _schedule_at(self, when: float, event: Event, value: Any) -> None:
        """Push the trigger of ``event`` (with ``value``) at ``when``."""
        self._call_at(when, event._fire, value)

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run until the heap drains (or simulated time passes ``until``).

        Returns the final simulation time.  ``max_events`` is a runaway
        guard; real experiments stay far below it.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return self.now
            when, _seq, callback, arg = pop(heap)
            self.now = when
            self._processed += 1
            if self._processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely a runaway process"
                )
            callback(arg)
        return self.now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def heap_peak(self) -> int:
        """High-water mark of the pending-event heap."""
        return self._heap_peak

    @property
    def process_wakeups(self) -> int:
        """Times any :class:`Process` generator was resumed (callback state
        machines are not processes and never count)."""
        return self._wakeups


class Resource:
    """FIFO resource with integer capacity.

    ``request()`` returns an event that fires when a slot is granted
    (``acquire()`` is the callback form); ``release()`` frees a slot.  Used for DMA channels (capacity =
    channels_per_core) and the compute pipeline (capacity = 1).
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue")

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource {name!r} capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Callable[[Any], None]] = deque()

    def acquire(self, granted: Callable[[Any], None]) -> None:
        """Push ``granted(None)`` now if a slot is free, else when one is
        released to this request (FIFO)."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim._call_at(self.sim.now, granted)
        else:
            self._queue.append(granted)

    def request(self) -> Event:
        ev = Event(self.sim, name=self.name)
        self.acquire(ev._fire)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            self.sim._call_at(self.sim.now, self._queue.popleft())
        else:
            self._in_use -= 1

    def use(self, duration: float) -> ProcessGen:
        """Convenience process: acquire, hold for ``duration``, release."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)
