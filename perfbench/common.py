"""Shared pieces of the workloads: results, operation accounting, statistics."""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from qmux import errors

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"


def is_refusal(exc: BaseException) -> bool:
    """Conflicts, timeouts and "no region fits" are answers, not failures."""
    if isinstance(exc, (errors.OrchestrationConflict, errors.OrchestrationTimeout)):
        return True
    return isinstance(exc, errors.CompileError) and "no feasible region" in str(exc)


@dataclass
class Result:
    """What one workload run produced: metrics, operation counts and check failures.

    An operation is failed when it raised something other than a refusal or
    when any output check on it failed; it counts once however many checks
    failed on it.
    """

    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    refused: int = 0
    failed_ops: set[str] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = samples

    def check(self, ok: bool, op: str, message: str) -> bool:
        """Record the outcome of one output check on operation `op`."""
        if not ok:
            self._fail(op, f"{op}: {message}")
        return ok

    def error(self, op: str, exc: BaseException) -> None:
        self._fail(op, f"{op}: {type(exc).__name__}: {exc}")

    def _fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


class Timings:
    """Durations of repeated units of work at reference speed, keyed by unit.

    Every pass of a workload repeats the same units, spread out over the
    run. The fastest repeat of a unit is its time: interference from other
    processes only ever adds time, so the minimum is the steadiest estimate
    of what the unit costs.
    """

    def __init__(self) -> None:
        self._by_unit: dict[str, list[float]] = {}

    def add(self, unit: str, seconds: float) -> None:
        self._by_unit.setdefault(unit, []).append(seconds)

    def best(self) -> dict[str, float]:
        return {unit: min(v) for unit, v in self._by_unit.items()}


class ReferenceClock:
    """Machine speed from a fixed pure-Python loop timed between units of work.

    The machine is shared, and for seconds to minutes at a time the same
    code runs 20-50% slower; every clock, wall or CPU time, shows it. So
    each timing is expressed at reference speed, the speed at which the
    loop takes REFERENCE_S: it is multiplied by REFERENCE_S over the loop's
    time measured right around it (the faster of the runs just before and
    just after). A change to qmux moves these times in full, while the
    machine's swings cancel out: over eight runs of the 30 suite programs
    compiled on heavyhex27, the median call moved by 4.1-6.3 ms raw and by
    3.8-4.3 ms at reference speed.
    """

    REFERENCE_S = 0.00018
    # A loop timed longer ago than this no longer tells the speed around a unit.
    STALE_S = 0.005

    def __init__(self) -> None:
        self.last = math.inf
        self.last_at = -math.inf
        self.ticks: list[float] = []

    def tick(self) -> float:
        """Time the reference loop once; return its duration."""
        t0 = time.perf_counter()
        _reference_loop()
        self.last_at = time.perf_counter()
        self.last = self.last_at - t0
        self.ticks.append(self.last)
        return self.last

    def before(self) -> float:
        """The loop's time just before a unit: the last tick if recent, else a new one."""
        return self.last if time.perf_counter() - self.last_at < self.STALE_S else self.tick()

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.REFERENCE_S / min(before, after)


def _reference_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


# One clock per process: the benchmark runs one unit at a time.
CLOCK = ReferenceClock()


def call_timed(fn, tracer, repeats: int = 1, budget_s: float = 0.0):
    """Call `fn` back to back; return its first outcome and its fastest time at reference speed.

    It is called `repeats` times, and again while the calls so far took less
    than `budget_s` in all, so a short unit is sampled often enough for its
    fastest time to settle and a long one runs only `repeats` times. Only
    the first call's spans are kept: the repeats run under `tracer.quiet()`,
    so a unit's per-layer figures do not grow with its repeats. The outcome
    is the return value, or the exception the call raised, for the caller to
    classify as a refusal or a failure.
    """
    before = CLOCK.before()
    best = math.inf
    spent = 0.0
    first = None
    calls = 0
    while calls < repeats or spent < budget_s:
        with nullcontext() if calls == 0 else tracer.quiet():
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # noqa: BLE001 - handed to the caller
                out = exc
            dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        if calls == 0:
            first = out
        calls += 1
    return first, CLOCK.scale(best, before, CLOCK.tick())


def timed_setup(build, repeats: int, tracer):
    """Run `build` `repeats` times; return its last value and the median duration at reference speed.

    Each build starts from the same heap: the previous value is dropped and
    collected first, untimed, so a collection of it does not land in the
    next build. The reference loop runs three times just before and just
    after each build. As in `call_timed`, only the first build's spans are
    kept.
    """
    durations = []
    value = None
    for i in range(repeats):
        value = None
        gc.collect()
        before = min(CLOCK.tick() for _ in range(3))
        with nullcontext() if i == 0 else tracer.quiet():
            start = time.perf_counter()
            value = build()
            duration = time.perf_counter() - start
        durations.append(CLOCK.scale(duration, before, min(CLOCK.tick() for _ in range(3))))
    return value, statistics.median(durations)


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between samples."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
