"""In-memory span tracing around the public functions of each qmux layer.

A traced run wraps module attributes of qmux at run time: every module that
holds a reference to a wrapped function gets the wrapper, so calls made
inside qmux (for example `compile_on_region` calling `initial_layout`) are
recorded as well as the benchmark's own calls. Nothing under `src/` changes.

Each span records its name, start, end, parent span and the request it
belongs to. Spans stay in memory and are written out when the run ends. A
span's self time is its duration minus the time its child spans cover;
spans nest strictly on the one benchmark thread, so that is the duration
minus the summed durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from qmux import circuits, compiler, devices, errors, harness, orchestrator, partition, serialize, simulator

SETUP = "setup"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters; `install` wraps qmux, `uninstall` restores it."""

    def __init__(self) -> None:
        # Spans are tagged "<scope>/<request>": the scope names the workload
        # being measured, the request its unit of work (or "setup").
        self.scope = ""
        self.request = SETUP
        self.counts: Counter[str] = Counter()
        # Span rows: [name, start, end, parent index or -1, request, child time, children].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, f"{self.scope}/{self.request}", 0.0, 0])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] >= 0:
            parent = self.spans[span[3]]
            parent[5] += span[2] - span[1]
            parent[6] += 1

    def wrap(self, name: str, fn, on_result=None, on_error=None, on_span=None):
        """Return `fn` wrapped in a span; hooks receive the call's arguments."""

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                self._exit(idx)
                if on_span is not None:
                    on_span(self.counts, self.spans[idx])
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever qmux or the benchmark refers to it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "qmux" or key.startswith(("qmux.", "perfbench.")))
        ]
        for owner, attr, name, hooks in _targets():
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **hooks)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Run the body untraced, then wrap again if tracing was on."""
        installed = bool(self._patched)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    @contextmanager
    def quiet(self):
        """Trace the body as usual but keep none of its spans or counts.

        Repeats of a unit of work run under it: they cost what a recorded
        call costs, so the traced timings stay comparable, while the
        per-layer figures count each unit once.
        """
        saved = self.spans, self.counts, self._open
        self.spans, self.counts, self._open = [], Counter(), []
        try:
            yield
        finally:
            self.spans, self.counts, self._open = saved

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _req, child, _n in self.spans:
            out[name] += (end - start) - child
        return dict(out)

    def self_times_by_request(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _parent, req, child, _n in self.spans:
            out[req][name] += (end - start) - child
        return {req: dict(v) for req, v in out.items()}

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times().items():
            out[_layer(name)] += secs
        return dict(out)

    def dump(self) -> dict:
        """Spans as compact rows with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_names": names,
            "span_columns": ["name", "start_s", "end_s", "parent", "request", "self_s"],
            "spans": [
                [index[n], round(s - t0, 9), round(e - t0, 9), p, req, round((e - s) - c, 9)]
                for n, s, e, p, req, c, _k in self.spans
            ],
        }


# -- what gets wrapped ---------------------------------------------------


def _count_parse(counts, circuit, args, kwargs):
    counts["circuits.gates_parsed"] += len(circuit.gates)


def _count_regions(counts, regions, args, kwargs):
    counts["partition.regions"] += len(regions)


def _count_process(counts, process, args, kwargs):
    counts["compiler.versions"] += len(process.executables)
    counts["compiler.swaps"] += sum(e.swap_count for e in process.executables)
    counts["compiler.routed_gates"] += sum(len(e.routed_gates) for e in process.executables)


def _count_bytes(counts, _result, args, kwargs):
    counts["serialize.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_greedy(counts, selection, args, kwargs):
    counts["orchestrator.greedy_evaluations"] += selection.evaluations
    counts["orchestrator.placed"] += len(selection.chosen)


def _count_exact(counts, selection, args, kwargs):
    counts["orchestrator.exact_evaluations"] += selection.evaluations
    counts["orchestrator.exact_timeouts"] += int(selection.timed_out)


def _count_refusal(counts, exc):
    if isinstance(exc, errors.OrchestrationConflict):
        counts["orchestrator.conflicts"] += 1
    elif isinstance(exc, errors.OrchestrationTimeout):
        counts["orchestrator.exact_timeouts"] += 1


def _count_shots(counts, _dist, args, kwargs):
    noise = args[1] if len(args) > 1 else kwargs["noise"]
    counts["simulator.shots"] += noise.shots


def _count_cache(counts, span):
    # A cached lookup returns without calling into compiler or simulator.
    counts["harness.cache_misses" if span[6] else "harness.cache_hits"] += 1


def _targets():
    exp = harness.FidelityExperiment
    return [
        (circuits, "parse_qasm", "circuits.parse_qasm", {"on_result": _count_parse}),
        (devices, "load_calibration", "devices.load_calibration", {}),
        (devices, "apply_variation", "devices.apply_variation", {}),
        (partition, "generate_compute_units", "partition.generate_compute_units", {}),
        (partition, "enumerate_regions", "partition.enumerate_regions", {"on_result": _count_regions}),
        (compiler, "compile_multi_version", "compiler.compile_multi_version", {"on_result": _count_process}),
        (compiler, "compile_on_region", "compiler.compile_on_region", {}),
        (compiler, "initial_layout", "compiler.initial_layout", {}),
        (compiler, "route", "compiler.route", {}),
        (serialize, "save_processes", "serialize.save_processes", {"on_result": _count_bytes}),
        (serialize, "load_processes", "serialize.load_processes", {"on_result": _count_bytes}),
        (
            orchestrator,
            "select_heuristic",
            "orchestrator.select_heuristic",
            {"on_result": _count_greedy, "on_error": _count_refusal},
        ),
        (
            orchestrator,
            "select_brute_force",
            "orchestrator.select_brute_force",
            {"on_result": _count_exact, "on_error": _count_refusal},
        ),
        (simulator, "simulate_noisy", "simulator.simulate_noisy", {"on_result": _count_shots}),
        (simulator, "simulate_ideal", "simulator.simulate_ideal", {}),
        (harness, "sample_crosstalk_map", "harness.sample_crosstalk_map", {}),
        (harness, "generate_groups", "harness.generate_groups", {}),
        (exp, "run", "harness.run", {}),
        (exp, "run_group", "harness.run_group", {}),
        (exp, "process_for", "harness.process_for", {"on_span": _count_cache}),
        (exp, "ideal_for", "harness.ideal_for", {"on_span": _count_cache}),
    ]


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from spans and counters.

    Every `_s` metric is self time summed over the kept spans: one set-up
    and one pass of the named workload and of each probe, each unit called
    once. Counts cover the same work, so they repeat exactly for a seed
    unless the code changes. The end-to-end metrics each one should move:
      circuits.*                 setup_s; compile_versions_per_s (compile_library)
      devices.load_s             setup_s
      partition.*                compile_versions_per_s (compile_library); setup_s elsewhere
      compiler.layout_s, route_s, compile_on_region_s, versions
                                 compile_p50_ms, compile_p90_ms, compile_versions_per_s
      compiler.swaps, routed_gates
                                 also mean_depth_ratio, sim_shots_per_s, mean_fidelity
      serialize.*                setup_s (orchestrate_stream)
      orchestrator.*             select_*, exact_*, greedy_gap; about 0 of group_p50_s
      simulator.*                sim_shots_per_s, group_p50_s
      harness.*                  group_p50_s
    """
    st = tracer.self_times()
    c = tracer.counts

    def secs(*names: str) -> tuple[float, str]:
        return (sum(st.get(n, 0.0) for n in names), "s")

    def count(name: str) -> tuple[float, str]:
        return (c[name], "count")

    placed = c["orchestrator.placed"]
    return {
        "circuits.parse_s": secs("circuits.parse_qasm"),
        "circuits.gates_parsed": count("circuits.gates_parsed"),
        "devices.load_s": secs("devices.load_calibration", "devices.apply_variation"),
        "partition.units_s": secs("partition.generate_compute_units"),
        "partition.regions_s": secs("partition.enumerate_regions"),
        "partition.regions": count("partition.regions"),
        "compiler.layout_s": secs("compiler.initial_layout"),
        "compiler.route_s": secs("compiler.route"),
        "compiler.compile_on_region_s": secs("compiler.compile_on_region"),
        "compiler.versions": count("compiler.versions"),
        "compiler.swaps": count("compiler.swaps"),
        "compiler.routed_gates": count("compiler.routed_gates"),
        "serialize.save_s": secs("serialize.save_processes"),
        "serialize.load_s": secs("serialize.load_processes"),
        "serialize.bytes": (c["serialize.bytes"], "bytes"),
        "orchestrator.greedy_s": secs("orchestrator.select_heuristic"),
        "orchestrator.greedy_evaluations": count("orchestrator.greedy_evaluations"),
        "orchestrator.evaluations_per_placement": (
            c["orchestrator.greedy_evaluations"] / placed if placed else 0.0,
            "ratio",
        ),
        "orchestrator.conflicts": count("orchestrator.conflicts"),
        "orchestrator.exact_s": secs("orchestrator.select_brute_force"),
        "orchestrator.exact_evaluations": count("orchestrator.exact_evaluations"),
        "orchestrator.exact_timeouts": count("orchestrator.exact_timeouts"),
        "simulator.noisy_s": secs("simulator.simulate_noisy"),
        "simulator.ideal_s": secs("simulator.simulate_ideal"),
        "simulator.shots": count("simulator.shots"),
        "harness.run_group_self_s": secs("harness.run_group"),
        "harness.cache_hits": count("harness.cache_hits"),
        "harness.cache_misses": count("harness.cache_misses"),
    }
