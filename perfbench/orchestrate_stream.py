"""orchestrate_stream: the runtime path, co-run requests against stored tables.

Set-up compiles the library on two devices, writes the tables with
`save_processes` and serves requests from what `load_processes` reads back,
as a runtime would; all of that is set-up time. The client is closed-loop:
one request at a time from a seeded stream of co-run requests of 2-8
programs drawn from the library, half of them with a crosstalk veto, each
its own map sampled for the request's device. Each request runs the greedy
selector and, up to EXACT_MAX_PROGRAMS programs, the exact one on the same
input. Each pass replays the same stream, so every request is timed once
per pass.

greedy_gap is measured apart from the timed stream, untimed, on more
requests drawn the same way up to EXACT_MAX_PROGRAMS programs: the excess
is zero on most requests and large on a few, so the timed stream alone
holds too few of them for a steady mean.

Inputs: heavyhex65 is the larger bundled device and the 127-qubit
heavy-hex doubles the candidate versions per program, because selection
cost depends on the number of candidate versions, not on circuit size.
The run seed draws the requests and their crosstalk maps. The synthetic
device is drawn once, from DEVICE_SEED: how much work selection does on it
depends on where its error map puts the best regions, so a device drawn
per run seed made the greedy selector's mean evaluations on it differ by
up to 18% between seeds, and greedy_gap on its unvetoed requests by a
factor of 2.7, more than their bounds.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace

from qmux import benchmarks, compiler, errors, harness, orchestrator, partition, serialize

from .common import WORK_DIR, Result, Timings, call_timed, is_refusal, percentile, timed_setup
from .synthdev import synthetic_heavy_hex

# The exact selector's slowest requests take seconds at 8 programs (about 2 s
# on heavyhex65) and tens of milliseconds at 6, so it is asked only up to 5,
# where the slowest request seen stays near 3 ms, far inside the timeout.
EXACT_MAX_PROGRAMS = 5
EXACT_TIMEOUT_S = 1.0
UNIT_SIZE = 4
DEVICE_SEED = 0
# Each selector call on a request runs back to back at least REPEATS times
# and until it has taken BUDGET_S; its fastest run counts. Most calls take
# microseconds and run about 12 times; the slowest exact calls take about a
# millisecond and run REPEATS times.
REPEATS = 5
BUDGET_S = 0.00015


@dataclass(frozen=True)
class Config:
    """Input sizes; the defaults are the benchmark, smaller ones the probes and smoke test."""

    programs: tuple[str, ...] | None = None  # None: the whole bundled suite
    devices: tuple[str, ...] = ("heavyhex65", "synthetic127")
    request_sizes: tuple[int, int] = (2, 8)
    # exact_p99_ms rests on the slowest 1% of the exact requests, about 4600
    # here; with about 2900 its spread between seeds (IQR over median) was 0.17.
    requests: int = 8000
    gap_requests: int = 10000
    setup_repeats: int = 3


class Workload:
    """Set up on construction; `run_pass` replays the request stream once."""

    name = "orchestrate_stream"

    def __init__(self, seed: int, config: Config, tracer) -> None:
        self.tracer = tracer
        self.res = Result(self.name)
        WORK_DIR.mkdir(parents=True, exist_ok=True)

        def setup():
            programs = [benchmarks.load_benchmark(n) for n in config.programs or benchmarks.suite()]
            tables = {}
            for d in config.devices:
                device = synthetic_heavy_hex(DEVICE_SEED) if d == "synthetic127" else benchmarks.load_device(d)
                unit_graph = partition.generate_compute_units(device, UNIT_SIZE)
                compiled = [compiler.compile_multi_version(c, unit_graph) for c in programs]
                path = str(WORK_DIR / f"tables-{d}-m{UNIT_SIZE}.json")
                serialize.save_processes(path, compiled)
                loaded = serialize.load_processes(path)
                tables[d] = (compiled, loaded, unit_graph)
            return tables

        self.tables, setup_s = timed_setup(setup, config.setup_repeats, tracer)
        self.res.metric("setup_s", setup_s, "s", config.setup_repeats)

        lo, hi = config.request_sizes
        self.stream = _requests(random.Random(seed), config.requests, config, self.tables)
        self.gap_requests = _requests(
            random.Random(f"{seed}/gap"),
            config.gap_requests,
            replace(config, request_sizes=(lo, min(hi, EXACT_MAX_PROGRAMS))),
            self.tables,
        )
        self.greedy = Timings()
        self.exact = Timings()
        # First pass, per request: (greedy indices or None, exact indices, "refused", "timeout" or None).
        self.answers: list[tuple] = []
        self.passes = 0
        self.exact_timeouts = 0

    def run_pass(self) -> None:
        res, tracer = self.res, self.tracer
        first = self.passes == 0
        for i, (request, veto) in enumerate(self.stream):
            op = f"req{i}"
            tracer.request = op
            res.attempted += 1
            greedy, dt = call_timed(
                lambda: orchestrator.select_heuristic(request, strategy="small_first", crosstalk=veto),
                tracer,
                REPEATS,
                BUDGET_S,
            )
            self.greedy.add(op, dt)
            if isinstance(greedy, Exception):
                if is_refusal(greedy):
                    res.refused += 1
                else:
                    res.error(op, greedy)
                greedy = None
            elif first:
                _check_selection(res, op, "greedy", greedy, request, veto)

            exact_answer = None
            if len(request) <= EXACT_MAX_PROGRAMS:
                exact_answer = self._exact(op, request, veto, greedy, first)
            answer = (greedy.indices if greedy else None, exact_answer)
            if first:
                self.answers.append(answer)
            elif "timeout" not in (exact_answer, self.answers[i][1]):
                res.check(answer == self.answers[i], op, "a later pass chose differently")
        self.passes += 1

    def _exact(self, op, request, veto, greedy, first):
        """Run the exact selector; return its indices, "refused" or "timeout"."""
        res = self.res
        exact, dt = call_timed(
            lambda: orchestrator.select_brute_force(request, timeout_s=EXACT_TIMEOUT_S, crosstalk=veto),
            self.tracer,
            REPEATS,
            BUDGET_S,
        )
        self.exact.add(op, dt)
        if isinstance(exact, errors.OrchestrationTimeout):
            self.exact_timeouts += 1
            return "timeout"
        if isinstance(exact, Exception):
            if not is_refusal(exact):
                res.error(op, exact)
                return "error"
            # An exhaustive search cannot miss a placement the greedy one found.
            res.check(greedy is None, op, "exact selector refused a request greedy placed")
            return "refused"
        if exact.timed_out:
            self.exact_timeouts += 1
            return "timeout"
        if first:
            _check_selection(res, op, "exact", exact, request, veto)
            if greedy is not None:
                res.check(
                    exact.index_sum <= greedy.index_sum,
                    op,
                    f"exact index_sum {exact.index_sum} > greedy {greedy.index_sum}",
                )
        return exact.indices

    def finish(self) -> Result:
        res = self.res
        greedy = list(self.greedy.best().values())
        exact = list(self.exact.best().values())
        placed = [a for a in self.answers if a[0] is not None]
        res.metric("select_p50_us", statistics.median(greedy) * 1e6, "us", len(greedy))
        res.metric("select_p99_us", percentile(greedy, 99) * 1e6, "us", len(greedy))
        res.metric("select_success_ratio", len(placed) / len(self.answers), "ratio", len(self.answers))
        if exact:
            res.metric("exact_p50_ms", statistics.median(exact) * 1e3, "ms", len(exact))
            res.metric("exact_p99_ms", percentile(exact, 99) * 1e3, "ms", len(exact))
        res.info.update(
            passes=self.passes,
            requests=len(self.stream),
            exact_requests=len(exact),
            exact_refused=sum(1 for a in self.answers if a[1] == "refused"),
            exact_timeouts=self.exact_timeouts,
            exact_max_programs=EXACT_MAX_PROGRAMS,
            exact_timeout_s=EXACT_TIMEOUT_S,
        )
        return res

    def check(self) -> None:
        """Table round trip; greedy_gap and the selection checks on the gap requests."""
        res = self.res
        for d, (compiled, loaded, _unit_graph) in self.tables.items():
            res.check(loaded == compiled, f"tables:{d}", "load_processes(save_processes(x)) != x")
        excess = []
        for i, (request, veto) in enumerate(self.gap_requests):
            op = f"gap{i}"
            answers = []
            for who, select in (
                ("greedy", lambda: orchestrator.select_heuristic(request, strategy="small_first", crosstalk=veto)),
                ("exact", lambda: orchestrator.select_brute_force(request, timeout_s=EXACT_TIMEOUT_S, crosstalk=veto)),
            ):
                try:
                    selection = select()
                except Exception as exc:  # noqa: BLE001 - classified below
                    if not is_refusal(exc):
                        res.error(op, exc)
                    answers.append(None)
                    continue
                _check_selection(res, op, who, selection, request, veto)
                answers.append(None if selection.timed_out else selection)
            greedy, exact = answers
            if greedy is not None and exact is not None:
                res.check(
                    exact.index_sum <= greedy.index_sum,
                    op,
                    f"exact index_sum {exact.index_sum} > greedy {greedy.index_sum}",
                )
                excess.append((greedy.index_sum - exact.index_sum) / exact.index_sum)
        if excess:
            # Mean excess of greedy over exact index_sum: 0 means greedy was always optimal.
            res.metric("greedy_gap", statistics.fmean(excess), "ratio", len(excess))


def _requests(rng: random.Random, count: int, config: Config, tables) -> list[tuple]:
    """A seeded stream of (request, crosstalk map or None).

    Sizes, devices and vetoes cycle through every combination in turn; only
    the programs and the veto map are drawn, so the mix of easy and hard
    requests is the same for every seed.
    """
    lo, hi = config.request_sizes
    sizes = range(lo, hi + 1)
    out = []
    for i in range(count):
        size = sizes[i % len(sizes)]
        device = config.devices[(i // len(sizes)) % len(config.devices)]
        vetoed = (i // (len(sizes) * len(config.devices))) % 2 == 1
        _compiled, loaded, unit_graph = tables[device]
        request = rng.sample(loaded, size)
        veto = harness.sample_crosstalk_map(unit_graph, seed=rng.getrandbits(32)) if vetoed else None
        out.append((request, veto))
    return out


def _check_selection(res: Result, op: str, who: str, selection, request, veto) -> None:
    """Every program placed once, from its own table, on disjoint units, vetoes respected."""
    by_name = {p.program_name: p for p in request}
    chosen = selection.chosen
    res.check(set(chosen) == set(by_name), op, f"{who} did not place every program exactly once")
    for name, exe in chosen.items():
        proc = by_name.get(name)
        res.check(
            proc is not None and proc.executables[selection.indices[name] - 1] is exe,
            op,
            f"{who} picked {name} from outside its table",
        )
    claims = [(name, exe.region.unit_ids, exe.region.qubits) for name, exe in chosen.items()]
    for i, (a, units_a, qubits_a) in enumerate(claims):
        for b, units_b, qubits_b in claims[i + 1 :]:
            res.check(not units_a & units_b, op, f"{who} put {a} and {b} on shared units")
            if veto is not None:
                res.check(
                    not any(
                        (u in qubits_a and v in qubits_b) or (v in qubits_a and u in qubits_b)
                        for u, v in veto.flagged
                    ),
                    op,
                    f"{who} put {a} and {b} across a flagged link",
                )
