"""Experiment harness: benchmark groups, fidelity comparisons, and sweeps.

Reproduces the experiment shapes at desk scale: groups of programs are
compiled into multi-version processes, co-run selections are made per
execution mode, every selected executable is simulated against device noise,
and per-group fidelity records accumulate into reports with CSV and JSON
output. Failures (no region fits, selection conflict, oversized simulation)
are recorded per group, never dropped.

Execution modes:
  flamenco  multi-version compilation plus conflict-aware orchestration,
            using any selection strategy including brute force.
  vanilla   conflict-free but fidelity-blind: each program in submission
            order picks uniformly at random among its feasible versions.
  oracle    no co-running at all; every program runs its rank-1 executable
            alone, the single-program upper bound.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import statistics
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import load_benchmark, suite as bundled_suite
from .compiler import Executable, Process, compile_multi_version
from .devices import CrosstalkMap, DeviceGraph, VariationModel, apply_variation
from .errors import (
    CompileError,
    OrchestrationConflict,
    OrchestrationTimeout,
    QmuxError,
    SimulationError,
)
from .orchestrator import (
    STRATEGIES,
    Selection,
    select_brute_force,
    select_heuristic,
)
from .partition import UnitGraph, generate_compute_units
from .simulator import Distribution, NoiseSpec, fidelity, simulate_ideal, simulate_noisy

MODES = ("flamenco", "vanilla", "oracle")
SWEEP_KINDS = ("unit_size", "concurrency", "variation", "crosstalk")

DEFAULT_SHOTS = 2**14
DEFAULT_GROUPS = 10

_CSV_COLUMNS = (
    "kind",
    "param",
    "group_id",
    "members",
    "mode",
    "strategy",
    "unit_size",
    "shots",
    "seed",
    "success",
    "mean_fidelity",
    "min_fidelity",
    "index_sum",
    "evaluations",
    "selection_elapsed_s",
    "error",
)


@dataclass(frozen=True)
class BenchmarkGroup:
    """A co-run request: distinct benchmark names submitted together."""

    group_id: int
    members: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise QmuxError(f"group {self.group_id} has {len(self.members)} member(s); need 2+")
        if len(set(self.members)) != len(self.members):
            raise QmuxError(f"group {self.group_id} repeats a member")

    @property
    def size(self) -> int:
        return len(self.members)


def generate_groups(
    suite: Sequence[str], size: int, count: int, seed: int = 0
) -> list[BenchmarkGroup]:
    """Seeded sampling of `count` distinct size-`size` subsets of the suite.

    A suite that names a program more than once is refused, naming it, before
    any group is drawn: its copies would be drawn as distinct programs.
    """
    names = list(suite)
    if repeated := sorted(n for n, k in Counter(names).items() if k > 1):
        raise QmuxError(f"suite repeats {', '.join(repeated)}")
    if size > len(names):
        raise QmuxError(f"group size {size} exceeds suite size {len(names)}")
    if count < 1:
        raise QmuxError("need at least one group")
    possible = math.comb(len(names), size)
    if count > possible:
        raise QmuxError(f"only {possible} distinct groups of size {size} exist, not {count}")
    rng = random.Random(seed)
    seen: set[tuple[str, ...]] = set()
    groups: list[BenchmarkGroup] = []
    while len(groups) < count:
        pick = tuple(sorted(rng.sample(names, size)))
        if pick in seen:
            continue
        seen.add(pick)
        groups.append(BenchmarkGroup(group_id=len(groups), members=pick))
    return groups


def nested_prefix_groups(
    suite: Sequence[str], sizes: Sequence[int], count: int, seed: int = 0
) -> dict[int, list[BenchmarkGroup]]:
    """Prefix-nested groups for paired concurrency comparisons.

    One master group of the largest size is drawn per id; the size-s variant
    is its first s members. A group at higher concurrency therefore contains
    the same programs plus extras, which is what makes per-id success
    comparisons across sizes meaningful. Before a master group is drawn, a
    suite smaller than the largest size is refused naming that concurrency,
    and the rest is checked as `generate_groups` checks it.
    """
    sizes = sorted(set(sizes))
    if not sizes or sizes[0] < 2:
        raise QmuxError("sizes must all be at least 2")
    if sizes[-1] > len(suite):
        raise QmuxError(f"concurrency {sizes[-1]} exceeds suite size {len(suite)}")
    masters = generate_groups(suite, sizes[-1], count, seed)
    # Master members arrive sorted; reshuffle each so prefixes are not biased
    # toward the alphabetical front of the suite.
    rng = random.Random(seed + 1)
    shuffled: list[tuple[str, ...]] = []
    for g in masters:
        members = list(g.members)
        rng.shuffle(members)
        shuffled.append(tuple(members))
    return {
        s: [BenchmarkGroup(i, members[:s]) for i, members in enumerate(shuffled)]
        for s in sizes
    }


@dataclass(frozen=True)
class GroupRecord:
    """Outcome of one benchmark group under one execution mode."""

    group_id: int
    members: tuple[str, ...]
    mode: str
    strategy: str
    unit_size: int
    shots: int
    seed: int
    success: bool
    fidelities: dict[str, float] = field(default_factory=dict)
    regions: dict[str, tuple[int, ...]] = field(default_factory=dict)
    index_sum: int | None = None
    evaluations: int | None = None
    selection_elapsed_s: float | None = None
    error: str | None = None

    @property
    def mean_fidelity(self) -> float | None:
        if not self.fidelities:
            return None
        return sum(self.fidelities.values()) / len(self.fidelities)

    @property
    def min_fidelity(self) -> float | None:
        if not self.fidelities:
            return None
        return min(self.fidelities.values())


@dataclass(frozen=True)
class ExperimentReport:
    """All group records of one experiment configuration; each record carries its settings."""

    records: tuple[GroupRecord, ...]

    def successes(self) -> list[GroupRecord]:
        return [r for r in self.records if r.success]

    @property
    def mean_fidelity(self) -> float | None:
        vals = [r.mean_fidelity for r in self.successes() if r.mean_fidelity is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)


def success_ratio(report: ExperimentReport) -> float:
    """Fraction of evaluated groups that co-ran conflict-free to completion."""
    if not report.records:
        raise QmuxError("report has no records")
    return len(report.successes()) / len(report.records)


def _derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def co_claims(executables: Sequence[Executable]) -> list[frozenset[int]]:
    """Each co-run slot's `co_claimed`: the union of the other slots' region qubits.

    Slots whose regions share a qubit cannot co-run, so they are refused.
    """
    for first, second in itertools.combinations(executables, 2):
        shared = first.region.qubits & second.region.qubits
        if shared:
            raise QmuxError(
                f"{first.program_name} and {second.program_name} cannot co-run: their "
                f"executables share qubits {', '.join(map(str, sorted(shared)))}"
            )
    claimed = frozenset().union(*(exe.region.qubits for exe in executables))
    return [claimed - exe.region.qubits for exe in executables]


def simulate_slots(
    executables: Sequence[Executable],
    device: DeviceGraph,
    shots: int,
    seeds: Sequence[int],
    crosstalk: CrosstalkMap | None = None,
    alone: bool = False,
) -> list[Distribution]:
    """Simulate each slot's executable on `device`, slot i seeded with `seeds[i]`.

    The slots co-run: each sees the others' qubits as co-claimed, so
    `crosstalk` amplifies links between them. Slots that run `alone` are
    alternatives, with nothing co-claimed. One seed per slot, or QmuxError.
    """
    if len(seeds) != len(executables):
        raise QmuxError(f"{len(executables)} slot(s) but {len(seeds)} seed(s)")
    co_claimed = [frozenset()] * len(executables) if alone else co_claims(executables)
    return [
        simulate_noisy(exe, NoiseSpec(shots=shots, seed=seed, crosstalk=crosstalk, co_claimed=others), device)
        for exe, seed, others in zip(executables, seeds, co_claimed)
    ]


def _select_vanilla(processes: list[Process], seed: int) -> Selection:
    """Conflict-free but fidelity-blind: uniform choice among feasible versions."""
    start = time.perf_counter()
    rng = random.Random(seed)
    executables, ranks = [], []
    claimed = 0
    evaluations = 0
    for proc in processes:
        evaluations += len(proc.executables)
        feasible = [
            (rank, exe)
            for rank, (qubits, exe) in enumerate(zip(proc.claim_masks, proc.executables), start=1)
            if not qubits & claimed
        ]
        if not feasible:
            raise OrchestrationConflict(proc.program_name, evaluations=evaluations)
        rank, exe = rng.choice(feasible)
        executables.append(exe)
        ranks.append(rank)
        claimed |= exe.region.qubit_mask
    return Selection(tuple(executables), tuple(ranks), "vanilla", evaluations, time.perf_counter() - start)


class FidelityExperiment:
    """Compiles, selects, and simulates benchmark groups on one device.

    Compilation results are cached per program name, so reusing one instance
    across many groups pays the routing cost once per program.
    """

    def __init__(
        self,
        device: DeviceGraph,
        unit_size: int,
        mode: str = "flamenco",
        strategy: str = "small_first",
        shots: int = DEFAULT_SHOTS,
        seed: int = 0,
        crosstalk: CrosstalkMap | None = None,
        crosstalk_filter: bool = True,
        sim_device: DeviceGraph | None = None,
    ):
        if mode not in MODES:
            raise QmuxError(f"unknown mode {mode!r}; expected one of {MODES}")
        if strategy not in STRATEGIES:
            raise QmuxError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if shots < 1:
            raise QmuxError(f"shots must be at least 1, got {shots}")
        if seed < 0:  # numpy's seed sequences take no negative integer
            raise QmuxError(f"seed must be a non-negative integer, got {seed}")
        self.device = device
        self.unit_size = unit_size
        self.mode = mode
        self.strategy = strategy
        self.shots = shots
        self.seed = seed
        self.crosstalk = crosstalk
        self.crosstalk_filter = crosstalk_filter
        self.sim_device = sim_device if sim_device is not None else device
        self.unit_graph: UnitGraph = generate_compute_units(device, unit_size)
        self._processes: dict[str, Process | CompileError] = {}
        self._ideals: dict[str, Distribution] = {}

    def process_for(self, name: str) -> Process:
        cached = self._processes.get(name)
        if cached is None:
            try:
                cached = compile_multi_version(load_benchmark(name), self.unit_graph)
            except CompileError as exc:
                cached = exc
            self._processes[name] = cached
        if isinstance(cached, CompileError):
            # A fresh error each call: re-raising the cached one would grow its traceback.
            raise CompileError(*cached.args)
        return cached

    def ideal_for(self, name: str) -> Distribution:
        if name not in self._ideals:
            self._ideals[name] = simulate_ideal(load_benchmark(name))
        return self._ideals[name]

    def _select(self, processes: list[Process], group_seed: int) -> Selection:
        filt = self.crosstalk if self.crosstalk_filter else None
        if self.mode == "vanilla":
            return _select_vanilla(processes, group_seed)
        if self.strategy == "brute_force":
            return select_brute_force(processes, crosstalk=filt)
        return select_heuristic(processes, self.strategy, seed=group_seed, crosstalk=filt)

    def run_group(self, group: BenchmarkGroup) -> GroupRecord:
        meta = dict(
            group_id=group.group_id,
            members=group.members,
            mode=self.mode,
            strategy=self.strategy if self.mode != "oracle" else "none",
            unit_size=self.unit_size,
            shots=self.shots,
            seed=self.seed,
        )
        group_seed = _derive_seed(self.seed, group.group_id)
        try:
            processes = [self.process_for(name) for name in group.members]
        except CompileError as exc:
            return GroupRecord(**meta, success=False, error=f"compile: {exc}")

        if self.mode == "oracle":
            rank_one = tuple(p.executables[0] for p in processes)
            selection = Selection(rank_one, (1,) * len(processes), "none", len(processes), 0.0)
        else:
            try:
                selection = self._select(processes, group_seed)
            except (OrchestrationConflict, OrchestrationTimeout) as exc:
                return GroupRecord(**meta, success=False, error=f"selection: {exc}")

        seeds = [_derive_seed(self.seed, group.group_id, idx) for idx in range(group.size)]
        try:
            observed = simulate_slots(
                selection.executables, self.sim_device, self.shots, seeds, self.crosstalk, alone=self.mode == "oracle"
            )
            fidelities = {name: fidelity(d, self.ideal_for(name)) for name, d in zip(group.members, observed)}
        except SimulationError as exc:
            return GroupRecord(**meta, success=False, error=f"simulation: {exc}")
        slots = zip(group.members, selection.executables)
        return GroupRecord(
            **meta,
            success=True,
            fidelities=fidelities,
            regions={name: tuple(sorted(exe.region.qubits)) for name, exe in slots},
            index_sum=selection.index_sum,
            evaluations=selection.evaluations,
            selection_elapsed_s=selection.elapsed_s,
        )

    def run(self, groups: Iterable[BenchmarkGroup], workers: int = 1) -> ExperimentReport:
        groups = list(groups)
        # Warm the compile cache serially; group workers then only simulate.
        for g in groups:
            for name in g.members:
                try:
                    self.process_for(name)
                except CompileError:
                    pass
        if workers > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(self.run_group, groups))
        else:
            records = [self.run_group(g) for g in groups]
        records.sort(key=lambda r: r.group_id)
        return ExperimentReport(tuple(records))


def sample_crosstalk_map(unit_graph: UnitGraph, seed: int = 0) -> CrosstalkMap:
    """Flag each cross-unit link with probability 0.5, amplification in [2, 5].

    Only links joining different compute units are eligible: those are the
    boundaries where co-running programs can sit next to each other. The
    probability and the factor range are free parameters of this model; the
    map keeps only the sampled per-link factors.
    """
    rng = random.Random(seed)
    amplification = {}
    for a, b in unit_graph.device.links:
        if unit_graph.qubit_to_unit[a] == unit_graph.qubit_to_unit[b]:
            continue
        if rng.random() < 0.5:
            amplification[(a, b)] = rng.uniform(2.0, 5.0)
    return CrosstalkMap(amplification)


@dataclass(frozen=True)
class CorrelationReport:
    """Cost-rank vs simulated-fidelity-rank agreement per program."""

    per_program: dict[str, float]
    mean: float


def _average_ranks(values: list[float]) -> list[float]:
    """1-based ranks of `values`; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, tied in itertools.groupby(order, key=values.__getitem__):
        tied = list(tied)
        for i in tied:
            ranks[i] = start + (len(tied) + 1) / 2
        start += len(tied)
    return ranks


def cost_fidelity_correlation(
    device: DeviceGraph,
    unit_size: int,
    names: Sequence[str],
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> CorrelationReport:
    """Spearman correlation between predicted and observed version rankings:
    the Pearson correlation of their ranks, ties given their average rank.

    For each program with at least 3 versions, every executable is simulated
    alone; predicted rank is the position in the cost-ascending list, actual
    rank orders versions by descending simulated fidelity. Positive
    correlation means the cost metric predicts the fidelity ordering.
    """
    experiment = FidelityExperiment(device, unit_size, shots=shots, seed=seed)
    per_program: dict[str, float] = {}
    for p_idx, name in enumerate(names):
        try:
            process = experiment.process_for(name)
        except CompileError:
            continue
        if len(process.executables) < 3:
            continue
        ideal = experiment.ideal_for(name)
        seeds = [_derive_seed(seed, p_idx, e_idx) for e_idx in range(len(process.executables))]
        try:
            observed = simulate_slots(process.executables, device, shots, seeds, alone=True)
        except SimulationError:
            continue
        fids = [fidelity(dist, ideal) for dist in observed]
        try:
            # Rank 1 is the cheapest version and the most faithful one.
            rho = statistics.correlation(range(1, len(fids) + 1), _average_ranks([-f for f in fids]))
        except statistics.StatisticsError:
            continue  # equal fidelities: no ordering to compare
        per_program[name] = rho
    if not per_program:
        raise QmuxError("no program produced 3+ comparable versions")
    mean = sum(per_program.values()) / len(per_program)
    return CorrelationReport(per_program=per_program, mean=mean)


@dataclass(frozen=True)
class SweepReport:
    """One experiment report per swept value, plus frozen CSV/JSON output."""

    kind: str
    device_name: str
    reports: dict[float, ExperimentReport]

    def summary(self) -> dict:
        per_param = [
            {
                "param": param,
                "groups": len(report.records),
                "success_ratio": success_ratio(report),
                "mean_fidelity": report.mean_fidelity,
            }
            for param, report in self.reports.items()
        ]
        return {"kind": self.kind, "device": self.device_name, "per_param": per_param}

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for param, report in self.reports.items():
                writer.writerows(
                    [
                        self.kind,
                        param,
                        r.group_id,
                        " ".join(r.members),
                        r.mode,
                        r.strategy,
                        r.unit_size,
                        r.shots,
                        r.seed,
                        int(r.success),
                        "" if r.mean_fidelity is None else f"{r.mean_fidelity:.6f}",
                        "" if r.min_fidelity is None else f"{r.min_fidelity:.6f}",
                        "" if r.index_sum is None else r.index_sum,
                        "" if r.evaluations is None else r.evaluations,
                        "" if r.selection_elapsed_s is None else f"{r.selection_elapsed_s:.6f}",
                        r.error or "",
                    ]
                    for r in report.records
                )


def run_sweep(
    kind: str,
    device: DeviceGraph,
    suite_names: Sequence[str],
    unit_size: int = 4,
    group_size: int = 2,
    group_count: int = DEFAULT_GROUPS,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    mode: str = "flamenco",
    strategy: str = "small_first",
    unit_sizes: Sequence[int] = (2, 4, 6, 8, 10, 12),
    concurrencies: Sequence[int] = (2, 4, 6, 8, 10),
    sigmas: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    crosstalk_seed: int = 7,
) -> SweepReport:
    """Run one parameter sweep and collect one experiment report per swept value.

    unit_size    same groups recompiled at each compute-unit size.
    concurrency  prefix-nested groups so each size adds programs to the last.
    variation    compile on the bundled calibration, simulate on a drifted
                 copy; sigma 0 reproduces the matched run exactly.
    crosstalk    amplified crosstalk on, selection filter off (param 0) then
                 on (param 1), same sampled crosstalk map.

    Names that are no bundled benchmark are all refused before a group is drawn,
    and so is a suite that repeats a name, since records and fidelities are
    keyed by program name; each point's FidelityExperiment checks `seed` and
    `shots` before anything compiles.
    """
    if kind not in SWEEP_KINDS:
        raise QmuxError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")
    if unknown := sorted(set(suite_names) - set(bundled_suite())):
        raise QmuxError(f"no bundled benchmark named {', '.join(unknown)}")
    # (param, groups, experiment options that differ from the base) per point.
    if kind == "concurrency":
        nested = nested_prefix_groups(suite_names, concurrencies, group_count, seed)
        points = [(size, nested[size], {}) for size in sorted(nested)]
    else:
        groups = generate_groups(suite_names, group_size, group_count, seed)
        if kind == "unit_size":
            points = [(m, groups, {"unit_size": m}) for m in unit_sizes]
        elif kind == "variation":
            points = []
            for sigma in sigmas:
                drift = VariationModel(mu=0.0, sigma=sigma, seed=crosstalk_seed)
                points.append((sigma, groups, {"sim_device": apply_variation(device, drift)}))
        else:
            xtalk = sample_crosstalk_map(
                generate_compute_units(device, unit_size), seed=crosstalk_seed
            )
            points = [
                (param, groups, {"crosstalk": xtalk, "crosstalk_filter": filtered})
                for param, filtered in ((0.0, False), (1.0, True))
            ]

    base = dict(unit_size=unit_size, mode=mode, strategy=strategy, shots=shots, seed=seed)
    reports = {
        float(param): FidelityExperiment(device, **(base | overrides)).run(groups)
        for param, groups, overrides in points
    }
    return SweepReport(kind=kind, device_name=device.name, reports=reports)
