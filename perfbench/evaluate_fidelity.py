"""evaluate_fidelity: the Monte Carlo evaluation that checks fidelity.

`FidelityExperiment` in flamenco mode on heavyhex27 at m=4, groups of three
programs drawn by `generate_groups` from the seed, 2048 shots, one worker.
Set-up warms the compile and ideal-distribution caches for every program in
the pool, so the timed passes pay for selection, noisy simulation and
scoring only. Each pass runs the whole pool in a seeded order, so every
group is timed once per pass.

This workload runs as a probe beside the named one, so its pool is small
and drawn from programs of at most four qubits: every group fits on the
device, and a group's simulation takes about 0.1 s. Larger programs would
make a single group cost seconds (qpe_n9 alone takes about 10 s at 2048
shots) and leave room for too few passes to time.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from qmux import benchmarks, harness

from .common import Result, Timings, call_timed, is_refusal, timed_setup

DEVICE = "heavyhex27"
UNIT_SIZE = 4
GROUP_SIZE = 3
SMALL_PROGRAMS = (
    "adder_n4",
    "basis_change_n3",
    "cat_state_n4",
    "deutsch_n2",
    "fredkin_n3",
    "grover_n2",
    "hs4_n4",
    "linearsolver_n3",
    "qft_n4",
    "teleportation_n3",
    "toffoli_n3",
    "wstate_n3",
)


@dataclass(frozen=True)
class Config:
    """Input sizes; the defaults are the benchmark, smaller ones the smoke test."""

    programs: tuple[str, ...] = SMALL_PROGRAMS
    groups: int = 4
    shots: int = 2048
    setup_repeats: int = 1


class _Tap:
    """Keeps each distribution `simulate_noisy` returns inside the harness, for checking."""

    def __init__(self) -> None:
        self.outputs: list[tuple[object, object]] = []
        self._inner = None

    def __enter__(self):
        self._inner = harness.simulate_noisy

        def tapped(executable, noise, device):
            dist = self._inner(executable, noise, device)
            self.outputs.append((executable, dist))
            return dist

        harness.simulate_noisy = tapped
        return self

    def __exit__(self, *exc) -> None:
        harness.simulate_noisy = self._inner


def _outcome(record) -> str:
    if record.success:
        return "ok"
    error = record.error or ""
    if error.startswith("selection:") or (error.startswith("compile:") and "no feasible region" in error):
        return "refused"
    return "failed"


def _same(a, b) -> bool:
    """Equal outcomes; the selector's own elapsed time may differ."""
    key = lambda r: (r.success, r.error, r.fidelities, r.regions, r.index_sum, r.evaluations)  # noqa: E731
    return key(a) == key(b)


class Workload:
    """Set up on construction; `run_pass` runs every group of the pool once."""

    name = "evaluate_fidelity"

    def __init__(self, seed: int, config: Config, tracer) -> None:
        self.seed = seed
        self.config = config
        self.tracer = tracer
        self.res = Result(self.name)

        def setup():
            groups = harness.generate_groups(config.programs, GROUP_SIZE, config.groups, seed=seed)
            exp = harness.FidelityExperiment(
                benchmarks.load_device(DEVICE),
                UNIT_SIZE,
                mode="flamenco",
                strategy="small_first",
                shots=config.shots,
                seed=seed,
            )
            for name in sorted({n for g in groups for n in g.members}):
                try:
                    exp.process_for(name)
                except Exception as exc:  # noqa: BLE001 - the harness reports a refusal per group
                    if not is_refusal(exc):
                        raise
                exp.ideal_for(name)
            return exp, groups

        (self.exp, self.groups), setup_s = timed_setup(setup, config.setup_repeats, tracer)
        self.res.metric("setup_s", setup_s, "s", config.setup_repeats)
        self.rng = random.Random(seed)
        self.order = list(self.groups)
        self.times = Timings()
        self.passes = 0
        self.first: dict[int, object] = {}
        self.outputs: dict[int, list] = {}

    def run_pass(self) -> None:
        res, tracer = self.res, self.tracer
        first = not self.first
        self.rng.shuffle(self.order)
        with _Tap() as tap:
            for group in self.order:
                op = f"group{group.group_id}"
                tracer.request = op
                res.attempted += 1
                tapped = len(tap.outputs)
                report, dt = call_timed(lambda: self.exp.run([group], workers=1), tracer)
                if isinstance(report, Exception):
                    res.error(op, report)
                    continue
                record = report.records[0]
                self.times.add(op, dt)
                outcome = _outcome(record)
                if outcome == "refused":
                    res.refused += 1
                elif outcome == "failed":
                    res.check(False, op, f"group failed: {record.error}")
                if first:
                    self.first[group.group_id] = record
                    # The distributions this group's first run produced.
                    self.outputs[group.group_id] = tap.outputs[tapped : tapped + len(record.fidelities)]
                else:
                    res.check(_same(record, self.first[group.group_id]), op, "a later pass gave another record")
        self.passes += 1

    def finish(self) -> Result:
        res = self.res
        records = [self.first[g.group_id] for g in self.groups if g.group_id in self.first]
        done = [r for r in records if r.success]
        if not done:
            res.check(False, "groups", "no group ran to completion")
            return res
        best = self.times.best()
        done_s = [best[f"group{r.group_id}"] for r in done]
        shots = sum(r.shots * len(r.fidelities) for r in done)
        # Shots over the fastest pass the run could have made: every group at its best time.
        res.metric("sim_shots_per_s", shots / sum(best.values()), "1/s", self.passes)
        res.metric("group_p50_s", statistics.median(done_s), "s", len(done_s))
        res.metric("mean_fidelity", statistics.fmean(r.mean_fidelity for r in done), "fidelity", len(done))
        res.metric("eval_success_ratio", len(done) / len(records), "ratio", len(records))
        res.info.update(passes=self.passes, groups=len(records))
        for r in records:
            res.rows.append(
                {
                    "request": f"group{r.group_id}",
                    "group_id": r.group_id,
                    "members": list(r.members),
                    "outcome": _outcome(r),
                    "error": r.error,
                    "regions": {k: list(v) for k, v in r.regions.items()},
                    "index_sum": r.index_sum,
                    "mean_fidelity": r.mean_fidelity,
                    "shots": r.shots * len(r.fidelities),
                    "best_s": best.get(f"group{r.group_id}"),
                }
            )
        return res

    def check(self) -> None:
        """Distribution widths and sums, fidelities in [0, 1], and a same-seed rerun."""
        res, config = self.res, self.config
        records = [self.first[g.group_id] for g in self.groups if g.group_id in self.first]
        for r in records:
            op = f"group{r.group_id}"
            for exe, dist in self.outputs[r.group_id]:
                name = exe.program_name
                res.check(dist.width == exe.num_qubits, op, f"{name}: width {dist.width} != {exe.num_qubits}")
                res.check(dist.shots == config.shots, op, f"{name}: {dist.shots} shots, not {config.shots}")
                total = sum(dist.outcomes.values())
                res.check(abs(total - 1.0) <= 1e-9, op, f"{name}: distribution sums to {total}")
            for name, f in r.fidelities.items():
                res.check(0.0 <= f <= 1.0, op, f"{name}: fidelity {f} outside [0, 1]")
                total = sum(self.exp.ideal_for(name).outcomes.values())
                res.check(abs(total - 1.0) <= 1e-9, op, f"{name}: ideal distribution sums to {total}")

        # A fresh experiment with the same seed must reproduce the cheapest
        # completed group exactly, distributions included.
        best = self.times.best()
        done = [r for r in records if r.success]
        if not done:
            return
        target = min(done, key=lambda r: best[f"group{r.group_id}"])
        fresh = harness.FidelityExperiment(
            self.exp.device,
            UNIT_SIZE,
            mode="flamenco",
            strategy="small_first",
            shots=config.shots,
            seed=self.seed,
        )
        with _Tap() as again:
            rerun = fresh.run([harness.BenchmarkGroup(target.group_id, target.members)], workers=1).records[0]
        op = f"group{target.group_id}"
        res.check(_same(rerun, target), op, "re-running the group with the same seed changed its record")
        res.check(
            [d.outcomes for _e, d in again.outputs] == [d.outcomes for _e, d in self.outputs[target.group_id]],
            op,
            "re-running the group with the same seed changed its outcomes",
        )
