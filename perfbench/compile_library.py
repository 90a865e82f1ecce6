"""compile_library: the offline path, parse -> partition -> compile -> save.

One pass parses the 30 bundled QASM programs, partitions each device at each
unit size, runs `compile_multi_version` for every (program, device, m) and
writes each (device, m) table with `save_processes`. Every pass repeats the
same steps, and each step's time is its fastest repeat in the run. The seed
draws the synthetic 127-qubit device and the program order.

Inputs: heavyhex27 and heavyhex65 are the bundled calibrations; the seeded
127-qubit heavy-hex is one size up, so device size varies how many regions
each program is routed onto. Unit sizes 3, 4 and 6 each split all three
devices into full units plus at most one residual.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass

from qmux import benchmarks, circuits, compiler, partition, serialize, simulator

from .common import WORK_DIR, Result, Timings, call_timed, is_refusal, percentile, timed_setup
from .synthdev import synthetic_heavy_hex

SYNTHETIC = "synthetic127"


@dataclass(frozen=True)
class Config:
    """Input sizes; the defaults are the benchmark, smaller ones the probes and smoke test."""

    programs: tuple[str, ...] | None = None  # None: the whole bundled suite
    devices: tuple[str, ...] = ("heavyhex27", "heavyhex65", SYNTHETIC)
    unit_sizes: tuple[int, ...] = (3, 4, 6)
    # Set-up takes about 15 ms, so its median needs many repeats to settle.
    setup_repeats: int = 15


def _load_device(name: str, seed: int):
    return synthetic_heavy_hex(seed) if name == SYNTHETIC else benchmarks.load_device(name)


class Workload:
    """Set up on construction; `run_pass` repeats the offline path once."""

    name = "compile_library"

    def __init__(self, seed: int, config: Config, tracer) -> None:
        self.config = config
        self.tracer = tracer
        self.res = Result(self.name)

        def setup():
            names = list(config.programs or benchmarks.suite())
            random.Random(seed).shuffle(names)
            sources = {n: benchmarks.benchmark_path(n).read_text() for n in names}
            reference = {n: circuits.parse_qasm(text, name=n) for n, text in sources.items()}
            devices = {d: _load_device(d, seed) for d in config.devices}
            return names, sources, reference, devices

        (self.names, self.sources, self.reference, self.devices), setup_s = timed_setup(
            setup, config.setup_repeats, tracer
        )
        self.res.metric("setup_s", setup_s, "s", config.setup_repeats)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.tables = {
            (d, m): WORK_DIR / f"library-{d}-m{m}.json" for d in config.devices for m in config.unit_sizes
        }
        self.units = Timings()
        self.passes = 0
        self.versions_per_pass = 0
        self.first: dict[tuple[str, int], list] = {}
        self.digests: dict[tuple[str, int], str] = {}

    def _step(self, unit: str, fn):
        """Run one unit of the pass under its request tag; time its fastest repeat."""
        self.tracer.request = unit
        self.res.attempted += 1
        out, dt = call_timed(fn, self.tracer)
        self.units.add(unit, dt)
        if isinstance(out, Exception):
            if is_refusal(out):
                self.res.refused += 1
            else:
                self.res.error(unit, out)
            return None
        return out

    def run_pass(self) -> None:
        versions = 0
        built: dict[tuple[str, int], list] = {}
        parsed = {n: self._step(f"parse:{n}", lambda: circuits.parse_qasm(self.sources[n], name=n)) for n in self.names}
        for d in self.config.devices:
            for m in self.config.unit_sizes:
                unit_graph = self._step(
                    f"partition:{d}/m{m}", lambda: partition.generate_compute_units(self.devices[d], m)
                )
                procs = []
                for n in self.names:
                    proc = self._step(f"{n}@{d}/m{m}", lambda: compiler.compile_multi_version(parsed[n], unit_graph))
                    if proc is not None:
                        versions += len(proc.executables)
                        procs.append(proc)
                self._step(f"save:{d}/m{m}", lambda: serialize.save_processes(str(self.tables[(d, m)]), procs))
                built[(d, m)] = procs
        self.passes += 1

        # Every pass must write byte-identical tables.
        first_pass = self.passes == 1
        for key, path in self.tables.items():
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
            if first_pass:
                self.digests[key] = digest
                self.first[key] = built.get(key, [])
            else:
                self.res.check(digest == self.digests[key], f"save:{key[0]}/m{key[1]}", "pass wrote another table")
        if first_pass:
            self.versions_per_pass = versions

    def finish(self) -> Result:
        res = self.res
        best = self.units.best()
        calls = [t for unit, t in best.items() if "@" in unit]
        if not self.versions_per_pass:
            res.check(False, "compile", "no compile call succeeded")
            return res
        # The fastest pass the run could have made: every unit at its best time.
        res.metric("compile_versions_per_s", self.versions_per_pass / sum(best.values()), "1/s", self.passes)
        res.metric("compile_p50_ms", statistics.median(calls) * 1e3, "ms", len(calls))
        res.metric("compile_p90_ms", percentile(calls, 90) * 1e3, "ms", len(calls))
        ratios = [p.executables[0].depth_ratio for procs in self.first.values() for p in procs]
        res.metric("mean_depth_ratio", statistics.fmean(ratios), "ratio", len(ratios))
        res.info.update(passes=self.passes, compile_calls=len(calls), versions_per_pass=self.versions_per_pass)
        for (d, m), procs in self.first.items():
            for p in procs:
                request = f"{p.program_name}@{d}/m{m}"
                res.rows.append(
                    {
                        "request": request,
                        "program": p.program_name,
                        "device": d,
                        "m": m,
                        "versions": len(p.executables),
                        "rank1_depth_ratio": p.executables[0].depth_ratio,
                        "swaps": sum(e.swap_count for e in p.executables),
                        "routed_gates": sum(len(e.routed_gates) for e in p.executables),
                        "best_ms": best[request] * 1e3,
                    }
                )
        return res

    def check(self) -> None:
        """Routed gates on region links, layouts in region, rank-1 semantics, table round trip."""
        res = self.res
        ideal = {}
        for (d, m), procs in self.first.items():
            device = self.devices[d]
            for p in procs:
                op = f"{p.program_name}@{d}/m{m}"
                for exe in p.executables:
                    region = exe.region.qubits
                    where = f"region {sorted(exe.region.unit_ids)}"
                    res.check(
                        set(exe.layout) <= region and set(exe.final_layout) <= region,
                        op,
                        f"{where}: layout leaves its region",
                    )
                    res.check(
                        all(
                            g.qubits[0] in region and g.qubits[1] in region and device.has_link(*g.qubits)
                            for g in exe.routed_gates
                            if g.is_two_qubit
                        ),
                        op,
                        f"{where}: a two-qubit gate is off the region's links",
                    )
                name = p.program_name
                if name not in ideal:
                    ideal[name] = simulator.simulate_ideal(self.reference[name])
                routed = simulator.ideal_executable_distribution(p.executables[0])
                tvd = 1.0 - simulator.fidelity(ideal[name], routed)
                res.check(tvd < 1e-9, op, f"rank-1 output differs from source (TVD {tvd:.2e})")
            res.check(
                serialize.load_processes(str(self.tables[(d, m)])) == procs,
                f"save:{d}/m{m}",
                "load_processes(save_processes(x)) != x",
            )
