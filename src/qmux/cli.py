"""Command-line front end: partition, compile, orchestrate, run, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import benchmarks, serialize
from .circuits import parse_qasm
from .compiler import Process, compile_multi_version
from .devices import DeviceGraph, load_calibration
from .errors import QmuxError
from .harness import MODES, SWEEP_KINDS, cost_fidelity_correlation, run_sweep, simulate_slots
from .orchestrator import STRATEGIES, select_brute_force, select_heuristic
from .partition import enumerate_regions, generate_compute_units
from .simulator import fidelity, ideal_executable_distribution


def _load_device(spec: str) -> DeviceGraph:
    """Accept either a calibration file path or a bundled device name."""
    if os.path.exists(spec):
        return load_calibration(spec)
    if spec in benchmarks.device_names():
        return benchmarks.load_device(spec)
    raise QmuxError(f"no such device file or bundled device: {spec!r}")


def _load_program(spec: str):
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_qasm(fh.read(), name=os.path.splitext(os.path.basename(spec))[0])
    if spec in benchmarks.suite():
        return benchmarks.load_benchmark(spec)
    raise QmuxError(f"no such program file or bundled benchmark: {spec!r}")


def _check_seed(seed: int) -> None:
    """Refuse a seed that numpy's generators would reject after the work began."""
    if seed < 0:
        raise QmuxError(f"--seed must be a non-negative integer, got {seed}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_partition(args) -> int:
    device = _load_device(args.device)
    unit_graph = generate_compute_units(device, args.unit_size)
    report = {
        "device": device.name,
        "unit_size": args.unit_size,
        "units": [
            {
                "id": u.id,
                "qubits": sorted(u.qubits),
                "utility": u.utility,
                "residual": u.residual,
            }
            for u in unit_graph.units
        ],
        "h_edges": sorted(map(list, unit_graph.edges)),
    }
    if args.regions is not None:
        regions = enumerate_regions(unit_graph, args.regions)
        report["regions"] = [
            {"unit_ids": sorted(r.unit_ids), "qubits": sorted(r.qubits)} for r in regions
        ]
    _emit(report, args.out)
    return 0


def _cmd_compile(args) -> int:
    device = _load_device(args.device)
    circuit = _load_program(args.program)
    unit_graph = generate_compute_units(device, args.unit_size)
    process = compile_multi_version(circuit, unit_graph)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = os.path.join(args.out_dir, f"{process.program_name}.process.json")
    serialize.save_processes(manifest, [process])
    # Each rank also alone: a manifest of one process that holds that one version.
    for rank, exe in enumerate(process.executables, start=1):
        unit_tag = "-".join(str(u) for u in sorted(exe.region.unit_ids))
        path = os.path.join(
            args.out_dir, f"{process.program_name}.r{rank}.units{unit_tag}.exe.json"
        )
        serialize.save_processes(path, [Process(process.program_name, process.num_qubits, (exe,))])
    print(
        f"{process.program_name}: {len(process.executables)} version(s) -> {manifest}",
        file=sys.stderr,
    )
    return 0


def _cmd_orchestrate(args) -> int:
    if not args.timeout >= 0:  # NaN too: no time is ever past it
        raise QmuxError(f"--timeout must be a non-negative number of seconds, got {args.timeout}")
    processes = []
    for path in args.manifests:
        processes.extend(serialize.load_processes(path))
    crosstalk = serialize.load_crosstalk_map(args.crosstalk) if args.crosstalk else None
    if args.strategy == "brute_force":
        selection = select_brute_force(processes, timeout_s=args.timeout, crosstalk=crosstalk)
    else:
        selection = select_heuristic(
            processes, args.strategy, seed=args.seed, crosstalk=crosstalk
        )
    _emit(serialize.selection_to_dict(selection), args.out)
    return 0


def _cmd_run(args) -> int:
    _check_seed(args.seed)
    one_program = "--all-versions runs the versions of one program; got {} programs"
    if args.all_versions and len(args.executables) > 1:  # refused before any file is read
        raise QmuxError(one_program.format(len(args.executables)))
    device = _load_device(args.device)
    crosstalk = serialize.load_crosstalk_map(args.crosstalk) if args.crosstalk else None
    processes = [p for path in args.executables for p in serialize.load_processes(path)]
    if args.all_versions:
        if len(processes) != 1:
            raise QmuxError(one_program.format(len(processes)))
        executables = list(processes[0].executables)
    else:
        executables = [p.executables[0] for p in processes]  # one slot per process, at rank 1
    # Versions of one program are alternatives and each runs alone; slots co-run,
    # so one program may co-run with itself.
    seeds = range(args.seed, args.seed + len(executables))
    observed = simulate_slots(executables, device, args.shots, seeds, crosstalk, alone=args.all_versions)
    results = [
        {
            "program_name": exe.program_name,
            "region_qubits": sorted(exe.region.qubits),
            "shots": args.shots,
            "fidelity_vs_ideal": fidelity(dist, ideal_executable_distribution(exe)),
            "distribution": dict(sorted(dist.outcomes.items())),
        }
        for exe, dist in zip(executables, observed)
    ]
    _emit({"device": device.name, "results": results}, args.out)
    return 0


def _cmd_bench(args) -> int:
    _check_seed(args.seed)
    device = _load_device(args.device)
    suite = args.suite if args.suite else benchmarks.suite()
    unknown = sorted(set(suite) - set(benchmarks.suite()))
    if unknown:
        raise QmuxError(f"no bundled benchmark named {', '.join(unknown)}")
    report = run_sweep(
        args.kind,
        device,
        suite,
        unit_size=args.unit_size,
        group_size=args.group_size,
        group_count=args.groups,
        shots=args.shots,
        seed=args.seed,
        mode=args.mode,
        strategy=args.strategy,
    )
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    report.write_csv(csv_path)
    summary = report.summary()
    if args.correlation:
        corr = cost_fidelity_correlation(
            device, args.unit_size, suite, shots=args.shots, seed=args.seed
        )
        summary["correlation"] = {"mean_spearman": corr.mean, "per_program": corr.per_program}
    _emit(summary, json_path)
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmux",
        description="Offline multi-version compilation and runtime orchestration "
        "for multiprogrammed quantum devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="split a device into compute units")
    p.add_argument("--device", required=True, help="calibration file or bundled name")
    p.add_argument("-m", "--unit-size", type=int, required=True)
    p.add_argument("--regions", type=int, default=None, help="also list regions of this many units")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("compile", help="compile a program into per-region versions")
    p.add_argument("program", help="QASM file or bundled benchmark name")
    p.add_argument("--device", required=True)
    p.add_argument("-m", "--unit-size", type=int, required=True)
    p.add_argument("-o", "--out-dir", default=".")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("orchestrate", help="select conflict-free executables")
    p.add_argument("manifests", nargs="+", help="process manifests or per-rank files")
    p.add_argument("--strategy", choices=STRATEGIES, default="small_first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--crosstalk", default=None, help="crosstalk map JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_orchestrate)

    p = sub.add_parser("run", help="simulate executables under device noise")
    p.add_argument("executables", nargs="+", help="process manifests or per-rank files; one slot per process")
    p.add_argument("--device", required=True)
    p.add_argument("--shots", type=int, default=2**14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--crosstalk", default=None, help="crosstalk map JSON; the other programs' regions are co-runners"
    )
    p.add_argument(
        "--all-versions",
        action="store_true",
        help="simulate every version in one program's manifest, not just rank 1",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run an experiment sweep")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--device", required=True)
    p.add_argument("-m", "--unit-size", type=int, default=4)
    p.add_argument("--strategy", choices=STRATEGIES, default="small_first")
    p.add_argument("--mode", choices=MODES, default="flamenco")
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--group-size", type=int, default=2)
    p.add_argument("--shots", type=int, default=2**14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", nargs="*", default=None, help="benchmark names (default: all)")
    p.add_argument("--correlation", action="store_true", help="add Spearman stats to the summary")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QmuxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
