"""End-to-end acceptance checks.

Each test covers one release criterion and prints a one-line summary with
the measured numbers next to the thresholds it must clear.
"""

import itertools
import math
import random
import time

import pytest

from qmux.benchmarks import load_benchmark
from qmux.circuits import Circuit, Gate
from qmux.compiler import Executable, Process, compile_multi_version, compile_on_region
from qmux.errors import OrchestrationConflict
from qmux.harness import (
    FidelityExperiment,
    cost_fidelity_correlation,
    generate_groups,
    nested_prefix_groups,
    run_sweep,
    sample_crosstalk_map,
    success_ratio,
)
from qmux.orchestrator import select_brute_force, select_heuristic
from qmux.partition import Region, enumerate_regions, generate_compute_units
from qmux.simulator import (
    Distribution,
    NoiseSpec,
    fidelity,
    ideal_executable_distribution,
    simulate_ideal,
    simulate_noisy,
)

import reference_orchestrator as ref
from conftest import make_path
from oracles import (
    check_unit_graph,
    count_connected_subgraphs,
    crosstalk_violations,
    optimum_swaps,
    random_connected_device,
)

# unit sizes for which the bundled topologies admit a single-residual split
FEASIBLE_M = {"heavyhex27": (3, 4, 6, 7, 8, 9, 10, 11, 12), "heavyhex65": tuple(range(3, 13))}


def test_criterion_01_partition_correctness(heavyhex27, heavyhex65):
    start = time.perf_counter()
    checked = 0
    for device in (heavyhex27, heavyhex65):
        for m in FEASIBLE_M[device.name]:
            problems = check_unit_graph(device, generate_compute_units(device, m), m)
            assert not problems, (device.name, m, problems)
            checked += 1
    for seed in range(200):
        device, m = random_connected_device(seed)
        problems = check_unit_graph(device, generate_compute_units(device, m), m)
        assert not problems, (device.name, m, problems)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 01: {checked} partitions clean in {elapsed:.2f}s (< 10s)")


def test_criterion_02_search_space_reduction(ug65_m4):
    counts = {}
    for k in range(2, 11):
        r = math.ceil(k / 4)
        counts[k] = len(enumerate_regions(ug65_m4, r))
    mean_regions = sum(counts.values()) / len(counts)
    assert mean_regions <= 20.0
    subgraphs = count_connected_subgraphs(ug65_m4.device, 10, cap=10_000)
    assert subgraphs >= 100 * counts[10]
    assert subgraphs >= 100 * mean_regions
    print(
        f"criterion 02: mean regions {mean_regions:.2f} (<= 20); "
        f"{subgraphs} connected 10-subgraphs vs {counts[10]} regions at k=10 (>= 100x)"
    )


def test_criterion_03_routing_semantics(ug27_m4, small_suite):
    start = time.perf_counter()
    worst = 0.0
    versions = 0
    for name in small_suite:
        circuit = load_benchmark(name)
        want = simulate_ideal(circuit)
        for exe in compile_multi_version(circuit, ug27_m4).executables:
            tvd = 1.0 - fidelity(want, ideal_executable_distribution(exe))
            worst = max(worst, tvd)
            versions += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 300.0
    print(
        f"criterion 03: {versions} routed versions, worst TVD {worst:.2e} (< 1e-9) "
        f"in {elapsed:.1f}s (< 5min)"
    )


def test_criterion_04_routing_quality():
    device = make_path(4)
    ug = generate_compute_units(device, 4)
    region = enumerate_regions(ug, 1)[0]
    rng = random.Random(404)
    near_optimal = 0
    exact = 0
    for _ in range(50):
        pairs = []
        while len(pairs) < 10:
            a, b = rng.randrange(4), rng.randrange(4)
            if a != b:
                pairs.append((a, b))
        circuit = Circuit("rand", 4, tuple(Gate("cx", p) for p in pairs))
        exe = compile_on_region(circuit, region, device)
        best = optimum_swaps(pairs)
        if exe.swap_count <= best + 3:
            near_optimal += 1
        if exe.swap_count == best:
            exact += 1
    assert near_optimal >= 45
    print(
        f"criterion 04: {near_optimal}/50 within optimum+3 (>= 45), {exact}/50 exactly optimal"
    )


def _fake_exe(name, units):
    units = frozenset(units)
    return Executable(
        program_name=name,
        num_qubits=2,
        region=Region(units, units),
        layout=(0, 1),
        final_layout=(0, 1),
        routed_gates=(Gate("cx", (0, 1)),),
        swap_count=0,
        d_in=1,
        d_out=1,
        region_utility=100.0,
    )


def test_criterion_05_orchestration_exactness():
    rng = random.Random(0)
    solvable = 0
    greedy_solved = 0
    for _ in range(100):
        procs = []
        for i in range(rng.randint(2, 4)):
            exes = tuple(
                _fake_exe(f"p{i}", rng.sample(range(6), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 5))
            )
            procs.append(Process(f"p{i}", 2, exes))
        sum_k = sum(len(p.executables) for p in procs)
        try:
            greedy = select_heuristic(procs, strategy="small_first")
        except OrchestrationConflict:
            greedy = None
        else:
            assert greedy.evaluations <= sum_k
        try:
            pure = ref.select_brute_force(procs, pure=True)
        except OrchestrationConflict:
            assert greedy is None
            continue
        solvable += 1
        pruned = select_brute_force(procs)
        assert pruned.index_sum == pure.index_sum
        assert pruned.indices == pure.indices
        if greedy is not None:
            greedy_solved += 1
            assert greedy.index_sum >= pure.index_sum
    assert solvable >= 20
    print(
        f"criterion 05: 100 instances, {solvable} solvable, pruned == pure on all; "
        f"greedy solved {greedy_solved}, never below the optimum"
    )


def test_criterion_06_fidelity_gain_and_ranking(heavyhex27, small_suite):
    start = time.perf_counter()
    groups = generate_groups(small_suite, 2, 10, seed=11)
    flamenco = FidelityExperiment(heavyhex27, 4, mode="flamenco", shots=2**14, seed=3).run(groups)
    vanilla = FidelityExperiment(heavyhex27, 4, mode="vanilla", shots=2**14, seed=3).run(groups)
    assert flamenco.mean_fidelity >= vanilla.mean_fidelity
    corr = cost_fidelity_correlation(heavyhex27, 4, small_suite, shots=2**14, seed=7)
    assert corr.mean > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"criterion 06: mean fidelity {flamenco.mean_fidelity:.4f} vs vanilla "
        f"{vanilla.mean_fidelity:.4f}; rank correlation {corr.mean:+.3f} (> 0) "
        f"in {elapsed:.0f}s (< 10min)"
    )


def test_criterion_07_scaling_shape(heavyhex27, small_suite):
    sizes = (2, 4, 6, 8, 10)
    nested = nested_prefix_groups(small_suite, sizes, 10, seed=21)
    ratios = {}
    for strategy in ("random", "small_first", "large_first", "brute_force"):
        ratios[strategy] = [
            success_ratio(
                FidelityExperiment(heavyhex27, 4, strategy=strategy, shots=256, seed=2).run(nested[m])
            )
            for m in sizes
        ]
        curve = ratios[strategy]
        assert all(a >= b for a, b in zip(curve, curve[1:])), (strategy, curve)
    for idx, m in enumerate(sizes):
        if m in (8, 10):
            assert ratios["large_first"][idx] >= ratios["small_first"][idx]
    summary = "; ".join(f"{s} {r}" for s, r in ratios.items())
    print(f"criterion 07: SR non-increasing in M for all strategies ({summary})")


def test_criterion_08_unit_size_sensitivity(heavyhex27, small_suite):
    report = run_sweep(
        "unit_size",
        heavyhex27,
        small_suite,
        group_size=2,
        group_count=10,
        shots=2**12,
        seed=21,
        unit_sizes=(2, 4, 6, 8, 10, 12),
    )
    curve = {
        entry["param"]: entry["mean_fidelity"] for entry in report.summary()["per_param"]
    }
    params = sorted(curve)
    lowest = min(params, key=lambda p: curve[p])
    assert lowest not in (params[0], params[-1]), curve
    assert curve[params[0]] > curve[lowest] < curve[params[-1]]
    pretty = ", ".join(f"m={int(p)}: {curve[p]:.4f}" for p in params)
    print(f"criterion 08: fidelity-vs-m minimum interior at m={int(lowest)} ({pretty})")


def test_criterion_09_variation_tolerance(heavyhex27, small_suite):
    report = run_sweep(
        "variation",
        heavyhex27,
        small_suite,
        unit_size=4,
        group_size=2,
        group_count=10,
        shots=2**12,
        seed=11,
        sigmas=(0.0, 0.1),
    )
    means = {entry["param"]: entry["mean_fidelity"] for entry in report.summary()["per_param"]}
    drop = means[0.0] - means[0.1]
    assert drop < 0.05
    print(
        f"criterion 09: matched {means[0.0]:.4f}, drifted(sigma=0.1) {means[0.1]:.4f}, "
        f"drop {drop * 100:+.2f}pp (< 5pp)"
    )


def test_criterion_10_crosstalk_audit(heavyhex27, small_suite):
    report = run_sweep(
        "crosstalk",
        heavyhex27,
        small_suite,
        unit_size=4,
        group_size=3,
        group_count=10,
        shots=2**12,
        seed=11,
        crosstalk_seed=7,
    )
    xmap = sample_crosstalk_map(generate_compute_units(heavyhex27, 4), seed=7)
    unfiltered = report.reports[0.0].successes()
    filtered = report.reports[1.0].successes()
    assert filtered
    for record in filtered:
        assert crosstalk_violations(record, xmap) == 0
    raw_violations = sum(crosstalk_violations(r, xmap) for r in unfiltered)
    means = {entry["param"]: entry["mean_fidelity"] for entry in report.summary()["per_param"]}
    assert means[1.0] >= means[0.0]
    print(
        f"criterion 10: filtered selections have 0 flagged-link adjacencies "
        f"(unfiltered had {raw_violations}); fidelity {means[1.0]:.4f} >= {means[0.0]:.4f}"
    )


def test_criterion_11_metric_identities(heavyhex27):
    p = Distribution({"00": 0.5, "11": 0.5}, width=2)
    assert fidelity(p, p) == 1.0
    assert fidelity(Distribution({"00": 1.0}, 2), Distribution({"11": 1.0}, 2)) == 0.0
    uniform = Distribution({"0": 0.5, "1": 0.5}, width=1)
    assert fidelity(uniform, Distribution({"0": 1.0}, 1)) == 0.5

    ghz = Circuit("ghz3", 3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    emitted = [simulate_ideal(ghz)]
    ug = generate_compute_units(heavyhex27, 4)
    exe = compile_multi_version(ghz, ug).executables[0]
    emitted.append(ideal_executable_distribution(exe))
    emitted.append(simulate_noisy(exe, NoiseSpec(shots=2048, seed=5), heavyhex27))
    for dist in emitted:
        assert abs(sum(dist.outcomes.values()) - 1.0) <= 1e-9
    with pytest.raises(Exception):
        Distribution({"0": 0.6, "1": 0.4 + 1e-6}, width=1)
    print("criterion 11: three TVD identities exact; emitted distributions normalized")


def _latency_processes(gates_per_exe: int) -> list[Process]:
    combos = list(itertools.combinations(range(12), 2))
    gates = tuple(Gate("cx", (0, 1)) for _ in range(gates_per_exe))
    procs = []
    for p in range(10):
        exes = []
        for v in range(15):
            units = frozenset(combos[(7 * p + 3 * v) % len(combos)])
            exes.append(
                Executable(
                    program_name=f"p{p}",
                    num_qubits=2,
                    region=Region(units, units),
                    layout=(0, 1),
                    final_layout=(0, 1),
                    routed_gates=gates,
                    swap_count=0,
                    d_in=1,
                    d_out=1,
                    region_utility=100.0,
                )
            )
        fallback = frozenset({100 + p, 200 + p})
        exes.append(
            Executable(
                program_name=f"p{p}",
                num_qubits=2,
                region=Region(fallback, fallback),
                layout=(0, 1),
                final_layout=(0, 1),
                routed_gates=gates,
                swap_count=0,
                d_in=1,
                d_out=1,
                region_utility=100.0,
            )
        )
        procs.append(Process(f"p{p}", 2, tuple(exes)))
    return procs


def test_criterion_12_orchestration_latency():
    procs = _latency_processes(gates_per_exe=1)
    best = None
    for _ in range(3):
        selection = select_heuristic(procs, strategy="small_first")
        best = selection if best is None or selection.elapsed_s < best.elapsed_s else best
    assert best.elapsed_s < 0.010
    assert best.evaluations <= 160
    inflated = select_heuristic(_latency_processes(gates_per_exe=100), strategy="small_first")
    assert inflated.evaluations == best.evaluations
    assert inflated.indices == best.indices
    print(
        f"criterion 12: M=10/K=16 selection in {best.elapsed_s * 1000:.3f}ms (< 10ms), "
        f"{best.evaluations} evaluations (<= 160), count unchanged at 100x gate size"
    )
