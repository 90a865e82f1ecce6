"""Experiment harness: groups, mode comparisons, sweeps, serialization, CLI."""

import csv
import dataclasses
import json
import re

import pytest

from qmux import harness
from qmux.benchmarks import device_path, load_benchmark, load_device
from qmux.cli import main
from qmux.compiler import Process, compile_multi_version
from qmux.devices import CrosstalkMap, VariationModel, apply_variation, load_calibration
from qmux.errors import CompileError, QmuxError
from qmux.harness import (
    MODES,
    SWEEP_KINDS,
    BenchmarkGroup,
    ExperimentReport,
    FidelityExperiment,
    GroupRecord,
    _average_ranks,
    co_claims,
    cost_fidelity_correlation,
    generate_groups,
    nested_prefix_groups,
    run_sweep,
    sample_crosstalk_map,
    simulate_slots,
    success_ratio,
)
from qmux.orchestrator import select_heuristic
from qmux.partition import generate_compute_units
from qmux.serialize import (
    load_crosstalk_map,
    load_processes,
    save_processes,
    selection_to_dict,
)

from conftest import make_path
from oracles import crosstalk_violations

CSV_SCHEMA = [
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
]


@pytest.fixture(scope="module")
def trio(heavyhex27, small_suite):
    """One M=3 workload evaluated under all three execution modes."""
    groups = generate_groups(small_suite, 3, 10, seed=9)
    reports = {
        mode: FidelityExperiment(heavyhex27, 4, mode=mode, shots=2**12, seed=1).run(groups)
        for mode in ("flamenco", "vanilla", "oracle")
    }
    return groups, reports


def _paired_means(a: ExperimentReport, b: ExperimentReport):
    common = [
        r.group_id
        for r in a.successes()
        if b.records[r.group_id].success
    ]
    assert common
    ma = sum(a.records[i].mean_fidelity for i in common) / len(common)
    mb = sum(b.records[i].mean_fidelity for i in common) / len(common)
    return ma, mb


def test_full_suite_single_group(small_suite):
    groups = generate_groups(small_suite, len(small_suite), 1, seed=0)
    assert len(groups) == 1
    assert sorted(groups[0].members) == sorted(small_suite)
    with pytest.raises(QmuxError, match="only 1 distinct"):
        generate_groups(small_suite, len(small_suite), 2, seed=0)


def test_thirty_distinct_pairs(small_suite):
    assert len(small_suite) == 30
    groups = generate_groups(small_suite, 2, 30, seed=4)
    assert len(groups) == 30
    assert len({g.members for g in groups}) == 30
    for g in groups:
        assert g.size == 2
        assert set(g.members) <= set(small_suite)


def test_group_generation_deterministic(small_suite):
    a = generate_groups(small_suite, 3, 12, seed=8)
    b = generate_groups(small_suite, 3, 12, seed=8)
    assert a == b
    assert [g.group_id for g in a] == list(range(12))


def test_group_validation(small_suite):
    with pytest.raises(QmuxError, match="need 2"):
        BenchmarkGroup(0, ("adder_n4",))
    with pytest.raises(QmuxError, match="repeats"):
        BenchmarkGroup(0, ("adder_n4", "adder_n4"))
    with pytest.raises(QmuxError, match="exceeds suite size"):
        generate_groups(small_suite, 31, 1, seed=0)


@pytest.mark.parametrize(
    "draw", [lambda s: generate_groups(s, 2, 1), lambda s: nested_prefix_groups(s, (2, 3), 1)],
    ids=["generate_groups", "nested_prefix_groups"],
)
def test_a_suite_that_repeats_a_name_is_refused_naming_it(draw):
    with pytest.raises(QmuxError, match="^suite repeats adder_n4, wstate_n3$"):
        draw(["wstate_n3", "adder_n4", "wstate_n3", "fredkin_n3", "adder_n4"])


def test_nested_prefix_groups_structure(small_suite):
    nested = nested_prefix_groups(small_suite, (2, 4, 6), 5, seed=3)
    assert sorted(nested) == [2, 4, 6]
    for size, groups in nested.items():
        assert [g.group_id for g in groups] == list(range(5))
        assert all(g.size == size for g in groups)
    for i in range(5):
        big = nested[6][i].members
        assert nested[2][i].members == big[:2]
        assert nested[4][i].members == big[:4]


def test_nested_prefix_groups_refuse_a_concurrency_past_the_suite_naming_it():
    with pytest.raises(QmuxError, match="^concurrency 5 exceeds suite size 4$"):
        nested_prefix_groups(["wstate_n3", "adder_n4", "fredkin_n3", "deutsch_n2"], (2, 5, 3), 1)


def test_oracle_tops_concurrent_execution(trio):
    _, reports = trio
    oracle_mean, flamenco_mean = _paired_means(reports["oracle"], reports["flamenco"])
    assert oracle_mean >= flamenco_mean
    assert 0.85 < flamenco_mean < oracle_mean < 1.0
    assert success_ratio(reports["oracle"]) == 1.0


def test_cost_aware_selection_beats_random(trio):
    _, reports = trio
    assert reports["flamenco"].mean_fidelity >= reports["vanilla"].mean_fidelity
    flamenco_mean, vanilla_mean = _paired_means(reports["flamenco"], reports["vanilla"])
    assert flamenco_mean >= vanilla_mean


def test_failures_recorded_not_dropped(trio):
    groups, reports = trio
    flamenco = reports["flamenco"]
    assert [r.group_id for r in flamenco.records] == [g.group_id for g in groups]
    assert [r.members for r in flamenco.records] == [g.members for g in groups]
    failures = [r for r in flamenco.records if not r.success]
    assert failures, "expected at least one conflicting group at M=3"
    for r in failures:
        assert r.error.startswith("selection:")
        assert not r.fidelities
        assert r.mean_fidelity is None
    assert success_ratio(flamenco) == pytest.approx(
        1 - len(failures) / len(flamenco.records)
    )


def _traceback_depth(exc: BaseException) -> int:
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def test_process_for_raises_a_fresh_error_for_an_unfittable_program():
    # qaoa_n6 needs 6 qubits in 3 units of 2, which a 5-qubit line lacks.
    experiment = FidelityExperiment(make_path(5), 2, shots=16, seed=0)

    def depth():
        with pytest.raises(CompileError, match="^no feasible region for 'qaoa_n6'") as info:
            experiment.process_for("qaoa_n6")
        return _traceback_depth(info.value)

    first = depth()
    assert [depth() for _ in range(3)] == [first] * 3
    groups = [BenchmarkGroup(i, ("wstate_n3", "qaoa_n6")) for i in range(5)]
    records = experiment.run(groups).records
    assert all(r.error.startswith("compile: no feasible region for 'qaoa_n6'") for r in records)
    assert depth() == first


def test_oracle_mode_bypasses_orchestration(trio):
    _, reports = trio
    for r in reports["oracle"].records:
        assert r.success
        assert r.strategy == "none"
        assert r.index_sum == len(r.members)


def test_experiment_deterministic(trio, heavyhex27, small_suite):
    groups, reports = trio
    again = FidelityExperiment(heavyhex27, 4, mode="vanilla", shots=2**12, seed=1).run(groups)
    for r1, r2 in zip(reports["vanilla"].records, again.records):
        assert r1.success == r2.success
        assert r1.fidelities == r2.fidelities
        assert r1.index_sum == r2.index_sum
        assert r1.regions == r2.regions


def test_greedy_success_implies_exhaustive_success(trio, heavyhex27):
    groups, reports = trio
    brute = FidelityExperiment(
        heavyhex27, 4, mode="flamenco", strategy="brute_force", shots=2**12, seed=1
    ).run(groups)
    for greedy_rec, brute_rec in zip(reports["flamenco"].records, brute.records):
        if greedy_rec.success:
            assert brute_rec.success
            assert brute_rec.index_sum <= greedy_rec.index_sum


def _fake_report(n_success: int, n_total: int) -> ExperimentReport:
    records = tuple(
        GroupRecord(
            group_id=i,
            members=("a", "b"),
            mode="flamenco",
            strategy="small_first",
            unit_size=4,
            shots=1,
            seed=0,
            success=i < n_success,
        )
        for i in range(n_total)
    )
    return ExperimentReport(records)


def test_success_ratio_arithmetic():
    assert success_ratio(_fake_report(8, 30)) == pytest.approx(0.2667, abs=5e-5)
    assert success_ratio(_fake_report(26, 30)) == pytest.approx(26 / 30)
    assert success_ratio(_fake_report(5, 5)) == 1.0
    with pytest.raises(QmuxError, match="no records"):
        success_ratio(ExperimentReport(()))


def test_unit_size_sweep_parameter_rows(heavyhex27, small_suite):
    report = run_sweep(
        "unit_size",
        heavyhex27,
        small_suite,
        group_size=2,
        group_count=2,
        shots=64,
        seed=5,
        unit_sizes=range(2, 13),
    )
    assert list(report.reports) == [float(m) for m in range(2, 13)]
    assert all([r.group_id for r in rep.records] == [0, 1] for rep in report.reports.values())


def test_variation_sigma_zero_matches_unswept(heavyhex27, small_suite):
    sweep = run_sweep(
        "variation",
        heavyhex27,
        small_suite,
        unit_size=4,
        group_size=2,
        group_count=3,
        shots=256,
        seed=13,
        sigmas=(0.0,),
    )
    groups = generate_groups(small_suite, 2, 3, seed=13)
    direct = FidelityExperiment(heavyhex27, 4, shots=256, seed=13).run(groups)
    swept = sweep.reports[0.0].records
    assert len(swept) == len(direct.records) == 3
    for a, b in zip(swept, direct.records):
        assert a.success == b.success
        assert a.fidelities == b.fidelities


def test_crosstalk_sweep_filter_audit(heavyhex27, small_suite, tmp_path):
    report = run_sweep(
        "crosstalk",
        heavyhex27,
        small_suite,
        unit_size=4,
        group_size=3,
        group_count=3,
        shots=256,
        seed=11,
        crosstalk_seed=7,
    )
    assert list(report.reports) == [0.0, 1.0]
    xmap = sample_crosstalk_map(generate_compute_units(heavyhex27, 4), seed=7)
    for record in report.reports[1.0].records:
        if record.success:
            assert crosstalk_violations(record, xmap) == 0

    csv_path = tmp_path / "sweep.csv"
    report.write_csv(str(csv_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_SCHEMA
    assert len(rows) == 1 + sum(len(r.records) for r in report.reports.values())

    summary = report.summary()
    assert summary["kind"] == "crosstalk"
    assert [entry["param"] for entry in summary["per_param"]] == [0.0, 1.0]
    for entry in summary["per_param"]:
        assert {"param", "groups", "success_ratio", "mean_fidelity"} <= set(entry)


SWEEP_SUITE = ("wstate_n3", "adder_n4", "fredkin_n3", "deutsch_n2", "grover_n2", "toffoli_n3")


def _comparable(record: GroupRecord) -> dict:
    """Every record field except the wall-clock selection time."""
    fields = dataclasses.asdict(record)
    del fields["selection_elapsed_s"]
    return fields


def _expected_sweep(kind, device, seed, crosstalk_seed):
    """(param, records) per point, built directly from FidelityExperiment."""
    groups = generate_groups(SWEEP_SUITE, 2, 2, seed)
    if kind == "unit_size":
        points = [(float(m), groups, m, {}) for m in (3, 4)]
    elif kind == "concurrency":
        nested = nested_prefix_groups(SWEEP_SUITE, (2, 3), 2, seed)
        points = [(float(s), nested[s], 4, {}) for s in (2, 3)]
    elif kind == "variation":
        points = []
        for sigma in (0.0, 0.1):
            drift = VariationModel(mu=0.0, sigma=sigma, seed=crosstalk_seed)
            points.append((sigma, groups, 4, {"sim_device": apply_variation(device, drift)}))
    else:
        xmap = sample_crosstalk_map(generate_compute_units(device, 4), seed=crosstalk_seed)
        points = [
            (param, groups, 4, {"crosstalk": xmap, "crosstalk_filter": filtered})
            for param, filtered in ((0.0, False), (1.0, True))
        ]
    return [
        (param, FidelityExperiment(device, m, shots=64, seed=seed, **options).run(g, workers=1))
        for param, g, m, options in points
    ]


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_sweep_rows_match_direct_experiments(kind, heavyhex27):
    seed, crosstalk_seed = 5, 7
    sweep = run_sweep(
        kind,
        heavyhex27,
        SWEEP_SUITE,
        unit_size=4,
        group_size=2,
        group_count=2,
        shots=64,
        seed=seed,
        unit_sizes=(3, 4),
        concurrencies=(2, 3),
        sigmas=(0.0, 0.1),
        crosstalk_seed=crosstalk_seed,
    )
    expected = [
        (param, [_comparable(r) for r in report.records])
        for param, report in _expected_sweep(kind, heavyhex27, seed, crosstalk_seed)
    ]
    swept = [(param, [_comparable(r) for r in report.records]) for param, report in sweep.reports.items()]
    assert swept == expected
    assert sweep.kind == kind and sweep.device_name == heavyhex27.name


def test_two_workers_record_what_one_does(heavyhex27):
    groups = generate_groups(SWEEP_SUITE, 2, 8, seed=4)
    xmap = sample_crosstalk_map(generate_compute_units(heavyhex27, 4), seed=7)
    options = dict(shots=64, seed=4, crosstalk=xmap, crosstalk_filter=False)
    serial = FidelityExperiment(heavyhex27, 4, **options).run(groups, workers=1)
    pooled = FidelityExperiment(heavyhex27, 4, **options).run(groups, workers=2)
    assert [_comparable(r) for r in pooled.records] == [_comparable(r) for r in serial.records]
    assert all(r.success for r in serial.records)


@pytest.mark.parametrize("mode", MODES)
def test_unknown_strategy_rejected_in_every_mode(mode, heavyhex27):
    with pytest.raises(QmuxError, match="unknown strategy 'bogus'"):
        FidelityExperiment(heavyhex27, 4, mode=mode, strategy="bogus")


_NEGATIVE_SEED_ENTRIES = {
    "experiment": lambda dev: FidelityExperiment(dev, 4, shots=16, seed=-1),
    "sweep": lambda dev: run_sweep("unit_size", dev, ["wstate_n3", "adder_n4"], group_count=1, shots=16, seed=-1),
    "correlation": lambda dev: cost_fidelity_correlation(dev, 4, ["wstate_n3"], shots=16, seed=-1),
}


@pytest.mark.parametrize("entry", sorted(_NEGATIVE_SEED_ENTRIES))
def test_negative_seed_refused_before_compiling(entry, heavyhex27, monkeypatch):
    # Numpy's seed sequences take no negative integer; each entry point refuses it first.
    compiled = []
    monkeypatch.setattr(harness, "compile_multi_version", lambda *args: compiled.append(args))
    with pytest.raises(QmuxError, match="^seed must be a non-negative integer, got -1$"):
        _NEGATIVE_SEED_ENTRIES[entry](heavyhex27)
    assert not compiled


def test_sweep_names_every_unknown_benchmark_before_drawing_a_group(heavyhex27, monkeypatch):
    drawn, compiled = [], []
    monkeypatch.setattr(harness, "generate_groups", lambda *args: drawn.append(args))
    monkeypatch.setattr(harness, "compile_multi_version", lambda *args: compiled.append(args))
    with pytest.raises(QmuxError, match="^no bundled benchmark named bogus1, bogus2$"):
        run_sweep("unit_size", heavyhex27, ["bogus2", "wstate_n3", "bogus1"], group_count=1, shots=16)
    assert not drawn and not compiled


def test_experiment_refuses_an_unknown_member_without_a_traceback(heavyhex27):
    experiment = FidelityExperiment(heavyhex27, 4, shots=16)
    with pytest.raises(QmuxError, match="no bundled benchmark named 'bogus'"):
        experiment.run([BenchmarkGroup(0, ("bogus", "adder_n4"))])
    with pytest.raises(QmuxError, match="no bundled device named 'bogus'"):
        device_path("bogus")


def test_simulate_slots_refuses_a_seed_count_other_than_the_slot_count(heavyhex27, ug27_m4):
    executables = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4).executables[:2]
    for seeds in ([0], [0, 1, 2]):
        with pytest.raises(QmuxError, match=re.escape(f"2 slot(s) but {len(seeds)} seed(s)")):
            simulate_slots(executables, heavyhex27, 16, seeds, alone=True)
    assert len(simulate_slots(executables, heavyhex27, 16, [0, 1], alone=True)) == 2


def test_spearman_ties_share_their_average_rank():
    assert _average_ranks([0.3, 0.1, 0.3, 0.2]) == [3.5, 1.0, 3.5, 2.0]
    assert _average_ranks([]) == []


def test_co_claims_are_the_other_slots_qubits_and_refuse_shared_ones(ug27_m4):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    first = process.executables[0]
    second = next(e for e in process.executables if not e.region.qubits & first.region.qubits)
    assert co_claims([first, second]) == [second.region.qubits, first.region.qubits]
    shared = ", ".join(map(str, sorted(first.region.qubits)))
    with pytest.raises(QmuxError, match=f"wstate_n3 and wstate_n3 cannot co-run: their executables share qubits {shared}$"):
        co_claims([first, second, first])


def _write_crosstalk(tmp_path, amplification):
    """A crosstalk map file, {"flagged": [[a, b, factor], ...]}; returns its path."""
    path = tmp_path / "xtalk.json"
    path.write_text(json.dumps({"flagged": [[a, b, f] for (a, b), f in amplification.items()]}))
    return path


def test_serialization_roundtrips(ug27_m4, tmp_path):
    process = compile_multi_version(load_benchmark("adder_n4"), ug27_m4)
    manifest = tmp_path / "adder_n4.process.json"
    save_processes(str(manifest), [process])
    assert load_processes(str(manifest)) == [process]

    xpath = _write_crosstalk(tmp_path, {(0, 1): 2.5, (5, 8): 4.0})
    assert load_crosstalk_map(str(xpath)) == CrosstalkMap({(0, 1): 2.5, (5, 8): 4.0})

    selection = select_heuristic([process])
    payload = selection_to_dict(selection)
    assert payload["index_sum"] == 1
    assert payload["nodes"] == 0
    assert payload["chosen"][0]["program_name"] == "adder_n4"
    json.dumps(payload)


def _distinct(gates):
    """(distinct gate values, distinct gate objects) in `gates`."""
    gates = list(gates)
    return len(set(gates)), len({id(g) for g in gates})


def test_compiled_executable_holds_one_object_per_distinct_gate(ug27_m4):
    process = compile_multi_version(load_benchmark("adder_n4"), ug27_m4)
    for exe in process.executables:
        values, objects = _distinct(exe.routed_gates)
        assert values < len(exe.routed_gates)
        assert objects == values


@pytest.fixture(scope="module")
def small_table(ug27_m4):
    return [compile_multi_version(load_benchmark(n), ug27_m4) for n in ("adder_n4", "wstate_n3")]


def test_loaded_manifest_holds_one_object_per_distinct_record(small_table, tmp_path):
    manifest = tmp_path / "table.json"
    save_processes(str(manifest), small_table)
    payload = json.loads(manifest.read_text())
    routed = [i for p in payload["processes"] for e in p["executables"] for i in e["routed_gates"]]
    # The gate table holds each distinct gate once, and every entry is routed.
    distinct = len(payload["gates"])
    assert len({(n, tuple(q), tuple(p)) for n, q, p in payload["gates"]}) == distinct
    assert len(set(routed)) == distinct < len(routed)

    loaded = load_processes(str(manifest))
    assert loaded == small_table
    # Counted across the whole file: programs share gates too.
    assert _distinct(g for p in loaded for e in p.executables for g in e.routed_gates) == (distinct, distinct)


def test_saved_table_is_the_gate_table_v2_text(small_table, tmp_path):
    gates = []  # distinct [name, qubits, params] records, in first-routed order

    def record(e):
        ids = []
        for g in e.routed_gates:
            entry = [g.name, list(g.qubits), list(g.params)]
            if entry not in gates:
                gates.append(entry)
            ids.append(gates.index(entry))
        return {
            "program_name": e.program_name,
            "num_qubits": e.num_qubits,
            "region": {"unit_ids": sorted(e.region.unit_ids), "qubits": sorted(e.region.qubits)},
            "layout": list(e.layout),
            "final_layout": list(e.final_layout),
            "routed_gates": ids,
            "swap_count": e.swap_count,
            "d_in": e.d_in,
            "d_out": e.d_out,
            "region_utility": e.region_utility,
        }

    processes = [
        {"program_name": p.program_name, "num_qubits": p.num_qubits, "executables": [record(e) for e in p.executables]}
        for p in small_table
    ]
    payload = {"format": "qmux-processes-v2", "gates": gates, "processes": processes}
    manifest = tmp_path / "table.json"
    save_processes(str(manifest), small_table)
    assert manifest.read_text() == json.dumps(payload, separators=(",", ":")) + "\n"


def test_compile_writes_each_rank_as_a_one_process_manifest(ug27_m4, tmp_path):
    process = compile_multi_version(load_benchmark("adder_n4"), ug27_m4)
    assert main(["compile", "adder_n4", "--device", "heavyhex27", "-m", "4", "-o", str(tmp_path)]) == 0
    assert load_processes(str(tmp_path / "adder_n4.process.json")) == [process]
    for rank, exe in enumerate(process.executables, start=1):
        units = "-".join(map(str, sorted(exe.region.unit_ids)))
        path = tmp_path / f"adder_n4.r{rank}.units{units}.exe.json"
        assert json.loads(path.read_text())["format"] == "qmux-processes-v2"
        assert load_processes(str(path)) == [Process("adder_n4", 4, (exe,))]
    assert len(list(tmp_path.iterdir())) == 1 + len(process.executables)


def _file_with(tmp_path, process, edit, fmt="manifest"):
    """A manifest of `process`, or with fmt="artifact" the per-rank file
    `qmux compile` writes for its last executable (a manifest of one process
    that holds that one executable, with a gate table of its own), edited by
    `edit(gate_table, last_executable_record)`."""
    path = tmp_path / "bad.json"
    if fmt == "artifact":
        process = Process(process.program_name, process.num_qubits, process.executables[-1:])
    save_processes(str(path), [process])
    payload = json.loads(path.read_text())
    edit(payload["gates"], payload["processes"][0]["executables"][-1])
    return _write(path, json.dumps(payload))


def _route_new(table, record, entry):
    """Route `entry`, a [name, qubits, params] record, last in `record`, at a new gate table entry."""
    table.append(entry)
    record["routed_gates"].append(len(table) - 1)


def _float_operand_after_equal_int(table, record):
    # 17.0 == 17: the copy must not pass as the gate of its equal record.
    name, qubits, params = table[record["routed_gates"][-1]]
    _route_new(table, record, [name, [float(q) for q in qubits], params])


# (edit, the start of the error message after the path)
NON_INTEGER_RECORDS = {
    "unit-id": (
        lambda _, r: r["region"].update(unit_ids=[1.5]),
        "malformed executable record: region unit id must be an integer, got 1.5",
    ),
    "region-qubit": (
        lambda _, r: r["region"]["qubits"].__setitem__(0, float(r["region"]["qubits"][0])),
        "malformed executable record: region qubit must be an integer, got",
    ),
    "layout": (
        lambda _, r: r["layout"].__setitem__(0, float(r["layout"][0])),
        "malformed executable record: layout entry must be an integer",
    ),
    "final-layout": (
        lambda _, r: r["final_layout"].__setitem__(0, True),
        "malformed executable record: final layout entry must be an integer, got True",
    ),
    "gate-operand": (
        _float_operand_after_equal_int,
        "malformed gate record: gate operand must be a non-negative integer, got",
    ),
    "num-qubits": (
        lambda _, r: r.update(num_qubits=3.0),
        "malformed executable record: num_qubits must be an integer, got 3.0",
    ),
}


@pytest.mark.parametrize("edit, message", NON_INTEGER_RECORDS.values(), ids=NON_INTEGER_RECORDS)
@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loaders_refuse_non_integer_ids(tmp_path, ug27_m4, fmt, edit, message):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    path = _file_with(tmp_path, process, edit, fmt)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}"):
        load_processes(path)


def _param_gate(table):
    return next(g for g in table if g[2])


def _bool_param_after_equal_int(table, record):
    # true == 1: the bool record must not pass as the gate of its equal record.
    name, qubits, _ = _param_gate(table)
    _route_new(table, record, [name, qubits, [1]])
    _route_new(table, record, [name, qubits, [True]])


NON_NUMERIC_PARAMS = {
    "string": (lambda t, _: _param_gate(t).__setitem__(2, ["abc"]), "gate param must be a number, got 'abc'"),
    "null": (lambda t, _: _param_gate(t).__setitem__(2, [None]), "gate param must be a number, got None"),
    "bool": (_bool_param_after_equal_int, "gate param must be a number, got True"),
}


@pytest.mark.parametrize("edit, message", NON_NUMERIC_PARAMS.values(), ids=NON_NUMERIC_PARAMS)
@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loader_refuses_non_numeric_gate_params(tmp_path, ug27_m4, fmt, edit, message):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    path = _file_with(tmp_path, process, edit, fmt)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: malformed gate record: {re.escape(message)}$"):
        load_processes(path)


# (gate table entry, the error message after "malformed gate record: ")
BAD_GATE_RECORDS = {
    "float-operand": (["cx", [1.0, 2], []], "gate operand must be a non-negative integer, got 1.0"),
    "negative-operand": (["x", [-1], []], "gate operand must be a non-negative integer, got -1"),
    "bool-param": (["ry", [0], [True]], "gate param must be a number, got True"),
    "name": ([7, [0], []], "gate name must be a string, got 7"),
    "short": (["x", [0]], "not enough values to unpack (expected 3, got 2)"),
}


@pytest.mark.parametrize("entry, message", BAD_GATE_RECORDS.values(), ids=BAD_GATE_RECORDS)
@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loaders_refuse_bad_gate_records(tmp_path, ug27_m4, fmt, entry, message):
    # Every entry of the gate table is checked, also one no executable routes.
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    path = _file_with(tmp_path, process, lambda t, _: t.append(entry), fmt)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: malformed gate record: {re.escape(message)}$"):
        load_processes(path)


@pytest.mark.parametrize("case", ["negative", "past-the-end", "true", "float"])
@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loaders_refuse_bad_gate_indices(tmp_path, ug27_m4, fmt, case):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    sizes = []

    def edit(table, record):
        # true and 1.0 equal the valid index 1.
        sizes.append(len(table))
        record["routed_gates"].append({"negative": -1, "past-the-end": len(table), "true": True, "float": 1.0}[case])

    path = _file_with(tmp_path, process, edit, fmt)
    (n,) = sizes
    message = {
        "negative": f"routed gate index -1 is outside the gate table of {n} gates",
        "past-the-end": f"routed gate index {n} is outside the gate table of {n} gates",
        "true": "routed gate index must be an integer, got True",
        "float": "routed gate index must be an integer, got 1.0",
    }[case]
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: malformed executable record: {re.escape(message)}$"):
        load_processes(path)


def _route(table, record, entry):
    """Route `entry` last in `record`, at its gate table entry if the table has one."""
    if entry not in table:
        table.append(entry)
    record["routed_gates"].append(table.index(entry))


@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loader_refuses_routed_gate_leaving_its_region(tmp_path, ug27_m4, fmt):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    last = process.executables[-1].region.qubits
    # A gate of the first version, outside the last version's region. In a
    # manifest the gate table already holds it, valid for the first version.
    gate = next(g for g in process.executables[0].routed_gates if g.is_two_qubit and not last.issuperset(g.qubits))
    path = _file_with(tmp_path, process, lambda t, r: _route(t, r, [gate.name, list(gate.qubits), []]), fmt)
    a, b = gate.qubits
    message = f"malformed executable record: wstate_n3's routed {gate.name} on qubits {a}, {b} leaves its region"
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        load_processes(path)


def test_loaders_refuse_repeated_operands_after_valid_records(tmp_path, ug27_m4):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    a = process.executables[-1].layout[0]
    for fmt in ("manifest", "artifact"):
        path = _file_with(tmp_path, process, lambda t, r: _route_new(t, r, ["cx", [a, a], []]), fmt)
        with pytest.raises(QmuxError, match=f"^{re.escape(path)}: cx has repeated operands"):
            load_processes(path)


# (gate table entry, the error message after the path): refused by the read or by Gate.
REFUSED_GATE_PARAMS = {
    "cx-param": (["cx", [0, 1], [0.5]], "cx takes no parameters"),
    "nan": (["ry", [0], [float("nan")]], "not valid JSON (NaN is not a JSON number)"),
    "infinity": (["ry", [0], [float("inf")]], "not valid JSON (Infinity is not a JSON number)"),
    "past-float-range": (["ry", [0], [10**400]], f"ry parameter {10**400} is not a finite float"),
}


@pytest.mark.parametrize("entry, message", REFUSED_GATE_PARAMS.values(), ids=REFUSED_GATE_PARAMS)
def test_loaders_refuse_params_a_gate_cannot_take(tmp_path, ug27_m4, entry, message):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    for fmt in ("manifest", "artifact"):
        path = _file_with(tmp_path, process, lambda t, _: t.append(entry), fmt)
        with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
            load_processes(path)


def _repeat_second(key):
    """An edit that puts logical qubit 0 of a record's `key` layout on logical 1's qubit."""
    return lambda _, r: r[key].__setitem__(0, r[key][1])


# (edit, the start of the error message after "malformed executable record: ")
BAD_RECORD_FIELDS = {
    # Logical qubits 0 and 1 on one physical qubit would read the same outcome.
    "repeated-layout": (_repeat_second("layout"), "'wstate_n3': layout places logical 0 and 1 both on "),
    "repeated-final-layout": (_repeat_second("final_layout"), "'wstate_n3': final layout places logical 0 and 1 both on "),
    "program-name-list": (lambda _, r: r.update(program_name=["wstate_n3"]), "program_name must be a string, got ['wstate_n3']"),
    "swap-count-negative": (lambda _, r: r.update(swap_count=-1), "swap_count must be at least 0, got -1"),
    "swap-count-float": (lambda _, r: r.update(swap_count=2.0), "swap_count must be an integer, got 2.0"),
    "d-in-bool": (lambda _, r: r.update(d_in=True), "d_in must be an integer, got True"),
    "d-in-zero": (lambda _, r: r.update(d_in=0), "d_in must be at least 1, got 0"),
    "d-out-negative": (lambda _, r: r.update(d_out=-3), "d_out must be at least 1, got -3"),
    "region-utility-bool": (lambda _, r: r.update(region_utility=True), "region_utility must be a number, got True"),
    "region-utility-null": (lambda _, r: r.update(region_utility=None), "region_utility must be a number, got None"),
}


@pytest.mark.parametrize("edit, message", BAD_RECORD_FIELDS.values(), ids=BAD_RECORD_FIELDS)
@pytest.mark.parametrize("fmt", ["manifest", "artifact"])
def test_loaders_refuse_bad_record_fields(tmp_path, ug27_m4, fmt, edit, message):
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    path = _file_with(tmp_path, process, edit, fmt)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: malformed executable record: {re.escape(message)}"):
        load_processes(path)


def test_loader_refuses_a_version_of_another_program(tmp_path, small_table):
    adder, wstate = small_table
    path = str(tmp_path / "mixed.json")
    save_processes(path, [Process("wstate_n3", 3, wstate.executables + adder.executables[:1])])
    message = "malformed process record: 'wstate_n3' of 3 qubits holds a version of 'adder_n4' of 4 qubits"
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        load_processes(path)


# (file content or None for no file, the start of the error message after the path)
BAD_FILES = [
    (None, "cannot read"),
    ("{", "not valid JSON"),
    (b"\xff\xfe{}", "not valid JSON"),
    ("[1, 2]", "not a JSON object"),
]
# A one-qubit executable record that loads, for hand-made bad files, and
# its gate table.
ONE_QUBIT_RECORD = {
    "program_name": "p", "num_qubits": 1, "region": {"unit_ids": [0], "qubits": [0]},
    "layout": [0], "final_layout": [0], "routed_gates": [0],
    "swap_count": 0, "d_in": 1, "d_out": 1, "region_utility": 1.0,
}
ONE_QUBIT_GATES = [["ry", [0], [0.5]]]
# The same record as a v1 file wrote it, each routed gate inline.
V1_RECORD = ONE_QUBIT_RECORD | {"routed_gates": ONE_QUBIT_GATES}
NOT_V2 = "not a qmux-processes-v2 file"


def _manifest_of(record, gates=ONE_QUBIT_GATES, **process):
    """A manifest of one process that holds `record`, with `process` replacing process fields."""
    process = {"program_name": "p", "num_qubits": 1, "executables": [record]} | process
    return json.dumps({"format": "qmux-processes-v2", "gates": gates, "processes": [process]})


BAD_MANIFESTS = [
    # v1 tables are refused as a whole; they must be compiled again.
    (json.dumps({"format": "qmux-processes-v1", "processes": [
        {"program_name": "p", "num_qubits": 1, "executables": [V1_RECORD]}
    ]}), NOT_V2),
    pytest.param(json.dumps(V1_RECORD | {"format": "qmux-executable-v1"}), NOT_V2, id="v1-artifact"),
    ('{"format": "qmux-processes-v3"}', NOT_V2),
    ('{"format": "qmux-processes-v2"}', '"gates" is not a list'),
    # An artifact of the retired one-executable format; compile it again.
    (json.dumps({"format": "qmux-executable-v2", "gates": ONE_QUBIT_GATES} | ONE_QUBIT_RECORD), NOT_V2),
    ('{"format": "qmux-processes-v2", "gates": []}', '"processes" is not a list'),
    ('{"format": "qmux-processes-v2", "gates": [], "processes": 3}', '"processes" is not a list'),
    ('{"format": "qmux-processes-v2", "gates": [], "processes": [[1]]}', "malformed process record"),
    pytest.param(
        '{"format": "qmux-processes-v2", "gates": [], "processes": []}',
        "qmux-processes-v2 manifest holds no processes",
        id="processes-empty",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"region": {"unit_ids": [1.5], "qubits": [0]}}),
        "malformed executable record: region unit id must be an integer, got 1.5",
        id="unit-id-fraction",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD, num_qubits=1.0),
        "malformed process record: num_qubits must be an integer, got 1.0",
        id="process-num-qubits-float",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD, gates=[["ry", [0], ["abc"]]]),
        "malformed gate record: gate param must be a number, got 'abc'",
        id="param-string",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD, gates=[["ry", [0], [float("nan")]]]),
        "not valid JSON (NaN is not a JSON number)",
        id="param-nan",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD, gates=[["cx", [0, 1], [0.5]]]),
        "cx takes no parameters",
        id="cx-param",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"num_qubits": 1.0}),
        "malformed executable record: num_qubits must be an integer, got 1.0",
        id="num-qubits-float",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"program_name": 5}, program_name=5),
        "malformed executable record: program_name must be a string, got 5",
        id="program-name-int",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"swap_count": "abc"}),
        "malformed executable record: swap_count must be an integer, got 'abc'",
        id="swap-count-string",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"d_out": "x"}),
        "malformed executable record: d_out must be an integer, got 'x'",
        id="d-out-string",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"d_out": 0}),
        "malformed executable record: d_out must be at least 1, got 0",
        id="d-out-zero",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD | {"region_utility": "1.0"}),
        "malformed executable record: region_utility must be a number, got '1.0'",
        id="region-utility-string",
    ),
    pytest.param(
        _manifest_of(ONE_QUBIT_RECORD, program_name="other", num_qubits=99),
        "malformed process record: 'other' of 99 qubits holds a version of 'p' of 1 qubits",
        id="process-of-another-program",
    ),
]
# (crosstalk map content, the error message after the path): qubit ids, then factors.
BAD_CROSSTALK_MAPS = [
    (json.dumps({"flagged": [entry]}), f"malformed crosstalk map: flagged link qubit must be an integer, got {bad}")
    for entry, bad in (([15.5, 18, 3.0], "15.5"), ([15, 18.0, 3.0], "18.0"), ([True, 18, 3.0], "True"))
] + [
    (json.dumps({"flagged": [[15, 18, f]]}), f"malformed crosstalk map: crosstalk factor must be a number, got {f!r}")
    for f in ("3", True, False)
] + [
    (json.dumps({"flagged": [[15, 18, f], [14, 16, 2.5]]}), f"not valid JSON ({word} is not a JSON number)")
    for f, word in ((float("nan"), "NaN"), (float("inf"), "Infinity"), (-float("inf"), "-Infinity"))
]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    return str(path)


@pytest.mark.parametrize("content, message", BAD_FILES)
@pytest.mark.parametrize("loader", [load_processes, load_crosstalk_map])
def test_loaders_reject_unreadable_files(tmp_path, loader, content, message):
    path = _write(tmp_path / "bad.json", content)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {message}"):
        loader(path)


@pytest.mark.parametrize(
    "content, message",
    BAD_CROSSTALK_MAPS,
    ids=["fraction", "float", "bool", "factor-string", "factor-true", "factor-false",
         "factor-nan", "factor-infinity", "factor-minus-infinity"],
)
def test_crosstalk_map_refuses_non_integer_ids(tmp_path, content, message):
    # And factors that are not JSON numbers.
    path = _write(tmp_path / "xtalk.json", content)
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        load_crosstalk_map(path)


@pytest.mark.parametrize("loader, form", [
    pytest.param(load_processes, "manifest", id="load_processes"),
    pytest.param(load_processes, "artifact", id="artifact"),
    pytest.param(load_crosstalk_map, None, id="load_crosstalk_map"),
])
def test_loaders_name_the_file_in_record_errors(tmp_path, ug27_m4, loader, form):
    # Each file parses, but a record in it is refused after the read.
    if loader is load_crosstalk_map:
        payload, message = {"flagged": [[0, 1, 0.5]]}, "crosstalk factor 0.5 on (0, 1) below 1"
        path = _write(tmp_path / "bad.json", json.dumps(payload))
    else:
        process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
        path = _file_with(tmp_path, process, lambda _, r: r.update(num_qubits=r["num_qubits"] + 1), form)
        message = "malformed executable record: 'wstate_n3' has 4 qubits but the layout places 3"
    with pytest.raises(QmuxError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        loader(path)


@pytest.mark.parametrize("content, message", BAD_FILES + BAD_MANIFESTS)
@pytest.mark.parametrize("command", ["orchestrate", "run"])
def test_cli_bad_manifest_fails_cleanly(tmp_path, capsys, command, content, message):
    path = _write(tmp_path / "bad.json", content)
    out = tmp_path / "out.json"
    argv = [command, path, "--out", str(out)]
    if command == "run":
        argv += ["--device", "heavyhex27", "--shots", "64"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_cli_bad_crosstalk_map_fails_cleanly(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    manifest = str(out_dir / "wstate_n3.process.json")
    capsys.readouterr()
    for i, (content, message) in enumerate(BAD_FILES + BAD_CROSSTALK_MAPS):
        xtalk = _write(tmp_path / f"xtalk{i}.json", content)
        out = tmp_path / "selection.json"
        assert main(["orchestrate", manifest, "--crosstalk", xtalk, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {xtalk}: {message}")
        assert not out.exists()


HEAVYHEX27_LINKS = json.loads(device_path("heavyhex27").read_text())["links"]
# A directory, raw bytes, or heavyhex27's calibration with these fields replaced.
BAD_CALIBRATIONS = {
    "directory": (None, "cannot read"),
    "non-utf8": (b"\xff\xfe{}", "not valid JSON"),
    "link-id": ({"links": [["a", 1, 0.01]]}, "malformed calibration"),
    "links-not-list": ({"links": 5}, "malformed calibration"),
    "num-qubits": ({"num_qubits": "x"}, "malformed calibration"),
    "qubit-errors-null": ({"qubit_errors": None}, "malformed calibration"),
    "num-qubits-fraction": ({"num_qubits": 27.9}, "malformed calibration (num_qubits must be an integer, got 27.9)"),
    "num-qubits-bool": ({"num_qubits": True}, "malformed calibration (num_qubits must be an integer, got True)"),
    "link-id-fraction": ({"links": [[0.5, 1, 0.01]]}, "malformed calibration (endpoint of link [0.5, 1, 0.01]"),
    "link-error-range": ({"links": [[0, 1, 1.5]]}, "probability out of range on link"),
    # Rates and the name are refused by type, with every other field as bundled.
    "link-error-string": (
        {"links": [[*HEAVYHEX27_LINKS[0][:2], "0.01"], *HEAVYHEX27_LINKS[1:]]},
        f"malformed calibration (error of link {[*HEAVYHEX27_LINKS[0][:2], '0.01']!r} must be a number, got '0.01')",
    ),
    "link-error-bool": (
        {"links": [[*HEAVYHEX27_LINKS[0][:2], True], *HEAVYHEX27_LINKS[1:]]},
        f"malformed calibration (error of link {[*HEAVYHEX27_LINKS[0][:2], True]!r} must be a number, got True)",
    ),
    "qubit-error-false": ({"qubit_errors": [False] * 27}, "malformed calibration (qubit error must be a number, got False)"),
    "readout-error-string": ({"readout_errors": ["3"] * 27}, "malformed calibration (readout error must be a number, got '3')"),
    "name-int": ({"name": 5}, "malformed calibration (device name must be a string, got 5)"),
}


@pytest.mark.parametrize("content, message", BAD_CALIBRATIONS.values(), ids=BAD_CALIBRATIONS)
def test_bad_calibration_fails_cleanly(tmp_path, capsys, content, message):
    path = tmp_path / "dev.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(json.loads(device_path("heavyhex27").read_text()) | content))
    with pytest.raises(QmuxError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_calibration(path)
    out = tmp_path / "units.json"
    assert main(["partition", "--device", str(path), "-m", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["num_qubits", "layout", "gate", "repeated-final-layout"])
def test_cli_run_refuses_artifact_outside_its_region(tmp_path, capsys, heavyhex27, case):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    (artifact,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    payload = json.loads(artifact.read_text())
    record = payload["processes"][0]["executables"][0]
    region = set(record["region"]["qubits"])
    if case == "num_qubits":
        record["num_qubits"] += 1
        message = f"malformed executable record: 'wstate_n3' has {record['num_qubits']} qubits but the layout places 3"
    elif case == "layout":
        record["layout"] = [99, 98, 97]
        message = "malformed executable record: 'wstate_n3': layout places logical 0 on 99, outside the region"
    elif case == "repeated-final-layout":
        # Every logical bit on one qubit would read that qubit's outcome.
        q = record["final_layout"][0]
        record["final_layout"] = [q, q, q]
        message = f"malformed executable record: 'wstate_n3': final layout places logical 0 and 1 both on {q}"
    else:
        # A device link from the region to a qubit outside it passes the link check.
        a, b = next((a, b) for a, b in heavyhex27.links if (a in region) != (b in region))
        _route_new(payload["gates"], record, ["cx", [a, b], []])
        message = f"routed cx on qubits {a}, {b} leaves its region"
    artifact.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "run.json"
    assert main(["run", str(artifact), "--device", "heavyhex27", "--shots", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {artifact}: ") and "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_cli_partition_and_compile(tmp_path):
    part_out = tmp_path / "units.json"
    assert main(
        ["partition", "--device", "heavyhex27", "-m", "4", "--regions", "2", "--out", str(part_out)]
    ) == 0
    payload = json.loads(part_out.read_text())
    assert len(payload["units"]) == 7
    assert sum(u["residual"] for u in payload["units"]) == 1
    assert payload["regions"]

    out_dir = tmp_path / "compiled"
    assert main(
        ["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]
    ) == 0
    manifest = out_dir / "wstate_n3.process.json"
    assert manifest.exists()
    assert len(load_processes(str(manifest))[0].executables) == 6
    assert len(list(out_dir.glob("wstate_n3.r*.exe.json"))) == 6


def test_cli_orchestrate_and_run(tmp_path):
    out_dir = tmp_path / "compiled"
    for name in ("wstate_n3", "fredkin_n3"):
        assert main(
            ["compile", name, "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]
        ) == 0
    manifests = [str(out_dir / f"{n}.process.json") for n in ("wstate_n3", "fredkin_n3")]

    sel_out = tmp_path / "selection.json"
    assert main(["orchestrate", *manifests, "--out", str(sel_out)]) == 0
    selection = json.loads(sel_out.read_text())
    assert selection["index_sum"] >= 2
    assert len(selection["chosen"]) == 2

    run_out = tmp_path / "run.json"
    assert main(
        [
            "run",
            manifests[0],
            "--device",
            "heavyhex27",
            "--shots",
            "512",
            "--out",
            str(run_out),
        ]
    ) == 0
    results = json.loads(run_out.read_text())["results"]
    assert len(results) == 1
    assert 0.0 <= results[0]["fidelity_vs_ideal"] <= 1.0


def test_cli_bench_and_errors(tmp_path):
    prefix = tmp_path / "bench"
    assert main(
        [
            "bench",
            "--kind",
            "variation",
            "--device",
            "heavyhex27",
            "-m",
            "4",
            "--groups",
            "2",
            "--group-size",
            "2",
            "--shots",
            "64",
            "--seed",
            "3",
            "--suite",
            "wstate_n3",
            "adder_n4",
            "fredkin_n3",
            "qec_en_n5",
            "--out",
            str(prefix),
        ]
    ) == 0
    assert (tmp_path / "bench.csv").exists()
    assert json.loads((tmp_path / "bench.json").read_text())["kind"] == "variation"

    assert main(["partition", "--device", "no-such-device", "-m", "4"]) == 1


def test_cli_bench_suite_too_small_for_groups(tmp_path, capsys):
    # The concurrency kind's largest groups hold 10 programs, more than the suite.
    argv = "bench --kind concurrency --device heavyhex27 --suite wstate_n3 adder_n4 fredkin_n3"
    assert main([*argv.split(), "--groups", "2", "--shots", "64", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()


def test_cli_bench_names_the_default_concurrency_past_the_suite(tmp_path, capsys):
    # No group size is given; 10 is the largest default concurrency.
    argv = "bench --kind concurrency --device heavyhex27 --groups 1 --shots 8 --suite adder_n4 wstate_n3"
    assert main([*argv.split(), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "concurrency 10 exceeds suite size 2" in err and "group size" not in err
    assert not (tmp_path / "b.csv").exists()


def test_cli_bench_refuses_unknown_suite_names(tmp_path, capsys):
    argv = "bench --kind unit_size --device heavyhex27 --suite bogus1 wstate_n3 bogus2 --groups 1 --shots 16"
    assert main([*argv.split(), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "bogus1" in err and "bogus2" in err and "wstate_n3" not in err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_cli_bench_refuses_shots_below_one_before_compiling(shots, tmp_path, capsys, monkeypatch):
    compiled = []
    monkeypatch.setattr(harness, "compile_multi_version", lambda *args: compiled.append(args))
    argv = "bench --kind unit_size --device heavyhex27 --suite wstate_n3 adder_n4 --groups 1 --shots"
    assert main([*argv.split(), shots, "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"shots must be at least 1, got {shots}" in err
    assert not compiled and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_cli_orchestrate_refuses_nan_and_negative_timeouts(timeout, tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "selection.json"
    manifest = str(out_dir / "wstate_n3.process.json")
    argv = ["orchestrate", manifest, "--strategy", "brute_force", "--timeout", timeout, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"timeout must be a non-negative number of seconds, got {float(timeout)}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_run_and_bench_refuse_a_negative_seed_cleanly(command, tmp_path, capsys, monkeypatch, small_table):
    # Numpy's seed sequences take no negative integer: `run` ended in a
    # traceback, `bench` in an error naming no option after it had compiled.
    # NoiseSpec and FidelityExperiment refuse it before anything runs or compiles.
    save_processes(str(tmp_path / "table.json"), small_table[1:])
    compiled = []
    monkeypatch.setattr(harness, "compile_multi_version", lambda *args: compiled.append(args))
    monkeypatch.chdir(tmp_path)
    given = "table.json" if command == "run" else "--kind unit_size --suite wstate_n3 adder_n4 --groups 1 --out b"
    argv = [command, *given.split(), "--device", "heavyhex27", "--shots", "16", "--seed", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "seed must be a non-negative integer, got -1" in err
    assert not compiled and [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_cli_orchestrate_takes_a_negative_seed(tmp_path, capsys):
    # Only the random order uses it, and `random.Random` takes any integer.
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    out = tmp_path / "selection.json"
    manifest = str(out_dir / "wstate_n3.process.json")
    assert main(["orchestrate", manifest, "--strategy", "random", "--seed", "-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["chosen"]


def _rank1(path):
    """The rank-1 executable of the first process in a manifest."""
    return load_processes(str(path))[0].executables[0]


def test_cli_run_crosstalk_between_programs_lowers_fidelity(tmp_path, heavyhex27):
    out_dir = tmp_path / "compiled"
    for name in ("wstate_n3", "adder_n4"):
        assert main(["compile", name, "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    (first,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    region = _rank1(first).region.qubits
    # An adder version on a region next to wstate's, sharing no qubit with it.
    for path in sorted(out_dir.glob("adder_n4.r*.exe.json")):
        other = _rank1(path).region.qubits
        between = [l for l in heavyhex27.links if len(set(l) & region) == 1 and len(set(l) & other) == 1]
        if between and not region & other:
            second = path
            break
    xpath = _write_crosstalk(tmp_path, {l: 5.0 for l in between})

    def fidelities(*argv):
        out = tmp_path / "run.json"
        assert main(["run", *argv, "--device", "heavyhex27", "--shots", "4096", "--out", str(out)]) == 0
        return [r["fidelity_vs_ideal"] for r in json.loads(out.read_text())["results"]]

    plain = fidelities(str(first), str(second))
    amplified = fidelities(str(first), str(second), "--crosstalk", str(xpath))
    assert len(amplified) == 2
    assert all(a < p for a, p in zip(amplified, plain)), (amplified, plain)
    # Versions of one program are alternatives, not co-runners: alone, the map is inert.
    manifest = str(out_dir / "wstate_n3.process.json")
    versions = fidelities(manifest, "--all-versions")
    assert fidelities(manifest, "--all-versions", "--crosstalk", str(xpath)) == versions


def test_cli_run_rejects_programs_sharing_qubits(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    for name in ("wstate_n3", "fredkin_n3"):
        assert main(["compile", name, "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    (first,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    (second,) = out_dir.glob("fredkin_n3.r1.*.exe.json")
    shared = _rank1(first).region.qubits & _rank1(second).region.qubits
    assert shared
    capsys.readouterr()
    out = tmp_path / "run.json"
    argv = ["run", str(first), str(second), "--device", "heavyhex27", "--shots", "64", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "wstate_n3" in err and "fredkin_n3" in err
    assert ", ".join(map(str, sorted(shared))) in err
    assert not out.exists()
    # Versions of one program are alternatives and are not checked against each other.
    manifest = str(out_dir / "wstate_n3.process.json")
    assert main(["run", manifest, "--all-versions", "--device", "heavyhex27", "--shots", "64", "--out", str(out)]) == 0


def test_cli_orchestrate_places_one_manifest_given_twice(tmp_path):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    manifest = str(out_dir / "wstate_n3.process.json")
    for strategy in ("small_first", "brute_force"):
        out = tmp_path / f"selection-{strategy}.json"
        assert main(["orchestrate", manifest, manifest, "--strategy", strategy, "--out", str(out)]) == 0
        selection = json.loads(out.read_text())
        chosen = selection["chosen"]
        assert [c["program_name"] for c in chosen] == ["wstate_n3", "wstate_n3"]
        assert [c["index"] for c in chosen] == [1, 2]
        assert selection["index_sum"] == 3
        assert not set(chosen[0]["unit_ids"]) & set(chosen[1]["unit_ids"])


def test_cli_run_co_runs_one_program_with_itself(tmp_path, heavyhex27):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    (first,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    region = _rank1(first).region.qubits
    # Another version of the same program next to the first, sharing no qubit with it.
    for path in sorted(out_dir.glob("wstate_n3.r*.exe.json")):
        other = _rank1(path).region.qubits
        between = [l for l in heavyhex27.links if len(set(l) & region) == 1 and len(set(l) & other) == 1]
        if between and not region & other:
            second = path
            break
    xpath = _write_crosstalk(tmp_path, {l: 5.0 for l in between})

    def fidelities(*argv):
        out = tmp_path / "run.json"
        assert main(["run", *argv, "--device", "heavyhex27", "--shots", "4096", "--out", str(out)]) == 0
        return [r["fidelity_vs_ideal"] for r in json.loads(out.read_text())["results"]]

    plain = fidelities(str(first), str(second))
    amplified = fidelities(str(first), str(second), "--crosstalk", str(xpath))
    assert len(amplified) == 2
    assert all(a < p for a, p in zip(amplified, plain)), (amplified, plain)


def test_cli_run_rejects_one_program_twice_on_shared_qubits(tmp_path, capsys):
    # Compiled at two unit sizes, the same program has versions on overlapping regions.
    argv = ["wstate_n3", "--device", "heavyhex27", "-o"]
    assert main(["compile", *argv, str(tmp_path / "m4"), "-m", "4"]) == 0
    assert main(["compile", *argv, str(tmp_path / "m2"), "-m", "2"]) == 0
    pairs = [
        (a, b, _rank1(a).region.qubits & _rank1(b).region.qubits)
        for a in sorted((tmp_path / "m4").glob("*.exe.json"))
        for b in sorted((tmp_path / "m2").glob("*.exe.json"))
    ]
    first, second, shared = next(p for p in pairs if p[2])
    out = tmp_path / "run.json"
    # One per-rank file given twice overlaps itself everywhere.
    twice = _rank1(first).region.qubits
    for paths, overlap in (((first, second), shared), ((first, first), twice)):
        capsys.readouterr()
        argv = ["run", *map(str, paths), "--device", "heavyhex27", "--shots", "64", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"share qubits {', '.join(map(str, sorted(overlap)))}" in err
        assert not out.exists()


def _run_on_other_device(tmp_path, capsys, compiled_for, run_on):
    """Compile wstate_n3 for one device, run its rank-1 file on another; (exe, status, stderr, out)."""
    out_dir = tmp_path / compiled_for
    assert main(["compile", "wstate_n3", "--device", compiled_for, "-m", "4", "-o", str(out_dir)]) == 0
    (artifact,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    capsys.readouterr()
    out = tmp_path / "run.json"
    status = main(["run", str(artifact), "--device", run_on, "--shots", "64", "--out", str(out)])
    return _rank1(artifact), status, capsys.readouterr().err, out


def test_cli_run_rejects_links_the_device_lacks(tmp_path, capsys):
    exe, status, err, out = _run_on_other_device(tmp_path, capsys, "heavyhex27", "heavyhex65")
    heavyhex65 = load_device("heavyhex65")
    # Every qubit exists on the larger device; a routed link does not.
    assert max(exe.region.qubits) < heavyhex65.num_qubits
    missing = [g.qubits for g in exe.routed_gates if g.is_two_qubit and not heavyhex65.has_link(*g.qubits)]
    assert missing
    assert status == 1
    assert err.startswith("error: ") and "Traceback" not in err
    a, b = missing[0]
    assert f"on qubits {a} and {b}" in err and "heavyhex65" in err
    assert not out.exists()


def test_cli_run_rejects_qubits_beyond_the_device(tmp_path, capsys):
    exe, status, err, out = _run_on_other_device(tmp_path, capsys, "heavyhex65", "heavyhex27")
    outside = sorted(q for q in exe.region.qubits if q >= 27)
    assert outside
    assert status == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert ", ".join(map(str, outside)) in err and "heavyhex27" in err
    assert not out.exists()


def test_cli_run_all_versions_refuses_several_programs(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    for name in ("wstate_n3", "adder_n4"):
        assert main(["compile", name, "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    manifests = [str(out_dir / f"{name}.process.json") for name in ("wstate_n3", "adder_n4")]
    out = tmp_path / "run.json"
    # The manifests are read, then the two programs they hold are refused before anything runs.
    capsys.readouterr()
    argv = ["run", *manifests, "--all-versions", "--device", "heavyhex27", "--shots", "64", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --all-versions runs the versions of one program; got 2 programs\n"
    assert not out.exists()


def test_cli_run_fills_one_slot_per_process(tmp_path, capsys, small_table):
    # One manifest that holds two programs is two slots, as orchestrate places it.
    manifest = tmp_path / "table.json"
    save_processes(str(manifest), small_table)
    out = tmp_path / "run.json"
    assert main(["run", str(manifest), "--device", "heavyhex27", "--shots", "64", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert [r["program_name"] for r in results] == ["adder_n4", "wstate_n3"]
    assert [r["region_qubits"] for r in results] == [sorted(p.executables[0].region.qubits) for p in small_table]
    # --all-versions runs one program, so it refuses the two this manifest holds.
    out.unlink()
    capsys.readouterr()
    argv = ["run", str(manifest), "--all-versions", "--device", "heavyhex27", "--shots", "64", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --all-versions runs the versions of one program; got 2 programs\n"
    assert not out.exists()


def test_cli_orchestrate_reads_artifacts_and_refuses_gates_leaving_the_region(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "wstate_n3", "--device", "heavyhex27", "-m", "4", "-o", str(out_dir)]) == 0
    (artifact,) = out_dir.glob("wstate_n3.r1.*.exe.json")
    out = tmp_path / "selection.json"
    # A per-rank file is a manifest of one process with one version.
    assert main(["orchestrate", str(artifact), "--out", str(out)]) == 0
    chosen = json.loads(out.read_text())["chosen"]
    assert [(c["program_name"], c["index"]) for c in chosen] == [("wstate_n3", 1)]
    assert chosen[0]["region_qubits"] == sorted(_rank1(artifact).region.qubits)
    out.unlink()

    manifest = out_dir / "wstate_n3.process.json"
    payload = json.loads(manifest.read_text())
    record = payload["processes"][0]["executables"][0]
    a = record["layout"][0]
    b = next(q for q in range(27) if q not in record["region"]["qubits"])
    _route_new(payload["gates"], record, ["cx", [a, b], []])
    manifest.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["orchestrate", str(manifest), "--out", str(out)]) == 1
    message = f"malformed executable record: wstate_n3's routed cx on qubits {a}, {b} leaves its region"
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not out.exists()
