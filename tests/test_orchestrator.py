"""Runtime executable selection: greedy strategies and the exhaustive baseline."""

import itertools
import math
import random

import pytest

import reference_orchestrator as ref
from qmux import orchestrator
from qmux.benchmarks import load_benchmark
from qmux.circuits import Gate
from qmux.compiler import Executable, Process, compile_multi_version
from qmux.devices import CrosstalkMap
from qmux.errors import CalibrationError, OrchestrationConflict, OrchestrationTimeout, PartitionError, QmuxError
from qmux.harness import _select_vanilla, sample_crosstalk_map
from qmux.orchestrator import select_brute_force, select_heuristic
from qmux.partition import Region, generate_compute_units


def fake_exe(name, units, qubits=None, k=2, utility=100.0):
    units = frozenset(units)
    qubits = frozenset(qubits if qubits is not None else units)
    return Executable(
        program_name=name,
        num_qubits=k,
        region=Region(units, qubits),
        layout=(0, 1),
        final_layout=(0, 1),
        routed_gates=(Gate("cx", (0, 1)),),
        swap_count=0,
        d_in=1,
        d_out=1,
        region_utility=utility,
    )


def fake_process(name, unit_sets, k=2, qubit_sets=None):
    qubit_sets = qubit_sets or [None] * len(unit_sets)
    exes = tuple(fake_exe(name, us, qs, k=k) for us, qs in zip(unit_sets, qubit_sets))
    return Process(name, k, exes)


def test_single_process_rank_one():
    sel = select_heuristic([fake_process("p1", [[0], [1]])])
    assert sel.index_sum == 1
    assert sel.indices == {"p1": 1}


def test_hand_trace_greedy():
    p1 = fake_process("p1", [[0], [1]])
    p2 = fake_process("p2", [[0], [2]])
    sel = select_heuristic([p1, p2], strategy="small_first")
    assert sel.indices == {"p1": 1, "p2": 2}
    assert sel.index_sum == 3
    assert sel.evaluations == 3


def test_forced_conflict_names_process():
    p1 = fake_process("p1", [[0]])
    p2 = fake_process("p2", [[0]])
    with pytest.raises(OrchestrationConflict, match="'p2'"):
        select_heuristic([p1, p2])


def test_hand_trace_brute_force_matches():
    p1 = fake_process("p1", [[0], [1]])
    p2 = fake_process("p2", [[0], [2]])
    sel = select_brute_force([p1, p2])
    assert sel.index_sum == 3
    # (1, 2) and (2, 1) both sum to 3; the lexicographically smaller wins
    assert sel.indices == {"p1": 1, "p2": 2}


def test_greedy_dead_end_brute_force_recovers():
    p1 = fake_process("p1", [[0], [1]])
    p2 = fake_process("p2", [[0]])
    with pytest.raises(OrchestrationConflict):
        select_heuristic([p1, p2], strategy="small_first")
    sel = select_brute_force([p1, p2])
    assert sel.index_sum == 3
    assert sel.indices == {"p1": 2, "p2": 1}


def test_exact_search_counts_nodes():
    # Root; p1 rank 1 on unit 0, where p2's only version conflicts; p1 rank 2,
    # then p2 rank 1: a complete leaf. Four nodes, one evaluation.
    dead_end = select_brute_force([fake_process("p1", [[0], [1]]), fake_process("p2", [[0]])])
    assert (dead_end.nodes, dead_end.evaluations) == (4, 1)
    # Root; p1 rank 1; p2 rank 1 conflicts, p2 rank 2 is a leaf of sum 3. p1
    # rank 2 could at best tie, so the bound cuts it: three nodes.
    cut = select_brute_force([fake_process("p1", [[0], [1]]), fake_process("p2", [[0], [2]])])
    assert (cut.nodes, cut.evaluations) == (3, 1)
    # Selectors that do not search report none.
    assert select_heuristic([fake_process("p1", [[0], [1]])]).nodes == 0


def test_refused_searches_report_their_counts(monkeypatch):
    # p2's one version needs units 0 and 1, and p1 takes one of them.
    procs = [fake_process("p1", [[0], [1]]), fake_process("p2", [[0, 1]])]
    # Root, then p1 at rank 1 and at rank 2, where p2 conflicts each time:
    # three nodes, and no complete assignment to evaluate.
    with pytest.raises(OrchestrationConflict) as conflict:
        select_brute_force(procs)
    assert (conflict.value.evaluations, conflict.value.nodes) == (0, 3)
    # The greedy pass examines p1's rank 1, then p2's one version.
    with pytest.raises(OrchestrationConflict) as conflict:
        select_heuristic(procs)
    assert (conflict.value.evaluations, conflict.value.nodes) == (2, 0)
    # A clock that ticks once per reading: the start reading is 0, the root
    # reads 1 and p1's rank-1 node reads 2, past the deadline of 1.5.
    ticks = itertools.count()
    monkeypatch.setattr(orchestrator.time, "perf_counter", lambda: float(next(ticks)))
    with pytest.raises(OrchestrationTimeout) as timeout:
        select_brute_force(procs, timeout_s=1.5)
    assert (timeout.value.evaluations, timeout.value.nodes) == (0, 2)


def test_disjoint_singletons_sum_to_m():
    procs = [fake_process(f"p{i}", [[i]]) for i in range(4)]
    for select in (select_heuristic, select_brute_force):
        sel = select(procs)
        assert sel.index_sum == 4


def test_brute_force_infeasible():
    p1 = fake_process("p1", [[0]])
    p2 = fake_process("p2", [[0]])
    with pytest.raises(OrchestrationConflict, match="no conflict-free combination"):
        select_brute_force([p1, p2])


def test_strategies_order_by_size():
    # both want unit 0 first; whoever goes first gets rank 1
    small = fake_process("small", [[0], [1]], k=2)
    big = fake_process("big", [[0], [2]], k=6)
    sel = select_heuristic([big, small], strategy="small_first")
    assert sel.indices["small"] == 1 and sel.indices["big"] == 2
    sel = select_heuristic([small, big], strategy="large_first")
    assert sel.indices["big"] == 1 and sel.indices["small"] == 2


def test_random_strategy_deterministic_per_seed():
    procs = [fake_process(f"p{i}", [[i], [i + 10]]) for i in range(5)]
    a = select_heuristic(procs, strategy="random", seed=3)
    b = select_heuristic(procs, strategy="random", seed=3)
    assert a.indices == b.indices
    assert a.chosen == b.chosen


def test_unknown_strategy_rejected():
    procs = [fake_process("p1", [[0]])]
    with pytest.raises(QmuxError, match="unknown strategy"):
        select_heuristic(procs, strategy="greedy")


def test_crosstalk_veto():
    # unit-disjoint but qubits 3 and 4 sit across a flagged boundary link
    p1 = fake_process("p1", [[0]], qubit_sets=[[0, 1, 2, 3]])
    p2 = fake_process("p2", [[1], [2]], qubit_sets=[[4, 5], [8, 9]])
    xmap = CrosstalkMap({(3, 4): 4.0})
    for select in (select_heuristic, select_brute_force):
        clean = select([p1, p2])
        assert clean.indices == {"p1": 1, "p2": 1}
        filtered = select([p1, p2], crosstalk=xmap)
        assert filtered.indices == {"p1": 1, "p2": 2}
        chosen_qubits = [frozenset(e.region.qubits) for e in filtered.executables]
        for qa, qb in itertools.combinations(chosen_qubits, 2):
            assert not any(
                (a in qa and b in qb) or (b in qa and a in qb) for a, b in xmap.flagged
            )


def test_negative_ids_rejected():
    # Unit and qubit ids are bit positions in the selectors' claim masks.
    with pytest.raises(PartitionError, match="non-negative"):
        Region(frozenset({-1}), frozenset({0}))
    with pytest.raises(PartitionError, match="non-negative"):
        Region(frozenset({0}), frozenset({3, -2}))
    with pytest.raises(CalibrationError, match="negative qubit id"):
        CrosstalkMap({(-1, 4): 2.0})


def test_timeout_with_no_incumbent():
    procs = [fake_process(f"p{i}", [[i], [i + 10]]) for i in range(3)]
    with pytest.raises(OrchestrationTimeout):
        select_brute_force(procs, timeout_s=0.0)


@pytest.mark.parametrize("timeout_s", [math.nan, -1.0])
def test_brute_force_refuses_a_nan_or_negative_timeout_before_searching(timeout_s, monkeypatch):
    # NaN compares false with every time, so a search under it could never time out.
    readings = []
    monkeypatch.setattr(orchestrator.time, "perf_counter", lambda: readings.append(1) or 0.0)
    procs = [fake_process(f"p{i}", [[i], [i + 10]]) for i in range(3)]
    with pytest.raises(QmuxError, match=f"^timeout must be a non-negative number of seconds, got {timeout_s}$"):
        select_brute_force(procs, timeout_s=timeout_s)
    assert not readings


def test_timeout_returns_incumbent(monkeypatch):
    # The first descent puts p0 on units 0 and 1, which leaves p9 only its
    # rank 3: a rank sum of 12. Moving p0 to rank 2 reaches 11, so the
    # search goes on after that first full assignment.
    procs = [fake_process("p0", [[0, 1], [5]])]
    procs += [fake_process(f"p{i}", [[100 * i + v] for v in range(8)]) for i in range(1, 9)]
    procs.append(fake_process("p9", [[0], [1], [2]]))
    assert select_brute_force(procs).index_sum == 11
    # A clock that ticks once per reading runs out right after the first
    # descent: the start reading and one check at each of its 11 nodes.
    ticks = itertools.count()
    monkeypatch.setattr(orchestrator.time, "perf_counter", lambda: float(next(ticks)))
    sel = select_brute_force(procs, timeout_s=11.5)
    assert sel.timed_out
    assert sel.index_sum == 12
    # The 11 nodes of the descent, and the one that found the deadline passed.
    assert (sel.nodes, sel.evaluations) == (12, 1)


def _random_instance(rng):
    n_procs = rng.randint(2, 4)
    procs = []
    for i in range(n_procs):
        n_exes = rng.randint(1, 5)
        unit_sets = []
        for _ in range(n_exes):
            size = rng.randint(1, 2)
            unit_sets.append(rng.sample(range(6), size))
        procs.append(fake_process(f"p{i}", unit_sets))
    return procs


def test_work_bounds_and_dominance():
    rng = random.Random(5)
    solvable = 0
    for _ in range(60):
        procs = _random_instance(rng)
        sum_k = sum(len(p.executables) for p in procs)
        prod_k = math.prod(len(p.executables) for p in procs)
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
        assert pure.evaluations <= prod_k
        pruned = select_brute_force(procs)
        assert pruned.evaluations <= pure.evaluations
        assert pruned.index_sum == pure.index_sum
        assert pruned.indices == pure.indices
        if greedy is not None:
            assert pure.index_sum <= greedy.index_sum
        claimed = [frozenset(e.region.unit_ids) for e in pruned.executables]
        for ua, ub in itertools.combinations(claimed, 2):
            assert not (ua & ub)
    assert solvable >= 20


def test_first_traversed_process_gets_rank_one():
    rng = random.Random(12)
    hits = 0
    for _ in range(40):
        procs = _random_instance(rng)
        try:
            sel = select_heuristic(procs, strategy="small_first")
        except OrchestrationConflict:
            continue
        hits += 1
        first = min(procs, key=lambda p: p.num_qubits)
        assert sel.indices[first.program_name] == 1
    assert hits >= 15


@pytest.mark.parametrize("select", [select_heuristic, select_brute_force], ids=["greedy", "exact"])
def test_one_program_in_two_slots_is_placed_twice(select, ug27_m4):
    # A service invoked twice at once: one process fills two request slots.
    process = compile_multi_version(load_benchmark("wstate_n3"), ug27_m4)
    sel = select([process, process])
    assert sel.ranks == (1, 2)
    assert sel.index_sum == 3
    assert sel.executables == process.executables[:2]
    first, second = sel.executables
    assert not first.region.unit_ids & second.region.unit_ids
    # The name-keyed views cannot hold both slots, so they refuse.
    for view in ("chosen", "indices"):
        with pytest.raises(ValueError, match="more than one slot"):
            getattr(sel, view)


def _count_partner_calls(monkeypatch):
    """The region qubit sets that CrosstalkMap.partners_of is called on, in call order."""
    calls = []
    partners_of = CrosstalkMap.partners_of

    def counted(self, qubits):
        calls.append(frozenset(qubits))
        return partners_of(self, qubits)

    monkeypatch.setattr(CrosstalkMap, "partners_of", counted)
    return calls


def test_partner_masks_priced_once_per_region_and_not_for_the_last_slot(monkeypatch, ug27_m4):
    # deutsch_n2 fills two slots, so the exact search offers its regions twice.
    names = ("deutsch_n2", "grover_n2", "wstate_n3", "deutsch_n2")
    table = {name: compile_multi_version(load_benchmark(name), ug27_m4) for name in dict.fromkeys(names)}
    request = [table[name] for name in names]
    offered = {exe.region.qubits for proc in request[:-1] for exe in proc.executables}
    calls = _count_partner_calls(monkeypatch)
    greedy_placed = exact_calls = 0
    for seed in range(4):
        xtalk = sample_crosstalk_map(ug27_m4, seed=seed)
        calls.clear()
        try:
            select_heuristic(request, crosstalk=xtalk)
        except OrchestrationConflict:
            pass
        else:
            greedy_placed += 1
            assert len(calls) == len(request) - 1
        calls.clear()
        select_brute_force(request, crosstalk=xtalk)
        # Once per distinct region of the slots before the last, at most.
        assert len(calls) == len(set(calls))
        assert set(calls) <= offered
        exact_calls += len(calls)
        calls.clear()
        for select in (select_heuristic, select_brute_force):
            assert select(request[:1], crosstalk=xtalk).ranks == (1,)
        assert calls == []
    assert greedy_placed and exact_calls


def test_tables_of_two_unit_sizes_never_share_qubits(heavyhex27):
    # A unit id names other qubits at m=4 than at m=3: adder_n4 (m=4) and
    # cat_state_n4 (m=3) both have a rank-1 region on qubits 16, 19, 20 and 22.
    names = ("adder_n4", "cat_state_n4", "wstate_n3", "fredkin_n3", "deutsch_n2")
    m4, m3 = (
        [compile_multi_version(load_benchmark(n), generate_compute_units(heavyhex27, m)) for n in names]
        for m in (4, 3)
    )
    for a, b in itertools.product(m4, m3):
        # The exact search's answer: least rank sum, then least rank for a.
        best = min(
            (i + j, i, j)
            for i, x in enumerate(a.executables, start=1)
            for j, y in enumerate(b.executables, start=1)
            if not x.region.qubits & y.region.qubits
        )
        assert select_brute_force([a, b]).ranks == ref.select_brute_force([a, b]).ranks == best[1:]
        selections = [select_heuristic([a, b], s, seed=1) for s in orchestrator.STRATEGIES[:3]]
        for sel, s in zip(selections, orchestrator.STRATEGIES[:3]):
            assert sel.ranks == ref.select_heuristic([a, b], s, seed=1).ranks
        selections.append(_select_vanilla([a, b], seed=1))
        for sel in selections:
            qa, qb = (e.region.qubits for e in sel.executables)
            assert not qa & qb, (a.program_name, b.program_name, sel.strategy)
