"""Runtime executable selection: greedy strategies and the exhaustive baseline."""

import itertools
import math
import random
import time

import pytest

from qmux.benchmarks import load_benchmark
from qmux.circuits import Gate
from qmux.compiler import Executable, Process, compile_multi_version
from qmux.devices import CrosstalkMap
from qmux.errors import CalibrationError, OrchestrationConflict, OrchestrationTimeout, PartitionError
from qmux.orchestrator import select_brute_force, select_heuristic
from qmux.partition import Region


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


def test_unknown_strategy_and_objective():
    procs = [fake_process("p1", [[0]])]
    with pytest.raises(ValueError, match="unknown strategy"):
        select_heuristic(procs, strategy="greedy")
    with pytest.raises(ValueError, match="unknown objective"):
        select_brute_force(procs, objective="weighted")


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


def test_relative_rank_objective():
    # index_sum prefers (1,2); rank/K prefers (2,1) because p1 has more slack
    p1 = fake_process("p1", [[0], [1], [4]])
    p2 = fake_process("p2", [[0], [2]])
    by_sum = select_brute_force([p1, p2], objective="index_sum")
    assert by_sum.indices == {"p1": 1, "p2": 2}
    by_rank = select_brute_force([p1, p2], objective="relative_rank")
    assert by_rank.indices == {"p1": 2, "p2": 1}


def test_timeout_with_no_incumbent():
    procs = [fake_process(f"p{i}", [[i], [i + 10]]) for i in range(3)]
    with pytest.raises(OrchestrationTimeout):
        select_brute_force(procs, timeout_s=0.0)


def test_timeout_returns_incumbent():
    # feasible on the first descent, but the unpruned walk of 8^12 leaves
    # cannot finish; the deadline trips and the incumbent comes back marked
    procs = [fake_process(f"p{i}", [[i + 10 * v] for v in range(8)]) for i in range(12)]
    sel = select_brute_force(procs, timeout_s=0.005, pure=True)
    assert sel.timed_out
    assert sel.index_sum == 12


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
            pure = select_brute_force(procs, pure=True)
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
