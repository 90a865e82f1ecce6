"""The selectors return exactly what the frozen set-based reference returns.

Every field of a Selection except its elapsed time is compared: the chosen
executables (by identity, in insertion order), the ranks, the strategy, the
number of evaluations and the timeout flag. A raised conflict or timeout
must have the same type and message.
"""

import random

import pytest

import reference_orchestrator as ref
from qmux.benchmarks import load_benchmark, load_device, suite
from qmux.circuits import Gate
from qmux.compiler import Executable, Process, compile_multi_version
from qmux.devices import CrosstalkMap
from qmux.errors import OrchestrationConflict, OrchestrationTimeout
from qmux.harness import _select_vanilla, sample_crosstalk_map
from qmux.orchestrator import select_brute_force, select_heuristic
from qmux.partition import Region, generate_compute_units

CELLS = [("heavyhex27", 3), ("heavyhex27", 4), ("heavyhex65", 3), ("heavyhex65", 4)]
REQUESTS_PER_SIZE = 4
SIZES = range(2, 9)
# The unpruned walk visits the whole product of version counts, so it is
# asked only up to this many programs.
PURE_MAX = 4
GREEDY = [("small_first", 0), ("large_first", 0), ("random", 0), ("random", 7)]


def _outcome(select, *args, **kwargs):
    try:
        sel = select(*args, **kwargs)
    except (OrchestrationConflict, OrchestrationTimeout) as exc:
        return type(exc), str(exc)
    return (
        [(name, id(exe)) for name, exe in sel.chosen.items()],
        list(sel.indices.items()),
        sel.strategy,
        sel.evaluations,
        sel.timed_out,
    )


def _assert_same(new, old, *args, **kwargs):
    expected = _outcome(old, *args, **kwargs)
    assert _outcome(new, *args, **kwargs) == expected
    return expected


@pytest.fixture(scope="module")
def tables():
    out = {}
    for device_name, m in CELLS:
        unit_graph = generate_compute_units(load_device(device_name), m)
        processes = [compile_multi_version(load_benchmark(n), unit_graph) for n in suite()]
        out[device_name, m] = (processes, unit_graph)
    return out


def _requests(processes, unit_graph, label, vetoed):
    rng = random.Random(label)
    out = []
    for size in SIZES:
        for _ in range(REQUESTS_PER_SIZE):
            request = rng.sample(processes, size)
            seed = rng.getrandbits(32)
            out.append((request, sample_crosstalk_map(unit_graph, seed=seed) if vetoed else None))
    return out


@pytest.mark.parametrize("vetoed", [False, True], ids=["plain", "crosstalk"])
@pytest.mark.parametrize("cell", CELLS, ids=[f"{d}-m{m}" for d, m in CELLS])
def test_selections_match_reference(tables, cell, vetoed):
    device_name, m = cell
    processes, unit_graph = tables[cell]
    outcomes = []
    for request, xtalk in _requests(processes, unit_graph, f"{device_name}/{m}", vetoed):
        for strategy, seed in GREEDY:
            outcomes.append(
                _assert_same(select_heuristic, ref.select_heuristic, request, strategy, seed=seed, crosstalk=xtalk)
            )
        for objective in ("index_sum", "relative_rank"):
            for pure in (False, True) if len(request) <= PURE_MAX else (False,):
                outcomes.append(
                    _assert_same(
                        select_brute_force,
                        ref.select_brute_force,
                        request,
                        timeout_s=60.0,
                        pure=pure,
                        crosstalk=xtalk,
                        objective=objective,
                    )
                )
    # Guards the comparison: both placements and conflicts were exercised,
    # and no search ran into its deadline.
    placed = [o for o in outcomes if len(o) == 5]
    assert placed and len(placed) < len(outcomes)
    assert not any(o[4] for o in placed)
    assert OrchestrationTimeout not in [o[0] for o in outcomes if len(o) == 2]


@pytest.mark.parametrize("cell", CELLS[:2], ids=[f"{d}-m{m}" for d, m in CELLS[:2]])
def test_vanilla_picks_match_reference(tables, cell):
    processes, unit_graph = tables[cell]
    for request, _ in _requests(processes, unit_graph, f"vanilla/{cell}", False):
        for seed in (0, 1, 2):
            _assert_same(_select_vanilla, ref.select_vanilla, request, seed)


def _hand_exe(name, units, qubits):
    return Executable(
        program_name=name,
        num_qubits=2,
        region=Region(frozenset(units), frozenset(qubits)),
        layout=(0, 1),
        final_layout=(0, 1),
        routed_gates=(Gate("cx", (0, 1)),),
        swap_count=0,
        d_in=1,
        d_out=1,
        region_utility=1.0,
    )


def _hand_instance(rng, unit_base, qubit_base):
    """Processes on unit and qubit ids offset by the bases; some regions share qubits."""
    unit_pool = [unit_base + i for i in range(10)]
    qubit_pool = [qubit_base + 3 * i for i in range(40)]
    processes = []
    for p in range(rng.randint(2, 6)):
        exes = []
        for _ in range(rng.randint(1, 6)):
            units = rng.sample(unit_pool, rng.randint(1, 2))
            qubits = rng.sample(qubit_pool, rng.randint(1, 5))
            exes.append(_hand_exe(f"p{p}", units, qubits))
        processes.append(Process(f"p{p}", rng.randint(1, 6), tuple(exes)))
    flagged = {}
    for _ in range(rng.randint(0, 30)):
        a, b = rng.sample(qubit_pool, 2)
        flagged[(a, b)] = 2.0
    return processes, CrosstalkMap(flagged)


@pytest.mark.parametrize("unit_base,qubit_base", [(0, 0), (60, 50), (1000, 1021), (3, 100_000)])
def test_large_ids_match_reference(unit_base, qubit_base):
    rng = random.Random(f"{unit_base}/{qubit_base}")
    placed = 0
    for _ in range(60):
        processes, xtalk = _hand_instance(rng, unit_base, qubit_base)
        for crosstalk in (None, xtalk):
            for strategy, seed in GREEDY:
                _assert_same(
                    select_heuristic, ref.select_heuristic, processes, strategy, seed=seed, crosstalk=crosstalk
                )
            for objective in ("index_sum", "relative_rank"):
                for pure in (False, True):
                    out = _assert_same(
                        select_brute_force,
                        ref.select_brute_force,
                        processes,
                        pure=pure,
                        crosstalk=crosstalk,
                        objective=objective,
                    )
                    placed += len(out) == 5
        _assert_same(_select_vanilla, ref.select_vanilla, processes, 5)
    assert placed > 0


def test_edge_cases_match_reference():
    rng = random.Random(3)
    processes, xtalk = _hand_instance(rng, 1000, 2000)
    # A zero budget times out before the first placement.
    _assert_same(select_brute_force, ref.select_brute_force, processes, timeout_s=0.0, crosstalk=xtalk)
    assert _outcome(select_brute_force, [], crosstalk=xtalk) == ([], [], "brute_force", 0, False)
    for strategy, seed in GREEDY:
        _assert_same(select_heuristic, ref.select_heuristic, [], strategy, seed=seed)
    # A flagged link inside one candidate's own region vetoes nothing by itself.
    p = Process("p", 2, (_hand_exe("p", [1000], [1100, 1101]),))
    q = Process("q", 2, (_hand_exe("q", [1001], [1102]), _hand_exe("q", [1002], [1200])))
    inner = CrosstalkMap({(1100, 1101): 3.0, (1101, 1102): 3.0})
    for select, reference in ((select_heuristic, ref.select_heuristic), (select_brute_force, ref.select_brute_force)):
        out = _assert_same(select, reference, [p, q], crosstalk=inner)
        assert out[1] == [("p", 1), ("q", 2)]
