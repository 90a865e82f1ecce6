"""The selectors return exactly what the frozen set-based reference returns.

Every field of a Selection except its elapsed time is compared: the
executable (by program name and identity) and the rank of every request
slot, in request order, the strategy, the number of evaluations and the
timeout flag. A raised conflict or timeout must have the same type and
message. The exact search's ranks must also equal those of the reference's
unpruned walk, which scores every combination, and its node count must be
the reference's per-node clock readings.
"""

import itertools
import random
import time
from types import SimpleNamespace

import pytest

import reference_orchestrator as ref
from qmux import orchestrator
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
        [(exe.program_name, id(exe)) for exe in sel.executables],
        list(sel.ranks),
        sel.strategy,
        sel.evaluations,
        sel.timed_out,
    )


def _assert_same(new, old, *args, **kwargs):
    expected = _outcome(old, *args, **kwargs)
    assert _outcome(new, *args, **kwargs) == expected
    return expected


def _optimum(outcome):
    """The ranks of a placement, or the raised error: what every exact search agrees on."""
    return outcome[1] if len(outcome) == 5 else outcome


def _assert_exact(processes, **kwargs):
    """The search matches the reference's pruned one and, on small requests, its unpruned walk."""
    out = _assert_same(select_brute_force, ref.select_brute_force, processes, **kwargs)
    if len(processes) <= PURE_MAX:
        assert _optimum(out) == _optimum(_outcome(ref.select_brute_force, processes, pure=True, **kwargs))
    return out


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
        outcomes.append(_assert_exact(request, timeout_s=60.0, crosstalk=xtalk))
    # Guards the comparison: both placements and conflicts were exercised,
    # and no search ran into its deadline.
    placed = [o for o in outcomes if len(o) == 5]
    assert placed and len(placed) < len(outcomes)
    assert not any(o[4] for o in placed)
    assert OrchestrationTimeout not in [o[0] for o in outcomes if len(o) == 2]


def _repeated_requests(processes, unit_graph, label):
    """Vetoed requests in which one program fills 2 or 3 slots, at drawn positions."""
    rng = random.Random(label)
    out = []
    for size in SIZES:
        for _ in range(REQUESTS_PER_SIZE):
            copies = rng.randint(2, min(3, size))
            repeated, *others = rng.sample(processes, size - copies + 1)
            request = others + [repeated] * copies
            rng.shuffle(request)
            out.append((request, sample_crosstalk_map(unit_graph, seed=rng.getrandbits(32))))
    return out


@pytest.mark.parametrize("cell", CELLS, ids=[f"{d}-m{m}" for d, m in CELLS])
def test_repeated_programs_match_reference(tables, cell):
    # One Process object in several slots: the exact search prices each of
    # its regions once across those slots.
    device_name, m = cell
    processes, unit_graph = tables[cell]
    outcomes = []
    for request, xtalk in _repeated_requests(processes, unit_graph, f"repeated/{device_name}/{m}"):
        for strategy, seed in GREEDY:
            _assert_same(select_heuristic, ref.select_heuristic, request, strategy, seed=seed, crosstalk=xtalk)
        outcomes.append(_assert_exact(request, timeout_s=60.0, crosstalk=xtalk))
    placed = [o for o in outcomes if len(o) == 5]
    assert placed and len(placed) < len(outcomes)
    assert not any(o[4] for o in placed)


@pytest.mark.parametrize("cell", CELLS[:2], ids=[f"{d}-m{m}" for d, m in CELLS[:2]])
def test_vanilla_picks_match_reference(tables, cell):
    processes, unit_graph = tables[cell]
    for request, _ in _requests(processes, unit_graph, f"vanilla/{cell}", False):
        for seed in (0, 1, 2):
            _assert_same(_select_vanilla, ref.select_vanilla, request, seed)


def _counting_clock(monkeypatch, module):
    """Count the readings of `module`'s clock, which still tells the real time."""
    readings = [0]
    perf_counter = time.perf_counter

    def counted():
        readings[0] += 1
        return perf_counter()

    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=counted))
    return readings


def _nodes(processes, **kwargs):
    try:
        return select_brute_force(processes, **kwargs).nodes
    except (OrchestrationConflict, OrchestrationTimeout) as exc:
        return exc.nodes


@pytest.mark.parametrize("cell", CELLS, ids=[f"{d}-m{m}" for d, m in CELLS])
def test_exact_nodes_match_reference_clock_readings(monkeypatch, tables, cell):
    # The reference reads its clock at the start, once per node it enters and
    # once at the end, so its readings less two are the nodes it entered.
    device_name, m = cell
    processes, unit_graph = tables[cell]
    requests = [r for vetoed in (False, True) for r in _requests(processes, unit_graph, f"{device_name}/{m}", vetoed)]
    requests += _repeated_requests(processes, unit_graph, f"repeated/{device_name}/{m}")
    readings = _counting_clock(monkeypatch, ref)
    ours = _counting_clock(monkeypatch, orchestrator)
    refused = 0
    for request, xtalk in requests:
        readings[0] = ours[0] = 0
        nodes = _nodes(request, timeout_s=60.0, crosstalk=xtalk)
        refused += len(_outcome(ref.select_brute_force, request, timeout_s=60.0, crosstalk=xtalk)) == 2
        assert nodes == readings[0] - 2 == ours[0] - 2
    assert 0 < refused < len(requests)


def _ticking_clock(monkeypatch, module):
    """A clock that reads 0, 1, 2, ...: one tick per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))


def test_deadline_at_a_last_slot_leaf(monkeypatch):
    # p1 rank 1 leaves p2 only its rank 3, a leaf of sum 4; p1 rank 2 and p2
    # rank 1 sum to 3. The start reads 0, the root 1, p1 rank 1 2, the first
    # leaf 3, p1 rank 2 4, and the second leaf 5, past the deadline of 4.5.
    procs = [
        Process(name, 2, tuple(_hand_exe(name, [u], [u]) for u in units))
        for name, units in (("p1", [0, 1]), ("p2", [0, 0, 2]))
    ]
    _ticking_clock(monkeypatch, orchestrator)
    sel = select_brute_force(procs, timeout_s=4.5)
    assert (sel.ranks, sel.nodes, sel.evaluations, sel.timed_out) == ((1, 3), 5, 1, True)
    _ticking_clock(monkeypatch, ref)
    expected = ref.select_brute_force(procs, timeout_s=4.5)
    assert (sel.ranks, sel.evaluations, sel.timed_out) == (expected.ranks, expected.evaluations, expected.timed_out)


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
    """Processes on unit and qubit ids offset by the bases; some regions share units.

    As in a partition, each unit owns 4 qubits and a region's qubits are its
    units' qubits, so two regions share qubits exactly when they share units.
    """
    qubit_pool = [qubit_base + 3 * i for i in range(40)]
    owned = {unit_base + i: qubit_pool[4 * i : 4 * i + 4] for i in range(10)}
    processes = []
    for p in range(rng.randint(2, 6)):
        exes = []
        for _ in range(rng.randint(1, 6)):
            units = rng.sample(sorted(owned), rng.randint(1, 2))
            exes.append(_hand_exe(f"p{p}", units, [q for u in units for q in owned[u]]))
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
            placed += len(_assert_exact(processes, crosstalk=crosstalk)) == 5
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
        assert out[1] == [1, 2]
