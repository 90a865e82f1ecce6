"""The two-step router (decide on two-qubit gates, emit once) against the frozen one.

Every test demands `==` with tests/reference_router.py: the same layout,
final layout, routed gates, swap count and output depth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qmux import compiler
from qmux.benchmarks import load_benchmark, suite
from qmux.circuits import SINGLE_QUBIT_GATES, Circuit, Gate
from qmux.compiler import compile_on_region, route
from qmux.partition import enumerate_regions, generate_compute_units

from conftest import make_path
from reference_router import reference_compile, reference_route


def _compiled(circuit, region, device):
    e = compile_on_region(circuit, region, device)
    return e.layout, e.final_layout, e.routed_gates, e.swap_count, e.d_out


def _whole_device_region(device):
    return enumerate_regions(generate_compute_units(device, device.num_qubits), 1)[0]


def test_bundled_suite_on_heavyhex65_m2_matches_the_reference(heavyhex65):
    # The golden digests cover m = 3, 4 and 6; m = 2 gives other regions.
    ug = generate_compute_units(heavyhex65, 2)
    compiled = 0
    for name in suite():
        circuit = load_benchmark(name)
        r = -(-circuit.num_qubits // 2)
        for region in enumerate_regions(ug, r):
            if len(region.qubits) >= circuit.num_qubits:
                assert _compiled(circuit, region, heavyhex65) == reference_compile(circuit, region, heavyhex65), (
                    name,
                    sorted(region.qubits),
                )
                compiled += 1
    assert compiled > len(suite())


_ONE_QUBIT = sorted(SINGLE_QUBIT_GATES)


@st.composite
def _circuits(draw, max_qubits):
    """Circuits of two-qubit gates among one-qubit chains, measures and barriers
    over a subset of the qubits; no gate follows a measure on its qubit."""
    k = draw(st.integers(2, max_qubits))
    qubit = st.integers(0, k - 1)
    gates = []
    measured = set()
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(("cx", "cx", "swap", "one", "one", "barrier", "measure")))
        if kind in ("cx", "swap"):
            qs = tuple(draw(st.lists(qubit, min_size=2, max_size=2, unique=True)))
            gate = Gate(kind, qs)
        elif kind == "one":
            name = draw(st.sampled_from(_ONE_QUBIT))
            gate = Gate(name, (draw(qubit),), (0.25,) * SINGLE_QUBIT_GATES[name])
        elif kind == "barrier":
            gate = Gate("barrier", tuple(draw(st.lists(qubit, min_size=1, max_size=k, unique=True))))
        else:
            gate = Gate("measure", (draw(qubit),))
        if gate.name != "measure" and measured.intersection(gate.qubits):
            continue
        if gate.name == "measure":
            measured.add(gate.qubits[0])
        gates.append(gate)
    if not gates:
        gates.append(Gate("h", (0,)))
    return Circuit("drawn", k, tuple(gates))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_drawn_circuits_with_measures_and_barriers_match_the_reference(ug27_m4, data):
    # Two-unit regions of heavyhex27: their physical ids are not 0..n-1, so
    # region-local indices differ from the ids they stand for.
    device = ug27_m4.device
    region = data.draw(st.sampled_from(enumerate_regions(ug27_m4, 2)))
    circuit = data.draw(_circuits(len(region.qubits)))
    assert _compiled(circuit, region, device) == reference_compile(circuit, region, device)
    layout = tuple(data.draw(st.permutations(sorted(region.qubits)))[: circuit.num_qubits])
    routed = route(circuit, region, device, layout)
    assert (routed.gates, routed.final_layout, routed.swap_count) == reference_route(
        circuit, region, device, layout
    )


def test_a_barrier_alone_orders_two_cx_on_disjoint_pairs():
    device = make_path(5)
    region = _whole_device_region(device)
    fenced = Circuit("fenced", 4, (Gate("cx", (0, 1)), Gate("barrier", (0, 1, 2, 3)), Gate("cx", (2, 3))))
    free = Circuit("free", 4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    # The barrier is the only path from the first cx to the second.
    assert compiler._program(fenced).forward.succs == [[1], []]
    assert compiler._program(free).forward.succs == [[], []]
    # Both pairs start apart. With the barrier, cx(2, 3) only looks ahead
    # while cx(0, 1) is routed; without it, both are in the blocked front.
    layout = (0, 3, 1, 4)
    routed = {c.name: route(c, region, device, layout) for c in (fenced, free)}
    for c in (fenced, free):
        r = routed[c.name]
        assert (r.gates, r.final_layout, r.swap_count) == reference_route(c, region, device, layout)
        assert _compiled(c, region, device) == reference_compile(c, region, device)
    assert routed["fenced"].final_layout != routed["free"].final_layout


def test_stuck_routing_walks_the_oldest_pair_home_as_the_reference_does():
    device = make_path(6)
    region = _whole_device_region(device)
    pairs = ((1, 4), (4, 2), (4, 2), (3, 0), (3, 1), (3, 2), (4, 2), (0, 2), (4, 2), (4, 2))
    circuit = Circuit("stuck", 5, tuple(Gate("cx", p) for p in pairs))
    # The seed layout: scored swaps livelock from it until the bail-out walks
    # the oldest blocked pair together, two swaps in one decision.
    layout = (2, 4, 0, 3, 1)
    passes = {}
    routed = route(circuit, region, device, layout, passes=passes)
    ((_, swaps, decisions),) = passes.values()
    assert swaps == routed.swap_count == 23
    assert any(len(d) > 1 for d in decisions)
    assert (routed.gates, routed.final_layout, routed.swap_count) == reference_route(
        circuit, region, device, layout
    )
    assert _compiled(circuit, region, device) == reference_compile(circuit, region, device)


def test_a_link_two_blocked_pairs_share_is_one_candidate_as_in_the_reference():
    device = make_path(6)
    region = _whole_device_region(device)
    circuit = Circuit("two_blocked", 4, (Gate("cx", (0, 1)), Gate("cx", (2, 3)), Gate("cx", (1, 2))))
    # The first front holds cx(0, 1) on qubits 0 and 2 and cx(2, 3) on 3 and
    # 5, both blocked; link (2, 3) is incident to both pairs.
    layout = (0, 2, 3, 5)
    incident = compiler._region_context(region, device).incident
    assert set(incident[0] + incident[2]) & set(incident[3] + incident[5]) == {(2, 3)}
    passes = {}
    routed = route(circuit, region, device, layout, passes=passes)
    ((_, swaps, decisions),) = passes.values()
    assert swaps == routed.swap_count == len(decisions) == 2
    assert (routed.gates, routed.final_layout, routed.swap_count) == reference_route(
        circuit, region, device, layout
    )
    assert _compiled(circuit, region, device) == reference_compile(circuit, region, device)


def test_fronts_of_one_blocked_gate_match_the_reference():
    device = make_path(6)
    region = _whole_device_region(device)
    # Every cx acts on qubit 0, so each front holds at most one of them.
    pairs = ((0, 4), (0, 2), (0, 4), (0, 1), (0, 3))
    circuit = Circuit("one_blocked", 5, tuple(Gate("cx", p) for p in pairs) + (Gate("h", (0,)),))
    assert compiler._program(circuit).forward.succs == [[1, 2], [2], [3], [4], []]
    layout = (0, 1, 2, 3, 5)
    passes = {}
    routed = route(circuit, region, device, layout, passes=passes)
    ((_, swaps, decisions),) = passes.values()
    assert swaps == routed.swap_count == len(decisions) == 6
    assert (routed.gates, routed.final_layout, routed.swap_count) == reference_route(
        circuit, region, device, layout
    )
    assert _compiled(circuit, region, device) == reference_compile(circuit, region, device)
