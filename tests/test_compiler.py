"""Layout, routing, cost scoring, and multi-version compilation."""

import builtins
import gc
import hashlib
import math
import random
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux import compiler, devices, partition
from qmux.benchmarks import load_benchmark, load_device, suite
from qmux.circuits import Circuit, Gate, decompose_swaps
from qmux.compiler import (
    compile_multi_version,
    compile_on_region,
    cost_sort_key,
    initial_layout,
    route,
)
from qmux.devices import DeviceGraph, qubit_utility
from qmux.errors import CompileError
from qmux.partition import enumerate_regions, generate_compute_units
from qmux.simulator import fidelity, ideal_executable_distribution, simulate_ideal

from conftest import make_path, make_ring4
from oracles import layered_depth, optimum_swaps

STAR4 = DeviceGraph(
    num_qubits=4,
    links=((0, 1), (0, 2), (0, 3)),
    link_error={(0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.01},
    qubit_error=(1e-4,) * 4,
    readout_error=(0.01,) * 4,
    name="star4",
)


def _whole_device_region(device):
    ug = generate_compute_units(device, device.num_qubits)
    return enumerate_regions(ug, 1)[0]


def _fig3a_circuit():
    gates = tuple(Gate("cx", p) for p in ((0, 1), (2, 3), (1, 2), (0, 3)))
    return Circuit("fig3a", 4, gates)


def test_single_qubit_maps_to_highest_utility():
    dev = DeviceGraph(
        num_qubits=3,
        links=((0, 1), (1, 2)),
        link_error={(0, 1): 0.02, (1, 2): 0.01},
        qubit_error=(0.0,) * 3,
        readout_error=(0.0,) * 3,
    )
    # utilities: q0 = 50, q1 = 66.7, q2 = 100
    region = _whole_device_region(dev)
    circuit = Circuit("one", 1, (Gate("h", (0,)),))
    assert initial_layout(circuit, region, dev) == (2,)


def test_ring_layout_makes_leading_cnots_adjacent():
    dev = make_ring4()
    region = _whole_device_region(dev)
    circuit = _fig3a_circuit()
    layout = initial_layout(circuit, region, dev)
    assert dev.has_link(layout[0], layout[1])
    assert dev.has_link(layout[2], layout[3])
    # the interaction graph is a 4-cycle isomorphic to the device ring,
    # so a zero-swap placement exists and the refinement finds one
    assert route(circuit, region, dev, layout).swap_count == 0


def test_ring_identity_layout_needs_one_swap():
    dev = make_ring4()
    region = _whole_device_region(dev)
    routed = route(_fig3a_circuit(), region, dev, (0, 1, 2, 3))
    assert routed.swap_count == 1
    for g in routed.gates:
        if g.is_two_qubit:
            assert dev.has_link(*g.qubits)


def test_chain_circuit_zero_swap_layout_found():
    dev = make_path(3)
    region = _whole_device_region(dev)
    circuit = Circuit("chain", 3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    exe = compile_on_region(circuit, region, dev)
    assert exe.swap_count == 0


def test_layout_adjacent_circuit_routes_unchanged():
    dev = make_path(3)
    region = _whole_device_region(dev)
    circuit = Circuit("chain", 3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    routed = route(circuit, region, dev, (0, 1, 2))
    assert routed.gates == circuit.gates
    assert routed.swap_count == 0
    assert routed.final_layout == (0, 1, 2)


def test_region_too_small():
    dev = make_path(3)
    region = _whole_device_region(dev)
    circuit = Circuit("big", 4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    with pytest.raises(CompileError, match="needs 4 qubits"):
        initial_layout(circuit, region, dev)


def test_layout_outside_region_rejected():
    dev = make_path(4)
    ug = generate_compute_units(dev, 2)
    region = enumerate_regions(ug, 1)[0]
    circuit = Circuit("two", 2, (Gate("cx", (0, 1)),))
    bad = tuple(sorted(set(range(4)) - set(region.qubits)))[:2]
    with pytest.raises(CompileError, match="outside the region"):
        route(circuit, region, dev, bad)


def _adder_on_rank_one_region(heavyhex27, ug27_m4):
    circuit = load_benchmark("adder_n4")
    region = compile_multi_version(circuit, ug27_m4).executables[0].region
    return circuit, region, initial_layout(circuit, region, heavyhex27)


def test_route_refuses_a_layout_of_the_wrong_length(heavyhex27, ug27_m4):
    circuit, region, layout = _adder_on_rank_one_region(heavyhex27, ug27_m4)
    for bad in (layout[:2], layout + layout[:1]):
        with pytest.raises(CompileError, match=f"'adder_n4' has 4 qubits but the layout places {len(bad)}"):
            route(circuit, region, heavyhex27, bad)


def test_route_refuses_a_layout_that_repeats_a_qubit(heavyhex27, ug27_m4):
    circuit, region, layout = _adder_on_rank_one_region(heavyhex27, ug27_m4)
    p = layout[0]
    with pytest.raises(CompileError, match=f"'adder_n4': layout places logical 0 and 1 both on {p}"):
        route(circuit, region, heavyhex27, (p,) * 4)
    with pytest.raises(CompileError, match=f"logical 1 and 3 both on {layout[1]}"):
        route(circuit, region, heavyhex27, layout[:3] + layout[1:2])


def test_swap_count_near_optimal_on_path():
    dev = make_path(4)
    region = _whole_device_region(dev)
    rng = random.Random(77)
    for _ in range(12):
        pairs = []
        while len(pairs) < 10:
            a, b = rng.randrange(4), rng.randrange(4)
            if a != b:
                pairs.append((a, b))
        circuit = Circuit("rand", 4, tuple(Gate("cx", p) for p in pairs))
        exe = compile_on_region(circuit, region, dev)
        assert exe.swap_count <= optimum_swaps(pairs) + 3


def test_zero_swap_ratio_is_exactly_one():
    dev = make_path(3)
    region = _whole_device_region(dev)
    circuit = Circuit("chain", 3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    exe = compile_on_region(circuit, region, dev)
    assert exe.swap_count == 0
    assert exe.d_out == exe.d_in
    assert exe.depth_ratio == 1.0


def test_equal_ratio_tie_broken_by_utility():
    # both halves route the 2-qubit program swap-free (ratio 1.0 each);
    # the low-error right half has higher utility and must rank first
    errs = {(i, i + 1): (0.02 if i < 4 else 0.005) for i in range(7)}
    dev = DeviceGraph(
        num_qubits=8,
        links=tuple(sorted(errs)),
        link_error=errs,
        qubit_error=(1e-4,) * 8,
        readout_error=(0.01,) * 8,
        name="split-path",
    )
    ug = generate_compute_units(dev, 4)
    circuit = Circuit("two", 2, (Gate("cx", (0, 1)),))
    process = compile_multi_version(circuit, ug)
    assert len(process.executables) == 2
    first, second = process.executables
    assert first.depth_ratio == second.depth_ratio == 1.0
    assert first.region_utility > second.region_utility
    assert min(first.region.qubits) == 4


def test_depth_accounting_matches_oracle():
    circuit = load_benchmark("adder_n4")
    for dev in (make_path(4), STAR4):
        region = _whole_device_region(dev)
        exe = compile_on_region(circuit, region, dev)
        assert exe.d_in == layered_depth(decompose_swaps(circuit).gates)
        assert exe.d_out == layered_depth(exe.routed_gates)
        assert exe.depth_ratio == exe.d_out / exe.d_in


def test_singleton_process():
    dev = make_ring4()
    ug = generate_compute_units(dev, 4)
    process = compile_multi_version(_fig3a_circuit(), ug)
    assert len(process.executables) == 1


def test_version_count_matches_region_count(ug65_m4):
    circuit = load_benchmark("adder_n4")
    process = compile_multi_version(circuit, ug65_m4)
    full = sum(1 for u in ug65_m4.units if not u.residual)
    assert len(process.executables) == full == 16


def test_costs_ascend(ug27_m4):
    circuit = load_benchmark("wstate_n3")
    process = compile_multi_version(circuit, ug27_m4)
    keys = [cost_sort_key(e) for e in process.executables]
    assert keys == sorted(keys)


def test_no_feasible_region():
    dev = make_ring4()
    ug = generate_compute_units(dev, 4)
    too_big = Circuit("big", 5, (Gate("cx", (0, 4)),))
    with pytest.raises(CompileError, match="no feasible region"):
        compile_multi_version(too_big, ug)


def test_semantic_preservation(ug27_m4):
    for name in ("wstate_n3", "adder_n4", "qec_en_n5"):
        circuit = load_benchmark(name)
        process = compile_multi_version(circuit, ug27_m4)
        want = simulate_ideal(circuit)
        for exe in process.executables[:2]:
            got = ideal_executable_distribution(exe)
            assert fidelity(want, got) == pytest.approx(1.0, abs=1e-10)


def test_containment(ug27_m4):
    circuit = load_benchmark("adder_n4")
    for exe in compile_multi_version(circuit, ug27_m4).executables:
        for g in exe.routed_gates:
            assert set(g.qubits) <= set(exe.region.qubits)


def test_cost_fields_consistent(ug27_m4):
    circuit = load_benchmark("adder_n4")
    for exe in compile_multi_version(circuit, ug27_m4).executables:
        assert exe.depth_ratio == exe.d_out / exe.d_in
        assert cost_sort_key(exe) == (exe.depth_ratio, -exe.region_utility)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.integers(2, 12))
def test_routing_invariants_random(seed, width, n_gates):
    rng = random.Random(seed)
    dev = make_path(width)
    region = _whole_device_region(dev)
    gates = []
    while len(gates) < n_gates:
        a, b = rng.randrange(width), rng.randrange(width)
        if a != b:
            gates.append(Gate("cx", (a, b)))
    circuit = Circuit("rand", width, tuple(gates))
    exe = compile_on_region(circuit, region, dev)
    # layout injective into the region, final layout a permutation of it
    assert len(set(exe.layout)) == width
    assert set(exe.layout) <= set(region.qubits)
    assert sorted(exe.final_layout) == sorted(exe.layout)
    for g in exe.routed_gates:
        if g.is_two_qubit:
            assert dev.has_link(*g.qubits)
    assert fidelity(simulate_ideal(circuit), ideal_executable_distribution(exe)) == pytest.approx(
        1.0, abs=1e-10
    )


# sha256 over every executable the bundled suite compiles to on heavyhex27 at
# m=3 and m=4. Any change to a layout or routing decision changes it; update
# it only for a routing change that is meant to move decisions.
GOLDEN_HEAVYHEX27 = "79d5e4bc1d2be2ab86df644c4b4ac2d375c1c780f3844e3cb28c463b3244706c"
# The same digest on heavyhex27 at m=6, and on heavyhex65 at m=3, 4 and 6.
GOLDEN_HEAVYHEX27_M6 = "e9d4908d9709ca519038d84cd784ac6d2f3f5f9ba83085f455db878b1ae5e9db"
GOLDEN_HEAVYHEX65 = "4dda33e6dcb21cad3c118b3deb74672c72204b474e2077190d792151b4816ae7"


def _routing_digest(device, unit_sizes) -> str:
    digest = hashlib.sha256()
    for m in unit_sizes:
        ug = generate_compute_units(device, m)
        for name in suite():
            for e in compile_multi_version(load_benchmark(name), ug).executables:
                record = (
                    e.program_name,
                    sorted(e.region.unit_ids),
                    e.layout,
                    e.final_layout,
                    e.routed_gates,
                    e.swap_count,
                    e.d_in,
                    e.d_out,
                    e.region_utility,
                )
                digest.update(repr(record).encode())
    return digest.hexdigest()


def test_golden_routing_heavyhex27(heavyhex27):
    assert _routing_digest(heavyhex27, (3, 4)) == GOLDEN_HEAVYHEX27


def test_golden_routing_heavyhex27_m6(heavyhex27):
    assert _routing_digest(heavyhex27, (6,)) == GOLDEN_HEAVYHEX27_M6


def test_golden_routing_heavyhex65(heavyhex65):
    assert _routing_digest(heavyhex65, (3, 4, 6)) == GOLDEN_HEAVYHEX65


def _compensated_sum(values, start=0):
    """sum() as CPython 3.12 and later compute it: floats by Neumaier's compensated summation."""
    items = list(values)
    if all(type(x) is int for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_golden_routing_holds_under_compensated_sum(monkeypatch):
    # Python 3.12 changed how sum() rounds floats; the compile path sums
    # floats left to right itself, so its output does not depend on that.
    for module in (compiler, devices, partition):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    # A fresh device: no region context built before the patch is reused.
    assert _routing_digest(load_device("heavyhex27"), (3, 4)) == GOLDEN_HEAVYHEX27


def test_region_utility_is_the_left_to_right_sum_over_sorted_qubits(heavyhex27, heavyhex65):
    checked = 0
    for device, m in ((heavyhex27, 4), (heavyhex65, 3)):
        ug = generate_compute_units(device, m)
        for name in suite():
            for e in compile_multi_version(load_benchmark(name), ug).executables:
                expected = 0.0
                for q in sorted(e.region.qubits):
                    expected += qubit_utility(device, q)
                assert e.region_utility == expected
                checked += 1
    assert checked > 0


def test_routed_gates_are_one_object_per_value_within_a_program():
    circuit = load_benchmark("qft_n4")
    objects: dict[tuple, set[int]] = {}
    devices_of: dict[tuple, set[str]] = {}
    for device in (load_device("heavyhex27"), load_device("heavyhex65")):
        for m in (2, 3, 4):
            for e in compile_multi_version(circuit, generate_compute_units(device, m)).executables:
                for g in e.routed_gates:
                    key = (g.name, g.qubits, g.params)
                    objects.setdefault(key, set()).add(id(g))
                    devices_of.setdefault(key, set()).add(device.name)
    assert all(len(ids) == 1 for ids in objects.values())
    # Gates are shared across devices, not only within one.
    assert any(len(names) == 2 for names in devices_of.values())
    # An equal circuit is another program, with gate objects of its own.
    twin = load_benchmark("qft_n4")
    assert twin == circuit and twin is not circuit
    ug = generate_compute_units(load_device("heavyhex27"), 4)
    twin_ids = {id(g) for e in compile_multi_version(twin, ug).executables for g in e.routed_gates}
    assert twin_ids.isdisjoint(set().union(*objects.values()))


def test_compile_on_region_is_layout_then_route(heavyhex27, ug27_m4):
    swaps = 0
    for name in ("adder_n4", "qaoa_n6", "qft_n4"):
        circuit = load_benchmark(name)
        r = math.ceil(circuit.num_qubits / ug27_m4.unit_size)
        regions = [rg for rg in enumerate_regions(ug27_m4, r) if len(rg.qubits) >= circuit.num_qubits]
        regions = regions[:3]
        composed = []
        for region in regions:
            layout = initial_layout(circuit, region, heavyhex27)
            composed.append((layout, route(circuit, region, heavyhex27, layout)))
        # A fresh parse and the reverse region order: nothing carried over
        # from the calls above can stand in for this compilation.
        fresh = load_benchmark(name)
        for region, (layout, routed) in reversed(list(zip(regions, composed))):
            exe = compile_on_region(fresh, region, heavyhex27)
            assert exe.layout == layout
            assert exe.final_layout == routed.final_layout
            assert exe.routed_gates == routed.gates
            assert exe.swap_count == routed.swap_count
            swaps += routed.swap_count
    assert swaps > 0


def _count_calls(monkeypatch, name):
    """Replace compiler.<name> with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(compiler, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(compiler, name, counted)
    return calls


def test_region_context_built_once_per_device_region(monkeypatch):
    built = _count_calls(monkeypatch, "_RegionContext")
    # Fresh device objects: nothing compiled before this test can be cached for them.
    devices = [load_device("heavyhex27"), load_device("heavyhex65")]
    compiled_on = set()
    for device in devices:
        for m in (3, 4):
            ug = generate_compute_units(device, m)
            for name in suite():
                for e in compile_multi_version(load_benchmark(name), ug).executables:
                    compiled_on.add((id(device), e.region.qubits))
    builds = Counter((id(device), region.qubits) for region, device in built)
    assert set(builds) == compiled_on
    assert set(builds.values()) == {1}


def test_converged_seed_layout_stops_after_one_cycle(monkeypatch):
    # The seed puts the only interacting pair on a link, so no pass swaps.
    dev = make_path(3)
    region = _whole_device_region(dev)
    circuit = Circuit("pair", 2, (Gate("cx", (0, 1)), Gate("h", (0,)), Gate("cx", (1, 0))))
    passes = _count_calls(monkeypatch, "_route_gates")
    exe = compile_on_region(circuit, region, dev)
    assert exe.swap_count == 0 and exe.final_layout == exe.layout
    # One forward+backward cycle that returns its input; the final route is
    # that cycle's forward pass, so it is not run again.
    assert len(passes) == 2


def test_moving_layout_refines_all_three_cycles(monkeypatch):
    # On this circuit the first two cycles move the layout, so the third runs.
    dev = make_path(5)
    region = _whole_device_region(dev)
    pairs = ((3, 2), (4, 2), (1, 3), (0, 2), (3, 2), (3, 4))
    circuit = Circuit("moving", 5, tuple(Gate("cx", p) for p in pairs))
    program = compiler._program(circuit)
    ctx = compiler._region_context(region, dev)
    layout = compiler._seed_layout(program, ctx)
    for _ in range(3):
        layout = compiler._route_gates(program.forward, layout, ctx)[0]
        layout = compiler._route_gates(program.backward, layout, ctx)[0]
    passes = _count_calls(monkeypatch, "_route_gates")
    assert compile_on_region(circuit, region, dev).layout == layout
    # The third cycle's backward pass starts where the second's did, and the
    # final route is the third's forward pass: 7 passes, 5 of them distinct.
    assert len(passes) == 5


def test_no_routing_pass_repeats_within_a_compile(monkeypatch, heavyhex27):
    passes = _count_calls(monkeypatch, "_route_gates")
    compile_one = compiler.compile_on_region
    repeats = []

    def compile_checked(*args):
        start = len(passes)
        exe = compile_one(*args)
        # Within one compile the program and region are fixed, so a pass is
        # its DAG (the direction) and its starting layout.
        run = [(id(dag), layout) for dag, layout, _ in passes[start:]]
        repeats.append(len(run) - len(set(run)))
        return exe

    monkeypatch.setattr(compiler, "compile_on_region", compile_checked)
    for m in (3, 4):
        ug = generate_compute_units(heavyhex27, m)
        for name in suite():
            compile_multi_version(load_benchmark(name), ug)
    assert passes and repeats
    assert sum(repeats) == 0


def test_cache_entries_die_with_their_device_and_circuit():
    dev = make_path(4)
    circuit = Circuit("chain", 4, tuple(Gate("cx", (i, i + 1)) for i in range(3)))
    region = _whole_device_region(dev)
    compile_on_region(circuit, region, dev)
    # Each owner holds what was derived from it, so nothing outlives it.
    assert isinstance(vars(circuit)["_program"], compiler._Program)
    assert set(vars(dev)["_region_contexts"]) == {region.qubits}
    alive = (weakref.ref(dev), weakref.ref(circuit))
    del dev, circuit
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_concurrent_compiles_match_serial():
    # More workers than cores, and jobs sharing a device, so threads race on
    # one device's contexts as well as on different devices.
    jobs = [
        ("adder_n4", "heavyhex27", 4),
        ("qaoa_n6", "heavyhex65", 3),
        ("qft_n4", "heavyhex27", 4),
        ("wstate_n3", "heavyhex65", 3),
        ("fredkin_n3", "heavyhex27", 4),
        ("simon_n6", "heavyhex65", 3),
    ]

    def compiler_on_fresh_devices():
        # Device objects of its own, so each run starts with empty caches.
        devices = {name: load_device(name) for _, name, _ in jobs}

        def compile_job(job):
            program, device, m = job
            return compile_multi_version(load_benchmark(program), generate_compute_units(devices[device], m))

        return compile_job

    serial = list(map(compiler_on_fresh_devices(), jobs))
    threaded_job = compiler_on_fresh_devices()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside cache lookups too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(threaded_job, jobs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
