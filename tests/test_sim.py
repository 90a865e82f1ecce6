"""Ideal and noisy simulation, the 1-TVD fidelity metric, and output depth."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux.benchmarks import load_benchmark
from qmux.circuits import Circuit, Gate
from qmux.compiler import compile_multi_version, compile_on_region
from qmux.devices import CrosstalkMap, DeviceGraph
from qmux.errors import SimulationError, TopologyMismatch
from qmux.partition import enumerate_regions, generate_compute_units
from qmux.simulator import (
    Distribution,
    NoiseSpec,
    fidelity,
    ideal_executable_distribution,
    simulate_ideal,
    simulate_noisy,
)

from conftest import make_path

SHOTS = 2**16


def _zero_noise_path(n, readout=0.0):
    # link errors must stay strictly positive; 1e-300 is numerically silent
    return DeviceGraph(
        num_qubits=n,
        links=tuple((i, i + 1) for i in range(n - 1)),
        link_error={(i, i + 1): 1e-300 for i in range(n - 1)},
        qubit_error=(0.0,) * n,
        readout_error=(readout,) * n,
        name="quiet",
    )


def _sole_region(device, m=None):
    ug = generate_compute_units(device, m or device.num_qubits)
    return enumerate_regions(ug, 1)[0]


def _ghz3():
    return Circuit("ghz3", 3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (1, 2))))


def test_ideal_hadamard():
    dist = simulate_ideal(Circuit("h", 1, (Gate("h", (0,)), Gate("measure", (0,)))))
    assert dist.probability("0") == pytest.approx(0.5)
    assert dist.probability("1") == pytest.approx(0.5)


def test_ideal_empty_circuit():
    dist = simulate_ideal(Circuit("idle", 2, ()))
    assert dist.outcomes == {"00": 1.0}


def test_ideal_ghz():
    dist = simulate_ideal(_ghz3())
    assert dist.probability("000") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("111") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("010") == 0.0


def test_ideal_qubit_limit():
    with pytest.raises(SimulationError, match="dense limit"):
        simulate_ideal(Circuit("big", 15, ()))


def test_executable_qubit_limit_names_the_program(heavyhex27, ug27_m4):
    chain = (Gate("h", (0,)),) + tuple(Gate("cx", (i, i + 1)) for i in range(14))
    exe = compile_multi_version(Circuit("ghz15", 15, chain), ug27_m4).executables[0]
    refusal = "^ghz15: 15 qubits exceed the 14-qubit dense limit$"
    with pytest.raises(SimulationError, match=refusal):
        ideal_executable_distribution(exe)
    with pytest.raises(SimulationError, match=refusal):
        simulate_noisy(exe, NoiseSpec(shots=64), heavyhex27)


def test_noise_spec_refuses_a_negative_seed():
    # Numpy's generators take no negative seed; the spec refuses it before any run.
    with pytest.raises(SimulationError, match="^seed must be a non-negative integer, got -1$"):
        NoiseSpec(shots=1, seed=-1)
    assert NoiseSpec(shots=1, seed=0).seed == 0


def test_noiseless_simulation_matches_ideal():
    dev = _zero_noise_path(3)
    exe = compile_on_region(_ghz3(), _sole_region(dev), dev)
    dist = simulate_noisy(exe, NoiseSpec(shots=SHOTS, seed=2), dev)
    sigma = math.sqrt(0.25 / SHOTS)
    for bits in ("000", "111"):
        assert abs(dist.probability(bits) - 0.5) < 3 * sigma
    assert fidelity(dist, simulate_ideal(_ghz3())) > 1 - 3 * sigma


def test_readout_error_closed_form():
    dev = _zero_noise_path(2, readout=0.1)
    region = _sole_region(dev, m=1)
    circuit = Circuit("flip", 1, (Gate("x", (0,)), Gate("measure", (0,))))
    exe = compile_on_region(circuit, region, dev)
    dist = simulate_noisy(exe, NoiseSpec(shots=SHOTS, seed=3), dev)
    sigma = math.sqrt(0.1 * 0.9 / SHOTS)
    assert abs(dist.probability("1") - 0.9) < 3 * sigma
    assert abs(dist.probability("0") - 0.1) < 3 * sigma


def test_link_error_degrades_fidelity_monotonically():
    ideal = simulate_ideal(_ghz3())
    fids = []
    for err in (0.01, 0.02):
        dev = make_path(3, err=err)
        exe = compile_on_region(_ghz3(), _sole_region(dev), dev)
        noisy = simulate_noisy(exe, NoiseSpec(shots=2**15, seed=7), dev)
        fids.append(fidelity(ideal, noisy))
    assert fids[0] < 1.0
    assert fids[1] < fids[0]


def test_noisy_simulation_deterministic():
    dev = make_path(3, err=0.02)
    exe = compile_on_region(_ghz3(), _sole_region(dev), dev)
    a = simulate_noisy(exe, NoiseSpec(shots=4096, seed=11), dev)
    b = simulate_noisy(exe, NoiseSpec(shots=4096, seed=11), dev)
    assert a.outcomes == b.outcomes
    assert a.shots == b.shots == 4096


def test_crosstalk_amplification_hurts():
    dev = make_path(3, err=0.02)
    ug = generate_compute_units(dev, 2)
    region = enumerate_regions(ug, 1)[0]
    circuit = Circuit("busy", 2, tuple(Gate("cx", (0, 1)) for _ in range(6)))
    exe = compile_on_region(circuit, region, dev)
    assert set(exe.region.qubits) == {0, 1}
    ideal = ideal_executable_distribution(exe)
    quiet = simulate_noisy(exe, NoiseSpec(shots=2**14, seed=5), dev)
    xmap = CrosstalkMap({(1, 2): 8.0})
    loud = simulate_noisy(
        exe,
        NoiseSpec(shots=2**14, seed=5, crosstalk=xmap, co_claimed=frozenset({2})),
        dev,
    )
    assert fidelity(ideal, loud) < fidelity(ideal, quiet)


def test_noisy_simulation_refuses_an_executable_of_another_device(heavyhex27, ug65_m4):
    # heavyhex65 versions of wstate_n3: one whose region leaves heavyhex27, one
    # inside its 27 qubits whose routed cx needs a link heavyhex27 lacks.
    versions = compile_multi_version(load_benchmark("wstate_n3"), ug65_m4).executables
    beyond = next(e for e in versions if max(e.region.qubits) >= heavyhex27.num_qubits)
    outside = ", ".join(str(q) for q in sorted(beyond.region.qubits) if q >= heavyhex27.num_qubits)
    inside = next(e for e in versions if max(e.region.qubits) < heavyhex27.num_qubits)
    a, b = next(g.qubits for g in inside.routed_gates if g.is_two_qubit and not heavyhex27.has_link(*g.qubits))
    noise = NoiseSpec(shots=64)
    with pytest.raises(TopologyMismatch, match=f"^wstate_n3: region qubits {outside} are not on heavyhex27, "):
        simulate_noisy(beyond, noise, heavyhex27)
    with pytest.raises(TopologyMismatch, match=f"^wstate_n3: routed cx on qubits {a} and {b} needs a link "):
        simulate_noisy(inside, noise, heavyhex27)


def test_fidelity_worked_examples():
    p = Distribution({"00": 0.5, "11": 0.5}, width=2)
    assert fidelity(p, p) == 1.0
    a = Distribution({"00": 1.0}, width=2)
    b = Distribution({"11": 1.0}, width=2)
    assert fidelity(a, b) == 0.0
    u = Distribution({"0": 0.5, "1": 0.5}, width=1)
    point = Distribution({"0": 1.0}, width=1)
    assert fidelity(u, point) == pytest.approx(0.5)


def test_fidelity_width_mismatch():
    with pytest.raises(SimulationError, match="widths differ"):
        fidelity(Distribution({"0": 1.0}, width=1), Distribution({"00": 1.0}, width=2))


def test_distribution_validation():
    with pytest.raises(SimulationError, match="not a 2-bit string"):
        Distribution({"00": 0.5, "1": 0.5}, width=2)
    with pytest.raises(SimulationError, match="negative"):
        Distribution({"0": -0.1, "1": 1.1}, width=1)
    with pytest.raises(SimulationError, match="sum to"):
        Distribution({"0": 0.6, "1": 0.6}, width=1)
    with pytest.raises(SimulationError):
        NoiseSpec(shots=0)


def test_qpu_time_arithmetic():
    dev = make_path(3)
    circuit = Circuit("chain", 3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    exe = compile_on_region(circuit, _sole_region(dev), dev)
    assert exe.d_out == 2
    assert exe.swap_count == 0


def test_qpu_time_ten_layers():
    dev = make_path(2)
    # 10 sequential CNOTs on one link: depth 10, no routing
    circuit = Circuit("stack", 2, tuple(Gate("cx", (0, 1)) for _ in range(10)))
    exe = compile_on_region(circuit, _sole_region(dev), dev)
    assert exe.d_out == 10


def test_qpu_time_device_size_invariant():
    circuit = Circuit("chain", 4, tuple(Gate("cx", (i, i + 1)) for i in range(3)))
    small = make_path(4)
    exe_small = compile_on_region(circuit, _sole_region(small), small)
    big = make_path(8)
    ug = generate_compute_units(big, 4)
    exe_big = compile_on_region(circuit, enumerate_regions(ug, 1)[0], big)
    assert exe_small.swap_count == exe_big.swap_count == 0
    assert exe_small.d_out == exe_big.d_out


def test_noisy_distribution_normalized():
    dev = make_path(3, err=0.05)
    exe = compile_on_region(_ghz3(), _sole_region(dev), dev)
    dist = simulate_noisy(exe, NoiseSpec(shots=2048, seed=1), dev)
    assert abs(sum(dist.outcomes.values()) - 1.0) < 1e-9
    assert all(len(bits) == 3 for bits in dist.outcomes)


@st.composite
def _distributions(draw):
    n = 8
    weights = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0
        )
    )
    probs = np.asarray(weights) / sum(weights)
    return Distribution(
        {format(i, "03b"): float(p) for i, p in enumerate(probs) if p > 0}, width=3
    )


@settings(deadline=None, max_examples=60)
@given(_distributions(), _distributions())
def test_fidelity_properties(p, q):
    f = fidelity(p, q)
    assert 0.0 <= f <= 1.0
    assert f == fidelity(q, p)
    assert fidelity(p, p) == 1.0


def _random_distribution(rng):
    weights = rng.random(8) * (rng.random(8) < 0.7)
    if not weights.any():
        weights[rng.integers(8)] = 1.0
    probs = weights / weights.sum()
    # Outcomes go in shuffled, so the two arguments' key orders differ.
    return Distribution(
        {format(int(i), "03b"): float(probs[i]) for i in rng.permutation(8) if probs[i] > 0},
        width=3,
    )


def test_fidelity_symmetric_on_seeded_pairs():
    # Summing in set-iteration order made the two argument orders differ in
    # the last bit on some pairs, depending on the string hash seed.
    rng = np.random.default_rng(20260101)
    for _ in range(2000):
        p, q = _random_distribution(rng), _random_distribution(rng)
        assert fidelity(p, q) == fidelity(q, p)
