"""The simulator returns exactly what the frozen per-trajectory reference returns.

Noisy outcomes, ideal distributions and the multi-batch case are compared
with `==`: the batched evolution must consume the random stream in the same
order and produce the same amplitudes, not merely close ones.
"""

import dataclasses

import pytest

import reference_sim
from qmux.benchmarks import load_benchmark, suite
from qmux.compiler import compile_multi_version
from qmux import simulator
from qmux.harness import sample_crosstalk_map
from qmux.simulator import (
    NoiseSpec,
    ideal_executable_distribution,
    simulate_ideal,
    simulate_noisy,
)

# The small-program pool of the benchmark's fidelity probe.
SMALL_PROGRAMS = (
    "adder_n4",
    "basis_change_n3",
    "cat_state_n4",
    "deutsch_n2",
    "fredkin_n3",
    "grover_n2",
    "hs4_n4",
    "linearsolver_n3",
    "qft_n4",
    "teleportation_n3",
    "toffoli_n3",
    "wstate_n3",
)
SHOTS = 2048


def _rank1(name, unit_graph):
    return compile_multi_version(load_benchmark(name), unit_graph).executables[0]


def _outside(executable, device):
    return frozenset(range(device.num_qubits)) - executable.region.qubits


@pytest.mark.parametrize("name", SMALL_PROGRAMS)
def test_noisy_outcomes_match_reference(name, heavyhex27, ug27_m4):
    exe = _rank1(name, ug27_m4)
    xtalk = sample_crosstalk_map(ug27_m4, seed=5)
    specs = []
    for seed in (11, 12):
        specs.append(NoiseSpec(shots=SHOTS, seed=seed))
        specs.append(
            NoiseSpec(shots=SHOTS, seed=seed, crosstalk=xtalk, co_claimed=_outside(exe, heavyhex27))
        )
    for spec in specs:
        assert simulate_noisy(exe, spec, heavyhex27) == reference_sim.simulate_noisy(exe, spec, heavyhex27)


def test_crosstalk_cases_exercise_amplification(heavyhex27, ug27_m4):
    # Guards the test above: its crosstalk specs must really raise some error rate.
    xtalk = sample_crosstalk_map(ug27_m4, seed=5)
    raised = 0
    for name in SMALL_PROGRAMS:
        exe = _rank1(name, ug27_m4)
        plain = reference_sim.error_sites(exe, NoiseSpec(shots=1), heavyhex27)
        amplified = reference_sim.error_sites(
            exe, NoiseSpec(shots=1, crosstalk=xtalk, co_claimed=_outside(exe, heavyhex27)), heavyhex27
        )
        raised += sum(a[2] > p[2] for a, p in zip(amplified, plain))
    assert raised > 0


def test_ideal_distributions_match_reference(ug27_m4):
    for name in suite():
        circuit = load_benchmark(name)
        assert simulate_ideal(circuit) == reference_sim.simulate_ideal(circuit), name
        exe = _rank1(name, ug27_m4)
        assert ideal_executable_distribution(exe) == reference_sim.ideal_executable_distribution(exe), name


def _fivefold_link_errors(device):
    # Nearly every shot of a long program then takes its own error pattern.
    return dataclasses.replace(device, link_error={l: 5 * e for l, e in device.link_error.items()})


def test_many_trajectories_match_reference(heavyhex27, ug27_m4):
    # The trajectories hold more than 2**20 amplitudes, so they run in batches.
    noisy = _fivefold_link_errors(heavyhex27)
    exe = _rank1("adder_n10", ug27_m4)
    spec = NoiseSpec(shots=2048, seed=3)
    rows = reference_sim.distinct_error_patterns(exe, spec, noisy) + 1
    touched = len(set(exe.layout) | {q for g in exe.routed_gates for q in g.qubits})
    assert touched >= 10
    assert rows * 2**touched > 2**20
    assert simulate_noisy(exe, spec, noisy) == reference_sim.simulate_noisy(exe, spec, noisy)


def test_batches_stay_under_the_amplitude_cap(heavyhex27, ug27_m4, monkeypatch):
    noisy = _fivefold_link_errors(heavyhex27)
    exe = _rank1("adder_n10", ug27_m4)
    sizes = []
    inner = simulator._apply

    def recording(state, u, qubits):
        sizes.append(state.size)
        return inner(state, u, qubits)

    monkeypatch.setattr(simulator, "_apply", recording)
    simulate_noisy(exe, NoiseSpec(shots=2048, seed=3), noisy)
    assert max(sizes) <= simulator._BATCH_AMPLITUDES
    # Each batch starts again from the one-row error-free state.
    assert sum(a > b for a, b in zip(sizes, sizes[1:])) >= 1
