"""Permutation gates (`x`, `cx` in both operand orders, `swap`) match the frozen reference.

The circuits here are written by hand so that the permuting gates act on
qubits far apart in the state's axis order, in both operand orders, and
between dense gates that spread amplitude over many basis states. The noisy
runs use raised error rates so that most shots err, and error patterns join
the stack at many different gates.
"""

import itertools

import pytest

import reference_sim
from qmux import simulator
from qmux.circuits import Circuit, Gate
from qmux.compiler import Executable
from qmux.devices import DeviceGraph
from qmux.partition import Region
from qmux.simulator import (
    NoiseSpec,
    ideal_executable_distribution,
    simulate_ideal,
    simulate_noisy,
)

N = 5


def _complete(n, link_error, qubit_error):
    links = tuple(itertools.combinations(range(n), 2))
    return DeviceGraph(
        num_qubits=n,
        links=links,
        link_error={l: link_error for l in links},
        qubit_error=(qubit_error,) * n,
        readout_error=(0.02,) * n,
        name=f"complete{n}",
    )


def _gates():
    return (
        Gate("h", (0,)),
        Gate("h", (2,)),
        Gate("t", (2,)),
        Gate("cx", (0, 4)),
        Gate("x", (3,)),
        Gate("cx", (4, 1)),
        Gate("rz", (1,), (0.3,)),
        Gate("swap", (0, 3)),
        Gate("h", (4,)),
        Gate("cx", (3, 0)),
        Gate("x", (0,)),
        Gate("swap", (4, 1)),
        Gate("cx", (2, 4)),
        Gate("u3", (3,), (0.7, 0.2, -0.4)),
        Gate("swap", (2, 0)),
        Gate("cx", (1, 3)),
        Gate("x", (4,)),
        Gate("cx", (4, 0)),
        # Generic rotations, so that most error patterns end in distributions
        # of their own.
        Gate("ry", (1,), (0.9,)),
        Gate("rx", (3,), (1.3,)),
        Gate("cx", (1, 3)),
    )


def _executable(gates, final_layout=(3, 0, 4, 1, 2)):
    region = Region(frozenset({0}), frozenset(range(N)))
    return Executable(
        program_name="perm",
        num_qubits=N,
        region=region,
        layout=tuple(range(N)),
        final_layout=final_layout,
        routed_gates=gates + tuple(Gate("measure", (q,)) for q in range(N)),
        swap_count=3,
        d_in=len(gates),
        d_out=len(gates),
        region_utility=1.0,
    )


def test_ideal_permutations_match_reference():
    circuit = Circuit("perm", N, _gates())
    assert simulate_ideal(circuit) == reference_sim.simulate_ideal(circuit)
    exe = _executable(_gates())
    assert ideal_executable_distribution(exe) == reference_sim.ideal_executable_distribution(exe)


def test_permutations_alone_match_reference():
    # Without dense gates the state stays a basis state; each permutation
    # must still move it to exactly the reference's index.
    gates = tuple(g for g in _gates() if g.name in ("x", "cx", "swap"))
    circuit = Circuit("perm_only", N, gates)
    assert simulate_ideal(circuit) == reference_sim.simulate_ideal(circuit)
    exe = _executable(gates)
    assert ideal_executable_distribution(exe) == reference_sim.ideal_executable_distribution(exe)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noisy_permutations_match_reference(seed):
    device = _complete(N, link_error=0.2, qubit_error=0.05)
    exe = _executable(_gates())
    spec = NoiseSpec(shots=2048, seed=seed)
    # Patterns must start at many gates, so rows join the stack mid-circuit.
    sites = reference_sim.error_sites(exe, spec, device)
    assert len({gi for gi, _, _ in sites}) >= 10
    assert reference_sim.distinct_error_patterns(exe, spec, device) > 100
    assert simulate_noisy(exe, spec, device) == reference_sim.simulate_noisy(exe, spec, device)


def test_noisy_permutations_across_batches_match_reference(monkeypatch):
    # A cap of 2**9 amplitudes holds 15 rows of 5 qubits, so the run takes
    # many batches, each starting again from the error-free row.
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 2**9)
    device = _complete(N, link_error=0.2, qubit_error=0.05)
    exe = _executable(_gates())
    spec = NoiseSpec(shots=512, seed=4)
    assert simulate_noisy(exe, spec, device) == reference_sim.simulate_noisy(exe, spec, device)
