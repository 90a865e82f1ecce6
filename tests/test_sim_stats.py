"""The work counts `simulate_noisy` reports on its result, against hand-counted values."""

import numpy as np

import reference_sim
from qmux import simulator
from qmux.circuits import Circuit, Gate
from qmux.compiler import compile_on_region
from qmux.devices import DeviceGraph
from qmux.partition import enumerate_regions, generate_compute_units
from qmux.simulator import Distribution, NoiseSpec, SimulationStats, simulate_ideal, simulate_noisy

from conftest import make_path


def _ghz3():
    return Circuit("ghz3", 3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (1, 2))))


def _compiled(device):
    region = enumerate_regions(generate_compute_units(device, device.num_qubits), 1)[0]
    return compile_on_region(_ghz3(), region, device)


def _quiet_path(n):
    # Link errors must stay positive; at 1e-300 no shot ever draws one.
    links = tuple((i, i + 1) for i in range(n - 1))
    return DeviceGraph(
        num_qubits=n,
        links=links,
        link_error={l: 1e-300 for l in links},
        qubit_error=(0.0,) * n,
        readout_error=(0.0,) * n,
        name="quiet",
    )


def _hand_counts(exe, spec, device):
    """(error events, distinct error patterns) of a seeded run, from the reference sampler."""
    rng = np.random.default_rng(spec.seed)
    sites = reference_sim.error_sites(exe, spec, device)
    events = reference_sim._sample_events(sites, spec.shots, rng)
    return sum(len(evs) for evs in events.values()), reference_sim.distinct_error_patterns(exe, spec, device)


def test_zero_error_device_evolves_one_trajectory():
    device = _quiet_path(3)
    dist = simulate_noisy(_compiled(device), NoiseSpec(shots=512, seed=1), device)
    assert dist.stats == SimulationStats(trajectories=1, batches=1, error_events=0)


def test_counts_match_the_sampled_events():
    device = make_path(3, err=0.05)
    exe = _compiled(device)
    spec = NoiseSpec(shots=2048, seed=7)
    events, patterns = _hand_counts(exe, spec, device)
    assert events > patterns >= 3
    dist = simulate_noisy(exe, spec, device)
    # One batch: every pattern's row plus the error-free row.
    assert dist.stats == SimulationStats(trajectories=patterns + 1, batches=1, error_events=events)


def test_a_smaller_batch_cap_forces_two_batches(monkeypatch):
    device = make_path(3, err=0.05)
    exe = _compiled(device)
    spec = NoiseSpec(shots=2048, seed=7)
    events, patterns = _hand_counts(exe, spec, device)
    one_batch = simulate_noisy(exe, spec, device)
    # Room for just over half the patterns per batch, beside the error-free row.
    per_batch = patterns // 2 + 1
    touched = len(simulator._local_frame(exe)[0])
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", (per_batch + 1) << touched)
    two_batches = simulate_noisy(exe, spec, device)
    # Each batch evolves its own error-free row.
    assert two_batches.stats == SimulationStats(trajectories=patterns + 2, batches=2, error_events=events)
    assert two_batches == one_batch


def test_stats_take_no_part_in_equality():
    plain = Distribution({"0": 0.25, "1": 0.75}, width=1, shots=4)
    counted = Distribution(plain.outcomes, width=1, shots=4, stats=SimulationStats(3, 1, 2))
    assert counted == plain
    assert simulate_ideal(_ghz3()).stats is None

