"""Frozen per-trajectory simulator that the batched one in qmux.simulator must match.

This is the straightforward form of the noisy sampler: every distinct error
pattern is evolved as its own statevector, one gate at a time, and outcomes
are drawn with `Generator.choice`. It consumes the random stream in the same
order as qmux.simulator.simulate_noisy, so for one seed both must return
equal outcome dictionaries. The ideal paths are kept beside it so the
batched kernel's amplitudes can be compared bit for bit.

Only the gate matrices and the result types come from qmux; the evolution,
sampling and projection logic here is independent of the package's. Slow is
fine: the equivalence tests run it on small executables.
"""

from collections import defaultdict

import numpy as np

from qmux.simulator import Distribution, gate_unitary

_MAX_QUBITS = 14
_PROB_FLOOR = 1e-16
_ERROR_CAP = 0.999

_PAULIS = (None, gate_unitary("x", ()), gate_unitary("y", ()), gate_unitary("z", ()))


def _apply_1q(state, u, q):
    return np.moveaxis(np.tensordot(u, state, axes=([1], [q])), 0, q)


def _apply_2q(state, u, q0, q1):
    out = np.tensordot(u.reshape(2, 2, 2, 2), state, axes=([2, 3], [q0, q1]))
    return np.moveaxis(out, [0, 1], [q0, q1])


def _apply(state, u, qubits):
    if len(qubits) == 1:
        return _apply_1q(state, u, qubits[0])
    return _apply_2q(state, u, qubits[0], qubits[1])


def _distribution_from_probs(probs, width, shots=None):
    outcomes = {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(probs)
        if p > _PROB_FLOOR
    }
    return Distribution(outcomes, width=width, shots=shots)


def simulate_ideal(circuit):
    n = circuit.num_qubits
    assert n <= _MAX_QUBITS
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.name in ("barrier", "measure"):
            continue
        state = _apply(state, gate_unitary(g.name, g.params), g.qubits)
    probs = np.abs(state.reshape(-1)) ** 2
    return _distribution_from_probs(probs, n)


def _local_frame(executable):
    touched = set(executable.layout) | set(executable.final_layout)
    for g in executable.routed_gates:
        touched.update(g.qubits)
    order = sorted(touched)
    return order, {p: i for i, p in enumerate(order)}


def _project_logical(probs, t, loc, executable):
    k = executable.num_qubits
    idx = np.arange(probs.size, dtype=np.int64)
    logical = np.zeros(probs.size, dtype=np.int64)
    for q in range(k):
        j = loc[executable.final_layout[q]]
        logical |= ((idx >> (t - 1 - j)) & 1) << (k - 1 - q)
    return np.bincount(logical, weights=probs, minlength=2**k)


def ideal_executable_distribution(executable):
    order, loc = _local_frame(executable)
    t = len(order)
    assert t <= _MAX_QUBITS
    state = np.zeros((2,) * t, dtype=complex)
    state[(0,) * t] = 1.0
    for g in executable.routed_gates:
        if g.name in ("barrier", "measure"):
            continue
        lq = tuple(loc[q] for q in g.qubits)
        state = _apply(state, gate_unitary(g.name, g.params), lq)
    probs = np.abs(state.reshape(-1)) ** 2
    return _distribution_from_probs(_project_logical(probs, t, loc, executable), executable.num_qubits)


def crosstalk_factor(link, noise):
    """Largest amplification over flagged links bridging this link to co-runners."""
    if noise.crosstalk is None or not noise.co_claimed:
        return 1.0
    factor = 1.0
    for (u, v), f in noise.crosstalk.amplification.items():
        if (u in link and v in noise.co_claimed) or (v in link and u in noise.co_claimed):
            factor = max(factor, f)
    return factor


def error_sites(executable, noise, device):
    """(gate index, local operands, error probability) for every noisy gate."""
    _, loc = _local_frame(executable)
    sites = []
    index = 0
    for g in executable.routed_gates:
        if g.name in ("barrier", "measure"):
            continue
        lq = tuple(loc[q] for q in g.qubits)
        if g.name == "cx":
            p = min(device.error_of(*g.qubits) * crosstalk_factor(tuple(g.qubits), noise), _ERROR_CAP)
        elif len(lq) == 1:
            p = device.qubit_error[g.qubits[0]]
        else:
            p = 0.0
        if p > 0.0:
            sites.append((index, lq, p))
        index += 1
    return sites


def _sample_events(sites, shots, rng):
    """Per shot, the (site, Pauli code) errors it takes."""
    events_by_shot = defaultdict(list)
    for si, (_, lq, p) in enumerate(sites):
        hits = int(rng.binomial(shots, p))
        if hits == 0:
            continue
        shot_ids = rng.choice(shots, size=hits, replace=False)
        n_paulis = 3 if len(lq) == 1 else 15
        codes = rng.integers(1, n_paulis + 1, size=hits)
        for sh, code in zip(shot_ids, codes):
            events_by_shot[int(sh)].append((si, int(code)))
    return events_by_shot


def distinct_error_patterns(executable, noise, device):
    """How many distinct non-empty error patterns one seeded run samples."""
    rng = np.random.default_rng(noise.seed)
    events = _sample_events(error_sites(executable, noise, device), noise.shots, rng)
    return len({tuple(sorted(evs)) for evs in events.values()})


def simulate_noisy(executable, noise, device):
    order, loc = _local_frame(executable)
    t = len(order)
    assert t <= _MAX_QUBITS
    k = executable.num_qubits
    shots = noise.shots
    rng = np.random.default_rng(noise.seed)

    gates = []
    for g in executable.routed_gates:
        if g.name in ("barrier", "measure"):
            continue
        gates.append((tuple(loc[q] for q in g.qubits), gate_unitary(g.name, g.params)))
    sites = error_sites(executable, noise, device)
    events_by_shot = _sample_events(sites, shots, rng)

    patterns = defaultdict(int)
    for evs in events_by_shot.values():
        patterns[tuple(sorted(evs))] += 1
    by_first_gate = defaultdict(list)
    for pat, cnt in patterns.items():
        by_first_gate[sites[pat[0][0]][0]].append((pat, cnt))

    def inject(state, site_idx, code):
        lq = sites[site_idx][1]
        if len(lq) == 1:
            return _apply_1q(state, _PAULIS[code], lq[0])
        a, b = divmod(code, 4)
        if a:
            state = _apply_1q(state, _PAULIS[a], lq[0])
        if b:
            state = _apply_1q(state, _PAULIS[b], lq[1])
        return state

    def sample_outcomes(state, count):
        probs = np.abs(state.reshape(-1)) ** 2
        probs /= probs.sum()
        return rng.choice(probs.size, size=count, p=probs)

    drawn = []
    state = np.zeros((2,) * t, dtype=complex)
    state[(0,) * t] = 1.0
    for gi, (lq, u) in enumerate(gates):
        state = _apply(state, u, lq)
        for pat, cnt in sorted(by_first_gate.get(gi, ())):
            traj = inject(state.copy(), pat[0][0], pat[0][1])
            nxt = 1
            for gj in range(gi + 1, len(gates)):
                traj = _apply(traj, gates[gj][1], gates[gj][0])
                while nxt < len(pat) and sites[pat[nxt][0]][0] == gj:
                    traj = inject(traj, pat[nxt][0], pat[nxt][1])
                    nxt += 1
            drawn.append(sample_outcomes(traj, cnt))
    clean = shots - len(events_by_shot)
    if clean:
        drawn.append(sample_outcomes(state, clean))

    local_idx = np.concatenate(drawn) if drawn else np.zeros(0, dtype=np.int64)

    logical = np.zeros(shots, dtype=np.int64)
    for q in range(k):
        home = executable.final_layout[q]
        j = loc[home]
        bit = (local_idx >> (t - 1 - j)) & 1
        p_ro = device.readout_error[home]
        if p_ro > 0.0:
            bit = bit ^ (rng.random(shots) < p_ro)
        logical |= bit.astype(np.int64) << (k - 1 - q)
    counts = np.bincount(logical, minlength=2**k)
    return _distribution_from_probs(counts / shots, k, shots=shots)
