"""Dense statevector simulation, with and without device noise.

The ideal path evolves the full statevector and reads the measurement
distribution off the amplitudes. The noisy path is a per-shot trajectory
sampler: after every gate a depolarizing error may fire (qubit error rate for
one-qubit gates, link error rate for CNOTs, optionally amplified by
crosstalk), and readout bits flip independently at the end. Shots sharing an
error pattern share one trajectory, so the common zero-error case costs a
single evolution regardless of shot count.

Bitstring convention: character i of an outcome corresponds to qubit i.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate
from .compiler import Executable
from .devices import CrosstalkMap, DeviceGraph
from .errors import SimulationError

_MAX_QUBITS = 14
_PROB_FLOOR = 1e-16
_ERROR_CAP = 0.999

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "h": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
}

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_PAULIS = (None, _FIXED_1Q["x"], _FIXED_1Q["y"], _FIXED_1Q["z"])


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def gate_unitary(name: str, params: tuple[float, ...]) -> np.ndarray:
    if name in _FIXED_1Q:
        return _FIXED_1Q[name]
    if name == "u1":
        return np.array([[1, 0], [0, cmath.exp(1j * params[0])]], dtype=complex)
    if name == "u2":
        return _u3(math.pi / 2, params[0], params[1])
    if name == "u3":
        return _u3(*params)
    if name == "rx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        half = cmath.exp(-1j * params[0] / 2)
        return np.array([[half, 0], [0, half.conjugate()]], dtype=complex)
    if name == "cx":
        return _CX
    if name == "swap":
        return _SWAP
    raise SimulationError(f"no unitary for gate {name!r}")


def _apply_1q(state: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(u, state, axes=([1], [q])), 0, q)


def _apply_2q(state: np.ndarray, u: np.ndarray, q0: int, q1: int) -> np.ndarray:
    out = np.tensordot(u.reshape(2, 2, 2, 2), state, axes=([2, 3], [q0, q1]))
    return np.moveaxis(out, [0, 1], [q0, q1])


def _apply(state: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    if len(qubits) == 1:
        return _apply_1q(state, u, qubits[0])
    return _apply_2q(state, u, qubits[0], qubits[1])


@dataclass(frozen=True)
class Distribution:
    """Measurement distribution; optionally backed by a finite shot count."""

    outcomes: dict[str, float]
    width: int
    shots: int | None = None

    def __post_init__(self):
        total = 0.0
        for bits, p in self.outcomes.items():
            if len(bits) != self.width or set(bits) - {"0", "1"}:
                raise SimulationError(f"outcome {bits!r} is not a {self.width}-bit string")
            if p < 0:
                raise SimulationError(f"negative probability for {bits!r}")
            total += p
        if self.outcomes and abs(total - 1.0) > 1e-9:
            raise SimulationError(f"probabilities sum to {total}, not 1")

    def probability(self, bits: str) -> float:
        return self.outcomes.get(bits, 0.0)


def fidelity(p: Distribution, q: Distribution) -> float:
    """1 minus the total variation distance between two distributions."""
    if p.width != q.width:
        raise SimulationError(f"distribution widths differ: {p.width} vs {q.width}")
    # Sorted, so the float sum runs in one order whichever argument comes first.
    keys = sorted(set(p.outcomes) | set(q.outcomes))
    tvd = 0.5 * sum(abs(p.probability(s) - q.probability(s)) for s in keys)
    return min(1.0, max(0.0, 1.0 - tvd))


def _distribution_from_probs(probs: np.ndarray, width: int, shots: int | None = None) -> Distribution:
    outcomes = {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(probs)
        if p > _PROB_FLOOR
    }
    return Distribution(outcomes, width=width, shots=shots)


def simulate_ideal(circuit: Circuit) -> Distribution:
    """Exact measurement distribution over all qubits of a noiseless run."""
    n = circuit.num_qubits
    if n > _MAX_QUBITS:
        raise SimulationError(f"{n} qubits exceeds the {_MAX_QUBITS}-qubit dense limit")
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.name in ("barrier", "measure"):
            continue
        state = _apply(state, gate_unitary(g.name, g.params), g.qubits)
    probs = np.abs(state.reshape(-1)) ** 2
    return _distribution_from_probs(probs, n)


@dataclass(frozen=True)
class NoiseSpec:
    """How to run a noisy simulation: shots, seed, and crosstalk context."""

    shots: int
    seed: int = 0
    crosstalk: CrosstalkMap | None = None
    co_claimed: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.shots < 1:
            raise SimulationError("shots must be at least 1")


def _local_frame(executable: Executable):
    """Map the physical qubits an executable touches to dense local indices."""
    touched: set[int] = set(executable.layout) | set(executable.final_layout)
    for g in executable.routed_gates:
        touched.update(g.qubits)
    order = sorted(touched)
    return order, {p: i for i, p in enumerate(order)}


def _project_logical(probs: np.ndarray, t: int, loc: dict[int, int], executable: Executable) -> np.ndarray:
    """Collapse a local distribution onto logical outcomes in register order."""
    k = executable.num_qubits
    idx = np.arange(probs.size, dtype=np.int64)
    logical = np.zeros(probs.size, dtype=np.int64)
    for q in range(k):
        j = loc[executable.final_layout[q]]
        logical |= ((idx >> (t - 1 - j)) & 1) << (k - 1 - q)
    return np.bincount(logical, weights=probs, minlength=2**k)


def ideal_executable_distribution(executable: Executable) -> Distribution:
    """Noiseless run of the routed gates, un-permuted to logical order.

    Matches simulate_ideal of the source program whenever routing preserved
    the circuit's semantics.
    """
    order, loc = _local_frame(executable)
    t = len(order)
    if t > _MAX_QUBITS:
        raise SimulationError(f"executable touches {t} qubits, over the {_MAX_QUBITS} limit")
    state = np.zeros((2,) * t, dtype=complex)
    state[(0,) * t] = 1.0
    for g in executable.routed_gates:
        if g.name in ("barrier", "measure"):
            continue
        lq = tuple(loc[q] for q in g.qubits)
        state = _apply(state, gate_unitary(g.name, g.params), lq)
    probs = np.abs(state.reshape(-1)) ** 2
    return _distribution_from_probs(_project_logical(probs, t, loc, executable), executable.num_qubits)


def _crosstalk_factor(link: tuple[int, int], noise: NoiseSpec) -> float:
    """Largest amplification over flagged links bridging this link to co-runners."""
    if noise.crosstalk is None or not noise.co_claimed:
        return 1.0
    factor = 1.0
    for (u, v), f in noise.crosstalk.amplification.items():
        if (u in link and v in noise.co_claimed) or (v in link and u in noise.co_claimed):
            factor = max(factor, f)
    return factor


def simulate_noisy(executable: Executable, noise: NoiseSpec, device: DeviceGraph) -> Distribution:
    """Monte-Carlo trajectory sampling of an executable under device noise.

    Per shot: each one-qubit gate may inject a uniform non-identity Pauli with
    its qubit's error rate, each CNOT with its link's (possibly crosstalk
    amplified) error rate, and readout flips each measured bit with that
    qubit's readout error. Outcomes are reported in logical register order.
    Deterministic for a fixed (executable, NoiseSpec, device).
    """
    order, loc = _local_frame(executable)
    t = len(order)
    if t > _MAX_QUBITS:
        raise SimulationError(f"executable touches {t} qubits, over the {_MAX_QUBITS} limit")
    k = executable.num_qubits
    shots = noise.shots
    rng = np.random.default_rng(noise.seed)

    gates: list[tuple[tuple[int, ...], np.ndarray]] = []
    sites: list[tuple[int, tuple[int, ...], float]] = []
    for g in executable.routed_gates:
        if g.name in ("barrier", "measure"):
            continue
        lq = tuple(loc[q] for q in g.qubits)
        gates.append((lq, gate_unitary(g.name, g.params)))
        if g.name == "cx":
            p = device.error_of(*g.qubits) * _crosstalk_factor(tuple(g.qubits), noise)
            p = min(p, _ERROR_CAP)
        elif len(lq) == 1:
            p = device.qubit_error[g.qubits[0]]
        else:
            p = 0.0
        if p > 0.0:
            sites.append((len(gates) - 1, lq, p))

    # Sample which shots take an error at which site, then group identical
    # patterns so each distinct trajectory is evolved once.
    events_by_shot: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for si, (_, lq, p) in enumerate(sites):
        hits = int(rng.binomial(shots, p))
        if hits == 0:
            continue
        shot_ids = rng.choice(shots, size=hits, replace=False)
        n_paulis = 3 if len(lq) == 1 else 15
        codes = rng.integers(1, n_paulis + 1, size=hits)
        for sh, code in zip(shot_ids, codes):
            events_by_shot[int(sh)].append((si, int(code)))

    patterns: dict[tuple[tuple[int, int], ...], int] = defaultdict(int)
    for evs in events_by_shot.values():
        patterns[tuple(sorted(evs))] += 1
    by_first_gate: dict[int, list[tuple[tuple[tuple[int, int], ...], int]]] = defaultdict(list)
    for pat, cnt in patterns.items():
        by_first_gate[sites[pat[0][0]][0]].append((pat, cnt))

    def inject(state: np.ndarray, site_idx: int, code: int) -> np.ndarray:
        lq = sites[site_idx][1]
        if len(lq) == 1:
            return _apply_1q(state, _PAULIS[code], lq[0])
        a, b = divmod(code, 4)
        if a:
            state = _apply_1q(state, _PAULIS[a], lq[0])
        if b:
            state = _apply_1q(state, _PAULIS[b], lq[1])
        return state

    def sample_outcomes(state: np.ndarray, count: int) -> np.ndarray:
        probs = np.abs(state.reshape(-1)) ** 2
        probs /= probs.sum()
        return rng.choice(probs.size, size=count, p=probs)

    drawn: list[np.ndarray] = []
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
    probs = counts / shots
    return _distribution_from_probs(probs, k, shots=shots)


def estimate_qpu_time(executable: Executable, cycle_ns: float, shots: int = 1) -> float:
    """Wall-time estimate in nanoseconds: output depth x cycle time x shots."""
    if cycle_ns <= 0 or shots < 1:
        raise SimulationError("cycle time must be positive and shots at least 1")
    return executable.d_out * cycle_ns * shots
