"""Dense statevector simulation, with and without device noise.

The ideal paths evolve the full statevector and read the measurement
distribution off the amplitudes. The noisy path is a per-shot trajectory
sampler: after every gate a depolarizing error may fire (qubit error rate for
one-qubit gates, link error rate for CNOTs, optionally amplified by
crosstalk), and readout bits flip independently at the end. Shots sharing an
error pattern share one trajectory, so the common zero-error case costs a
single evolution regardless of shot count.

All trajectories of one run are evolved together as the rows of one stacked
state of shape (rows, 2, ..., 2): row 0 is the error-free trajectory, and
each error pattern joins the stack as a copy of row 0 at the gate of its
first error. The stack is allocated once per batch with a row for every
pattern, and each gate acts in place on the prefix of rows in use. A stack
holds at most `_BATCH_AMPLITUDES` amplitudes (16 MiB of complex128); more
trajectories run as consecutive batches, each with its own error-free row.
Every entry point takes one path: a frame of local qubit indices (the one
check of the qubit cap), one list of the gates that act on the state, this
evolution (a noiseless run is row 0 alone), and for executables one
read-out from local indices to logical register order.

Each gate is one kernel call on the rows in use. `x`, `cx` and `swap` only
move amplitudes, so they exchange two slices of the stack and do no
arithmetic. Every other gate makes the one matrix product that
`np.tensordot` would make (the gate's axes moved to the front and the rest
flattened), and writes the result back in place. Error patterns are grouped
with numpy sorts, and each site's Pauli errors are applied to all the rows
that take one by a single gather, batched product and scatter. Amplitudes
and the order of random draws are the same as evolving each trajectory on
its own with `np.tensordot`.

Bitstring convention: character i of an outcome corresponds to qubit i.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate
from .compiler import Executable
from .devices import CrosstalkMap, DeviceGraph
from .errors import SimulationError, TopologyMismatch

_MAX_QUBITS = 14
_PROB_FLOOR = 1e-16
_ERROR_CAP = 0.999
_BATCH_AMPLITUDES = 2**20

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
# Gates that only move amplitudes between basis states; they are applied by
# exchanging slices, which is exact.
_PERMUTATIONS = frozenset({"x", "cx", "swap"})

# Pauli error operators indexed by error code: I, X, Y, Z for one qubit, and
# for two the 16 products P[a] (x) P[b] with code = 4a + b. Their entries are
# 0, +-1 and +-i, so applying one is exact in floating point.
_PAULIS_1Q = np.stack([np.eye(2, dtype=complex), _FIXED_1Q["x"], _FIXED_1Q["y"], _FIXED_1Q["z"]])
_PAULIS = {1: _PAULIS_1Q, 2: np.stack([np.kron(a, b) for a in _PAULIS_1Q for b in _PAULIS_1Q])}


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


# The axis and slice caches below stay small: states have at most 15 axes and
# gates one or two operands.
@lru_cache(maxsize=None)
def _gate_axes_first(ndim: int, qubits: tuple[int, ...]) -> tuple[int, ...]:
    """Axis order of a stacked state that puts the axes of `qubits` first, the rest in order."""
    lead = tuple(q + 1 for q in qubits)
    return lead + tuple(a for a in range(ndim) if a not in lead)


@lru_cache(maxsize=None)
def _rows_then_gate_axes(ndim: int, qubits: tuple[int, ...]) -> tuple[int, ...]:
    """Axis order that keeps the row axis first and puts the axes of `qubits` next."""
    return (0,) + tuple(a for a in _gate_axes_first(ndim, qubits) if a)


def _apply(state: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> None:
    """Apply a one- or two-qubit unitary to every row of a (rows, 2, ..., 2) state, in place.

    This is the matrix product `np.tensordot` makes for the same contraction,
    on the same operand values, so the amplitudes equal tensordot's; the
    ideal-distribution equivalence tests compare them with `==`.
    """
    moved = state.transpose(_gate_axes_first(state.ndim, qubits))
    out = np.dot(u, moved.reshape(len(u), -1))
    moved[...] = out.reshape(moved.shape)


@lru_cache(maxsize=None)
def _swapped_slices(ndim: int, name: str, qubits: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The two index tuples whose slices a permutation gate exchanges."""
    lo, hi = [slice(None)] * ndim, [slice(None)] * ndim
    if name == "x":
        lo[qubits[0] + 1], hi[qubits[0] + 1] = 0, 1
    elif name == "cx":
        control, target = qubits[0] + 1, qubits[1] + 1
        lo[control] = hi[control] = 1
        lo[target], hi[target] = 0, 1
    else:  # swap
        a, b = qubits[0] + 1, qubits[1] + 1
        lo[a], lo[b] = 0, 1
        hi[a], hi[b] = 1, 0
    return tuple(lo), tuple(hi)


def _permute(state: np.ndarray, name: str, qubits: tuple[int, ...]) -> None:
    """Apply `x`, `cx` or `swap` to every row of a stacked state by moving amplitudes, in place."""
    lo, hi = _swapped_slices(state.ndim, name, qubits)
    kept = state[lo].copy()
    state[lo] = state[hi]
    state[hi] = kept


def _inject(state: np.ndarray, qubits: tuple[int, ...], rows: np.ndarray, codes: np.ndarray) -> None:
    """Apply the Pauli error `codes[i]` on `qubits` to row `rows[i]`, in place."""
    moved = state.transpose(_rows_then_gate_axes(state.ndim, qubits))
    sub = moved[rows]
    paulis = _PAULIS[len(qubits)][codes]
    out = paulis @ sub.reshape(len(rows), len(paulis[0]), -1)
    moved[rows] = out.reshape(sub.shape)


@dataclass(frozen=True)
class SimulationStats:
    """The work one noisy simulation did.

    `trajectories` counts the statevector rows evolved: every error pattern
    once, plus the error-free row that each batch evolves afresh.
    `error_events` counts the (shot, gate) errors drawn.
    """

    trajectories: int
    batches: int
    error_events: int


@dataclass(frozen=True)
class Distribution:
    """Measurement distribution; optionally backed by a finite shot count.

    `stats` reports how a noisy simulation produced it. It takes no part in
    equality, so a distribution equals another with the same outcomes.
    """

    outcomes: dict[str, float]
    width: int
    shots: int | None = None
    stats: SimulationStats | None = field(default=None, compare=False)

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


def _distribution_from_probs(
    probs: np.ndarray, width: int, shots: int | None = None, stats: SimulationStats | None = None
) -> Distribution:
    outcomes = {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(probs)
        if p > _PROB_FLOOR
    }
    return Distribution(outcomes, width=width, shots=shots, stats=stats)


def _frame(name: str, touched) -> tuple[list[int], dict[int, int]]:
    """The qubits a run touches, ascending, and the dense local index of each."""
    order = sorted(touched)
    if len(order) > _MAX_QUBITS:
        raise SimulationError(f"{name}: {len(order)} qubits exceed the {_MAX_QUBITS}-qubit dense limit")
    return order, {p: i for i, p in enumerate(order)}


def _local_frame(executable: Executable) -> tuple[list[int], dict[int, int]]:
    """The frame of the physical qubits an executable touches."""
    touched: set[int] = set(executable.layout) | set(executable.final_layout)
    for g in executable.routed_gates:
        touched.update(g.qubits)
    return _frame(executable.program_name, touched)


# (gate, local operands, unitary) of one gate that acts on the state.
_Op = tuple[Gate, tuple[int, ...], np.ndarray]
# (position in the op list, local operands, error probability) of one gate that can err.
_Site = tuple[int, tuple[int, ...], float]


def _ops(gates, loc: dict[int, int]) -> list[_Op]:
    """The `_Op` of each gate that acts on the state, in order.

    List positions are the gate indices that error sites name.
    """
    return [
        (g, tuple(loc[q] for q in g.qubits), gate_unitary(g.name, g.params))
        for g in gates
        if g.name not in ("barrier", "measure")
    ]


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a 1-D array that begin a run of equal values."""
    heads = np.ones(len(values), dtype=bool)
    heads[1:] = values[1:] != values[:-1]
    return heads


_NO_PATTERNS = np.zeros((0, 1), dtype=np.int64)


def _schedule(sites: Sequence[_Site], patterns: np.ndarray) -> tuple[dict, dict]:
    """After which gate each pattern's row joins the stack, and the errors each gate injects.

    `patterns` are sorted rows of `_error_patterns`, so their first-error
    gates ascend and the rows in use at any gate are a prefix of the stack.
    """
    # After gate g, the rows of every pattern whose first error is at g are in use.
    first_gate = [sites[si][0] for si in (patterns[:, 0] >> 4).tolist()]
    joins = {gi: row for row, gi in enumerate(first_gate, start=2)}

    # Each site's events, rows ascending, for one gather-multiply-scatter each.
    in_pattern = patterns >= 0
    events = patterns[in_pattern]
    order = np.argsort(events >> 4, kind="stable")
    events, rows = events[order], np.nonzero(in_pattern)[0][order] + 1
    site = events >> 4
    starts = np.flatnonzero(_run_heads(site)).tolist()
    injections = {}
    for a, b in zip(starts, starts[1:] + [len(site)]):
        gi, lq, _ = sites[site[a]]
        injections[gi] = (lq, rows[a:b], events[a:b] & 15)
    return joins, injections


def _evolve_rows(
    t: int,
    ops: list[_Op],
    sites: Sequence[_Site] = (),
    patterns: np.ndarray = _NO_PATTERNS,
) -> np.ndarray:
    """Outcome probabilities of the error-free trajectory (row 0) and of each pattern.

    With no pattern this is the noiseless evolution. The stack is allocated
    once; a pattern's row joins as a copy of row 0 after the gate of its
    first error.
    """
    joins, injections = _schedule(sites, patterns) if len(patterns) else ({}, {})
    stack = np.zeros((1 + len(patterns),) + (2,) * t, dtype=complex)
    stack.flat[0] = 1.0
    state = stack[:1]
    for gi, (g, lq, u) in enumerate(ops):
        if g.name in _PERMUTATIONS:
            _permute(state, g.name, lq)
        else:
            _apply(state, u, lq)
        active = joins.get(gi)
        if active is not None:
            stack[len(state) : active] = stack[0]
            state = stack[:active]
        hit = injections.get(gi)
        if hit is not None:
            _inject(state, *hit)
    return np.abs(stack.reshape(len(stack), -1)) ** 2


def _logical_counts(
    executable: Executable, loc: dict[int, int], local: np.ndarray, weights=None, flips=None
) -> np.ndarray:
    """Total weight (or count) of each logical outcome over the local basis indices `local`.

    Logical qubit q, bit q of the register from the most significant end, is
    read at its final home; `flips[q]`, when given, flips that bit entry by entry.
    """
    t, k = len(loc), executable.num_qubits
    logical = np.zeros(len(local), dtype=np.int64)
    for q, home in enumerate(executable.final_layout):
        bit = (local >> (t - 1 - loc[home])) & 1
        if flips is not None:
            bit ^= flips[q]
        logical |= bit << (k - 1 - q)
    return np.bincount(logical, weights=weights, minlength=1 << k)


def simulate_ideal(circuit: Circuit) -> Distribution:
    """Exact measurement distribution over all qubits of a noiseless run."""
    order, loc = _frame(circuit.name, range(circuit.num_qubits))
    probs = _evolve_rows(len(order), _ops(circuit.gates, loc))[0]
    return _distribution_from_probs(probs, circuit.num_qubits)


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


def ideal_executable_distribution(executable: Executable) -> Distribution:
    """Noiseless run of the routed gates, un-permuted to logical order.

    Matches simulate_ideal of the source program whenever routing preserved
    the circuit's semantics.
    """
    order, loc = _local_frame(executable)
    probs = _evolve_rows(len(order), _ops(executable.routed_gates, loc))[0]
    counts = _logical_counts(executable, loc, np.arange(probs.size), weights=probs)
    return _distribution_from_probs(counts, executable.num_qubits)


def _crosstalk_factor(link: tuple[int, int], noise: NoiseSpec) -> float:
    """Largest amplification over flagged links bridging this link to co-runners."""
    if noise.crosstalk is None or not noise.co_claimed:
        return 1.0
    factor = 1.0
    for (u, v), f in noise.crosstalk.amplification.items():
        if (u in link and v in noise.co_claimed) or (v in link and u in noise.co_claimed):
            factor = max(factor, f)
    return factor


def _error_sites(
    executable: Executable, ops: list[_Op], noise: NoiseSpec, device: DeviceGraph
) -> list[_Site]:
    """The `_Site` of every gate that can err.

    Each gate is at most one site, so sites come in ascending gate order.
    """
    factors: dict[tuple[int, int], float] = {}
    sites = []
    for gi, (g, lq, _) in enumerate(ops):
        if len(g.qubits) == 1:
            p = device.qubit_error[g.qubits[0]]
        else:
            link = tuple(sorted(g.qubits))
            error = device.link_error.get(link)
            if error is None:
                a, b = g.qubits
                raise TopologyMismatch(
                    f"{executable.program_name}: routed {g.name} on qubits {a} and {b} needs a link "
                    f"that {device.name} does not have"
                )
            if g.name == "cx":
                if link not in factors:
                    factors[link] = _crosstalk_factor(link, noise)
                p = min(error * factors[link], _ERROR_CAP)
            else:
                p = 0.0
        if p > 0.0:
            sites.append((gi, lq, p))
    return sites


def _error_patterns(
    hit_sites: list[int], shot_ids: list[np.ndarray], codes: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct per-shot error patterns, sorted, and how many shots take each.

    `shot_ids[i]` and `codes[i]` are the shots that err at site `hit_sites[i]`
    and their Pauli codes. Each row of the first array returned is one
    pattern: its events, encoded as `site << 4 | code`, in site order and
    padded with -1. Since codes are below 16, the rows sort as the patterns'
    (site, code) tuples do, a pattern before any longer one it begins.
    """
    if not hit_sites:
        return _NO_PATTERNS, np.zeros(0, dtype=np.int64)
    shot = np.concatenate(shot_ids)
    site = np.repeat(hit_sites, [len(ids) for ids in shot_ids])
    event = site << 4 | np.concatenate(codes)
    # Events by shot, then by site; a shot's events then form one pattern.
    order = np.lexsort((site, shot))
    shot, event = shot[order], event[order]
    new_shot = _run_heads(shot)
    starts = np.flatnonzero(new_shot)
    which = np.cumsum(new_shot) - 1
    position = np.arange(len(shot)) - starts[which]
    padded = np.full((len(starts), position.max() + 1), -1, dtype=np.int64)
    padded[which, position] = event
    # Sort the patterns (first column most significant) and count repeats.
    padded = padded[np.lexsort(padded.T[::-1])]
    firsts = np.flatnonzero(np.concatenate(([True], (padded[1:] != padded[:-1]).any(axis=1))))
    return padded[firsts], np.diff(firsts, append=len(padded))


def simulate_noisy(executable: Executable, noise: NoiseSpec, device: DeviceGraph) -> Distribution:
    """Monte-Carlo trajectory sampling of an executable under device noise.

    Per shot: each one-qubit gate may inject a uniform non-identity Pauli with
    its qubit's error rate, each CNOT with its link's (possibly crosstalk
    amplified) error rate, and readout flips each measured bit with that
    qubit's readout error. Outcomes are reported in logical register order,
    and `stats` on the result counts the trajectories, batches and error
    events. Deterministic for a fixed (executable, NoiseSpec, device).

    An executable whose region has qubits, or whose routed gates need links,
    that `device` lacks raises TopologyMismatch.
    """
    if executable.region.qubit_mask >> device.num_qubits:
        outside = sorted(q for q in executable.region.qubits if q >= device.num_qubits)
        raise TopologyMismatch(
            f"{executable.program_name}: region qubits {', '.join(map(str, outside))} are not on "
            f"{device.name}, which has {device.num_qubits} qubits"
        )
    order, loc = _local_frame(executable)
    t = len(order)
    shots = noise.shots
    rng = np.random.default_rng(noise.seed)
    ops = _ops(executable.routed_gates, loc)
    sites = _error_sites(executable, ops, noise, device)

    # Sample which shots take an error at which site, then group identical
    # patterns so each distinct trajectory is evolved once.
    hit_sites, shot_ids, codes = [], [], []
    for si, (_, lq, p) in enumerate(sites):
        hits = int(rng.binomial(shots, p))
        if hits == 0:
            continue
        hit_sites.append(si)
        shot_ids.append(rng.choice(shots, size=hits, replace=False))
        n_paulis = 3 if len(lq) == 1 else 15
        codes.append(rng.integers(1, n_paulis + 1, size=hits))
    patterns, repeats = _error_patterns(hit_sites, shot_ids, codes)
    clean = shots - int(repeats.sum())

    # Outcomes are drawn by inverse CDF, pattern by pattern in sorted order and
    # the error-free shots last: the same uniforms, in the same order, that
    # Generator.choice(p=...) would draw for each trajectory in turn.
    uniforms = rng.random(shots)
    per_batch = (_BATCH_AMPLITUDES >> t) - 1
    drawn: list[np.ndarray] = []
    used = 0
    # With no error pattern, one empty batch still evolves the error-free row.
    batch_starts = range(0, len(patterns), per_batch) or range(1)
    for b in batch_starts:
        probs = _evolve_rows(t, ops, sites, patterns[b : b + per_batch])
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for row, count in enumerate(repeats[b : b + per_batch].tolist(), start=1):
            drawn.append(cdf[row].searchsorted(uniforms[used : used + count], side="right"))
            used += count
    if clean:
        drawn.append(cdf[0].searchsorted(uniforms[used:], side="right"))

    # Readout flips are drawn after every outcome, one array per logical qubit in order.
    readout = [device.readout_error[home] for home in executable.final_layout]
    flips = [rng.random(shots) < p if p > 0.0 else 0 for p in readout]
    counts = _logical_counts(executable, loc, np.concatenate(drawn), flips=flips)
    stats = SimulationStats(
        trajectories=len(patterns) + len(batch_starts),
        batches=len(batch_starts),
        error_events=sum(len(ids) for ids in shot_ids),
    )
    return _distribution_from_probs(counts / shots, executable.num_qubits, shots=shots, stats=stats)
