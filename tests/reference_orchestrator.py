"""Frozen set-based selectors that the mask-based ones in qmux must match.

This is the straightforward form of runtime selection: every candidate
check builds the executable's unit and qubit claim sets, tests them against
the union of what is already placed, and scans every flagged link of the
crosstalk map. The greedy strategies, the exhaustive search (same search
order, bound, strict-improvement rule and per-node deadline check) and the
harness's fidelity-blind vanilla pick are kept here, so the package's
selectors can be compared field by field on the same inputs.

Only the result and error types come from qmux; the claim checks and the
search logic here are independent of the package's.
"""

from __future__ import annotations

import random
import time

from qmux.errors import OrchestrationConflict, OrchestrationTimeout
from qmux.orchestrator import OBJECTIVES, STRATEGIES, Selection


def _claims(executable):
    return frozenset(executable.region.unit_ids), frozenset(executable.region.qubits)


def _crosstalk_blocked(qubits, claimed_qubits, crosstalk):
    if crosstalk is None or not claimed_qubits:
        return False
    for a, b in crosstalk.flagged:
        if (a in qubits and b in claimed_qubits) or (b in qubits and a in claimed_qubits):
            return True
    return False


def _feasible(executable, claimed_units, claimed_qubits, crosstalk):
    units, qubits = _claims(executable)
    if units & claimed_units:
        return False
    return not _crosstalk_blocked(qubits, claimed_qubits, crosstalk)


def _ordered(processes, strategy, seed):
    if strategy == "random":
        order = list(processes)
        random.Random(seed).shuffle(order)
        return order
    if strategy == "small_first":
        return sorted(processes, key=lambda p: p.num_qubits)
    if strategy == "large_first":
        return sorted(processes, key=lambda p: -p.num_qubits)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES[:3]}")


def select_heuristic(processes, strategy="small_first", seed=0, crosstalk=None):
    start = time.perf_counter()
    order = _ordered(processes, strategy, seed)
    chosen, indices = {}, {}
    claimed_units = frozenset()
    claimed_qubits = frozenset()
    evaluations = 0
    for proc in order:
        picked = None
        for rank, exe in enumerate(proc.executables, start=1):
            evaluations += 1
            if _feasible(exe, claimed_units, claimed_qubits, crosstalk):
                picked = (rank, exe)
                break
        if picked is None:
            raise OrchestrationConflict(proc.program_name)
        rank, exe = picked
        chosen[proc.program_name] = exe
        indices[proc.program_name] = rank
        units, qubits = _claims(exe)
        claimed_units |= units
        claimed_qubits |= qubits
    return Selection(chosen, indices, strategy, evaluations, time.perf_counter() - start)


def select_brute_force(processes, timeout_s=10.0, pure=False, crosstalk=None, objective="index_sum"):
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    start = time.perf_counter()
    deadline = start + timeout_s
    n = len(processes)
    if n == 0:
        return Selection({}, {}, "brute_force", 0, 0.0)
    if objective == "index_sum":
        div = [1] * n
        eps = 0.0
    else:
        div = [len(p.executables) for p in processes]
        eps = 1e-12
    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + 1 / div[i]

    best_vec = None
    best_cost = 0.0
    evaluations = 0
    timed_out = False
    stack_rank = []
    claim_units = [frozenset()]
    claim_qubits = [frozenset()]

    def dfs(depth, partial):
        nonlocal best_vec, best_cost, evaluations, timed_out
        if time.perf_counter() > deadline:
            timed_out = True
            return True
        if depth == n:
            evaluations += 1
            if best_vec is None or partial < best_cost:
                best_vec = list(stack_rank)
                best_cost = partial
            return False
        proc = processes[depth]
        for rank, exe in enumerate(proc.executables, start=1):
            step = rank / div[depth]
            if (
                not pure
                and best_vec is not None
                and partial + step + suffix_min[depth + 1] >= best_cost + eps
            ):
                break
            if not _feasible(exe, claim_units[-1], claim_qubits[-1], crosstalk):
                continue
            units, qubits = _claims(exe)
            stack_rank.append(rank)
            claim_units.append(claim_units[-1] | units)
            claim_qubits.append(claim_qubits[-1] | qubits)
            stop = dfs(depth + 1, partial + step)
            stack_rank.pop()
            claim_units.pop()
            claim_qubits.pop()
            if stop:
                return True
        return False

    dfs(0, 0.0)
    elapsed = time.perf_counter() - start
    if best_vec is None:
        if timed_out:
            raise OrchestrationTimeout(f"no feasible assignment within {timeout_s} s")
        raise OrchestrationConflict()
    chosen = {p.program_name: p.executables[r - 1] for p, r in zip(processes, best_vec)}
    indices = {p.program_name: r for p, r in zip(processes, best_vec)}
    return Selection(chosen, indices, "brute_force", evaluations, elapsed, timed_out=timed_out)


def select_vanilla(processes, seed):
    """The harness's vanilla mode: a seeded uniform pick among still-feasible versions."""
    start = time.perf_counter()
    rng = random.Random(seed)
    chosen, indices = {}, {}
    claimed_units = frozenset()
    claimed_qubits = frozenset()
    evaluations = 0
    for proc in processes:
        feasible = []
        for rank, exe in enumerate(proc.executables, start=1):
            evaluations += 1
            if _feasible(exe, claimed_units, claimed_qubits, None):
                feasible.append((rank, exe))
        if not feasible:
            raise OrchestrationConflict(proc.program_name)
        rank, exe = rng.choice(feasible)
        chosen[proc.program_name] = exe
        indices[proc.program_name] = rank
        units, qubits = _claims(exe)
        claimed_units |= units
        claimed_qubits |= qubits
    return Selection(chosen, indices, "vanilla", evaluations, time.perf_counter() - start)
