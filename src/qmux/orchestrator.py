"""Co-run selection: pick one executable per process so no two share units.

Feasibility is unit-disjointness, plus an optional crosstalk veto: a
candidate is skipped when a flagged link connects one of its qubits to a
qubit some already-selected executable claims. The objective is the sum of
the chosen versions' ranks in their cost-ascending process lists (rank 1 is
each program's cheapest version), so lower is better and the all-ones vector
is the unconstrained ideal.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .compiler import Executable, Process
from .devices import CrosstalkMap
from .errors import OrchestrationConflict, OrchestrationTimeout

_DEFAULT_TIMEOUT_S = 10.0

STRATEGIES = ("random", "small_first", "large_first", "brute_force")
OBJECTIVES = ("index_sum", "relative_rank")


@dataclass(frozen=True)
class Selection:
    """One executable per process, with the search effort it took."""

    chosen: dict[str, Executable]
    indices: dict[str, int]
    strategy: str
    evaluations: int
    elapsed_s: float
    timed_out: bool = False

    @property
    def index_sum(self) -> int:
        return sum(self.indices.values())

    def executables(self) -> list[Executable]:
        return list(self.chosen.values())


def _claims(executable: Executable) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(executable.region.unit_ids), frozenset(executable.region.qubits)


def _crosstalk_blocked(
    qubits: frozenset[int], claimed_qubits: frozenset[int], crosstalk: CrosstalkMap | None
) -> bool:
    if crosstalk is None or not claimed_qubits:
        return False
    for a, b in crosstalk.flagged:
        if (a in qubits and b in claimed_qubits) or (b in qubits and a in claimed_qubits):
            return True
    return False


def _feasible(
    executable: Executable,
    claimed_units: frozenset[int],
    claimed_qubits: frozenset[int],
    crosstalk: CrosstalkMap | None,
) -> bool:
    units, qubits = _claims(executable)
    if units & claimed_units:
        return False
    return not _crosstalk_blocked(qubits, claimed_qubits, crosstalk)


def _ordered(processes: list[Process], strategy: str, seed: int) -> list[Process]:
    if strategy == "random":
        order = list(processes)
        random.Random(seed).shuffle(order)
        return order
    # Stable sorts keep submission order between equal qubit counts.
    if strategy == "small_first":
        return sorted(processes, key=lambda p: p.num_qubits)
    if strategy == "large_first":
        return sorted(processes, key=lambda p: -p.num_qubits)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES[:3]}")


def select_heuristic(
    processes: list[Process],
    strategy: str = "small_first",
    seed: int = 0,
    crosstalk: CrosstalkMap | None = None,
) -> Selection:
    """Greedy one-pass selection in a strategy-defined program order.

    Each program takes its cheapest feasible version given what earlier
    programs claimed, so the first-traversed program always gets its rank-1
    executable. Examines at most sum(K_i) candidates. Raises
    OrchestrationConflict naming the program that ran out of versions.
    """
    start = time.perf_counter()
    order = _ordered(processes, strategy, seed)
    chosen: dict[str, Executable] = {}
    indices: dict[str, int] = {}
    claimed_units: frozenset[int] = frozenset()
    claimed_qubits: frozenset[int] = frozenset()
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
    elapsed = time.perf_counter() - start
    return Selection(chosen, indices, strategy, evaluations, elapsed)


def select_brute_force(
    processes: list[Process],
    timeout_s: float = _DEFAULT_TIMEOUT_S,
    pure: bool = False,
    crosstalk: CrosstalkMap | None = None,
    objective: str = "index_sum",
) -> Selection:
    """Exhaustive search for the minimum-cost conflict-free assignment.

    Depth-first over index vectors in lexicographic order. Only strictly
    better totals replace the incumbent, so the result is the
    lexicographically smallest optimum. A partial-sum bound prunes branches
    that cannot win; pure=True disables pruning and walks the whole product
    space, useful as an oracle. On timeout the incumbent is returned with
    timed_out set if one exists, otherwise OrchestrationTimeout is raised.

    objective "index_sum" minimizes the sum of 1-based ranks; "relative_rank"
    minimizes the sum of rank/K_i, favoring positions near each process's
    own front rather than absolute ones.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    start = time.perf_counter()
    deadline = start + timeout_s
    n = len(processes)
    if n == 0:
        return Selection({}, {}, "brute_force", 0, 0.0)

    # A version's cost is rank / div: the rank itself for index_sum, rank / K_i
    # for relative_rank.
    if objective == "index_sum":
        div = [1] * n
        eps = 0.0
    else:
        div = [len(p.executables) for p in processes]
        eps = 1e-12
    # Cheapest possible completion from each depth: every remaining process
    # contributes its rank-1 cost.
    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + 1 / div[i]

    best_vec: list[int] | None = None
    best_cost = 0.0
    evaluations = 0
    timed_out = False

    stack_rank: list[int] = []
    claim_units: list[frozenset[int]] = [frozenset()]
    claim_qubits: list[frozenset[int]] = [frozenset()]

    def dfs(depth: int, partial: float) -> bool:
        """Returns True when the search should unwind due to timeout."""
        nonlocal best_vec, best_cost, evaluations, timed_out
        if time.perf_counter() > deadline:
            timed_out = True
            return True
        if depth == n:
            # One complete combination scored; the count stays under the
            # product of the per-process version counts.
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


@dataclass(frozen=True)
class CostReport:
    """How much cheaper runtime selection was than a compile-time reference."""

    crf: float
    reference_s: float
    elapsed_s: float
    evaluations: int


def orchestration_cost_report(selection: Selection, compile_time_reference_s: float) -> CostReport:
    """Cost-reduction factor: reference compile time over selection time.

    A zero elapsed time is clamped to the timer resolution so the ratio
    stays finite.
    """
    if compile_time_reference_s <= 0:
        raise ValueError("compile-time reference must be positive")
    floor = max(time.get_clock_info("perf_counter").resolution, 1e-9)
    elapsed = max(selection.elapsed_s, floor)
    return CostReport(
        crf=compile_time_reference_s / elapsed,
        reference_s=compile_time_reference_s,
        elapsed_s=selection.elapsed_s,
        evaluations=selection.evaluations,
    )
