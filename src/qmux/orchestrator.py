"""Co-run selection: pick one executable per request slot so no two share units.

Feasibility is unit-disjointness, plus an optional crosstalk veto: a
candidate is skipped when a flagged link connects one of its qubits to a
qubit some already-selected executable claims. The objective is the sum of
the chosen versions' ranks in their cost-ascending process lists (rank 1 is
each program's cheapest version), so lower is better and the all-ones vector
is the unconstrained ideal.

Claims are checked on integer bitmasks. Each region's unit and qubit masks
are computed once and cached on the region (`Process.claim_masks` lists them
per version), so a stored table pays for them once across all requests. The
selectors carry two ints: the units claimed so far, and the qubits forbidden
so far, the OR of the crosstalk map's flagged-partner masks of every placed
qubit. A candidate is feasible iff its unit mask misses the first and its
qubit mask misses the second, which holds exactly when no flagged link joins
it to a placed qubit, so the selections are those of a check over claim sets
and every flagged link.
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
    """One executable and its rank per request slot, in request order, and the search effort."""

    executables: tuple[Executable, ...]
    ranks: tuple[int, ...]
    strategy: str
    evaluations: int
    elapsed_s: float
    timed_out: bool = False

    @property
    def index_sum(self) -> int:
        return sum(self.ranks)

    @property
    def chosen(self) -> dict[str, Executable]:
        """The executables by program name; raises if a program fills two slots."""
        return self._by_name(self.executables)

    @property
    def indices(self) -> dict[str, int]:
        """The ranks by program name; raises if a program fills two slots."""
        return self._by_name(self.ranks)

    def _by_name(self, values: tuple) -> dict:
        view = {exe.program_name: v for exe, v in zip(self.executables, values)}
        if len(view) < len(self.executables):
            raise ValueError("a program fills more than one slot; read the per-slot fields")
        return view


def _ordered(processes: list[Process], strategy: str, seed: int) -> list[tuple[int, Process]]:
    """(slot, process) pairs in the order the strategy traverses them."""
    order = list(enumerate(processes))
    if strategy == "random":
        random.Random(seed).shuffle(order)
        return order
    # Stable sorts keep submission order between equal qubit counts.
    if strategy == "small_first":
        return sorted(order, key=lambda slot: slot[1].num_qubits)
    if strategy == "large_first":
        return sorted(order, key=lambda slot: -slot[1].num_qubits)
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
    executables = [None] * len(processes)
    ranks = [0] * len(processes)
    claimed = forbidden = 0
    evaluations = 0
    for slot, proc in order:
        for rank, (units, qubits) in enumerate(proc.claim_masks, start=1):
            if not (units & claimed or qubits & forbidden):
                break
        else:
            raise OrchestrationConflict(proc.program_name)
        # Versions are examined in rank order up to the first feasible one.
        evaluations += rank
        exe = proc.executables[rank - 1]
        executables[slot] = exe
        ranks[slot] = rank
        claimed |= units
        if crosstalk is not None:
            forbidden |= crosstalk.partners_of(exe.region.qubits)
    elapsed = time.perf_counter() - start
    return Selection(tuple(executables), tuple(ranks), strategy, evaluations, elapsed)


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
        return Selection((), (), "brute_force", 0, 0.0)

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

    def dfs(depth: int, partial: float, claimed: int, forbidden: int) -> bool:
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
        d, rest = div[depth], suffix_min[depth + 1]
        for rank, (units, qubits) in enumerate(proc.claim_masks, start=1):
            step = rank / d
            if not pure and best_vec is not None and partial + step + rest >= best_cost + eps:
                break
            if units & claimed or qubits & forbidden:
                continue
            veto = forbidden
            if crosstalk is not None:
                veto |= crosstalk.partners_of(proc.executables[rank - 1].region.qubits)
            stack_rank.append(rank)
            stop = dfs(depth + 1, partial + step, claimed | units, veto)
            stack_rank.pop()
            if stop:
                return True
        return False

    dfs(0, 0.0, 0, 0)
    elapsed = time.perf_counter() - start

    if best_vec is None:
        if timed_out:
            raise OrchestrationTimeout(f"no feasible assignment within {timeout_s} s")
        raise OrchestrationConflict()
    executables = tuple(p.executables[r - 1] for p, r in zip(processes, best_vec))
    return Selection(executables, tuple(best_vec), "brute_force", evaluations, elapsed, timed_out=timed_out)
