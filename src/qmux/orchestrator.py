"""Co-run selection: pick one executable per request slot so no two share qubits.

Feasibility is qubit-disjointness, plus an optional crosstalk veto: a
candidate is skipped when a flagged link connects one of its qubits to a
qubit some already-selected executable claims. The objective is the sum of
the chosen versions' ranks in their cost-ascending process lists (rank 1 is
each program's cheapest version), so lower is better and the all-ones vector
is the unconstrained ideal.

Claims are qubits, not unit ids: a unit id names a different qubit set in
each partition, so tables compiled at two unit sizes would otherwise share
qubits unseen. Within one partition units cover every qubit once and a
region is the union of its units, so there qubit-disjoint and unit-disjoint
are the same.

Claims are checked on integer bitmasks. Each region's qubit mask is
computed once and cached on the region (`Region.qubit_mask`), and each
process caches its versions' masks in rank order (`Process.claim_masks`),
so a stored table pays for them once across all requests. The selectors
carry one int: the qubits blocked so far, the OR of every placed region's
qubit mask and of the crosstalk map's flagged-partner masks of every placed
qubit. A candidate is feasible iff its qubit mask misses it, which
holds exactly when it shares no qubit with a placed region and no flagged
link joins it to a placed qubit, so the selections are those of a check over
claim sets and every flagged link.

A placed region's partner mask is only read by the slots after it, so
neither selector computes one for the last slot it fills. The exact search
revisits a region at every branch that places it, so it keeps a dict, made
afresh for each call, from region qubits to partner mask: each distinct
region is priced once per call, also when several slots offer it, as when
one program fills two slots. That dict is the only cache kept per request;
the map caches one flagged-partner mask per qubit on a flagged link
(`CrosstalkMap._partner_masks`), for as long as the map lives.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .compiler import Executable, Process
from .devices import CrosstalkMap
from .errors import OrchestrationConflict, OrchestrationTimeout, QmuxError

DEFAULT_TIMEOUT_S = 10.0

STRATEGIES = ("random", "small_first", "large_first", "brute_force")


@dataclass(slots=True)
class Selection:
    """One executable and its rank per request slot, in request order, and the search effort.

    A plain slotted record, built once per request: mutable and not hashable.
    """

    executables: tuple[Executable, ...]
    ranks: tuple[int, ...]
    strategy: str
    evaluations: int
    elapsed_s: float
    timed_out: bool = False
    # DFS nodes the exact search entered, root and complete leaves included;
    # 0 for the selectors that do not search.
    nodes: int = 0

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


def _ordered(processes: list[Process], strategy: str, seed: int) -> list[int]:
    """Slot indices in the order the strategy traverses them."""
    if strategy == "random":
        order = list(range(len(processes)))
        random.Random(seed).shuffle(order)
        return order
    # Stable sorts keep submission order between equal qubit counts.
    if strategy == "small_first":
        sizes = [p.num_qubits for p in processes]
    elif strategy == "large_first":
        sizes = [-p.num_qubits for p in processes]
    else:
        raise QmuxError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES[:3]}")
    return sorted(range(len(sizes)), key=sizes.__getitem__)


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
    blocked = 0
    evaluations = 0
    # No later slot reads the last slot's veto, so it is not computed.
    last = order[-1] if order else None
    for slot in order:
        proc = processes[slot]
        for rank, qubits in enumerate(proc.claim_masks, start=1):
            if not qubits & blocked:
                break
        else:
            raise OrchestrationConflict(proc.program_name, evaluations=evaluations + len(proc.claim_masks))
        # Versions are examined in rank order up to the first feasible one.
        evaluations += rank
        exe = proc.executables[rank - 1]
        executables[slot] = exe
        ranks[slot] = rank
        blocked |= qubits
        if crosstalk is not None and slot != last:
            blocked |= crosstalk.partners_of(exe.region.qubits)
    elapsed = time.perf_counter() - start
    return Selection(tuple(executables), tuple(ranks), strategy, evaluations, elapsed)


def select_brute_force(
    processes: list[Process],
    timeout_s: float = DEFAULT_TIMEOUT_S,
    crosstalk: CrosstalkMap | None = None,
) -> Selection:
    """Exact search for the conflict-free assignment with the least rank sum.

    Depth-first over rank vectors in lexicographic order. Only strictly
    better totals replace the incumbent, so the result is the
    lexicographically smallest optimum. A branch is cut once its partial sum
    plus rank 1 for every remaining slot cannot beat the incumbent. On
    timeout the incumbent is returned with timed_out set if one exists,
    otherwise OrchestrationTimeout is raised. A refused search, by
    OrchestrationTimeout or OrchestrationConflict, reports its `evaluations`
    (0, since any complete assignment is an incumbent) and `nodes` on the
    exception. A `timeout_s` that is negative or NaN is refused before the search.
    """
    if not timeout_s >= 0:  # NaN too: no time is ever past it
        raise QmuxError(f"timeout must be a non-negative number of seconds, got {timeout_s}")
    start = time.perf_counter()
    deadline = start + timeout_s
    n = len(processes)
    if n == 0:
        return Selection((), (), "brute_force", 0, 0.0)

    best_vec: list[int] | None = None
    best_cost = 0
    evaluations = nodes = 0
    timed_out = False

    stack_rank: list[int] = []
    # Region qubit mask -> flagged-partner mask, filled at the region's first
    # placement; it lives for this call only, as do these bindings.
    partner_masks: dict[int, int] = {}
    claim_masks = [p.claim_masks for p in processes]
    perf_counter = time.perf_counter
    last = n - 1

    def dfs(depth: int, partial: int, blocked: int) -> bool:
        """Returns True when the search should unwind due to timeout."""
        nonlocal best_vec, best_cost, evaluations, nodes, timed_out
        nodes += 1
        if perf_counter() > deadline:
            timed_out = True
            return True
        # The cheapest completion gives every later slot its rank 1.
        rest = last - depth
        for rank, qubits in enumerate(claim_masks[depth], start=1):
            if best_vec is not None and partial + rank + rest >= best_cost:
                break
            if qubits & blocked:
                continue
            if not rest:
                # A complete leaf, entered here rather than by a call: one
                # node, one deadline check, one combination scored. The bound
                # let it in, so it beats the incumbent, and now it cuts every
                # higher rank at this depth.
                nodes += 1
                if perf_counter() > deadline:
                    timed_out = True
                    return True
                evaluations += 1
                best_vec = [*stack_rank, rank]
                best_cost = partial + rank
                return False
            veto = blocked | qubits
            if crosstalk is not None:
                mask = partner_masks.get(qubits)
                if mask is None:
                    region = processes[depth].executables[rank - 1].region
                    mask = partner_masks[qubits] = crosstalk.partners_of(region.qubits)
                veto |= mask
            stack_rank.append(rank)
            stop = dfs(depth + 1, partial + rank, veto)
            stack_rank.pop()
            if stop:
                return True
        return False

    dfs(0, 0, 0)
    elapsed = time.perf_counter() - start

    if best_vec is None:
        if timed_out:
            raise OrchestrationTimeout(
                f"no feasible assignment within {timeout_s} s", evaluations=evaluations, nodes=nodes
            )
        raise OrchestrationConflict(evaluations=evaluations, nodes=nodes)
    executables = tuple(p.executables[r - 1] for p, r in zip(processes, best_vec))
    return Selection(executables, tuple(best_vec), "brute_force", evaluations, elapsed, timed_out, nodes)
