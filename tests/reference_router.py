"""Frozen single-pass router that the two-step one in qmux.compiler must match.

This is the straightforward form of region-confined routing: every pass,
forward or backward, sweeps the full gate DAG, one-qubit gates, measures and
barriers included, and scores a swap wherever the whole front is blocked. A
forward pass records its ops as it goes, and `_materialize` turns them into
gates. Region contexts are keyed by physical qubit ids throughout. Seed
placement, the three refinement cycles and their memo of passes are kept as
they were, so `reference_compile` returns what `compile_on_region` must.

Only the gate and circuit types, the interaction order and the utilities
come from qmux; the contexts, placement and routing here are independent of
the package's. Slow is fine.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice

from qmux.circuits import Gate, decompose_swaps, gate_list_depth
from qmux.compiler import _placement_order
from qmux.devices import qubit_utility
from qmux.errors import CompileError

_LOOKAHEAD = 20
_EXTENDED_WEIGHT = 0.5
_DECAY_STEP = 0.001
_REFINEMENT_PASSES = 3


class _RegionContext:
    """Region-local adjacency, qubit utilities, the region's utility and
    error-weighted all-pairs distances, keyed by physical qubit id."""

    def __init__(self, region, device):
        self.qubits = sorted(region.qubits)
        self.adj: dict[int, set[int]] = {q: set() for q in self.qubits}
        self.incident: dict[int, list[tuple[int, int]]] = {q: [] for q in self.qubits}
        weight: dict[tuple[int, int], float] = {}
        for a, b in device.links:
            if a in region.qubits and b in region.qubits:
                self.adj[a].add(b)
                self.adj[b].add(a)
                self.incident[a].append((a, b))
                self.incident[b].append((a, b))
                weight[(a, b)] = weight[(b, a)] = -math.log1p(-device.error_of(a, b))
        self.dist = {q: self._dijkstra(q, weight) for q in self.qubits}
        self.utility = {q: qubit_utility(device, q) for q in self.qubits}
        self.region_utility = 0.0
        for q in self.qubits:
            self.region_utility += self.utility[q]

    def _dijkstra(self, src, weight):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist.get(v, math.inf):
                continue
            for u in self.adj[v]:
                nd = d + weight[(v, u)]
                if nd < dist.get(u, math.inf):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return dist

    def adjacent(self, a, b):
        return b in self.adj[a]


class _GateDag:
    """An ordered gate list as operand tuples, two-qubit flags and dependencies.

    Routing a DAG whose `record` is false keeps only the final layout and swap
    count, and returns no ops.
    """

    def __init__(self, gates: tuple[Gate, ...], record: bool = True):
        self.gates = gates
        self.record = record
        self.qubits = [g.qubits for g in gates]
        self.two = [g.is_two_qubit for g in gates]
        self.twos = [i for i, t in enumerate(self.two) if t]
        n = len(gates)
        last_on: dict[int, int] = {}
        self.succs: list[list[int]] = [[] for _ in range(n)]
        self.blockers = [0] * n
        for i, qs in enumerate(self.qubits):
            for q in qs:
                if q in last_on:
                    self.succs[last_on[q]].append(i)
                    self.blockers[i] += 1
                last_on[q] = i
        self.roots = [i for i in range(n) if self.blockers[i] == 0]


class _Program:
    def __init__(self, circuit):
        src = decompose_swaps(circuit)
        self.d_in = gate_list_depth(src.gates)
        self.forward = _GateDag(src.gates)
        self.backward = _GateDag(src.gates[::-1], record=False)
        self.order, self.partners = _placement_order(src)
        self.gates: dict[tuple, Gate] = {}


def _seed_layout(program, ctx):
    util = ctx.utility
    homes: dict[int, int] = {}
    used: set[int] = set()
    for q in program.order:
        free = [p for p in ctx.qubits if p not in used]
        partners = [homes[p] for p in program.partners[q] if p in homes]
        if partners:
            def score(p):
                links = sum(1 for pp in partners if ctx.adjacent(p, pp))
                spread = 0.0
                for pp in partners:
                    spread += ctx.dist[p][pp]
                return (-links, spread, -util[p], p)

            best = min(free, key=score)
        else:
            best = max(free, key=lambda p: (util[p], -p))
        homes[q] = best
        used.add(best)
    return tuple(homes[q] for q in range(len(program.order)))


def _route_gates(dag: _GateDag, layout, ctx: _RegionContext):
    """Greedy swap-insertion routing of an already-placed gate list.

    Returns (ops, final layout, swap count). Each op is (gate index, physical
    operands) for a routed gate, or (-1, (p0, p1)) for a SWAP; `_materialize`
    turns them into gates, so passes that only need the layout build none.
    A DAG that does not record gets an empty op list.
    """
    qubits, two, twos, succs, record = dag.qubits, dag.two, dag.twos, dag.succs, dag.record
    adj, dist, incident = ctx.adj, ctx.dist, ctx.incident
    layout = list(layout)
    p2l = {p: l for l, p in enumerate(layout)}

    n = len(qubits)
    blockers = list(dag.blockers)
    front = list(dag.roots)
    in_front = [False] * n
    for i in front:
        in_front[i] = True
    done = [False] * n
    first_open = 0  # every two-qubit gate before twos[first_open] is done

    ops: list[tuple[int, tuple[int, ...]]] = []
    swaps = 0
    decay: dict[tuple[int, int], float] = {}
    guard = 100 * (n + 10)
    # Swaps since the last executed gate; past this, heuristic scoring has
    # livelocked and one blocked gate gets walked home along a shortest path.
    stuck = 0
    stuck_limit = 2 * len(ctx.qubits) + 4

    def do_swap(p0: int, p1: int):
        nonlocal swaps
        if record:
            ops.append((-1, (p0, p1)))
        l0, l1 = p2l.pop(p0, None), p2l.pop(p1, None)
        if l0 is not None:
            layout[l0] = p1
            p2l[p1] = l0
        if l1 is not None:
            layout[l1] = p0
            p2l[p0] = l1
        swaps += 1
        if swaps > guard:
            raise CompileError("routing failed to converge")

    while front:
        # Sweep the front in index order, executing every gate whose operands
        # are adjacent; gates this unblocks wait for the next sweep.
        progressed = True
        while progressed:
            progressed = False
            front.sort()
            blocked_ids: list[int] = []
            ready: list[int] = []
            for i in front:
                qs = qubits[i]
                if two[i]:
                    pa, pb = layout[qs[0]], layout[qs[1]]
                    if pb not in adj[pa]:
                        blocked_ids.append(i)
                        continue
                    if record:
                        ops.append((i, (pa, pb)))
                elif record:
                    ops.append((i, tuple([layout[q] for q in qs])))
                in_front[i] = False
                done[i] = True
                for s in succs[i]:
                    blockers[s] -= 1
                    if blockers[s] == 0:
                        ready.append(s)
                        in_front[s] = True
                progressed = True
            front = blocked_ids + ready
            if progressed:
                stuck = 0
                decay.clear()
        if not front:
            break
        # The last sweep executed nothing, so `front` is sorted and all blocked.

        if stuck >= stuck_limit:
            # Deterministic bail-out: march the oldest blocked pair together.
            qs = qubits[front[0]]
            pa, pb = layout[qs[0]], layout[qs[1]]
            while pb not in adj[pa]:
                step = min(adj[pa], key=lambda u: (dist[u][pb], u))
                do_swap(pa, step)
                pa = step
            stuck = 0
            continue

        # Pairs the score sums over, weighted: the blocked front, then the
        # lookahead (the next pending two-qubit gates not in the front).
        pairs = [(layout[qubits[i][0]], layout[qubits[i][1]], 1.0) for i in front]
        n_blocked = len(pairs)
        while done[twos[first_open]]:
            first_open += 1
        for i in islice(twos, first_open, None):
            if not done[i] and not in_front[i]:
                a, b = qubits[i]
                pairs.append((layout[a], layout[b], _EXTENDED_WEIGHT))
                if len(pairs) == n_blocked + _LOOKAHEAD:
                    break

        candidates = sorted({e for a, b, _ in pairs[:n_blocked] for e in incident[a] + incident[b]})
        # Score each candidate SWAP by the weighted distance sum of the pairs
        # after it is applied, added in pair order; the first lowest-scoring
        # edge in sorted order wins.
        best = None
        best_score = 0.0
        for edge in candidates:
            p0, p1 = edge
            total = decay.get(edge, 0.0)
            for a, b, w in pairs:
                if a == p0:
                    a = p1
                elif a == p1:
                    a = p0
                if b == p0:
                    b = p1
                elif b == p1:
                    b = p0
                total += w * dist[a][b]
            if best is None or total < best_score:
                best, best_score = edge, total
        do_swap(*best)
        decay[best] = decay.get(best, 0.0) + _DECAY_STEP
        stuck += 1

    return ops, tuple(layout), swaps


def _materialize(program: _Program, ops) -> tuple[Gate, ...]:
    """Gates for forward routing ops; a SWAP becomes its 3-CNOT expansion.

    Routed gates repeat within and across regions, so each distinct (name,
    physical operands, params) is built once per program, kept in
    `program.gates`, and every repeat is that same object. Threads that build
    the same gate at once all keep the first one stored.
    """
    built = program.gates
    dag = program.forward

    def gate(name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> Gate:
        key = (name, qubits, params)
        g = built.get(key)
        if g is None:
            g = built.setdefault(key, Gate(name, qubits, params))
        return g

    out: list[Gate] = []
    for i, phys in ops:
        if i < 0:
            p0, p1 = phys
            first = gate("cx", phys, ())
            out.extend((first, gate("cx", (p1, p0), ()), first))
        else:
            g = dag.gates[i]
            out.append(gate(g.name, phys, g.params))
    return tuple(out)


def reference_compile(circuit, region, device):
    """(layout, final_layout, routed_gates, swap_count, d_out) of one program on one region.

    Every distinct (direction, starting layout) pass runs once, and the final
    route is the forward pass from the refined layout, as in the package.
    """
    program = _Program(circuit)
    ctx = _RegionContext(region, device)
    passes: dict = {}

    def run(forward, layout):
        key = (forward, layout)
        if key not in passes:
            passes[key] = _route_gates(program.forward if forward else program.backward, layout, ctx)
        return passes[key]

    layout = _seed_layout(program, ctx)
    for _ in range(_REFINEMENT_PASSES):
        start = layout
        layout = run(True, layout)[1]
        layout = run(False, layout)[1]
        if layout == start:
            break
    ops, final_layout, swaps = run(True, layout)
    gates = _materialize(program, ops)
    return layout, final_layout, gates, swaps, gate_list_depth(gates)


def reference_route(circuit, region, device, layout):
    """(routed_gates, final_layout, swap_count) of the forward pass from `layout`."""
    program = _Program(circuit)
    ops, final_layout, swaps = _route_gates(program.forward, tuple(layout), _RegionContext(region, device))
    return _materialize(program, ops), final_layout, swaps
