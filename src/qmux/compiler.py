"""Region-confined layout, routing, and multi-version compilation.

Each candidate region gets its own compiled executable: an initial layout
chosen by interaction-aware placement refined with forward/reverse routing
passes, then a greedy swap-insertion pass that never leaves the region. SWAPs
are emitted as their 3-CNOT expansion so depth and error accounting see the
real gate load. Executables are ranked by (output/input depth ratio, region
utility): cheapest first, ties won by the better-connected region.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property

from .circuits import Circuit, Gate, decompose_swaps, gate_list_depth
from .devices import DeviceGraph, qubit_utility
from .errors import CompileError, PartitionError
from .partition import Region, UnitGraph, enumerate_regions

_LOOKAHEAD = 20
_EXTENDED_WEIGHT = 0.5
_DECAY_STEP = 0.001
_REFINEMENT_PASSES = 3


@dataclass(frozen=True)
class Executable:
    """One compiled version of a program, pinned to a region."""

    program_name: str
    num_qubits: int
    region: Region
    layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    routed_gates: tuple[Gate, ...]
    swap_count: int
    d_in: int
    d_out: int
    region_utility: float

    @property
    def depth_ratio(self) -> float:
        return self.d_out / self.d_in


def cost_sort_key(executable: Executable) -> tuple[float, float]:
    """Ascending depth ratio; equal ratios prefer the higher-utility region."""
    return (executable.depth_ratio, -executable.region_utility)


@dataclass(frozen=True)
class Process:
    """All executable versions of one program, cost-ascending."""

    program_name: str
    num_qubits: int
    executables: tuple[Executable, ...]

    def __post_init__(self):
        if not self.executables:
            raise CompileError(f"process {self.program_name!r} has no executables")

    @cached_property
    def claim_masks(self) -> tuple[int, ...]:
        """The qubit mask of each version's region, in rank order."""
        return tuple(e.region.qubit_mask for e in self.executables)


@dataclass(frozen=True)
class RoutedCircuit:
    gates: tuple[Gate, ...]
    final_layout: tuple[int, ...]
    swap_count: int


class _RegionContext:
    """Region-local adjacency, incident links, weighted all-pairs distances and
    utilities. Local index i is `qubits[i]`, the i-th smallest physical id, so
    local indices order as physical ids do and every tie breaks the same way."""

    def __init__(self, region: Region, device: DeviceGraph):
        self.qubits = sorted(region.qubits)
        self.index = {p: i for i, p in enumerate(self.qubits)}
        n = len(self.qubits)
        self.adj: list[set[int]] = [set() for _ in range(n)]
        # Region links touching each qubit, for picking swap candidates.
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        weight: dict[tuple[int, int], float] = {}
        for a, b in device.links:
            ia, ib = self.index.get(a), self.index.get(b)
            if ia is not None and ib is not None:
                self.adj[ia].add(ib)
                self.adj[ib].add(ia)
                self.incident[ia].append((ia, ib))
                self.incident[ib].append((ia, ib))
                # -ln(1 - e): low-error links are shorter, so routes prefer them.
                weight[(ia, ib)] = weight[(ib, ia)] = -math.log1p(-device.error_of(a, b))
        self.dist = [self._dijkstra(i, weight) for i in range(n)]
        # The lookahead's weight times each distance, as routing scores it.
        self.extended = [[_EXTENDED_WEIGHT * d for d in row] for row in self.dist]
        self.utility = [qubit_utility(device, q) for q in self.qubits]
        # Summed left to right: sum() of floats rounds differently from 3.12 on.
        self.region_utility = 0.0
        for u in self.utility:
            self.region_utility += u

    def _dijkstra(self, src: int, weight: dict[tuple[int, int], float]) -> list[float]:
        dist = [math.inf] * len(self.adj)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u in self.adj[v]:
                nd = d + weight[(v, u)]
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return dist


class _GateDag:
    """Dependencies among the tracked gates of a gate list: all of them, or
    only the two-qubit ones. `qubits` holds their operands in list order.

    A tracked gate waits for each tracked gate it depends on through any
    chain of gates. Routing never blocks an untracked gate, so a one-qubit
    gate or measure passes its qubit's dependencies on, and a barrier makes
    each later gate on its qubits wait for all before it on any of them.
    """

    def __init__(self, gates: tuple[Gate, ...], *, two_qubit_only: bool):
        self.qubits: list[tuple[int, ...]] = []
        self.succs: list[list[int]] = []
        self.blockers: list[int] = []
        self.size = len(gates)
        qubits, succs, blockers = self.qubits, self.succs, self.blockers
        waits: dict[int, Collection[int]] = {}  # what the next tracked gate on each qubit waits for
        for g in gates:
            tracked = not two_qubit_only or g.is_two_qubit
            if not tracked and len(g.qubits) == 1:
                continue
            preds = {i for q in g.qubits for i in waits.get(q, ())}
            if tracked:
                for p in preds:
                    succs[p].append(len(qubits))
                blockers.append(len(preds))
                preds = (len(qubits),)
                succs.append([])
                qubits.append(g.qubits)
            for q in g.qubits:
                waits[q] = preds
        self.roots = [i for i, n in enumerate(blockers) if not n]


def _placement_order(circuit: Circuit) -> tuple[list[int], dict[int, list[int]]]:
    """Interaction-BFS order of the logical qubits, and each qubit's partners.

    The partner lists keep the order the interaction counts were touched in
    while ordering (zero counts included), which is the order placement sums
    their distances in.
    """
    k = circuit.num_qubits
    inter: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            inter[a][b] += 1
            inter[b][a] += 1

    order: list[int] = []
    placed: set[int] = set()
    while len(order) < k:
        cands = [q for q in range(k) if q not in placed]
        attached = [q for q in cands if any(p in placed for p in inter[q])]
        if order and attached:
            nxt = max(attached, key=lambda q: (sum(inter[q][p] for p in placed), -q))
        else:
            nxt = max(cands, key=lambda q: (sum(inter[q].values()), -q))
        order.append(nxt)
        placed.add(nxt)
    return order, {q: list(inter[q]) for q in range(k)}


class _Program:
    """A circuit lowered once for routing, shared by every region and pass.

    Swaps are decided on the two-qubit DAGs, forward and backward; the full
    DAG is swept only to emit the routed gates. `gates` holds every routed
    gate built for this program, on any region or device, keyed by (name,
    physical operands, params).
    """

    def __init__(self, circuit: Circuit):
        src = decompose_swaps(circuit)
        self.d_in = gate_list_depth(src.gates)
        self.source = src.gates
        self.two = [g.is_two_qubit for g in src.gates]
        self.dag = _GateDag(src.gates, two_qubit_only=False)
        self.forward = _GateDag(src.gates, two_qubit_only=True)
        self.backward = _GateDag(src.gates[::-1], two_qubit_only=True)
        self.order, self.partners = _placement_order(src)
        self.gates: dict[tuple, Gate] = {}


def _kept(store: dict, key, build):
    """`store[key]`, set to `build()` on the first call.

    Callers that race on a missing key each build an equal value, and
    `setdefault` keeps the first one stored for all of them.
    """
    value = store.get(key)
    if value is None:
        value = store.setdefault(key, build())
    return value


# Like `cached_property`, these keep what they build in the owner's instance
# dict, so it lives exactly as long as the owner. Each circuit is lowered
# once, with one table of routed gates for all its regions and devices; each
# region context is built once per device and shared by every program
# compiled there.
def _program(circuit: Circuit) -> _Program:
    return _kept(vars(circuit), "_program", lambda: _Program(circuit))


def _region_context(region: Region, device: DeviceGraph) -> _RegionContext:
    contexts = _kept(vars(device), "_region_contexts", dict)
    return _kept(contexts, region.qubits, lambda: _RegionContext(region, device))


def _seed_layout(program: _Program, ctx: _RegionContext) -> tuple[int, ...]:
    """Place the logical qubits, in interaction order, onto high-utility region
    qubits; the layout is in region-local indices."""
    util, adj, dist = ctx.utility, ctx.adj, ctx.dist
    homes: dict[int, int] = {}
    free = list(range(len(util)))  # unplaced qubits, ascending
    for q in program.order:
        partners = [homes[p] for p in program.partners[q] if p in homes]
        if partners:
            def score(p: int):
                near, row = adj[p], dist[p]
                links = 0
                spread = 0.0
                for pp in partners:
                    links += pp in near
                    spread += row[pp]
                return (-links, spread, -util[p], p)

            best = min(free, key=score)
        else:
            best = max(free, key=lambda p: (util[p], -p))
        homes[q] = best
        free.remove(best)
    return tuple(homes[q] for q in range(len(program.order)))


def _swap(layout: list[int], p2l: list[int], p0: int, p1: int) -> None:
    """Exchange whatever logical qubits sit on p0 and p1 (-1: none)."""
    l0, l1 = p2l[p0], p2l[p1]
    p2l[p0], p2l[p1] = l1, l0
    if l0 >= 0:
        layout[l0] = p1
    if l1 >= 0:
        layout[l1] = p0


def _route_gates(dag: _GateDag, layout, ctx: _RegionContext):
    """Greedy swap insertion for a placed two-qubit gate DAG, in region-local indices.

    Returns (final layout, swap count, decisions). A decision is the tuple of
    links swapped at one point where every gate in the front was blocked;
    `_emit` replays them over the full gate list.
    """
    qubits, succs = dag.qubits, dag.succs
    adj, dist, extended, incident = ctx.adj, ctx.dist, ctx.extended, ctx.incident
    layout = list(layout)
    p2l = [-1] * len(adj)
    for l, p in enumerate(layout):
        p2l[p] = l
    moved = list(range(len(adj)))

    n = len(qubits)
    blockers = list(dag.blockers)
    # 0: not yet in the front, 1: blocked in the front, 2: done.
    state = [0] * n
    first_open = 0  # every gate before first_open is done

    decisions: list[tuple[tuple[int, int], ...]] = []
    swaps = 0
    decay: dict[tuple[int, int], float] = {}
    guard = 100 * (dag.size + 10)
    # Swaps since the last executed gate; past this, heuristic scoring has
    # livelocked and one blocked gate gets walked home along a shortest path.
    stuck = 0
    stuck_limit = 2 * len(ctx.qubits) + 4

    todo = list(dag.roots)
    # Logical operands of the blocked front and of the lookahead (the next
    # pending gates not in it). Both change only when a gate executes, so they
    # are gathered once per run of swaps; None until then.
    front_ops = ahead = None
    while True:
        # Run what the layout allows, in any order: once nothing more can run,
        # the done set is the same whatever the order, and the front is blocked.
        front: list[int] = []
        progressed = False
        while todo:
            i = todo.pop()
            a, b = qubits[i]
            if layout[b] not in adj[layout[a]]:
                state[i] = 1
                front.append(i)
                continue
            state[i] = 2
            progressed = True
            for s in succs[i]:
                blockers[s] -= 1
                if blockers[s] == 0:
                    todo.append(s)
        if progressed:
            stuck = 0
            decay.clear()
            front_ops = ahead = None
        if not front:
            break
        front.sort()
        todo = front

        if stuck >= stuck_limit:
            # Deterministic bail-out: march the oldest blocked pair together.
            a, b = qubits[front[0]]
            pa, pb = layout[a], layout[b]
            walk = []
            while pb not in adj[pa]:
                step = min(adj[pa], key=lambda u: (dist[u][pb], u))
                walk.append((pa, step))
                _swap(layout, p2l, pa, step)
                pa = step
            swaps += len(walk)
            decisions.append(tuple(walk))
            stuck = 0
        else:
            if ahead is None:
                front_ops = [qubits[i] for i in front]
                while state[first_open] == 2:
                    first_open += 1
                ahead = []
                for i in range(first_open, n):
                    if not state[i]:
                        ahead.append(qubits[i])
                        if len(ahead) == _LOOKAHEAD:
                            break
            # The physical pairs the score sums over: blocked ones on `dist`,
            # lookahead ones on `extended`.
            look = [(layout[a], layout[b]) for a, b in ahead]
            if len(front_ops) == 1:
                # Its endpoints are not adjacent, so their links are distinct.
                ((a, b),) = front_ops
                a, b = layout[a], layout[b]
                blocked = [(a, b)]
                candidates = sorted(incident[a] + incident[b])
            else:
                blocked = [(layout[a], layout[b]) for a, b in front_ops]
                candidates = sorted({e for a, b in blocked for e in incident[a] + incident[b]})
            # Score each candidate SWAP by the weighted distance sum of the pairs
            # after it is applied, added in pair order; the first lowest-scoring
            # edge in sorted order wins. `moved` maps each qubit to its place
            # after the candidate.
            best = None
            best_score = 0.0
            for edge in candidates:
                p0, p1 = edge
                moved[p0], moved[p1] = p1, p0
                total = decay.get(edge, 0.0) if decay else 0.0
                for a, b in blocked:
                    total += dist[moved[a]][moved[b]]
                for a, b in look:
                    total += extended[moved[a]][moved[b]]
                moved[p0], moved[p1] = p0, p1
                if best is None or total < best_score:
                    best, best_score = edge, total
            p0, p1 = best  # unpacked here: a star call costs more than the swap
            _swap(layout, p2l, p0, p1)
            swaps += 1
            decisions.append((best,))
            decay[best] = decay.get(best, 0.0) + _DECAY_STEP
            stuck += 1
        if swaps > guard:
            raise CompileError("routing failed to converge")

    return tuple(layout), swaps, decisions


def _emit(program: _Program, layout: tuple[int, ...], decisions, ctx: _RegionContext) -> tuple[Gate, ...]:
    """The routed gates of the forward pass from `layout` that made `decisions`.

    Sweeps the full DAG's front in index order, executing each gate whose
    operands are adjacent; gates this unblocks wait for the next sweep. Where
    the whole front is blocked, the next decision's swaps go in as 3 CNOTs.
    Each distinct (name, physical operands, params) is one `Gate` per
    program, kept in `program.gates`; racing threads keep the first stored.
    """
    built = program.gates
    source, two, dag = program.source, program.two, program.dag
    succs, adj, phys = dag.succs, ctx.adj, ctx.qubits
    layout = list(layout)
    p2l = [-1] * len(adj)
    for l, p in enumerate(layout):
        p2l[p] = l
    blockers = list(dag.blockers)
    front = list(dag.roots)
    steps = iter(decisions)
    out: list[Gate] = []
    while front:
        progressed = True
        while progressed:
            progressed = False
            front.sort()
            blocked: list[int] = []
            ready: list[int] = []
            for i in front:
                g = source[i]
                qs = g.qubits
                if two[i]:
                    pa, pb = layout[qs[0]], layout[qs[1]]
                    if pb not in adj[pa]:
                        blocked.append(i)
                        continue
                    key = (g.name, (phys[pa], phys[pb]), g.params)
                elif len(qs) == 1:
                    key = (g.name, (phys[layout[qs[0]]],), g.params)
                else:
                    key = (g.name, tuple([phys[layout[q]] for q in qs]), g.params)
                # A Gate is never falsy, so `or` builds one only when the key is new.
                out.append(built.get(key) or built.setdefault(key, Gate(*key)))
                for s in succs[i]:
                    blockers[s] -= 1
                    if blockers[s] == 0:
                        ready.append(s)
                progressed = True
            front = blocked + ready
        if front:
            for p0, p1 in next(steps):
                a, b = phys[p0], phys[p1]
                there, back = ("cx", (a, b), ()), ("cx", (b, a), ())
                first = built.get(there) or built.setdefault(there, Gate(*there))
                out += (first, built.get(back) or built.setdefault(back, Gate(*back)), first)
                _swap(layout, p2l, p0, p1)
    return tuple(out)


def _pass(program: _Program, forward: bool, layout: tuple[int, ...], ctx: _RegionContext, passes):
    """The routing pass of `program` in one direction from `layout`, run at most once per `passes`.

    A pass depends on nothing but its direction and starting layout once the
    program and region are fixed, so `passes` stores each result under
    (forward, layout) and hands it back when the same pass comes round again.
    """
    key = (forward, layout)
    result = passes.get(key)
    if result is None:
        dag = program.forward if forward else program.backward
        result = passes[key] = _route_gates(dag, layout, ctx)
    return result


def initial_layout(
    circuit: Circuit, region: Region, device: DeviceGraph, *, passes: dict | None = None
) -> tuple[int, ...]:
    """Pick starting homes for the logical qubits of `circuit` inside `region`.

    A greedy interaction-aware seed is refined by routing the circuit forward
    and backward up to three times, keeping the layout each traversal ends
    with, so the final placement reflects how the whole circuit moves qubits
    around. A forward+backward cycle depends on nothing but its starting
    layout, so once a cycle returns the layout it started from, every later
    cycle would too and refinement stops. Refinement passes only decide
    swaps, on the two-qubit gates, and build no gates.

    `passes` is the memo of routing passes for this circuit and region,
    keyed by (forward, starting layout in region-local indices), so each
    distinct pass runs once; `compile_on_region` shares it with `route`.
    Omitted, a fresh one is used.
    """
    if circuit.num_qubits > len(region.qubits):
        raise CompileError(
            f"{circuit.name!r} needs {circuit.num_qubits} qubits, region has {len(region.qubits)}"
        )
    if passes is None:
        passes = {}
    program = _program(circuit)
    ctx = _region_context(region, device)
    layout = _seed_layout(program, ctx)
    for _ in range(_REFINEMENT_PASSES):
        start = layout
        layout = _pass(program, True, layout, ctx, passes)[0]
        layout = _pass(program, False, layout, ctx, passes)[0]
        if layout == start:
            break
    return tuple(ctx.qubits[p] for p in layout)


def check_layout(
    program_name: str, what: str, layout: tuple[int, ...], num_qubits: int, region_qubits: Collection[int]
) -> None:
    """Refuse a layout, named `what` in the message, unless it places each of
    `num_qubits` logical qubits on its own qubit of the region."""
    if len(layout) != num_qubits:
        raise CompileError(f"{program_name!r} has {num_qubits} qubits but the {what} places {len(layout)}")
    for l, p in enumerate(layout):
        if p not in region_qubits:
            raise CompileError(f"{program_name!r}: {what} places logical {l} on {p}, outside the region")
        if layout.index(p) != l:
            raise CompileError(f"{program_name!r}: {what} places logical {layout.index(p)} and {l} both on {p}")


def route(
    circuit: Circuit,
    region: Region,
    device: DeviceGraph,
    layout: tuple[int, ...],
    *,
    passes: dict | None = None,
) -> RoutedCircuit:
    """Route `circuit` from `layout`, inserting region-local SWAPs as 3 CNOTs.

    `passes` is the memo of routing passes that `initial_layout` takes; the
    decisions of a forward pass from `layout` found there are replayed, not
    made again. A layout that does not place each logical qubit on its own
    physical qubit of the region is refused before any pass runs.
    """
    if passes is None:
        passes = {}
    check_layout(circuit.name, "layout", layout, circuit.num_qubits, region.qubits)
    program = _program(circuit)
    ctx = _region_context(region, device)
    local = tuple(ctx.index[p] for p in layout)
    final_layout, swaps, decisions = _pass(program, True, local, ctx, passes)
    gates = _emit(program, local, decisions, ctx)
    return RoutedCircuit(gates, tuple(ctx.qubits[p] for p in final_layout), swaps)


def compile_on_region(circuit: Circuit, region: Region, device: DeviceGraph) -> Executable:
    """Compile one program onto one region and price the result.

    Layout refinement and the final route share one memo of routing passes,
    which lives only for this call: each distinct (direction, starting
    layout) pass runs once, and the final route reuses the forward pass of
    the cycle that converged.
    """
    if not circuit.gates:
        raise CompileError(f"{circuit.name!r} has no gates to compile")
    d_in = _program(circuit).d_in
    passes: dict = {}
    layout = initial_layout(circuit, region, device, passes=passes)
    routed = route(circuit, region, device, layout, passes=passes)
    return Executable(
        program_name=circuit.name,
        num_qubits=circuit.num_qubits,
        region=region,
        layout=layout,
        final_layout=routed.final_layout,
        routed_gates=routed.gates,
        swap_count=routed.swap_count,
        d_in=d_in,
        d_out=gate_list_depth(routed.gates),
        region_utility=_region_context(region, device).region_utility,
    )


def compile_multi_version(circuit: Circuit, unit_graph: UnitGraph) -> Process:
    """Compile a program onto every feasible candidate region.

    The number of units per region is ceil(k / m) for a k-qubit program;
    regions too small to host the program (for instance ones containing the
    residual unit) are skipped. The resulting executables come back
    cost-ascending.
    """
    k = circuit.num_qubits
    m = unit_graph.unit_size
    r = math.ceil(k / m)
    try:
        regions = enumerate_regions(unit_graph, r)
    except PartitionError as exc:
        raise CompileError(f"no feasible region for {circuit.name!r}: {exc}") from exc
    fitting = [rg for rg in regions if len(rg.qubits) >= k]
    if not fitting:
        raise CompileError(
            f"no feasible region for {circuit.name!r}: needs {k} qubits in {r} unit(s)"
        )
    executables = sorted(
        (compile_on_region(circuit, rg, unit_graph.device) for rg in fitting),
        key=cost_sort_key,
    )
    return Process(circuit.name, k, tuple(executables))
