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
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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
    """Region-local adjacency, qubit utilities, the region's utility and
    error-weighted all-pairs distances."""

    def __init__(self, region: Region, device: DeviceGraph):
        self.qubits = sorted(region.qubits)
        self.adj: dict[int, set[int]] = {q: set() for q in self.qubits}
        # Region links touching each qubit, for picking swap candidates.
        self.incident: dict[int, list[tuple[int, int]]] = {q: [] for q in self.qubits}
        weight: dict[tuple[int, int], float] = {}
        for a, b in device.links:
            if a in region.qubits and b in region.qubits:
                self.adj[a].add(b)
                self.adj[b].add(a)
                self.incident[a].append((a, b))
                self.incident[b].append((a, b))
                # -ln(1 - e): low-error links are shorter, so routes prefer them.
                weight[(a, b)] = weight[(b, a)] = -math.log1p(-device.error_of(a, b))
        self.dist = {q: self._dijkstra(q, weight) for q in self.qubits}
        self.utility = {q: qubit_utility(device, q) for q in self.qubits}
        # Summed left to right: sum() of floats rounds differently from 3.12 on.
        self.region_utility = 0.0
        for q in self.qubits:
            self.region_utility += self.utility[q]

    def _dijkstra(self, src: int, weight: dict[tuple[int, int], float]) -> dict[int, float]:
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

    def adjacent(self, a: int, b: int) -> bool:
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

    Only forward passes build gates, so the backward DAG records no ops.
    `gates` holds every routed gate built for this program, on any region or
    device, keyed by (name, physical operands, params).
    """

    def __init__(self, circuit: Circuit):
        src = decompose_swaps(circuit)
        self.d_in = gate_list_depth(src.gates)
        self.forward = _GateDag(src.gates)
        self.backward = _GateDag(src.gates[::-1], record=False)
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
    """Place the logical qubits, in interaction order, onto high-utility region qubits."""
    util = ctx.utility
    homes: dict[int, int] = {}
    used: set[int] = set()
    for q in program.order:
        free = [p for p in ctx.qubits if p not in used]
        partners = [homes[p] for p in program.partners[q] if p in homes]
        if partners:
            def score(p: int):
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
    cycle would too and refinement stops. No gates are built for the
    refinement passes, and the backward ones keep only their layout.

    `passes` is the memo of routing passes for this circuit and region,
    keyed by (forward, starting layout), so each distinct pass runs once;
    `compile_on_region` shares it with `route`. Omitted, a fresh one is used.
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
        layout = _pass(program, True, layout, ctx, passes)[1]
        layout = _pass(program, False, layout, ctx, passes)[1]
        if layout == start:
            break
    return layout


def route(
    circuit: Circuit,
    region: Region,
    device: DeviceGraph,
    layout: tuple[int, ...],
    *,
    passes: dict | None = None,
) -> RoutedCircuit:
    """Route `circuit` from `layout`, inserting region-local SWAPs as 3 CNOTs.

    `passes` is the memo of routing passes that `initial_layout` takes; a
    forward pass from `layout` found there is not run again.
    """
    if passes is None:
        passes = {}
    program = _program(circuit)
    ctx = _region_context(region, device)
    for l, p in enumerate(layout):
        if p not in region.qubits:
            raise CompileError(f"layout places logical {l} on {p}, outside the region")
    ops, final_layout, swaps = _pass(program, True, tuple(layout), ctx, passes)
    return RoutedCircuit(_materialize(program, ops), final_layout, swaps)


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
