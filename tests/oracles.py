"""Independent reference computations the tests compare package output against.

Everything here is deliberately naive and shares no logic with src/qmux:
plain breadth-first searches, exhaustive enumeration, and direct formula
evaluation. Slow is fine; these run on toy sizes only.
"""

import itertools
import random
from collections import deque

from qmux.devices import DeviceGraph


def layered_depth(gates) -> int:
    """Longest dependency chain: a gate lands one layer below the deepest
    gate it shares an operand with. Barriers synchronize their span."""
    level: dict[int, int] = {}
    deepest = 0
    for g in gates:
        qs = g.qubits
        layer = 1 + max((level.get(q, 0) for q in qs), default=0)
        for q in qs:
            level[q] = layer
        deepest = max(deepest, layer)
    return deepest


def check_unit_graph(device: DeviceGraph, unit_graph, m: int) -> list[str]:
    """All partition-invariant violations, empty when the partition is sound."""
    problems = []
    seen: set[int] = set()
    undersized = 0
    adj = {q: set() for q in range(device.num_qubits)}
    for a, b in device.links:
        adj[a].add(b)
        adj[b].add(a)

    for unit in unit_graph.units:
        qubits = set(unit.qubits)
        if qubits & seen:
            problems.append(f"unit {unit.id} overlaps another unit")
        seen |= qubits
        if len(qubits) != m:
            undersized += 1
            if not unit.residual:
                problems.append(f"unit {unit.id} has {len(qubits)} qubits but no residual flag")
        elif unit.residual:
            problems.append(f"unit {unit.id} is full-sized yet flagged residual")
        # connectivity by plain BFS inside the unit
        start = next(iter(qubits))
        reach = {start}
        frontier = deque([start])
        while frontier:
            for u in adj[frontier.popleft()] & qubits:
                if u not in reach:
                    reach.add(u)
                    frontier.append(u)
        if reach != qubits:
            problems.append(f"unit {unit.id} is disconnected")

    if seen != set(range(device.num_qubits)):
        problems.append("units do not cover the device")
    if undersized > 1:
        problems.append(f"{undersized} undersized units; at most one residual allowed")

    want_edges = set()
    q2u = {q: unit_graph.qubit_to_unit[q] for q in range(device.num_qubits)}
    for a, b in device.links:
        ua, ub = q2u[a], q2u[b]
        if ua != ub:
            want_edges.add((min(ua, ub), max(ua, ub)))
    got_edges = {(min(a, b), max(a, b)) for a, b in unit_graph.edges}
    if got_edges != want_edges:
        problems.append("unit-graph edges do not match cross-unit device links")
    return problems


def random_connected_device(seed: int) -> tuple[DeviceGraph, int]:
    """Random connected graph built around a hidden Hamiltonian path.

    The path guarantees a size-m partition with at most one undersized
    leftover exists for every m, so partition checks never chase infeasible
    topologies. Returns the device and a unit size drawn from [2, 12].
    """
    rng = random.Random(seed)
    n = rng.randint(8, 65)
    order = list(range(n))
    rng.shuffle(order)
    links = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    degree = {q: 0 for q in range(n)}
    for a, b in links:
        degree[a] += 1
        degree[b] += 1
    for _ in range(int(0.4 * n)):
        a, b = rng.sample(range(n), 2)
        key = (min(a, b), max(a, b))
        if key not in links and degree[a] < 4 and degree[b] < 4:
            links.add(key)
            degree[a] += 1
            degree[b] += 1
    m = rng.randint(2, min(12, n // 2))
    return (
        DeviceGraph(
            num_qubits=n,
            links=tuple(sorted(links)),
            link_error={l: rng.uniform(0.005, 0.05) for l in sorted(links)},
            qubit_error=tuple(rng.uniform(1e-4, 1e-3) for _ in range(n)),
            readout_error=tuple(rng.uniform(0.01, 0.08) for _ in range(n)),
            name=f"random{seed}",
        ),
        m,
    )


def count_connected_subgraphs(device: DeviceGraph, k: int, cap: int) -> int:
    """Connected k-vertex subgraph count, stopping once `cap` are found.

    Wernicke-style enumeration: extend only with neighbors above the anchor
    vertex so each subgraph is generated exactly once.
    """
    adj = {q: sorted(device.adjacency[q]) for q in range(device.num_qubits)}
    count = 0

    def extend(sub: set, ext: list, anchor: int):
        nonlocal count
        if count >= cap:
            return
        if len(sub) == k:
            count += 1
            return
        ext = list(ext)
        while ext and count < cap:
            w = ext.pop()
            known = set(ext) | sub | {w}
            grown = ext + [u for u in adj[w] if u > anchor and u not in known]
            extend(sub | {w}, grown, anchor)

    for v in range(device.num_qubits):
        extend({v}, [u for u in adj[v] if u > v], v)
        if count >= cap:
            break
    return count


_PATH4_EDGES = ((0, 1), (1, 2), (2, 3))


def optimum_swaps(pairs) -> int:
    """Fewest SWAPs to run the CNOT list on a 4-qubit path, any initial layout.

    Breadth-first over (layout, next-gate) states; executing adjacent gates is
    free, one swap along any path edge costs one step.
    """
    adjacent = {(a, b) for a, b in _PATH4_EDGES} | {(b, a) for a, b in _PATH4_EDGES}

    def advance(perm, gi):
        while gi < len(pairs):
            a, b = pairs[gi]
            if (perm[a], perm[b]) in adjacent:
                gi += 1
            else:
                break
        return gi

    seen = {}
    queue = deque()
    for perm in itertools.permutations(range(4)):
        gi = advance(perm, 0)
        if gi == len(pairs):
            return 0
        if (perm, gi) not in seen:
            seen[(perm, gi)] = 0
            queue.append((perm, gi))
    while queue:
        perm, gi = queue.popleft()
        cost = seen[(perm, gi)]
        for pa, pb in _PATH4_EDGES:
            swapped = tuple(
                pb if p == pa else pa if p == pb else p for p in perm
            )
            gi2 = advance(swapped, gi)
            if gi2 == len(pairs):
                return cost + 1
            if (swapped, gi2) not in seen:
                seen[(swapped, gi2)] = cost + 1
                queue.append((swapped, gi2))
    raise AssertionError("search space exhausted without finishing the circuit")


def rank_correlation(xs, ys) -> float:
    """Spearman rho with average ranks for ties, from the raw definition."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                out[order[t]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def qasm_text(circuit) -> str:
    """The circuit printed in the OpenQASM 2 subset that `parse_qasm` reads.

    Each measure writes the next classical bit, in gate order.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    measures = [g for g in circuit.gates if g.name == "measure"]
    if circuit.num_clbits or measures:
        lines.append(f"creg c[{max(circuit.num_clbits, len(measures))}];")
    clbit = 0
    for g in circuit.gates:
        operands = ", ".join(f"q[{q}]" for q in g.qubits)
        if g.name == "measure":
            lines.append(f"measure {operands} -> c[{clbit}];")
            clbit += 1
        elif g.params:
            lines.append(f"{g.name}({', '.join(repr(p) for p in g.params)}) {operands};")
        else:
            lines.append(f"{g.name} {operands};")
    return "\n".join(lines) + "\n"


def crosstalk_violations(record, crosstalk) -> int:
    """Flagged links joining two different programs' regions in a group record."""
    regions = [set(qubits) for qubits in record.regions.values()]
    violations = 0
    for qa, qb in itertools.combinations(regions, 2):
        for u, v in crosstalk.flagged:
            if (u in qa and v in qb) or (v in qa and u in qb):
                violations += 1
    return violations
