"""Device abstraction: carve a device into compute units and unit-level regions.

Units are connected groups of m physical qubits grown greedily from the
highest-utility unassigned qubit; the same grower runs again on the unit graph
to build multi-unit regions for programs that do not fit in one unit. All tie
breaks are (higher weight, lower index), so a given device and m always yield
the same partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .devices import DeviceGraph, utilities
from .errors import PartitionError


@dataclass(frozen=True)
class ComputeUnit:
    """Connected block of physical qubits; residual units hold the leftovers."""

    id: int
    qubits: frozenset[int]
    utility: float
    residual: bool = False


@dataclass(frozen=True)
class UnitGraph:
    """Units plus the coarse graph H induced by physical cross-unit links."""

    device: DeviceGraph
    unit_size: int
    units: tuple[ComputeUnit, ...]
    edges: frozenset[tuple[int, int]]
    qubit_to_unit: tuple[int, ...]

    def unit_adjacency(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {u.id: [] for u in self.units}
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return {k: tuple(sorted(v)) for k, v in out.items()}


@dataclass(frozen=True)
class Region:
    """Disjoint allocation target: the union of one or more connected units."""

    unit_ids: frozenset[int]
    qubits: frozenset[int]

    def __post_init__(self):
        if not self.unit_ids or not self.qubits:
            raise PartitionError("region must contain at least one unit and one qubit")
        # Ids are bit positions in the claim masks.
        if min(self.unit_ids) < 0 or min(self.qubits) < 0:
            raise PartitionError("region unit and qubit ids must be non-negative")

    @cached_property
    def unit_mask(self) -> int:
        """Bit u set for each unit id u: two regions share a unit iff their masks meet."""
        return _id_mask(self.unit_ids)

    @cached_property
    def qubit_mask(self) -> int:
        """Bit q set for each physical qubit q of the region."""
        return _id_mask(self.qubits)


def _id_mask(ids) -> int:
    """Integer with bit i set for each non-negative id i."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _components(nodes: set[int], adj) -> list[list[int]]:
    """Connected components of the induced subgraph, each sorted, in index order."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u in nodes and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _partition_graph(nodes, adj, weight_of, size) -> list[list[int]]:
    """Greedy decomposition into connected groups of `size` nodes.

    Root selection and BFS growth both prefer (higher weight, lower index);
    weights are recomputed on the shrinking node set before each group is
    grown. Groups that stall below `size` (their component ran out of nodes)
    are returned undersized.
    """
    remaining = set(nodes)
    groups: list[list[int]] = []
    while remaining:
        w = {v: weight_of(v, remaining) for v in remaining}
        key = lambda v: (w[v], -v)
        root = max(remaining, key=key)
        group = [root]
        in_group = {root}
        frontier = {u for u in adj[root] if u in remaining} - in_group
        while len(group) < size and frontier:
            nxt = max(frontier, key=key)
            group.append(nxt)
            in_group.add(nxt)
            frontier.discard(nxt)
            frontier |= {u for u in adj[nxt] if u in remaining and u not in in_group}
        remaining -= in_group
        groups.append(group)
    return groups


class _SearchBudget(Exception):
    """Raised internally when the repartition search runs out of steps."""


def _connected_groups_with(anchor: int, remaining: frozenset, adj, w, size):
    """Yield each connected `size`-subset of `remaining` containing `anchor` once.

    Growth branches prefer (higher weight, lower index); a seen-set collapses
    the different orders that reach the same subset.
    """
    seen: set[frozenset] = set()

    def grow(group: list[int], in_group: frozenset, frontier: set[int]):
        if len(group) == size:
            fs = frozenset(group)
            if fs not in seen:
                seen.add(fs)
                yield group
            return
        for nxt in sorted(frontier, key=lambda v: (-w[v], v)):
            ext = {u for u in adj[nxt] if u in remaining and u not in in_group}
            yield from grow(
                group + [nxt], in_group | {nxt}, (frontier | ext) - in_group - {nxt}
            )

    yield from grow([anchor], frozenset({anchor}), {u for u in adj[anchor] if u in remaining})


def _constrained_partition(nodes, adj, weight_of, size, budget=200_000):
    """Partition into full-size connected groups plus at most one remainder.

    Exact cover by depth-first search: at each step the most constrained
    unassigned vertex (fewest remaining neighbors) must be covered, so only
    groups containing it are branched on. A branch dies as soon as the
    unassigned nodes split into two components that cannot both be tiled by
    full groups (component size not divisible by `size`). Returns None when
    no such partition exists or the step budget runs out.
    """
    steps = 0
    dead: set[tuple[frozenset, bool]] = set()

    def dfs(remaining: frozenset, allow_residual: bool):
        nonlocal steps
        if not remaining:
            return []
        key = (remaining, allow_residual)
        if key in dead:
            return None
        comps = _components(set(remaining), adj)
        fragile = sum(1 for c in comps if len(c) % size != 0)
        if fragile > (1 if allow_residual else 0):
            dead.add(key)
            return None
        if steps >= budget:
            raise _SearchBudget
        steps += 1

        deg = {v: sum(1 for u in adj[v] if u in remaining) for v in remaining}
        anchor = min(remaining, key=lambda v: (deg[v], v))
        comp = next(c for c in comps if anchor in c)
        if len(comp) < size:
            # Too small to host a full group: the whole component must be
            # the single allowed remainder.
            if allow_residual:
                rest = dfs(remaining - frozenset(comp), False)
                if rest is not None:
                    return [sorted(comp)] + rest
            dead.add(key)
            return None

        w = {v: weight_of(v, remaining) for v in remaining}
        for group in _connected_groups_with(anchor, remaining, adj, w, size):
            if steps >= budget:
                raise _SearchBudget
            steps += 1
            rest = dfs(remaining - frozenset(group), allow_residual)
            if rest is not None:
                return [list(group)] + rest
        dead.add(key)
        return None

    try:
        return dfs(frozenset(nodes), True)
    except _SearchBudget:
        return None


def generate_compute_units(device: DeviceGraph, m: int) -> UnitGraph:
    """Carve the device into connected units of m qubits plus one residual.

    Repeatedly roots a unit at the highest-utility unassigned qubit and grows
    it by greedy BFS, recomputing utilities on the residual graph after each
    removal. Pendant corners can splinter the leftover under that greedy
    order; when more than one undersized fragment appears, a bounded
    backtracking pass searches the growth choices for a partition with a
    single connected remainder. If even that fails (possible on adversarial
    topologies), the greedy result is kept and every fragment is emitted
    with residual=True.
    """
    n = device.num_qubits
    if not 1 <= m <= n:
        raise PartitionError(f"unit size {m} outside [1, {n}]")

    adj = device.adjacency

    def weight_of(v: int, remaining: set[int]) -> float:
        errs = [device.error_of(v, u) for u in adj[v] if u in remaining]
        return len(errs) / sum(errs) if errs else 0.0

    groups = _partition_graph(range(n), adj, weight_of, m)
    if sum(1 for g in groups if len(g) < m) > 1:
        repartitioned = _constrained_partition(range(n), adj, weight_of, m)
        if repartitioned is not None:
            groups = repartitioned

    device_util = utilities(device)
    units = tuple(
        ComputeUnit(
            id=i,
            qubits=frozenset(grp),
            utility=sum(device_util[q] for q in grp),
            residual=len(grp) < m,
        )
        for i, grp in enumerate(groups)
    )
    qubit_to_unit = [0] * n
    for unit in units:
        for q in unit.qubits:
            qubit_to_unit[q] = unit.id
    edges = set()
    for a, b in device.links:
        ua, ub = qubit_to_unit[a], qubit_to_unit[b]
        if ua != ub:
            edges.add((min(ua, ub), max(ua, ub)))
    return UnitGraph(device, m, units, frozenset(edges), tuple(qubit_to_unit))


def enumerate_regions(unit_graph: UnitGraph, r: int) -> tuple[Region, ...]:
    """Candidate regions of exactly r units, pairwise disjoint and connected.

    r == 1 offers every full unit on its own; the residual unit is never a
    standalone region. For r > 1 the unit-generation procedure reruns on H
    with each unit weighted by its summed qubit utility, and leftover groups
    smaller than r are dropped.
    """
    full = [u for u in unit_graph.units if not u.residual]
    if not 1 <= r <= len(full):
        raise PartitionError(f"region size {r} outside [1, {len(full)}]")
    if r == 1:
        return tuple(Region(frozenset({u.id}), u.qubits) for u in full)

    adj = unit_graph.unit_adjacency()
    weight = {u.id: u.utility for u in unit_graph.units}
    groups = _partition_graph(
        [u.id for u in unit_graph.units], adj, lambda v, remaining: weight[v], r
    )
    regions = []
    for grp in groups:
        if len(grp) != r:
            continue
        qubits: set[int] = set()
        for uid in grp:
            qubits |= unit_graph.units[uid].qubits
        regions.append(Region(frozenset(grp), frozenset(qubits)))
    return tuple(regions)
