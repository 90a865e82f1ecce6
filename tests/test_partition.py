"""Compute-unit generation and region enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux.errors import PartitionError
from qmux.partition import enumerate_regions, generate_compute_units

from conftest import make_grid, make_path
from oracles import check_unit_graph, random_connected_device


def _bfs_connected(device, qubits):
    qubits = set(qubits)
    start = next(iter(qubits))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in device.adjacency[v]:
            if u in qubits and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == qubits


def test_25_qubit_grid_m5_gives_5_units():
    ug = generate_compute_units(make_grid(5, 5), 5)
    assert len(ug.units) == 5
    assert all(len(u.qubits) == 5 and not u.residual for u in ug.units)


def test_whole_device_unit(heavyhex27):
    ug = generate_compute_units(heavyhex27, 27)
    assert len(ug.units) == 1
    assert ug.units[0].qubits == frozenset(range(27))
    assert not ug.units[0].residual
    assert not ug.edges


def test_grid_2x3_hand_trace():
    # uniform errors make every utility equal, so ties fall to lowest index:
    # the three rung pairs come out in index order and H is the path 0-1-2
    ug = generate_compute_units(make_grid(3, 2), 2)
    assert [sorted(u.qubits) for u in ug.units] == [[0, 1], [2, 3], [4, 5]]
    assert ug.edges == frozenset({(0, 1), (1, 2)})


def test_unit_size_bounds(heavyhex27):
    with pytest.raises(PartitionError):
        generate_compute_units(heavyhex27, 0)
    with pytest.raises(PartitionError):
        generate_compute_units(heavyhex27, 28)


def test_heavyhex27_m4_partition(ug27_m4):
    sizes = sorted(len(u.qubits) for u in ug27_m4.units)
    assert sizes == [3, 4, 4, 4, 4, 4, 4]
    residuals = [u for u in ug27_m4.units if u.residual]
    assert len(residuals) == 1 and len(residuals[0].qubits) == 3
    assert not check_unit_graph(ug27_m4.device, ug27_m4, 4)


def test_heavyhex65_m4_partition(ug65_m4):
    assert len(ug65_m4.units) == 17
    assert sum(1 for u in ug65_m4.units if u.residual) == 1
    assert not check_unit_graph(ug65_m4.device, ug65_m4, 4)


def test_partition_deterministic(heavyhex27):
    a = generate_compute_units(heavyhex27, 4)
    b = generate_compute_units(heavyhex27, 4)
    assert a.units == b.units
    assert a.edges == b.edges
    assert a.qubit_to_unit == b.qubit_to_unit


def test_regions_r1_offers_full_units_only(ug27_m4):
    regions = enumerate_regions(ug27_m4, 1)
    assert len(regions) == 6
    residual_id = next(u.id for u in ug27_m4.units if u.residual)
    assert all(region.unit_ids == frozenset({next(iter(region.unit_ids))}) for region in regions)
    assert all(residual_id not in region.unit_ids for region in regions)
    assert all(len(region.qubits) == 4 for region in regions)


def test_regions_pairwise_disjoint_and_bounded(ug65_m4):
    full = [u for u in ug65_m4.units if not u.residual]
    assert len(full) == 16
    regions = enumerate_regions(ug65_m4, 2)
    assert len(regions) <= 8
    claimed = set()
    for region in regions:
        assert not (region.qubits & claimed)
        claimed |= region.qubits


def test_larger_programs_get_fewer_regions(ug65_m4):
    # 10-qubit program needs ceil(10/4) = 3 units; 4-qubit program needs 1
    assert len(enumerate_regions(ug65_m4, 3)) < len(enumerate_regions(ug65_m4, 1))


def test_path_of_5_units_r2():
    ug = generate_compute_units(make_path(10), 2)
    assert len(ug.units) == 5
    assert ug.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    regions = enumerate_regions(ug, 2)
    assert [sorted(r.unit_ids) for r in regions] == [[0, 1], [2, 3]]


def test_region_qubit_counts(ug27_m4):
    r1 = enumerate_regions(ug27_m4, 1)
    assert len(r1[0].qubits) == 4
    r2 = enumerate_regions(ug27_m4, 2)
    counts = sorted(len(region.qubits) for region in r2)
    # one pair absorbs the 3-qubit residual unit
    assert counts == [7, 8, 8]


def test_region_bounds(ug27_m4):
    with pytest.raises(PartitionError):
        enumerate_regions(ug27_m4, 0)
    with pytest.raises(PartitionError):
        enumerate_regions(ug27_m4, 7)


def test_search_space_bound(ug65_m4):
    total_units = len(ug65_m4.units)
    for k in range(2, 11):
        r = math.ceil(k / 4)
        regions = enumerate_regions(ug65_m4, r)
        assert len(regions) <= total_units // r
        assert len(regions) >= 1


def test_regions_connected_in_device(ug65_m4):
    for r in (1, 2, 3):
        for region in enumerate_regions(ug65_m4, r):
            assert _bfs_connected(ug65_m4.device, region.qubits)


def test_enumeration_deterministic(ug65_m4):
    assert enumerate_regions(ug65_m4, 3) == enumerate_regions(ug65_m4, 3)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 199))
def test_partition_invariants_on_random_devices(seed):
    device, m = random_connected_device(seed)
    ug = generate_compute_units(device, m)
    problems = check_unit_graph(device, ug, m)
    assert not problems, problems
