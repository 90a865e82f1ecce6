"""Device graph loading, utility, and calibration-drift modeling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux.devices import (
    DeviceGraph,
    VariationModel,
    apply_variation,
    load_calibration,
    qubit_utility,
    utilities,
)
from qmux.errors import CalibrationError

from conftest import make_path, make_ring4
from oracles import rank_correlation


def _write(tmp_path, payload):
    p = tmp_path / "dev.json"
    p.write_text(json.dumps(payload))
    return p


def test_load_ring_calibration(tmp_path):
    payload = {
        "num_qubits": 4,
        "links": [[0, 1, 0.01], [1, 2, 0.01], [2, 3, 0.01], [0, 3, 0.01]],
        "qubit_errors": [0.001] * 4,
        "readout_errors": [0.02] * 4,
    }
    dev = load_calibration(_write(tmp_path, payload))
    assert dev.num_qubits == 4
    assert len(dev.links) == 4
    assert dev.has_link(3, 0) and dev.error_of(0, 3) == 0.01


def test_load_rejects_out_of_range_probability(tmp_path):
    payload = {
        "num_qubits": 2,
        "links": [[0, 1, 1.2]],
        "qubit_errors": [0.0, 0.0],
        "readout_errors": [0.0, 0.0],
    }
    with pytest.raises(CalibrationError, match="probability out of range"):
        load_calibration(_write(tmp_path, payload))


def test_load_rejects_disconnected_missing_and_duplicate(tmp_path):
    base = {
        "num_qubits": 4,
        "links": [[0, 1, 0.01], [2, 3, 0.01]],
        "qubit_errors": [0.0] * 4,
        "readout_errors": [0.0] * 4,
    }
    with pytest.raises(CalibrationError, match="connected"):
        load_calibration(_write(tmp_path, base))
    missing = dict(base)
    del missing["readout_errors"]
    with pytest.raises(CalibrationError, match="missing field"):
        load_calibration(_write(tmp_path, missing))
    dup = dict(base, links=[[0, 1, 0.01], [1, 0, 0.02], [1, 2, 0.01], [2, 3, 0.01]])
    with pytest.raises(CalibrationError, match="duplicate link"):
        load_calibration(_write(tmp_path, dup))


def test_device_refuses_an_error_rate_for_a_pair_that_is_not_a_link():
    rates = {(0, 1): 0.01, (1, 2): 0.01, (0, 2): 0.01}
    with pytest.raises(CalibrationError, match=r"^error rate given for \(0, 2\), which is not a link$"):
        DeviceGraph(3, ((0, 1), (1, 2)), rates, (0.001,) * 3, (0.02,) * 3)


def test_device_keeps_links_as_sorted_low_high_pairs():
    rates = {(0, 1): 0.01, (1, 2): 0.02, (0, 2): 0.03}
    given = DeviceGraph(3, ((2, 1), (1, 0), (0, 2)), rates, (0.001,) * 3, (0.02,) * 3)
    ordered = DeviceGraph(3, ((0, 1), (0, 2), (1, 2)), rates, (0.001,) * 3, (0.02,) * 3)
    assert given.links == ordered.links == ((0, 1), (0, 2), (1, 2))
    # Variation reads each link's error by its stored pair and draws in stored order.
    model = VariationModel(mu=0.0, sigma=0.3, seed=4)
    assert apply_variation(given, model).link_error == apply_variation(ordered, model).link_error


def test_bundled_heavy_hex_link_counts(heavyhex27, heavyhex65):
    assert heavyhex27.num_qubits == 27
    assert len(heavyhex27.links) == 28
    assert heavyhex65.num_qubits == 65


def test_utility_single_link():
    dev = make_path(2, err=0.01)
    assert qubit_utility(dev, 0) == pytest.approx(100.0)


def test_utility_three_equal_links():
    dev = DeviceGraph(
        num_qubits=4,
        links=((0, 1), (0, 2), (0, 3)),
        link_error={(0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.01},
        qubit_error=(0.0,) * 4,
        readout_error=(0.0,) * 4,
    )
    assert qubit_utility(dev, 0) == pytest.approx(100.0)


def test_utility_symmetry_on_ring():
    dev = make_ring4(err=0.02)
    vals = utilities(dev)
    assert len(set(vals)) == 1


def test_utility_scale_covariance(heavyhex27):
    c = 3.5
    scaled = DeviceGraph(
        num_qubits=heavyhex27.num_qubits,
        links=heavyhex27.links,
        link_error={k: v * c for k, v in heavyhex27.link_error.items()},
        qubit_error=heavyhex27.qubit_error,
        readout_error=heavyhex27.readout_error,
    )
    for q in range(heavyhex27.num_qubits):
        assert qubit_utility(scaled, q) == pytest.approx(qubit_utility(heavyhex27, q) / c)


def test_variation_zero_sigma_is_identity(heavyhex27):
    out = apply_variation(heavyhex27, VariationModel(mu=0.0, sigma=0.0, seed=9))
    assert out.link_error == heavyhex27.link_error
    assert out.links == heavyhex27.links


def test_variation_deterministic(heavyhex27):
    model = VariationModel(mu=0.0, sigma=0.3, seed=42)
    a = apply_variation(heavyhex27, model)
    b = apply_variation(heavyhex27, model)
    assert a.link_error == b.link_error
    assert a.link_error != heavyhex27.link_error


def test_variation_median_scale_factor():
    # log-normal(0, sigma) has median e^0 = 1 regardless of sigma
    base = make_path(100_001, err=0.01)
    varied = apply_variation(base, VariationModel(mu=0.0, sigma=0.25, seed=5))
    factors = np.array([varied.link_error[k] / 0.01 for k in base.links])
    assert factors.size == 100_000
    assert abs(float(np.median(factors)) - 1.0) < 0.02


def test_variation_preserves_topology_and_range(heavyhex27):
    out = apply_variation(heavyhex27, VariationModel(mu=2.0, sigma=1.5, seed=1))
    assert out.links == heavyhex27.links
    assert all(0.0 < e <= 0.999 for e in out.link_error.values())


def test_utility_ranking_survives_small_variation(heavyhex27):
    base = utilities(heavyhex27)
    rhos = []
    for seed in range(100):
        varied = apply_variation(heavyhex27, VariationModel(mu=0.0, sigma=0.1, seed=seed))
        rhos.append(rank_correlation(base, utilities(varied)))
    assert sum(rhos) / len(rhos) >= 0.9


@settings(deadline=None, max_examples=30)
@given(
    sigma=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_variation_always_valid_device(sigma, seed):
    dev = make_ring4(err=0.4)
    out = apply_variation(dev, VariationModel(mu=1.0, sigma=sigma, seed=seed))
    assert out.links == dev.links
    assert all(0.0 < e <= 0.999 for e in out.link_error.values())
