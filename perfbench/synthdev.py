"""Seeded synthetic heavy-hex device, built through the public qmux API.

The layout is the 127-qubit heavy-hex lattice: seven rows of qubits
(14, 15, 15, 15, 15, 15, 14) joined by four bridge qubits between each pair
of neighbouring rows, on alternating columns. Error rates are drawn from the
seed around the medians of the bundled 65-qubit calibration and then drifted
once more by `apply_variation`, so every seed gives the same topology with
its own error map.
"""

from __future__ import annotations

import numpy as np

from qmux import DeviceGraph, VariationModel, apply_variation

ROWS = 7
WIDTH = 15
# Medians of the bundled heavyhex65 calibration; spreads are log-normal.
LINK_ERROR = 0.0092
QUBIT_ERROR = 0.00037
READOUT_ERROR = 0.0153
LOG_SPREAD = 0.4
DRIFT_SIGMA = 0.1


def heavy_hex_links(rows: int = ROWS, width: int = WIDTH) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Qubit count and sorted links of a heavy-hex lattice.

    Row r spans columns 0..width-1, except that the first row drops the last
    column and the last row drops the first. Bridges between rows r and r+1
    sit on columns 0, 4, 8, ... for even r and 2, 6, 10, ... for odd r.
    Qubits are numbered row by row, each row followed by its bridges.
    """
    if rows < 2 or width < 5:
        raise ValueError("a heavy-hex lattice needs at least 2 rows and width 5")
    row_qubit: dict[tuple[int, int], int] = {}
    bridges: list[tuple[int, int, int]] = []  # (bridge qubit, row above, column)
    links: list[tuple[int, int]] = []
    n = 0
    for r in range(rows):
        first = 1 if r == rows - 1 else 0
        last = width - 1 if r == 0 else width
        for c in range(first, last):
            row_qubit[(r, c)] = n
            if c > first:
                links.append((n - 1, n))
            n += 1
        if r < rows - 1:
            for c in range(0 if r % 2 == 0 else 2, width, 4):
                bridges.append((n, r, c))
                n += 1
    for b, r, c in bridges:
        links.append((row_qubit[(r, c)], b))
        links.append((b, row_qubit[(r + 1, c)]))
    return n, tuple(sorted((min(a, b), max(a, b)) for a, b in links))


def synthetic_heavy_hex(seed: int, rows: int = ROWS, width: int = WIDTH) -> DeviceGraph:
    """A heavy-hex DeviceGraph (127 qubits by default) whose error map is drawn from `seed`."""
    n, links = heavy_hex_links(rows, width)
    rng = np.random.default_rng([seed, n])

    def draw(median: float, size: int, cap: float) -> list[float]:
        values = rng.lognormal(np.log(median), LOG_SPREAD, size)
        return [float(v) for v in np.clip(values, 1e-5, cap)]

    base = DeviceGraph(
        num_qubits=n,
        links=links,
        link_error=dict(zip(links, draw(LINK_ERROR, len(links), 0.2))),
        qubit_error=tuple(draw(QUBIT_ERROR, n, 0.01)),
        readout_error=tuple(draw(READOUT_ERROR, n, 0.2)),
        name=f"heavyhex{n}_s{seed}",
    )
    return apply_variation(base, VariationModel(mu=0.0, sigma=DRIFT_SIGMA, seed=seed))
