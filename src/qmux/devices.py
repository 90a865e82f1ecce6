"""Calibrated device graphs and day-to-day error-rate variation.

A device is an undirected connected graph of physical qubits whose links carry
calibrated two-qubit error rates. Qubit utility rewards well-connected qubits
with reliable links: degree divided by the summed error of incident links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CalibrationError, QmuxError, located

_EDGE_CAP = 0.999  # varied link errors stay inside (0, 1)


def _norm_link(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


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


@dataclass(frozen=True)
class DeviceGraph:
    """Connected undirected graph of physical qubits with calibration data."""

    num_qubits: int
    links: tuple[tuple[int, int], ...]
    link_error: dict[tuple[int, int], float]
    qubit_error: tuple[float, ...]
    readout_error: tuple[float, ...]
    name: str = "device"

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise CalibrationError("device needs at least one qubit")
        seen: set[tuple[int, int]] = set()
        for a, b in self.links:
            if a == b:
                raise CalibrationError(f"self-link on qubit {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise CalibrationError(f"link ({a},{b}) endpoint outside device")
            key = _norm_link(a, b)
            if key in seen:
                raise CalibrationError(f"duplicate link {key}")
            seen.add(key)
            err = self.link_error.get(key)
            if err is None:
                raise CalibrationError(f"link {key} has no error rate")
            if not (0.0 < err < 1.0):
                raise CalibrationError(f"probability out of range on link {key}: {err}")
        extra = self.link_error.keys() - seen
        if extra:
            raise CalibrationError(f"error rate given for {min(extra)}, which is not a link")
        if len(self.qubit_error) != n or len(self.readout_error) != n:
            raise CalibrationError("per-qubit error arrays must have one entry per qubit")
        for label, rates in (("qubit", self.qubit_error), ("readout", self.readout_error)):
            for q, p in enumerate(rates):
                if not (0.0 <= p < 1.0):
                    raise CalibrationError(
                        f"probability out of range in {label} error of qubit {q}: {p}"
                    )
        if len(_components(set(range(n)), self.adjacency)) > 1:
            raise CalibrationError("device topology is disconnected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_qubits)]
        for a, b in self.links:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(sorted(v)) for v in out)

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self.adjacency[q]

    def error_of(self, a: int, b: int) -> float:
        return self.link_error[_norm_link(a, b)]

    def has_link(self, a: int, b: int) -> bool:
        return _norm_link(a, b) in self.link_error


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json_object(path: str | Path) -> dict:
    """The JSON object stored at `path`; any other content, or no file, raises QmuxError.

    NaN, Infinity and -Infinity are not JSON, though json.load reads them as floats."""
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise QmuxError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise QmuxError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise QmuxError(f"{path}: not a JSON object")
    return payload


def _json_int(value, what: str) -> int:
    # JSON true and false load as bool, a subclass of int.
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _numbers(values, what: str) -> tuple:
    """`values` as a tuple, refused unless each is a JSON number (not a string, true or false)."""
    values = tuple(values)
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise TypeError(f"{what} must be a number, got {v!r}")
    return values


def load_calibration(path: str | Path) -> DeviceGraph:
    """Load a calibration JSON file into a validated DeviceGraph.

    Expected schema: num_qubits and link endpoints as JSON integers, links as
    [a, b, error] triples, qubit_errors and readout_errors, every rate a JSON
    number, and an optional string name. This reads and
    converts the fields; DeviceGraph checks ranges, duplicate links and
    connectivity. Every error after the read names the file.
    """
    path = Path(path)
    raw = read_json_object(path)
    with located(path):
        for field_name in ("num_qubits", "links", "qubit_errors", "readout_errors"):
            if field_name not in raw:
                raise CalibrationError(f"missing field {field_name!r}")
        try:
            links: list[tuple[int, int]] = []
            link_error: dict[tuple[int, int], float] = {}
            for entry in raw["links"]:
                if len(entry) != 3:
                    raise CalibrationError(f"link entry {entry!r} is not [a, b, error]")
                a, b, err = entry
                what = f"endpoint of link {entry!r}"
                key = _norm_link(_json_int(a, what), _json_int(b, what))
                links.append(key)  # a repeat stays in `links`, where DeviceGraph refuses it
                link_error[key] = float(_numbers((err,), f"error of link {entry!r}")[0])
            name = raw.get("name", path.stem)
            if type(name) is not str:
                raise TypeError(f"device name must be a string, got {name!r}")
            return DeviceGraph(
                num_qubits=_json_int(raw["num_qubits"], "num_qubits"),
                links=tuple(sorted(links)),
                link_error=link_error,
                qubit_error=tuple(map(float, _numbers(raw["qubit_errors"], "qubit error"))),
                readout_error=tuple(map(float, _numbers(raw["readout_errors"], "readout error"))),
                name=name,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed calibration ({exc})") from exc


def qubit_utility(device: DeviceGraph, q: int) -> float:
    """Degree over summed incident link error; isolated qubits score 0."""
    incident = device.neighbors(q)
    if not incident:
        return 0.0
    # Summed left to right: sum() of floats rounds differently from 3.12 on.
    total = 0.0
    for u in incident:
        total += device.error_of(q, u)
    return len(incident) / total


def utilities(device: DeviceGraph) -> tuple[float, ...]:
    return tuple(qubit_utility(device, q) for q in range(device.num_qubits))


@dataclass(frozen=True)
class CrosstalkMap:
    """Links flagged as crosstalk-prone, with their error amplification factors."""

    amplification: dict[tuple[int, int], float]

    def __post_init__(self):
        normalized = {}
        for (a, b), f in self.amplification.items():
            if f < 1.0:
                raise CalibrationError(f"crosstalk factor {f} on {(a, b)} below 1")
            if a < 0 or b < 0:
                raise CalibrationError(f"crosstalk link {(a, b)} has a negative qubit id")
            normalized[_norm_link(a, b)] = float(f)
        object.__setattr__(self, "amplification", normalized)

    @cached_property
    def flagged(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.amplification)

    @cached_property
    def _partner_masks(self) -> dict[int, int]:
        """Each qubit on a flagged link -> mask of the qubits it shares one with."""
        partners: dict[int, int] = {}
        for a, b in self.amplification:
            partners[a] = partners.get(a, 0) | 1 << b
            partners[b] = partners.get(b, 0) | 1 << a
        return partners

    def partners_of(self, qubits) -> int:
        """Mask of every qubit that a flagged link joins to one of `qubits`."""
        partners = self._partner_masks
        mask = 0
        for q in qubits:
            mask |= partners.get(q, 0)
        return mask


@dataclass(frozen=True)
class VariationModel:
    """Log-normal multiplicative model of day-to-day link-error drift."""

    mu: float
    sigma: float
    seed: int = 0

    def __post_init__(self):
        # sigma 0 is the exact no-drift model; negative spreads are nonsense.
        if self.sigma < 0:
            raise CalibrationError("variation sigma must be non-negative")


def apply_variation(device: DeviceGraph, model: VariationModel) -> DeviceGraph:
    """Scale every link error by an independent log-normal draw.

    Draws are assigned to links in sorted order, so a given seed always
    produces the same varied device. Scaled errors are clamped into
    (0, 0.999].
    """
    rng = np.random.default_rng(model.seed)
    factors = rng.lognormal(model.mu, model.sigma, size=len(device.links))
    varied = {}
    for (a, b), f in zip(device.links, factors):
        varied[(a, b)] = min(device.link_error[(a, b)] * float(f), _EDGE_CAP)
    return DeviceGraph(
        num_qubits=device.num_qubits,
        links=device.links,
        link_error=varied,
        qubit_error=device.qubit_error,
        readout_error=device.readout_error,
        name=device.name,
    )

