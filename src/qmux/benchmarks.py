"""Bundled benchmark programs and device calibrations."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .circuits import Circuit, parse_qasm
from .devices import DeviceGraph, load_calibration
from .errors import QmuxError

_BENCH_DIR = resources.files(__package__) / "assets" / "benchmarks"
_DEVICE_DIR = resources.files(__package__) / "assets" / "devices"


def suite() -> tuple[str, ...]:
    """Names of all bundled benchmark programs, sorted."""
    return tuple(sorted(p.name[: -len(".qasm")] for p in _BENCH_DIR.iterdir() if p.name.endswith(".qasm")))


def benchmark_path(name: str) -> Path:
    path = _BENCH_DIR / f"{name}.qasm"
    if not path.is_file():
        raise QmuxError(f"no bundled benchmark named {name!r}")
    return Path(str(path))


def load_benchmark(name: str) -> Circuit:
    return parse_qasm(benchmark_path(name).read_text(), name=name)


def device_names() -> tuple[str, ...]:
    return tuple(sorted(p.name[: -len(".json")] for p in _DEVICE_DIR.iterdir() if p.name.endswith(".json")))


def device_path(name: str) -> Path:
    path = _DEVICE_DIR / f"{name}.json"
    if not path.is_file():
        raise QmuxError(f"no bundled device named {name!r}")
    return Path(str(path))


def load_device(name: str) -> DeviceGraph:
    return load_calibration(device_path(name))
