"""JSON persistence for compiled processes, selections, and crosstalk maps.

Lets compilation run once offline and selection consume the stored processes
later, which is the whole point of splitting the two phases.
"""

from __future__ import annotations

import json

from .circuits import Gate
from .compiler import Executable, Process
from .devices import CrosstalkMap, read_json_object
from .errors import QmuxError
from .orchestrator import Selection
from .partition import Region

_FORMAT = "qmux-processes-v1"
_EXE_FORMAT = "qmux-executable-v1"


def _gate_to_list(g: Gate) -> list:
    return [g.name, list(g.qubits), list(g.params)]


def _gate_from_list(item: list) -> Gate:
    name, qubits, params = item
    return Gate(name, tuple(qubits), tuple(params))


def _write_compact(path: str, payload: dict) -> None:
    # json.dumps without indent runs the C encoder in one go; json.dump and
    # any indent stream through the pure-Python one, slow on routed gates.
    text = json.dumps(payload, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def executable_to_dict(exe: Executable) -> dict:
    return {
        "program_name": exe.program_name,
        "num_qubits": exe.num_qubits,
        "region": {
            "unit_ids": sorted(exe.region.unit_ids),
            "qubits": sorted(exe.region.qubits),
        },
        "layout": list(exe.layout),
        "final_layout": list(exe.final_layout),
        "routed_gates": [_gate_to_list(g) for g in exe.routed_gates],
        "swap_count": exe.swap_count,
        "d_in": exe.d_in,
        "d_out": exe.d_out,
        "region_utility": exe.region_utility,
    }


def executable_from_dict(data: dict) -> Executable:
    """Rebuild an executable, refusing layouts that disagree with its size or region."""
    try:
        region = Region(
            unit_ids=frozenset(data["region"]["unit_ids"]),
            qubits=frozenset(data["region"]["qubits"]),
        )
        exe = Executable(
            program_name=data["program_name"],
            num_qubits=data["num_qubits"],
            region=region,
            layout=tuple(data["layout"]),
            final_layout=tuple(data["final_layout"]),
            routed_gates=tuple(_gate_from_list(g) for g in data["routed_gates"]),
            swap_count=data["swap_count"],
            d_in=data["d_in"],
            d_out=data["d_out"],
            region_utility=data["region_utility"],
        )
        if not len(exe.layout) == len(exe.final_layout) == exe.num_qubits:
            raise QmuxError(
                f"malformed executable record: {exe.program_name} has {exe.num_qubits} qubits "
                f"but layouts of {len(exe.layout)} and {len(exe.final_layout)}"
            )
        outside = set(exe.layout + exe.final_layout) - region.qubits
        if outside:
            raise QmuxError(
                f"malformed executable record: {exe.program_name} lays out qubits "
                f"{', '.join(map(str, sorted(outside)))} outside its region"
            )
        return exe
    except (KeyError, TypeError, ValueError) as exc:
        raise QmuxError(f"malformed executable record: {exc}") from exc


def process_to_dict(process: Process) -> dict:
    return {
        "program_name": process.program_name,
        "num_qubits": process.num_qubits,
        "executables": [executable_to_dict(e) for e in process.executables],
    }


def process_from_dict(data: dict) -> Process:
    try:
        return Process(
            program_name=data["program_name"],
            num_qubits=data["num_qubits"],
            executables=tuple(executable_from_dict(e) for e in data["executables"]),
        )
    except (KeyError, TypeError) as exc:
        raise QmuxError(f"malformed process record: {exc}") from exc


def save_processes(path: str, processes: list[Process]) -> None:
    payload = {
        "format": _FORMAT,
        "processes": [process_to_dict(p) for p in processes],
    }
    _write_compact(path, payload)


def _process_records(path: str, payload: dict) -> list:
    records = payload.get("processes")
    if not isinstance(records, list):
        raise QmuxError(f"{path}: \"processes\" is not a list")
    return records


def load_processes(path: str) -> list[Process]:
    payload = read_json_object(path)
    if payload.get("format") != _FORMAT:
        raise QmuxError(f"{path}: not a {_FORMAT} file")
    return [process_from_dict(p) for p in _process_records(path, payload)]


def save_executable(path: str, exe: Executable) -> None:
    payload = executable_to_dict(exe)
    payload["format"] = _EXE_FORMAT
    _write_compact(path, payload)


def load_executables(path: str) -> list[Executable]:
    """Read executables from an artifact or a process manifest.

    A single-executable artifact yields one entry; a process manifest yields
    that process's full cost-ascending list.
    """
    payload = read_json_object(path)
    kind = payload.get("format")
    if kind == _EXE_FORMAT:
        return [executable_from_dict(payload)]
    if kind == _FORMAT:
        return [e for p in _process_records(path, payload) for e in process_from_dict(p).executables]
    raise QmuxError(f"{path}: not a {_EXE_FORMAT} or {_FORMAT} file")


def selection_to_dict(selection: Selection) -> dict:
    return {
        "strategy": selection.strategy,
        "index_sum": selection.index_sum,
        "evaluations": selection.evaluations,
        "elapsed_s": selection.elapsed_s,
        "timed_out": selection.timed_out,
        "chosen": [
            {
                "program_name": exe.program_name,
                "index": rank,
                "region_qubits": sorted(exe.region.qubits),
                "unit_ids": sorted(exe.region.unit_ids),
                "d_out": exe.d_out,
                "swap_count": exe.swap_count,
            }
            for exe, rank in zip(selection.executables, selection.ranks)
        ],
    }


def load_crosstalk_map(path: str) -> CrosstalkMap:
    """Read {"flagged": [[a, b, factor], ...]} into a CrosstalkMap."""
    payload = read_json_object(path)
    try:
        amplification = {(int(a), int(b)): float(f) for a, b, f in payload["flagged"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise QmuxError(f"{path}: malformed crosstalk map: {exc}") from exc
    return CrosstalkMap(amplification)


def save_crosstalk_map(path: str, crosstalk: CrosstalkMap) -> None:
    flagged = [[a, b, f] for (a, b), f in sorted(crosstalk.amplification.items())]
    with open(path, "w") as fh:
        json.dump({"flagged": flagged}, fh, indent=2)
        fh.write("\n")
