"""JSON persistence for compiled processes, selections, and crosstalk maps.

Lets compilation run once offline and selection consume the stored processes
later, which is the whole point of splitting the two phases.
"""

from __future__ import annotations

import json

from .circuits import Gate
from .compiler import Executable, Process
from .devices import CrosstalkMap, _json_int, read_json_object
from .errors import QmuxError, located
from .orchestrator import Selection
from .partition import Region

_FORMAT = "qmux-processes-v1"
_EXE_FORMAT = "qmux-executable-v1"


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, refused unless each is a JSON integer."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            _json_int(v, what)  # raises, with the message every loader shares
    return values


def _numbers(values, what: str) -> tuple:
    """`values` as a tuple, refused unless each is a JSON number (not true or false)."""
    values = tuple(values)
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise TypeError(f"{what} must be a number, got {v!r}")
    return values


def _gates(records, built: dict, region: frozenset[int], program_name: str) -> tuple[Gate, ...]:
    """Gates for routed-gate records; `built` maps each distinct record to its one Gate.

    Operands, params and the region are checked on every record, before the
    lookup: 17.0 == 17 and true == 1, so a float operand or a bool param
    would otherwise find the gate of an equal record, and a gate built for
    one executable's region may lie outside the next one's.
    """
    out = []
    for name, qubits, params in records:
        key = (name, _ints(qubits, "gate operand"), _numbers(params, "gate param"))
        if not region.issuperset(key[1]):
            raise QmuxError(
                f"malformed executable record: {program_name}'s routed {name} on qubits "
                f"{', '.join(map(str, key[1]))} leaves its region"
            )
        gate = built.get(key)
        if gate is None:
            gate = built[key] = Gate(*key)
        out.append(gate)
    return tuple(out)


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
        # The encoder writes tuples as arrays, so no list is built per gate.
        "routed_gates": [(g.name, g.qubits, g.params) for g in exe.routed_gates],
        "swap_count": exe.swap_count,
        "d_in": exe.d_in,
        "d_out": exe.d_out,
        "region_utility": exe.region_utility,
    }


def executable_from_dict(data: dict, gates: dict) -> Executable:
    """Rebuild an executable, refusing what its record contradicts about itself.

    This is the one check of a record: integer ids, numeric gate params, and
    layouts and routed gates that fit its size and region. `gates` holds the
    gates already read from this file, by record; every record of one file
    shares it, so each distinct gate is built once.
    """
    try:
        region = Region(
            unit_ids=frozenset(_ints(data["region"]["unit_ids"], "region unit id")),
            qubits=frozenset(_ints(data["region"]["qubits"], "region qubit")),
        )
        program_name = data["program_name"]
        exe = Executable(
            program_name=program_name,
            num_qubits=_json_int(data["num_qubits"], "num_qubits"),
            region=region,
            layout=_ints(data["layout"], "layout entry"),
            final_layout=_ints(data["final_layout"], "final layout entry"),
            routed_gates=_gates(data["routed_gates"], gates, region.qubits, program_name),
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


def process_from_dict(data: dict, gates: dict) -> Process:
    """Rebuild a process; `gates` is shared as in `executable_from_dict`."""
    try:
        return Process(
            program_name=data["program_name"],
            num_qubits=_json_int(data["num_qubits"], "num_qubits"),
            executables=tuple(executable_from_dict(e, gates) for e in data["executables"]),
        )
    except (KeyError, TypeError) as exc:
        raise QmuxError(f"malformed process record: {exc}") from exc


def save_processes(path: str, processes: list[Process]) -> None:
    payload = {
        "format": _FORMAT,
        "processes": [process_to_dict(p) for p in processes],
    }
    _write_compact(path, payload)


def load_processes(path: str) -> list[Process]:
    """The processes of a qmux-processes-v1 manifest, or of a qmux-executable-v1
    artifact: one process that holds the artifact's one executable."""
    payload = read_json_object(path)
    kind = payload.get("format")
    gates: dict = {}
    with located(path):
        if kind == _EXE_FORMAT:
            exe = executable_from_dict(payload, gates)
            return [Process(exe.program_name, exe.num_qubits, (exe,))]
        if kind != _FORMAT:
            raise QmuxError(f"not a {_EXE_FORMAT} or {_FORMAT} file")
        records = payload.get("processes")
        if not isinstance(records, list):
            raise QmuxError('"processes" is not a list')
        if not records:
            raise QmuxError(f"{_FORMAT} manifest holds no processes")
        return [process_from_dict(p, gates) for p in records]


def save_executable(path: str, exe: Executable) -> None:
    payload = executable_to_dict(exe)
    payload["format"] = _EXE_FORMAT
    _write_compact(path, payload)


def selection_to_dict(selection: Selection) -> dict:
    return {
        "strategy": selection.strategy,
        "index_sum": selection.index_sum,
        "evaluations": selection.evaluations,
        "nodes": selection.nodes,
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
    """Read {"flagged": [[a, b, factor], ...]}, qubit ids as JSON integers, into a CrosstalkMap."""
    payload = read_json_object(path)
    with located(path):
        try:
            amplification = {
                _ints((a, b), "flagged link qubit"): float(f) for a, b, f in payload["flagged"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise QmuxError(f"malformed crosstalk map: {exc}") from exc
        return CrosstalkMap(amplification)


def save_crosstalk_map(path: str, crosstalk: CrosstalkMap) -> None:
    flagged = [[a, b, f] for (a, b), f in sorted(crosstalk.amplification.items())]
    with open(path, "w") as fh:
        json.dump({"flagged": flagged}, fh, indent=2)
        fh.write("\n")
