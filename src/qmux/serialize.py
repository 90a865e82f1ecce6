"""JSON persistence for compiled processes, selections, and crosstalk maps.

Lets compilation run once offline and selection consume the stored processes
later, which is the whole point of splitting the two phases.

A manifest (`qmux-processes-v2`) or an artifact (`qmux-executable-v2`) holds
one top-level "gates" table of distinct [name, qubits, params] records, and
each executable's "routed_gates" lists integer positions in it. A compiled
table repeats few distinct gates many times, so the file is smaller and the
loader checks and builds each distinct gate once.
"""

from __future__ import annotations

import json

from .circuits import Gate
from .compiler import Executable, Process
from .devices import CrosstalkMap, _json_int, read_json_object
from .errors import QmuxError, located
from .orchestrator import Selection
from .partition import Region

_FORMAT = "qmux-processes-v2"
_EXE_FORMAT = "qmux-executable-v2"


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


def _gate_table(records) -> tuple[list[Gate], list[int]]:
    """The Gate and the qubit mask of each [name, operands, params] record of
    a file's gate table.

    Each record is checked here, once: a string name, operands that are
    non-negative JSON integers, params that are JSON numbers, then Gate's own
    checks. No record is looked up by value, so 17.0 == 17 and true == 1
    cannot let a bad record pass as an equal good one.
    """
    if not isinstance(records, list):
        raise QmuxError('"gates" is not a list')
    gates, masks = [], []
    try:
        for name, qubits, params in records:
            if type(name) is not str:
                raise TypeError(f"gate name must be a string, got {name!r}")
            qubits = tuple(qubits)
            mask = 0
            for q in qubits:
                if type(q) is not int or q < 0:
                    raise TypeError(f"gate operand must be a non-negative integer, got {q!r}")
                mask |= 1 << q
            gates.append(Gate(name, qubits, _numbers(params, "gate param")))
            masks.append(mask)
    except (TypeError, ValueError) as exc:
        raise QmuxError(f"malformed gate record: {exc}") from exc
    return gates, masks


def _routed_gates(ids, gates: list[Gate], masks: list[int], region: Region, program_name: str):
    """The gates at `ids` in the file's gate table, refused unless every id is
    a JSON integer inside the table and every gate stays inside `region`.

    The region is checked once, on the OR of the masks of the distinct ids.
    """
    if not set(map(type, ids)) <= {int}:
        bad = next(i for i in ids if type(i) is not int)
        raise TypeError(f"routed gate index must be an integer, got {bad!r}")
    distinct = set(ids)
    if distinct and (min(distinct) < 0 or max(distinct) >= len(gates)):
        bad = next(i for i in ids if not 0 <= i < len(gates))
        raise ValueError(f"routed gate index {bad} is outside the gate table of {len(gates)} gates")
    used = 0
    for i in distinct:
        used |= masks[i]
    outside = ~region.qubit_mask
    if used & outside:
        gate = gates[next(i for i in ids if masks[i] & outside)]
        raise QmuxError(
            f"malformed executable record: {program_name}'s routed {gate.name} on qubits "
            f"{', '.join(map(str, gate.qubits))} leaves its region"
        )
    return tuple(map(gates.__getitem__, ids))


def _write_compact(path: str, payload: dict) -> None:
    # json.dumps without indent runs the C encoder in one go; json.dump and
    # any indent stream through the pure-Python one, slow on routed gates.
    text = json.dumps(payload, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _executable_to_dict(exe: Executable, index: dict) -> dict:
    """The record of `exe`; its routed gates are positions in the file's gate
    table, and `index` maps each (name, qubits, params) met so far to its one."""
    add = index.setdefault
    return {
        "program_name": exe.program_name,
        "num_qubits": exe.num_qubits,
        "region": {
            "unit_ids": sorted(exe.region.unit_ids),
            "qubits": sorted(exe.region.qubits),
        },
        "layout": list(exe.layout),
        "final_layout": list(exe.final_layout),
        "routed_gates": [add((g.name, g.qubits, g.params), len(index)) for g in exe.routed_gates],
        "swap_count": exe.swap_count,
        "d_in": exe.d_in,
        "d_out": exe.d_out,
        "region_utility": exe.region_utility,
    }


def _executable_from_dict(data: dict, gates: list[Gate], masks: list[int]) -> Executable:
    """Rebuild an executable, refusing what its record contradicts about itself.

    This is the one check of a record: integer ids, routed-gate indices
    inside the file's gate table, and layouts and routed gates that fit its
    size and region. `gates` and `masks` are the file's gate table, from
    `_gate_table`; every record of one file shares its Gate objects.
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
            routed_gates=_routed_gates(data["routed_gates"], gates, masks, region, program_name),
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


def _process_from_dict(data: dict, gates: list[Gate], masks: list[int]) -> Process:
    try:
        return Process(
            program_name=data["program_name"],
            num_qubits=_json_int(data["num_qubits"], "num_qubits"),
            executables=tuple(_executable_from_dict(e, gates, masks) for e in data["executables"]),
        )
    except (KeyError, TypeError) as exc:
        raise QmuxError(f"malformed process record: {exc}") from exc


def save_processes(path: str, processes: list[Process]) -> None:
    """Write a qmux-processes-v2 manifest: one gate table for the whole file,
    which every executable's routed gates index."""
    index: dict = {}
    records = [
        {
            "program_name": p.program_name,
            "num_qubits": p.num_qubits,
            "executables": [_executable_to_dict(e, index) for e in p.executables],
        }
        for p in processes
    ]
    # The encoder writes the index's key tuples as [name, qubits, params] arrays.
    _write_compact(path, {"format": _FORMAT, "gates": list(index), "processes": records})


def save_executable(path: str, exe: Executable) -> None:
    """Write a qmux-executable-v2 artifact: one record and its own gate table."""
    index: dict = {}
    record = _executable_to_dict(exe, index)
    _write_compact(path, {"format": _EXE_FORMAT, "gates": list(index), **record})


def load_processes(path: str) -> list[Process]:
    """The processes of a qmux-processes-v2 manifest, or of a qmux-executable-v2
    artifact: one process that holds the artifact's one executable.

    Each gate record is checked and built once per file, so a file yields
    one Gate object per distinct gate."""
    payload = read_json_object(path)
    kind = payload.get("format")
    with located(path):
        if kind != _FORMAT and kind != _EXE_FORMAT:
            raise QmuxError(f"not a {_EXE_FORMAT} or {_FORMAT} file")
        gates, masks = _gate_table(payload.get("gates"))
        if kind == _EXE_FORMAT:
            exe = _executable_from_dict(payload, gates, masks)
            return [Process(exe.program_name, exe.num_qubits, (exe,))]
        records = payload.get("processes")
        if not isinstance(records, list):
            raise QmuxError('"processes" is not a list')
        if not records:
            raise QmuxError(f"{_FORMAT} manifest holds no processes")
        return [_process_from_dict(p, gates, masks) for p in records]


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
