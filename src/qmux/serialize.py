"""JSON persistence for compiled processes, selections, and crosstalk maps.

Lets compilation run once offline and selection consume the stored processes
later, which is the whole point of splitting the two phases.

Every compiled table is a `qmux-processes-v2` manifest, also the per-rank
file `qmux compile` writes, which holds one process of one executable. A
manifest holds one top-level "gates" table of distinct [name, qubits, params]
records, and each executable's "routed_gates" lists integer positions in it.
A compiled table repeats few distinct gates many times, so the file is
smaller and the loader checks and builds each distinct gate once.
"""

from __future__ import annotations

import json

from .circuits import Gate
from .compiler import Executable, Process, check_layout
from .devices import CrosstalkMap, _json_int, _numbers, read_json_object
from .errors import CompileError, QmuxError, located
from .orchestrator import Selection
from .partition import Region

_FORMAT = "qmux-processes-v2"


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, refused unless each is a JSON integer."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            _json_int(v, what)  # raises, with the message every loader shares
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


def _count(value, what: str, least: int) -> int:
    """`value`, refused unless it is a JSON integer of at least `least`."""
    if _json_int(value, what) < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _executable_from_dict(data: dict, gates: list[Gate], masks: list[int]) -> Executable:
    """Rebuild an executable, refusing what its record contradicts about itself.

    This is the one check of a record: a string name, integer ids and
    counts, a numeric utility, routed-gate indices inside the file's gate
    table, routed gates that stay inside the region, and layouts that pass
    `check_layout`, the rule `route` applies to its input layout. `gates`
    and `masks` are the file's gate table, from `_gate_table`; every record
    of one file shares its Gate objects.
    """
    try:
        region = Region(
            unit_ids=frozenset(_ints(data["region"]["unit_ids"], "region unit id")),
            qubits=frozenset(_ints(data["region"]["qubits"], "region qubit")),
        )
        program_name = data["program_name"]
        if type(program_name) is not str:
            raise TypeError(f"program_name must be a string, got {program_name!r}")
        exe = Executable(
            program_name=program_name,
            num_qubits=_json_int(data["num_qubits"], "num_qubits"),
            region=region,
            layout=_ints(data["layout"], "layout entry"),
            final_layout=_ints(data["final_layout"], "final layout entry"),
            routed_gates=_routed_gates(data["routed_gates"], gates, masks, region, program_name),
            swap_count=_count(data["swap_count"], "swap_count", 0),
            d_in=_count(data["d_in"], "d_in", 1),
            d_out=_count(data["d_out"], "d_out", 1),
            region_utility=_numbers((data["region_utility"],), "region_utility")[0],
        )
        for what, layout in (("layout", exe.layout), ("final layout", exe.final_layout)):
            check_layout(program_name, what, layout, exe.num_qubits, region.qubits)
        return exe
    except (KeyError, TypeError, ValueError, CompileError) as exc:
        raise QmuxError(f"malformed executable record: {exc}") from exc


def _process_from_dict(data: dict, gates: list[Gate], masks: list[int]) -> Process:
    """Rebuild a process, refusing a version whose program or size is not its own."""
    try:
        program_name = data["program_name"]
        num_qubits = _json_int(data["num_qubits"], "num_qubits")
        executables = tuple(_executable_from_dict(e, gates, masks) for e in data["executables"])
    except (KeyError, TypeError) as exc:
        raise QmuxError(f"malformed process record: {exc}") from exc
    for exe in executables:
        if exe.program_name != program_name or exe.num_qubits != num_qubits:
            raise QmuxError(
                f"malformed process record: {program_name!r} of {num_qubits} qubits holds a "
                f"version of {exe.program_name!r} of {exe.num_qubits} qubits"
            )
    return Process(program_name, num_qubits, executables)


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


def load_processes(path: str) -> list[Process]:
    """The processes of a qmux-processes-v2 manifest.

    Each gate record is checked and built once per file, so a file yields
    one Gate object per distinct gate."""
    payload = read_json_object(path)
    with located(path):
        if payload.get("format") != _FORMAT:
            raise QmuxError(f"not a {_FORMAT} file")
        gates, masks = _gate_table(payload.get("gates"))
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
    """Read {"flagged": [[a, b, factor], ...]}, qubit ids as JSON integers and
    factors as JSON numbers, into a CrosstalkMap."""
    payload = read_json_object(path)
    with located(path):
        try:
            amplification = {
                _ints((a, b), "flagged link qubit"): float(_numbers((f,), "crosstalk factor")[0])
                for a, b, f in payload["flagged"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise QmuxError(f"malformed crosstalk map: {exc}") from exc
        return CrosstalkMap(amplification)
