"""Gate-list circuit representation and a restricted OpenQASM 2 front end.

The IR is deliberately small: a circuit is an ordered tuple of gates over a
single qubit register. Depth is defined on the dependency DAG where two gates
conflict iff they share an operand; barriers synchronize every qubit they
span and measures occupy a layer like any other gate.
"""

from __future__ import annotations

import ast
import math
import re
import threading
from dataclasses import dataclass

from .errors import CircuitError, QasmError

# Supported gate vocabulary: name -> parameter count.
SINGLE_QUBIT_GATES = {
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "h": 0,
    "x": 0,
    "y": 0,
    "z": 0,
    "s": 0,
    "t": 0,
    "sdg": 0,
    "tdg": 0,
}
TWO_QUBIT_GATES = ("cx", "swap")


@dataclass(frozen=True)
class Gate:
    """One operation: a named gate, a measure, or a barrier."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.name} has repeated operands {self.qubits}")
        if self.name in SINGLE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.name} takes exactly one qubit")
            if len(self.params) != SINGLE_QUBIT_GATES[self.name]:
                raise CircuitError(
                    f"{self.name} takes {SINGLE_QUBIT_GATES[self.name]} parameter(s), "
                    f"got {len(self.params)}"
                )
        elif self.name in TWO_QUBIT_GATES:
            if len(self.qubits) != 2:
                raise CircuitError(f"{self.name} takes exactly two distinct qubits")
        elif self.name == "measure":
            if len(self.qubits) != 1:
                raise CircuitError("measure takes exactly one qubit")
        elif self.name == "barrier":
            if not self.qubits:
                raise CircuitError("barrier must span at least one qubit")
        else:
            raise CircuitError(f"unknown gate {self.name!r}")

    @property
    def is_two_qubit(self) -> bool:
        return self.name in TWO_QUBIT_GATES


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a single register of `num_qubits` qubits."""

    name: str
    num_qubits: int
    gates: tuple[Gate, ...]
    num_clbits: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        measured: set[int] = set()
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"{gate.name} operand {q} outside register of size {self.num_qubits}"
                    )
                if q in measured and gate.name != "measure":
                    raise CircuitError(
                        f"{gate.name} on qubit {q} after its measurement"
                    )
            if gate.name == "measure":
                measured.add(gate.qubits[0])


def gate_list_depth(gates) -> int:
    """Depth of an ordered gate list: longest chain of operand-sharing gates."""
    level: dict[int, int] = {}
    depth = 0
    for gate in gates:
        qubits = gate.qubits
        layer = 0
        for q in qubits:
            if level.get(q, 0) > layer:
                layer = level[q]
        layer += 1
        for q in qubits:
            level[q] = layer
        if layer > depth:
            depth = layer
    return depth


def decompose_swaps(circuit: Circuit) -> Circuit:
    """Expand every swap into its 3-CNOT equivalent; other gates pass through."""
    out: list[Gate] = []
    for g in circuit.gates:
        if g.name == "swap":
            a, b = g.qubits
            out.extend((Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))))
        else:
            out.append(g)
    return Circuit(circuit.name, circuit.num_qubits, tuple(out), circuit.num_clbits)


# --- OpenQASM 2 front end -------------------------------------------------

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_APP_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^)]*)\))?\s*(.*)$", re.DOTALL)
_OPERAND_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?$")
_MEASURE_RE = re.compile(
    r"^measure\s+([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?\s*->\s*([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?$"
)

_KNOWN_UNSUPPORTED = (
    "gate", "if", "reset", "opaque", "gatedef",
    "ccx", "cz", "cu1", "cu3", "crz", "ch", "id", "cswap", "u", "p",
)


def _strip_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def _statements(text: str):
    """Yield (statement, line) pairs; line is where the statement starts."""
    buf: list[str] = []
    line = 1
    start: int | None = None
    for ch in text:
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                yield stmt, start if start is not None else line
            buf = []
            start = None
        else:
            if ch.strip():
                if start is None:
                    start = line
                buf.append(ch)
            elif buf:
                buf.append(ch)
            if ch == "\n":
                line += 1
    tail = "".join(buf).strip()
    if tail:
        raise QasmError(f"unterminated statement {tail[:40]!r}", start or line)


# CPython 3.11's AST constructor keeps one depth counter per interpreter, so
# two threads in ast.parse at once can raise SystemError; parses take turns.
_PARSE_LOCK = threading.Lock()


def _eval_param(text: str, line: int) -> float:
    """Evaluate a parameter expression of numbers, pi, + - * / ** and parens."""
    try:
        with _PARSE_LOCK:
            tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        raise QasmError(f"bad parameter expression {text.strip()!r}", line) from None

    def walk(node) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            return left**right
        raise QasmError(f"unsupported term in parameter {text.strip()!r}", line)

    return walk(tree)


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse a restricted OpenQASM 2 program into a Circuit.

    Supported statements: the version header, a single qreg (plus at most one
    creg), the gate vocabulary in SINGLE_QUBIT_GATES, cx, swap, barrier, and
    measure. Anything else raises QasmError naming the construct and the line.
    """
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []

    def qubit_of(token: str, line: int) -> list[int]:
        m = _OPERAND_RE.match(token.strip())
        if not m:
            raise QasmError(f"bad operand {token.strip()!r}", line)
        reg, idx = m.group(1), m.group(2)
        if qreg is None or reg != qreg[0]:
            raise QasmError(f"unknown quantum register {reg!r}", line)
        if idx is None:
            return list(range(qreg[1]))
        i = int(idx)
        if i >= qreg[1]:
            raise QasmError(f"operand {reg}[{i}] outside register of size {qreg[1]}", line)
        return [i]

    for stmt, line in _statements(_strip_comments(text)):
        stmt = re.sub(r"\s+", " ", stmt)
        if stmt.startswith("OPENQASM"):
            version = stmt.split(None, 1)[1] if " " in stmt else ""
            if version.strip() != "2.0":
                raise QasmError(f"unsupported OPENQASM version {version.strip()!r}", line)
            continue
        if stmt.startswith("include"):
            if '"qelib1.inc"' not in stmt:
                raise QasmError(f"unsupported include {stmt!r}", line)
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if qreg is not None:
                raise QasmError("multiple quantum registers are not supported", line)
            qreg = (m.group(1), int(m.group(2)))
            if qreg[1] < 1:
                raise QasmError("empty quantum register", line)
            continue
        m = _CREG_RE.match(stmt)
        if m:
            if creg is not None:
                raise QasmError("multiple classical registers are not supported", line)
            creg = (m.group(1), int(m.group(2)))
            continue
        m = _MEASURE_RE.match(stmt)
        if m:
            if qreg is None:
                raise QasmError("measure before qreg declaration", line)
            qs = qubit_of(m.group(1) + ("" if m.group(2) is None else f"[{m.group(2)}]"), line)
            if creg is None or m.group(3) != creg[0]:
                raise QasmError(f"unknown classical register {m.group(3)!r}", line)
            for q in qs:
                gates.append(Gate("measure", (q,)))
            continue
        m = _APP_RE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", line)
        head, params_text, args_text = m.group(1), m.group(2), m.group(3)
        if head == "barrier":
            if qreg is None:
                raise QasmError("barrier before qreg declaration", line)
            spanned: list[int] = []
            for tok in args_text.split(","):
                spanned.extend(qubit_of(tok, line))
            gates.append(Gate("barrier", tuple(dict.fromkeys(spanned))))
            continue
        if head in SINGLE_QUBIT_GATES:
            want = SINGLE_QUBIT_GATES[head]
            params = tuple(
                _eval_param(p, line) for p in (params_text.split(",") if params_text else [])
            )
            if len(params) != want:
                raise QasmError(f"{head} takes {want} parameter(s), got {len(params)}", line)
            targets = [q for tok in args_text.split(",") for q in qubit_of(tok, line)]
            for q in targets:
                gates.append(Gate(head, (q,), params))
            continue
        if head in TWO_QUBIT_GATES:
            if params_text:
                raise QasmError(f"{head} takes no parameters", line)
            toks = args_text.split(",")
            if len(toks) != 2:
                raise QasmError(f"{head} takes exactly two operands", line)
            (a,), (b,) = (qubit_of(toks[0], line), qubit_of(toks[1], line))
            if a == b:
                raise QasmError(f"{head} operands must be distinct", line)
            gates.append(Gate(head, (a, b)))
            continue
        if head in _KNOWN_UNSUPPORTED:
            raise QasmError(f"unsupported construct {head!r}", line)
        raise QasmError(f"unsupported statement {stmt!r}", line)

    if qreg is None:
        raise QasmError("program declares no quantum register")
    try:
        return Circuit(name, qreg[1], tuple(gates), creg[1] if creg else 0)
    except CircuitError as exc:
        raise QasmError(str(exc)) from exc
