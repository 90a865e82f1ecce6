"""Gate-list circuit representation and a restricted OpenQASM 2 front end.

The IR is deliberately small: a circuit is an ordered tuple of gates over a
single qubit register. Depth is defined on the dependency DAG where two gates
conflict iff they share an operand; barriers synchronize every qubit they
span and measures occupy a layer like any other gate.

`Gate` is the one check of a gate, for the QASM parser and the table loader
alike: a known name, its arity, distinct operands, and finite parameters on
the parametric one-qubit gates only. The parser checks only what the source
text says (statements, registers, operand indices, parameter expressions),
builds `Gate`s, and reports a refused gate as a QasmError at its statement's
line. A register may hold at most MAX_REGISTER_SIZE qubits or bits. Every
operand, quantum or classical, goes through one reader that checks its
register and index; parameter expressions may nest parentheses, and one too
deep to evaluate is refused. Within one `parse_qasm` call each distinct
parameter text is evaluated once and each distinct operand token read once;
the results live in dicts of that call, and nothing is cached across calls.
"""

from __future__ import annotations

import ast
import math
import re
import sys
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
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Gate:
    """One operation: a named gate, a measure, or a barrier."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        name, qubits, params = self.name, self.qubits, self.params
        n = len(qubits)
        if n > 1 and len(set(qubits)) != n:
            raise CircuitError(f"{name} has repeated operands {qubits}")
        arity = SINGLE_QUBIT_GATES.get(name)
        if arity is not None:
            if n != 1:
                raise CircuitError(f"{name} takes exactly one qubit")
            if len(params) != arity:
                raise CircuitError(f"{name} takes {arity} parameter(s), got {len(params)}")
        elif name in TWO_QUBIT_GATES:
            if n != 2:
                raise CircuitError(f"{name} takes exactly two distinct qubits")
        elif name == "measure":
            if n != 1:
                raise CircuitError("measure takes exactly one qubit")
        elif name == "barrier":
            if not n:
                raise CircuitError("barrier must span at least one qubit")
        else:
            raise CircuitError(f"unknown gate {name!r}")
        if params:
            if arity is None:
                raise CircuitError(f"{name} takes no parameters")
            for p in params:
                if not abs(p) <= _FLOAT_MAX:  # NaN, infinities and ints past float range
                    raise CircuitError(f"{name} parameter {p} is not a finite float")

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
        if len(qubits) == 1:
            q = qubits[0]
            layer = level[q] = level.get(q, 0) + 1
        else:
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

# A register past this size is refused at its declaration, before a
# whole-register operand can expand it one gate per qubit.
MAX_REGISTER_SIZE = 1024
# Leading words of the statements that apply a gate; only other statements
# walk the header, register and measure cascade.
_APPLIED = frozenset(SINGLE_QUBIT_GATES) | frozenset(TWO_QUBIT_GATES) | {"barrier"}
_COMMENT_RE = re.compile(r"//[^\n]*")
_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
# Parameters run to the statement's last ")", so they may nest parentheses.
_APP_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*(.*)$", re.DOTALL)
_OPERAND_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?$")
_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")

_KNOWN_UNSUPPORTED = (
    "gate", "if", "reset", "opaque", "gatedef",
    "ccx", "cz", "cu1", "cu3", "crz", "ch", "id", "cswap", "u", "p",
)


def _statements(text: str):
    """Yield (statement, line) pairs; line is that of the statement's first
    non-blank character."""
    *chunks, tail = text.split(";")
    line = 1
    for chunk in chunks:
        stmt = chunk.strip()
        if stmt:
            yield stmt, line + chunk.count("\n", 0, chunk.index(stmt[0]))
        line += chunk.count("\n")
    stmt = tail.strip()
    if stmt:
        line += tail.count("\n", 0, tail.index(stmt[0]))
        raise QasmError(f"unterminated statement {stmt[:40]!r}", line)


def _decimal(digits: str, line: int) -> int:
    """A register size or index; one with more digits than int() reads is refused."""
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise QasmError(f"number {digits[:40]}... has too many digits", line) from None


def _register(decl: re.Match, kind: str, line: int) -> tuple[str, int]:
    """The (name, size) a qreg or creg declares, refused past MAX_REGISTER_SIZE."""
    size = _decimal(decl[2], line)
    if size > MAX_REGISTER_SIZE:
        raise QasmError(f"{kind} register of size {size} exceeds the limit of {MAX_REGISTER_SIZE}", line)
    return decl[1], size


# CPython 3.11's AST constructor keeps one depth counter per interpreter, so
# two threads in ast.parse at once can raise SystemError; parses take turns.
_PARSE_LOCK = threading.Lock()


def _eval_param(text: str, line: int) -> float:
    """Evaluate a parameter expression of numbers, pi, + - * / ** and parens."""
    text = text.strip()

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
        raise QasmError(f"unsupported term in parameter {text!r}", line)

    try:
        with _PARSE_LOCK:
            tree = ast.parse(text, mode="eval")
        return walk(tree)
    except SyntaxError:
        raise QasmError(f"bad parameter expression {text!r}", line) from None
    except (ZeroDivisionError, OverflowError) as exc:
        raise QasmError(f"cannot evaluate parameter {text!r} ({exc})", line) from None
    except RecursionError:  # from the parser or from walk, on a very long expression
        raise QasmError(f"parameter expression {text[:40]!r}... nests too deeply", line) from None


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse a restricted OpenQASM 2 program into a Circuit.

    Supported statements: the version header, a single qreg (plus at most one
    creg), each of at most MAX_REGISTER_SIZE, the gate vocabulary in
    SINGLE_QUBIT_GATES, cx, swap, barrier, and measure. Anything else raises
    QasmError naming the construct and the line. A statement whose leading
    word is a gate name goes straight to the gate path. Each distinct
    parameter text is evaluated, and each distinct operand token read against
    its register, once per call; nothing is kept from one call to the next.
    """
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []
    values: dict[str, float] = {}
    indices: dict[str, dict[str, tuple[int, ...]]] = {"quantum": {}, "classical": {}}

    def value_of(text: str, line: int) -> float:
        value = values.get(text)
        if value is None:
            value = values[text] = _eval_param(text, line)
        return value

    def operand_of(token: str, reg: tuple[str, int] | None, kind: str, line: int) -> tuple[int, ...]:
        """The indices `token` names in `reg`, the program's one register of `kind`."""
        known = indices[kind]
        found = known.get(token)
        if found is not None:
            return found
        m = _OPERAND_RE.match(token.strip())
        if not m:
            raise QasmError(f"bad operand {token.strip()!r}", line)
        name, idx = m.groups()
        if reg is None or name != reg[0]:
            raise QasmError(f"unknown {kind} register {name!r}", line)
        if idx is None:
            found = tuple(range(reg[1]))
        else:
            i = _decimal(idx, line)
            if i >= reg[1]:
                raise QasmError(f"operand {name}[{i}] outside register of size {reg[1]}", line)
            found = (i,)
        known[token] = found
        return found

    line = None
    try:
        for stmt, line in _statements(_COMMENT_RE.sub("", text)):
            stmt = " ".join(stmt.split())
            m = _APP_RE.match(stmt)
            if m is None or m[1] not in _APPLIED:
                if stmt.startswith("OPENQASM"):
                    version = stmt.split(None, 1)[1] if " " in stmt else ""
                    if version.strip() != "2.0":
                        raise QasmError(f"unsupported OPENQASM version {version.strip()!r}", line)
                    continue
                if stmt.startswith("include"):
                    if '"qelib1.inc"' not in stmt:
                        raise QasmError(f"unsupported include {stmt!r}", line)
                    continue
                decl = _QREG_RE.match(stmt)
                if decl:
                    if qreg is not None:
                        raise QasmError("multiple quantum registers are not supported", line)
                    qreg = _register(decl, "quantum", line)
                    if qreg[1] < 1:
                        raise QasmError("empty quantum register", line)
                    continue
                decl = _CREG_RE.match(stmt)
                if decl:
                    if creg is not None:
                        raise QasmError("multiple classical registers are not supported", line)
                    creg = _register(decl, "classical", line)
                    continue
                decl = _MEASURE_RE.match(stmt)
                if decl:
                    qs = operand_of(decl[1], qreg, "quantum", line)
                    bits = operand_of(decl[2], creg, "classical", line)
                    if len(qs) != len(bits):
                        raise QasmError(f"measure of {len(qs)} qubit(s) into {len(bits)} bit(s)", line)
                    for q in qs:
                        gates.append(Gate("measure", (q,)))
                    continue
                if m is None:
                    raise QasmError(f"cannot parse statement {stmt!r}", line)
                if m[1] in _KNOWN_UNSUPPORTED:
                    raise QasmError(f"unsupported construct {m[1]!r}", line)
                raise QasmError(f"unsupported statement {stmt!r}", line)
            head, params_text, args_text = m.groups()
            params = tuple([value_of(p, line) for p in params_text.split(",")]) if params_text else ()
            toks = args_text.split(",")
            qubits = [q for tok in toks for q in operand_of(tok, qreg, "quantum", line)]
            if head == "barrier":
                gates.append(Gate(head, tuple(dict.fromkeys(qubits)), params))
            elif head in SINGLE_QUBIT_GATES:  # one gate per qubit of every operand
                for q in qubits:
                    gates.append(Gate(head, (q,), params))
            elif len(qubits) != len(toks):  # an operand without an index spans its register
                tok = next(tok for tok in toks if "[" not in tok)
                raise QasmError(f"{head} operand {tok.strip()!r} is a whole register", line)
            else:
                gates.append(Gate(head, tuple(qubits), params))

        if qreg is None:
            raise QasmError("program declares no quantum register")
        line = None  # the circuit's own checks span statements
        return Circuit(name, qreg[1], tuple(gates), creg[1] if creg else 0)
    except CircuitError as exc:
        raise QasmError(str(exc), line) from exc
