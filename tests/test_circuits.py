"""Parser, depth, and gate-list behavior."""

import hashlib
import math
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux import circuits
from qmux.benchmarks import benchmark_path, load_benchmark, suite
from qmux.circuits import Circuit, Gate, _statements, decompose_swaps, gate_list_depth, parse_qasm
from qmux.errors import CircuitError, QasmError

from oracles import layered_depth, qasm_text

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
# sha256 over repr((name, num_qubits, num_clbits, gates)) of every bundled
# program, in suite order. Any change to what the parser builds changes it.
GOLDEN_PARSE = "1b62ab3a88e947fe538baa0195b6fe67cf547bf1c758d814e3b263b25beb39a0"


def test_parse_single_cx():
    c = parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[1];")
    assert c.num_qubits == 2
    assert [g.name for g in c.gates] == ["cx"]
    assert c.gates[0].qubits == (0, 1)


def test_parse_empty_register():
    c = parse_qasm(HEADER + "qreg q[1];")
    assert c.num_qubits == 1
    assert c.gates == ()


def test_parse_adder_n4_matches_statement_count():
    text = benchmark_path("adder_n4").read_text()
    # independent count: strip comments, then count executable statements
    stripped = re.sub(r"//[^\n]*", "", text)
    stmts = [s.strip() for s in stripped.split(";") if s.strip()]
    skip = ("OPENQASM", "include", "qreg", "creg")
    expected = sum(1 for s in stmts if not s.startswith(skip))
    c = load_benchmark("adder_n4")
    assert c.num_qubits == 4
    assert len(c.gates) == expected


def test_parse_errors_are_positioned_and_named():
    with pytest.raises(QasmError, match="line 4: unsupported construct 'cz'"):
        parse_qasm(HEADER + "qreg q[2];\ncz q[0],q[1];")
    with pytest.raises(QasmError, match="'if'"):
        parse_qasm(HEADER + "qreg q[2];\nif (c==1) x q[0];")
    with pytest.raises(QasmError, match="multiple quantum registers"):
        parse_qasm(HEADER + "qreg q[2];\nqreg r[2];")
    with pytest.raises(QasmError, match="outside register"):
        parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[5];")
    # Gate's refusals, the parameter arithmetic and a register where a qubit is due.
    for stmt, message in (
        ("cx q, q[1];", "cx operand 'q' is a whole register"),
        ("rx(pi/0) q[0];", "cannot evaluate parameter 'pi/0'"),
        ("rx(10.0**400) q[0];", "cannot evaluate parameter '10.0**400'"),
        ("rx(1e999) q[0];", "rx parameter inf is not a finite float"),
        ("rx(1e999-1e999) q[0];", "rx parameter nan is not a finite float"),
        ("barrier(1) q;", "barrier takes no parameters"),
        ("cx(0.5) q[0],q[1];", "cx takes no parameters"),
        ("cx q[0],q[0];", "cx has repeated operands (0, 0)"),
        # Both sides of a measure are operands, checked alike.
        ("creg c[2]; measure q[0] -> c[5];", "operand c[5] outside register of size 2"),
        ("creg c[3]; measure q -> c;", "measure of 2 qubit(s) into 3 bit(s)"),
        ("rx(" + "+".join(["1"] * 1000) + ") q[0];", f"parameter expression '{'1+' * 20}'... nests too deeply"),
    ):
        with pytest.raises(QasmError, match=f"^line 4: {re.escape(message)}"):
            parse_qasm(HEADER + "qreg q[2];\n" + stmt)


def test_parameters_may_nest_parentheses():
    c = parse_qasm(HEADER + "qreg q[1];\nrx((pi)/2) q[0];\nu3(pi/2,(pi+1)*2,0) q[0];")
    assert [g.params for g in c.gates] == [(math.pi / 2,), (math.pi / 2, (math.pi + 1) * 2, 0.0)]


_blank = st.text(alphabet=" \t\n", max_size=4)
# A statement starts and ends with a non-blank character and may span lines.
_statement = st.lists(
    st.tuples(st.sampled_from(["h", "q[0]", "cx", "rz(pi/2)"]), st.sampled_from([" ", "\n", " \n\t"])),
    min_size=1,
    max_size=3,
).map(lambda parts: "".join(word + sep for word, sep in parts).rstrip())


@settings(deadline=None)
@given(st.lists(st.tuples(_blank, st.none() | _statement, _blank)), _blank, st.none() | _statement)
def test_statements_start_on_the_line_of_their_first_character(pieces, before_tail, tail):
    # Each piece is blanks, an optional statement and blanks before its ";",
    # so pieces without a statement make runs of ";".
    text, expected = "", []
    for before, stmt, after in pieces:
        text += before
        if stmt is not None:
            expected.append((stmt, text.count("\n") + 1))
            text += stmt
        text += after + ";"
    text += before_tail
    if tail is None:
        assert list(_statements(text)) == expected
    else:
        line = text.count("\n") + 1
        found = []
        with pytest.raises(QasmError, match=f"^line {line}: unterminated statement") as info:
            found.extend(_statements(text + tail + " \n"))
        assert found == expected and info.value.line == line


def test_measure_only_at_end():
    with pytest.raises(CircuitError, match="measure"):
        Circuit("bad", 1, (Gate("measure", (0,)), Gate("x", (0,))))


def test_depth_disjoint_gates_one_layer():
    c = Circuit("a", 4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    assert gate_list_depth(c.gates) == 1


def test_depth_shared_operand_two_layers():
    c = Circuit("b", 3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    assert gate_list_depth(c.gates) == 2


def test_depth_four_cnot_example():
    # (0,1),(2,3) in layer 1; (1,2),(0,3) each depend on both -> layer 2.
    # A trailing measure layer on all qubits brings the full program to 3.
    gates = tuple(Gate("cx", p) for p in ((0, 1), (2, 3), (1, 2), (0, 3)))
    assert gate_list_depth(gates) == 2
    assert layered_depth(gates) == 2
    with_measures = gates + tuple(Gate("measure", (q,)) for q in range(4))
    assert gate_list_depth(with_measures) == 3


def test_barrier_synchronizes():
    c = Circuit(
        "c",
        2,
        (Gate("h", (0,)), Gate("barrier", (0, 1)), Gate("h", (1,))),
    )
    assert gate_list_depth(c.gates) == 3


def test_swap_decomposition():
    c = Circuit("s", 2, (Gate("swap", (0, 1)),))
    out = decompose_swaps(c)
    assert [g.name for g in out.gates] == ["cx", "cx", "cx"]
    assert [g.qubits for g in out.gates] == [(0, 1), (1, 0), (0, 1)]


def test_roundtrip_bundled_benchmark():
    src = load_benchmark("wstate_n3")
    again = parse_qasm(qasm_text(src))
    assert again.gates == src.gates
    assert again.num_qubits == src.num_qubits


_gate = st.one_of(
    st.builds(
        Gate,
        st.sampled_from(["h", "x", "t", "s"]),
        st.tuples(st.integers(0, 4)),
    ),
    st.builds(
        Gate,
        st.just("cx"),
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: t[0] != t[1]),
    ),
    st.builds(
        Gate,
        st.just("rz"),
        st.tuples(st.integers(0, 4)),
        st.tuples(st.floats(-3.0, 3.0)),
    ),
)


@settings(deadline=None)
@given(st.lists(_gate, min_size=1, max_size=30))
def test_depth_properties(gates):
    c = Circuit("p", 5, tuple(gates))
    d = gate_list_depth(c.gates)
    assert 1 <= d <= len(gates)
    assert d == layered_depth(gates)
    longer = Circuit("p2", 5, tuple(gates) + (Gate("h", (0,)),))
    assert gate_list_depth(longer.gates) >= d


def _levels_by_pairs(gates) -> int:
    """Depth as the definition reads: a gate's level is one more than the
    highest level of any earlier gate it shares an operand with."""
    levels: list[int] = []
    for i, g in enumerate(gates):
        below = [levels[j] for j in range(i) if set(gates[j].qubits) & set(g.qubits)]
        levels.append(1 + max(below, default=0))
    return max(levels, default=0)


_qubit6 = st.integers(0, 5)
_any_gate = st.one_of(
    st.builds(Gate, st.sampled_from(["h", "x", "sdg", "measure"]), st.tuples(_qubit6)),
    st.builds(Gate, st.just("u3"), st.tuples(_qubit6), st.just((0.1, 0.2, 0.3))),
    st.builds(
        Gate,
        st.sampled_from(["cx", "swap"]),
        st.lists(_qubit6, min_size=2, max_size=2, unique=True).map(tuple),
    ),
    st.builds(Gate, st.just("barrier"), st.lists(_qubit6, min_size=1, max_size=6, unique=True).map(tuple)),
)


@settings(deadline=None)
@given(st.lists(_any_gate, max_size=40))
def test_depth_is_the_highest_level_by_its_definition(gates):
    assert gate_list_depth(gates) == _levels_by_pairs(gates)


@settings(deadline=None)
@given(st.lists(_gate, min_size=0, max_size=20))
def test_parse_print_roundtrip(gates):
    c = Circuit("rt", 5, tuple(gates))
    assert parse_qasm(qasm_text(c)).gates == c.gates


class _Finalized:
    def __del__(self):
        sum(range(10))  # Python code run by the collector, where threads can switch


def test_parameters_parse_in_many_threads_at_once():
    # Cyclic garbage with finalizers makes collections run Python code inside
    # ast.parse; unserialized, CPython 3.11 then raises SystemError.
    program = HEADER + "qreg q[1];\nry(-pi/4 + 2*1.5**2) q[0];"
    errors = []

    def parse_many():
        try:
            for _ in range(3000):
                a, b = _Finalized(), _Finalized()
                a.other, b.other = b, a
                parse_qasm(program)
        except Exception as exc:  # read on the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_bundled_programs_parse_to_the_golden_digest():
    digest = hashlib.sha256()
    for name in suite():
        c = parse_qasm(benchmark_path(name).read_text(), name=name)
        digest.update(repr((c.name, c.num_qubits, c.num_clbits, c.gates)).encode())
    assert digest.hexdigest() == GOLDEN_PARSE


def test_each_distinct_parameter_text_is_evaluated_once_per_call(monkeypatch):
    evaluated = Counter()
    evaluate = circuits._eval_param

    def counted(text, line):
        evaluated[text] += 1
        return evaluate(text, line)

    monkeypatch.setattr(circuits, "_eval_param", counted)
    text = benchmark_path("qft_n4").read_text()  # repeats pi/4, -pi/4 and others
    first = parse_qasm(text)
    assert parse_qasm(text) == first
    assert evaluated and set(evaluated.values()) == {2}


def test_registers_past_the_size_limit_are_refused_at_their_line():
    whole = parse_qasm(HEADER + "qreg q[1024];\nh q;")
    assert whole.num_qubits == len(whole.gates) == 1024
    digits = "9" * 5000  # more digits than int() reads
    for program, line, message in (
        ("qreg q[2000];\nh q;", 3, "quantum register of size 2000 exceeds the limit of 1024"),
        ("creg c[2000];\nqreg q[2];", 3, "classical register of size 2000 exceeds the limit of 1024"),
        (f"qreg q[{digits}];", 3, f"number {digits[:40]}... has too many digits"),
        (f"qreg q[2];\nh q[{digits}];", 4, f"number {digits[:40]}... has too many digits"),
    ):
        with pytest.raises(QasmError, match=f"^line {line}: {re.escape(message)}$"):
            parse_qasm(HEADER + program)
