"""Parser, depth, and gate-list behavior."""

import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmux.benchmarks import benchmark_path, load_benchmark
from qmux.circuits import Circuit, Gate, decompose_swaps, gate_list_depth, parse_qasm
from qmux.errors import CircuitError, QasmError

from oracles import layered_depth, qasm_text

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


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
