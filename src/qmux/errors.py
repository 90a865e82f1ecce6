"""Exception types shared across the package."""

from contextlib import contextmanager


class QmuxError(Exception):
    """Base class for all errors raised by this package."""


class QasmError(QmuxError):
    """Malformed or unsupported OpenQASM input.

    Carries the 1-based source line where the problem was found, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CircuitError(QmuxError):
    """Structurally invalid circuit or gate."""


class CalibrationError(QmuxError):
    """Calibration file missing fields, out-of-range values, or a broken topology."""


class PartitionError(QmuxError):
    """Invalid partitioning request."""


class TopologyMismatch(QmuxError):
    """An executable's region qubits or routed links are not on the target device."""


class CompileError(QmuxError):
    """Compilation failed, e.g. no region can host the program."""


class OrchestrationConflict(QmuxError):
    """No conflict-free executable exists for some process (or combination).

    `evaluations` and `nodes` count the selector's work before it gave up,
    as on a returned Selection.
    """

    def __init__(self, program_name: str | None = None, *, evaluations: int = 0, nodes: int = 0):
        self.program_name = program_name
        self.evaluations = evaluations
        self.nodes = nodes
        if program_name is None:
            super().__init__("no conflict-free combination exists")
        else:
            super().__init__(f"no conflict-free executable for process {program_name!r}")


class OrchestrationTimeout(QmuxError):
    """Exhaustive selection exceeded its time budget before finding any assignment.

    `evaluations` and `nodes` count the search's work, as on a Selection.
    """

    def __init__(self, message: str, *, evaluations: int = 0, nodes: int = 0):
        self.evaluations = evaluations
        self.nodes = nodes
        super().__init__(message)


class SimulationError(QmuxError):
    """Simulation request outside supported bounds."""


@contextmanager
def located(path):
    """Prefix "<path>: " to a QmuxError raised in the block, keeping its type."""
    try:
        yield
    except QmuxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
