"""Exception types shared across the package."""


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
    """No conflict-free executable exists for some process (or combination)."""

    def __init__(self, program_name: str | None = None):
        self.program_name = program_name
        if program_name is None:
            super().__init__("no conflict-free combination exists")
        else:
            super().__init__(f"no conflict-free executable for process {program_name!r}")


class OrchestrationTimeout(QmuxError):
    """Exhaustive selection exceeded its time budget."""


class SimulationError(QmuxError):
    """Simulation request outside supported bounds."""
