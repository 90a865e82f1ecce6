"""Offline multi-version compilation and runtime orchestration for
multiprogrammed quantum devices.

The pipeline: a device graph is partitioned into compute units, each program
is compiled once per candidate region into ranked executables, and at runtime
a selector picks one conflict-free executable per program. A noisy simulator
and an experiment harness close the loop for evaluation.
"""

from .benchmarks import (
    device_names,
    load_benchmark,
    load_device,
    suite,
)
from .circuits import Circuit, Gate, gate_list_depth, parse_qasm, to_qasm
from .compiler import (
    Executable,
    Process,
    compile_multi_version,
    compile_on_region,
    cost_sort_key,
    initial_layout,
    route,
)
from .devices import (
    CrosstalkMap,
    DeviceGraph,
    VariationModel,
    apply_variation,
    load_calibration,
    qubit_utility,
    save_calibration,
    utilities,
)
from .errors import (
    CalibrationError,
    CircuitError,
    CompileError,
    OrchestrationConflict,
    OrchestrationTimeout,
    PartitionError,
    QasmError,
    QmuxError,
    SimulationError,
)
from .harness import (
    BenchmarkGroup,
    ExperimentReport,
    FidelityExperiment,
    GroupRecord,
    SweepReport,
    cost_fidelity_correlation,
    crosstalk_violations,
    generate_groups,
    nested_prefix_groups,
    run_sweep,
    sample_crosstalk_map,
    success_ratio,
)
from .orchestrator import (
    Selection,
    select_brute_force,
    select_heuristic,
)
from .partition import (
    ComputeUnit,
    Region,
    UnitGraph,
    enumerate_regions,
    generate_compute_units,
)
from .simulator import (
    Distribution,
    NoiseSpec,
    SimulationStats,
    fidelity,
    ideal_executable_distribution,
    simulate_ideal,
    simulate_noisy,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkGroup",
    "CalibrationError",
    "Circuit",
    "CircuitError",
    "CompileError",
    "ComputeUnit",
    "CrosstalkMap",
    "DeviceGraph",
    "Distribution",
    "Executable",
    "ExperimentReport",
    "FidelityExperiment",
    "Gate",
    "GroupRecord",
    "NoiseSpec",
    "OrchestrationConflict",
    "OrchestrationTimeout",
    "PartitionError",
    "Process",
    "QasmError",
    "QmuxError",
    "Region",
    "Selection",
    "SimulationError",
    "SimulationStats",
    "SweepReport",
    "UnitGraph",
    "VariationModel",
    "apply_variation",
    "compile_multi_version",
    "compile_on_region",
    "cost_fidelity_correlation",
    "cost_sort_key",
    "crosstalk_violations",
    "device_names",
    "enumerate_regions",
    "fidelity",
    "gate_list_depth",
    "generate_compute_units",
    "generate_groups",
    "ideal_executable_distribution",
    "initial_layout",
    "load_benchmark",
    "load_calibration",
    "load_device",
    "nested_prefix_groups",
    "parse_qasm",
    "qubit_utility",
    "route",
    "run_sweep",
    "sample_crosstalk_map",
    "save_calibration",
    "select_brute_force",
    "select_heuristic",
    "simulate_ideal",
    "simulate_noisy",
    "success_ratio",
    "suite",
    "to_qasm",
    "utilities",
]
