"""Smoke run of the benchmark at minimal size.

    python3 -m pytest perfbench

Runs each workload for two passes on a handful of small programs, untraced
and traced, and checks that it measures every metric it owns, that its
output checks pass, and that the entry point refuses to run without the
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, compile_library, evaluate_fidelity, orchestrate_stream, tracing  # noqa: E402
from perfbench.synthdev import heavy_hex_links, synthetic_heavy_hex  # noqa: E402

SMALL = ("wstate_n3", "adder_n4", "deutsch_n2", "grover_n2", "toffoli_n3", "qaoa_n6")

CASES = {
    "compile_library": (
        compile_library,
        compile_library.Config(
            programs=SMALL[:3], devices=("heavyhex27", compile_library.SYNTHETIC), unit_sizes=(4,), setup_repeats=1
        ),
        {"setup_s", "compile_versions_per_s", "compile_p50_ms", "compile_p90_ms", "mean_depth_ratio"},
    ),
    "orchestrate_stream": (
        orchestrate_stream,
        orchestrate_stream.Config(
            programs=SMALL,
            devices=("heavyhex27",),
            request_sizes=(2, 3),
            requests=20,
            gap_requests=50,
            setup_repeats=1,
        ),
        {
            "setup_s",
            "select_p50_us",
            "select_p99_us",
            "select_success_ratio",
            "exact_p50_ms",
            "exact_p99_ms",
            "greedy_gap",
        },
    ),
    "evaluate_fidelity": (
        evaluate_fidelity,
        evaluate_fidelity.Config(programs=SMALL, groups=2, shots=64, setup_repeats=1),
        {"setup_s", "sim_shots_per_s", "group_p50_s", "mean_fidelity", "eval_success_ratio"},
    ),
}


def _measure(name: str, tracer: tracing.Tracer, passes: int = 2):
    """Set up, run passes as run.py does, then check the outputs untraced."""
    module, config, _owned = CASES[name]
    tracer.scope, tracer.request = name, tracing.SETUP
    workload = module.Workload(7, config, tracer)
    for i in range(passes):
        with nullcontext() if i == 0 else tracer.quiet():
            workload.run_pass()
    res = workload.finish()
    with tracer.paused():
        workload.check()
    return res


@pytest.mark.parametrize("name", sorted(CASES))
def test_workload_smoke(name):
    res = _measure(name, tracing.Tracer())
    assert res.failed == 0, res.messages
    assert res.attempted > 0
    assert set(res.metrics) == CASES[name][2]
    assert all(value > 0 for value, _unit in res.metrics.values())


def _traced(passes: int) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in sorted(CASES):
            assert _measure(name, tracer, passes).failed == 0
    finally:
        tracer.uninstall()
    return tracer


def test_traced_smoke_reports_every_layer():
    tracer = _traced(2)
    layer = tracing.per_layer_metrics(tracer)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for key in ("circuits.parse_s", "compiler.route_s", "orchestrator.greedy_s", "simulator.noisy_s"):
        assert layer[key][0] > 0, key
    # Self time lies between zero and the span's duration; every span is tagged scope/request.
    for name, start, end, _parent, request, child, _n in tracer.spans:
        assert 0 <= end - start - child <= end - start + 1e-9, name
        assert "/" in request


def test_per_layer_counts_cover_one_pass():
    """Later passes and repeats leave the per-layer counts as one pass made them."""
    one = tracing.per_layer_metrics(_traced(1))
    three = tracing.per_layer_metrics(_traced(3))
    counts = [n for n, (_v, unit) in one.items() if unit == "count"]
    assert {n: one[n] for n in counts} == {n: three[n] for n in counts}
    assert one["compiler.versions"][0] > 0 and one["simulator.shots"][0] > 0


def test_reference_clock_scales_by_the_faster_neighbour():
    clock = common.ReferenceClock()
    ref = clock.REFERENCE_S
    # A machine running at half the reference speed: the loop took twice as long.
    assert clock.scale(0.006, 2 * ref, 3 * ref) == pytest.approx(0.003)
    assert clock.scale(0.006, 4 * ref, 2 * ref) == pytest.approx(0.003)


def test_synthetic_device_is_seeded_heavy_hex():
    n, links = heavy_hex_links()
    assert (n, len(links)) == (127, 144)
    a, b = synthetic_heavy_hex(3), synthetic_heavy_hex(3)
    assert a.links == links and max(len(nbrs) for nbrs in a.adjacency) == 3
    assert a.link_error == b.link_error
    assert a.link_error != synthetic_heavy_hex(4).link_error


def test_run_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_library", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
