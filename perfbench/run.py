"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: qmux is imported from `src/`
beside this directory, never from an installed copy, and the run fails
without it. A run sets up the named workload (its median set-up time is
setup_s), then the third workload, evaluate_fidelity, and the other named
one at a small fixed size and seed, the "probes", so that every end-to-end
metric is measured on every run. It then runs passes of the three until S
seconds have passed, giving the named workload SHARES[0] of the time and
each probe SHARES[1], so a probe is sampled as often whatever the length
of the named workload's pass. Every pass repeats the same units of work,
short units also run back to back a few times, and a unit's time is its
fastest run: other processes on the machine only ever add time, so the
fastest run is the steadiest figure. Every time is expressed at reference
speed, scaled by a fixed loop timed around its unit of work (see
`common.ReferenceClock`), because the machine's speed swings by more than
the bounds; per-layer self times are raw seconds.

The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). The exit code is
0 only when every output check passed. Files land in `.perfbench/` under
the checkout: the saved tables, one result file per run and, with
--trace 1, the spans and per-row detail of one set-up and one pass of each
workload. A traced run measures everything twice in the one process, first
untraced and then traced, each for S seconds, and reports the difference
in every end-to-end metric as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("compile_library", "orchestrate_stream")
PROBE_ONLY = ("evaluate_fidelity",)
# Share of the measured time for the named workload and for each probe.
SHARES = (0.6, 0.2)
# One process on one thread: the harness runs groups serially and BLAS and
# OpenMP get one thread each (never more than nproc), so a run does not
# depend on the machine's core count.
THREAD_ENV = {
    "QMUX_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Probes always use this seed, so their inputs are the same on every run
# and their figures move only with the code and the machine.
PROBE_SEED = 0


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_qmux() -> None:
    """Import qmux from this checkout's src/, or exit non-zero if it is not there."""
    if not (SRC / "qmux" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qmux'} not found; run from the root of a qmux source checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qmux

    if not Path(qmux.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported qmux from {qmux.__file__}, not from {SRC}")


def _configs(primary: str, seed: int):
    """(scope, module, config, seed) for the named workload and its two probes."""
    from perfbench import compile_library, evaluate_fidelity, orchestrate_stream

    probes = {
        "compile_library": (
            compile_library,
            compile_library.Config(devices=("heavyhex27",), unit_sizes=(4,), setup_repeats=1),
        ),
        "orchestrate_stream": (
            orchestrate_stream,
            orchestrate_stream.Config(devices=("heavyhex65",), requests=2000, setup_repeats=1),
        ),
        "evaluate_fidelity": (evaluate_fidelity, evaluate_fidelity.Config()),
    }
    module = probes[primary][0]
    out = [(primary, module, module.Config(), seed)]
    out += [(f"probe:{name}", *probes[name], PROBE_SEED) for name in WORKLOADS + PROBE_ONLY if name != primary]
    return out


def _measure(args, tracer):
    """Set up, run passes for --seconds, finish and check.

    Returns (results, passes, measured_s). Set-up and the first pass of
    every workload keep their spans; every later pass runs under
    `tracer.quiet()`.
    """
    from perfbench import tracing

    workloads = []
    for scope, module, config, seed in _configs(args.workload, args.seed):
        tracer.scope, tracer.request = scope, tracing.SETUP
        workloads.append((scope, module.Workload(seed, config, tracer)))
    shares = [SHARES[0]] + [SHARES[1]] * (len(workloads) - 1)
    spent = [0.0] * len(workloads)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or any(w.passes == 0 for _s, w in workloads):
        # Run whichever workload is furthest behind its share of the time.
        i = min(range(len(workloads)), key=lambda k: spent[k] / shares[k])
        scope, w = workloads[i]
        tracer.scope = scope
        t0 = time.perf_counter()
        with nullcontext() if w.passes == 0 else tracer.quiet():
            w.run_pass()
        spent[i] += time.perf_counter() - t0
    measured_s = time.perf_counter() - start
    results = []
    for scope, w in workloads:
        res = w.finish()
        with tracer.paused():
            w.check()
        results.append((scope, res))
    return results, {scope: w.passes for scope, w in workloads}, measured_s


def _merge(results, expected):
    """The end-to-end metrics, sample counts, attempted, failed and messages of one measurement."""
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    for _scope, res in reversed(results):  # the named workload's values win, setup_s included
        metrics.update(res.metrics)
        samples.update(res.samples)
    attempted = sum(r.attempted for _s, r in results)
    failed = sum(r.failed for _s, r in results)
    messages = [m for _s, r in results for m in r.messages]
    missing = [n for n in expected if n not in metrics]
    if missing:
        messages.append(f"not measured: {', '.join(missing)}")
        failed += 1
    return metrics, samples, attempted, failed, messages


def main(argv=None) -> int:
    args = _args(argv)
    os.environ.update(THREAD_ENV)
    _import_qmux()
    from perfbench import common, tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["end_to_end"]]
    # Untraced first; a traced run then measures the same again with spans on.
    results, passes, measured_s = _measure(args, tracing.Tracer())
    metrics, samples, attempted, failed, messages = _merge(results, expected)
    ticks = sorted(common.CLOCK.ticks)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_results, traced_passes, traced_s = _measure(args, tracer)
        finally:
            tracer.uninstall()
        traced, _samples, traced_attempted, traced_failed, traced_messages = _merge(traced_results, expected)
        attempted += traced_attempted
        failed += traced_failed
        messages += traced_messages

    common.WORK_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": THREAD_ENV,
        "passes": passes,
        "measured_s": measured_s,
        "reference_loop_s": {
            "reference": common.CLOCK.REFERENCE_S,
            "fastest": ticks[0],
            "median": ticks[len(ticks) // 2],
        },
        "metrics": {n: {"value": v, "unit": u, "samples": samples.get(n)} for n, (v, u) in metrics.items()},
        "workloads": [
            {"scope": s, "attempted": r.attempted, "refused": r.refused, "failed": r.failed, "info": r.info}
            for s, r in results
        ],
        "messages": messages,
    }
    (common.WORK_DIR / f"result-{stem}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed}: passes {passes} in {measured_s:.1f} s, threads {THREAD_ENV}")
    print(
        f"times at reference speed, where the reference loop takes {common.CLOCK.REFERENCE_S * 1e6:g} us;"
        f" it took {ticks[0] * 1e6:.1f} us at fastest and {ticks[len(ticks) // 2] * 1e6:.1f} us at median"
    )
    for scope, r in results:
        print(f"{scope}: attempted={r.attempted} refused={r.refused} failed={r.failed} {r.info}")
    for n in expected:
        if n in metrics:
            print(f"  {n} = {metrics[n][0]:.6g} {metrics[n][1]} (n={samples.get(n)})")
    for m in messages:
        print(f"CHECK FAILED {m}")

    if args.trace:
        print(f"traced: passes {traced_passes} in {traced_s:.1f} s")
        for scope, r in traced_results:
            print(f"{scope}: attempted={r.attempted} refused={r.refused} failed={r.failed}")
        reported = _write_trace(args, stem, tracer, traced_results, traced, metrics, spec)
    else:
        reported = {n: metrics[n] for n in expected if n in metrics}
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
            }
        )
    )
    return 0 if correct else 1


def _write_trace(args, stem, tracer, results, traced, untraced, spec) -> dict[str, tuple[float, str]]:
    """Write spans, per-row detail and tracing overhead; return the per-layer metrics."""
    from perfbench import common, tracing

    layer = tracing.per_layer_metrics(tracer)
    by_request = tracer.self_times_by_request()
    rows = [
        {"scope": scope, **row, "self_s": by_request.get(f"{scope}/{row['request']}", {})}
        for scope, res in results
        for row in res.rows
    ]
    # Relative change of each end-to-end metric with tracing on, same process, same inputs.
    overhead = {n: (v - untraced[n][0]) / untraced[n][0] for n, (v, _u) in traced.items() if untraced.get(n, (0,))[0]}
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "per_layer": {n: {"value": v, "unit": u} for n, (v, u) in layer.items()},
        "layer_self_s": tracer.layer_self_times(),
        "untraced_end_to_end": {n: {"value": v, "unit": u} for n, (v, u) in untraced.items()},
        "traced_end_to_end": {n: {"value": v, "unit": u} for n, (v, u) in traced.items()},
        "tracing_overhead": overhead,
        "rows": rows,
        **tracer.dump(),
    }
    path = common.WORK_DIR / f"trace-{stem}.json"
    path.write_text(json.dumps(payload) + "\n")

    print(f"trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans, {len(rows)} rows)")
    for n, secs in sorted(tracer.layer_self_times().items()):
        print(f"  self time {n}: {secs:.4f} s")
    for n, change in overhead.items():
        print(f"  tracing overhead {n}: {change:+.2%}")
    return {m["name"]: layer[m["name"]] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
