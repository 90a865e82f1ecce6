"""Count what one compile_library pass does: routing passes, swap decisions, gates, GC runs.

Run from the repository root:

    PYTHONPATH=src python3 tools/compile_counts.py SEED [PASSES]

Each line reports one pass of perfbench's compile_library workload: the
versions compiled, the `Gate` objects built (and how many of them inside
`compiler.route`, the rest being parsed source gates), the routing passes
`compiler._route_gates` ran and the swap decisions they made, the routed
gates `compiler.route` emitted, and the cyclic-GC collections started in
each generation. The counters wrap the functions in place, so the numbers
are exact, but the timings of a counted run mean nothing. The workload
writes its tables under the checkout's `.perfbench/`, so do not run this
while `perfbench/run.py` runs from the same checkout.
"""

import gc
import sys

sys.path.insert(0, ".")

from perfbench import compile_library, tracing  # noqa: E402
from qmux import circuits, compiler  # noqa: E402

counts = dict.fromkeys(("gates", "in_route", "passes", "decisions", "emitted", "gen0", "gen1", "gen2"), 0)
routing = False


def wrap_gate_init(post_init):
    def counted(self):
        counts["gates"] += 1
        counts["in_route"] += routing
        post_init(self)

    return counted


def wrap_route(route):
    def counted(*args, **kwargs):
        global routing
        routing = True
        try:
            routed = route(*args, **kwargs)
        finally:
            routing = False
        counts["emitted"] += len(routed.gates)
        return routed

    return counted


def wrap_route_gates(route_gates):
    def counted(*args):
        final_layout, swaps, decisions = route_gates(*args)
        counts["passes"] += 1
        counts["decisions"] += len(decisions)
        return final_layout, swaps, decisions

    return counted


def on_gc(phase, info):
    if phase == "start":
        counts[f"gen{info['generation']}"] += 1


def main(seed: int, passes: int) -> None:
    circuits.Gate.__post_init__ = wrap_gate_init(circuits.Gate.__post_init__)
    compiler.route = wrap_route(compiler.route)
    compiler._route_gates = wrap_route_gates(compiler._route_gates)
    gc.callbacks.append(on_gc)
    workload = compile_library.Workload(seed, compile_library.Config(), tracing.Tracer())
    for i in range(passes):
        for key in counts:
            counts[key] = 0
        workload.run_pass()
        print(
            f"pass {i + 1}: versions {workload.versions_per_pass} gates {counts['gates']}"
            f" (in route {counts['in_route']}) passes {counts['passes']} decisions {counts['decisions']}"
            f" emitted {counts['emitted']}"
            f" gc gen0 {counts['gen0']} gen1 {counts['gen1']} gen2 {counts['gen2']}"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 4)
