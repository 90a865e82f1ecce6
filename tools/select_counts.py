"""Count what the runtime selectors do on one orchestrate_stream request stream.

Run from the repository root:

    PYTHONPATH=src python3 tools/select_counts.py SEED [REQUESTS]

The library is compiled in memory on heavyhex65 and on the workload's
synthetic 127-qubit heavy-hex at its unit size, so nothing is written under
`.perfbench/`. The stream is the one perfbench's orchestrate_stream draws for
SEED (REQUESTS of them, by default the workload's count). Each request runs
the greedy small_first selector, and the exact one when it holds at most the
workload's EXACT_MAX_PROGRAMS programs. One line reports the requests, the
placed and refused counts of each selector, the greedy evaluations, the exact
search's nodes and evaluations (refusals included, read from the exception),
the `CrosstalkMap.partners_of` calls, and the sha256 of every request's
outcomes: `(ranks, evaluations, nodes)` per selector, or the refusal's type
and message. Two checkouts whose selectors decide alike print the same line.
"""

import hashlib
import random
import sys

sys.path.insert(0, ".")

from perfbench import orchestrate_stream as stream  # noqa: E402
from perfbench.synthdev import synthetic_heavy_hex  # noqa: E402
from qmux import benchmarks, compiler, errors, orchestrator, partition  # noqa: E402
from qmux.devices import CrosstalkMap  # noqa: E402

partner_calls = 0


def wrap_partners_of(partners_of):
    def counted(self, qubits):
        global partner_calls
        partner_calls += 1
        return partners_of(self, qubits)

    return counted


def outcome(select, counts):
    """Run one selector; add its work to `counts` and return what it decided."""
    try:
        sel = select()
    except (errors.OrchestrationConflict, errors.OrchestrationTimeout) as exc:
        counts["refused"] += 1
        counts["evaluations"] += exc.evaluations
        counts["nodes"] += exc.nodes
        return type(exc).__name__, str(exc)
    counts["placed"] += 1
    counts["evaluations"] += sel.evaluations
    counts["nodes"] += sel.nodes
    return sel.ranks, sel.evaluations, sel.nodes


def main(seed: int, requests: int) -> None:
    config = stream.Config(requests=requests)
    programs = [benchmarks.load_benchmark(n) for n in benchmarks.suite()]
    tables = {}
    for d in config.devices:
        device = synthetic_heavy_hex(stream.DEVICE_SEED) if d == "synthetic127" else benchmarks.load_device(d)
        unit_graph = partition.generate_compute_units(device, stream.UNIT_SIZE)
        compiled = [compiler.compile_multi_version(c, unit_graph) for c in programs]
        tables[d] = (compiled, compiled, unit_graph)
    drawn = stream._requests(random.Random(seed), config.requests, config, tables)

    CrosstalkMap.partners_of = wrap_partners_of(CrosstalkMap.partners_of)
    greedy = dict.fromkeys(("placed", "refused", "evaluations", "nodes"), 0)
    exact = dict(greedy)
    digest = hashlib.sha256()
    for request, veto in drawn:
        answers = [
            outcome(lambda: orchestrator.select_heuristic(request, strategy="small_first", crosstalk=veto), greedy)
        ]
        if len(request) <= stream.EXACT_MAX_PROGRAMS:
            answers.append(
                outcome(
                    lambda: orchestrator.select_brute_force(request, timeout_s=stream.EXACT_TIMEOUT_S, crosstalk=veto),
                    exact,
                )
            )
        digest.update(f"{answers!r}\n".encode())
    print(
        f"requests {len(drawn)}"
        f" greedy placed {greedy['placed']} refused {greedy['refused']} evaluations {greedy['evaluations']}"
        f" exact placed {exact['placed']} refused {exact['refused']}"
        f" nodes {exact['nodes']} evaluations {exact['evaluations']}"
        f" partners_of {partner_calls} sha256 {digest.hexdigest()}"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else stream.Config().requests)
