"""Self-test of the benchmark on tiny instances that take the same code paths.

Run with ``python3 e2ebench/run.py --selftest`` (the entry point sets up
the episode environment and the import path first).  Checks:

1. the tracing wrappers install and remove cleanly, also when an episode
   raises;
2. per-layer self times plus ``engine.unattributed`` sum to the traced wall
   time within :data:`metrics.ACCOUNTING_TOLERANCE`, real episodes show no
   span violations, and spans closed out of order are caught as ones;
3. every metric declared in ``BENCHMARK.json`` is emitted with its unit and
   a sample count, and ``BENCHMARK.json`` matches the declarations;
4. changing the seed changes the inputs but not which layers run.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os

import layers
import metrics
import run
import workloads

#: Instance sizes small enough for seconds-fast episodes; CBS still prunes
#: (more brokers than requests per batch) and every workload keeps its mode.
TINY = {
    "day-dense": {"num_brokers": 200, "num_requests": 1200, "num_days": 4},
    "long-horizon": {"num_brokers": 60, "num_requests": 720, "num_days": 6},
    "serve-bursty": {"num_brokers": 100, "num_requests": 800, "num_days": 4},
}
SEEDS = (3, 4)


def _originals() -> dict:
    return {
        (target, attr): layers._resolve(target).__dict__[attr]
        for _layer, target, attr, _counter in layers.TARGETS
    }


def check_wrappers() -> list[str]:
    problems = []
    before = _originals()
    tracer = layers.Tracer()
    with tracer.installed():
        wrapped = layers.installed_wrappers()
        if len(wrapped) != len(layers.TARGETS) + 1:
            problems.append(f"installed {len(wrapped)} wrappers, expected {len(layers.TARGETS) + 1}")
    try:
        with layers.Tracer().installed():
            raise KeyError("episode failure")
    except KeyError:
        pass
    if layers.installed_wrappers():
        problems.append(f"left installed: {layers.installed_wrappers()}")
    after = _originals()
    problems += [f"{key} not restored" for key in before if after[key] is not before[key]]
    return problems


def check_violations() -> list[str]:
    """Spans closed out of order must be reported, not silently summed."""
    tracer = layers.Tracer()
    tracer.points.append(("synthetic", layers.LAYERS[0]))
    with tracer.root():
        outer = tracer.enter(1)
        inner = tracer.enter(1)
        tracer.exit(outer)
        tracer.exit(inner)
    found = tracer.summary()["violations"]
    if not found.get("outside_parent"):
        return [f"overlapping spans not reported: {found}"]
    return []


def check_accounting(name: str, instance) -> tuple[list[str], set]:
    tracer = layers.Tracer()
    workloads.run_episode(instance, around=tracer.tracing())
    summary = tracer.summary()
    problems = []
    if summary["accounting_error"] > metrics.ACCOUNTING_TOLERANCE:
        problems.append(f"{name}: accounting error {summary['accounting_error']:.2e}")
    if summary["violations"]:
        problems.append(f"{name}: span violations {summary['violations']}")
    total = sum(summary["self_s"].values())
    if abs(total - summary["wall_s"]) > 1e-9 * summary["wall_s"] + 1e-12:
        problems.append(f"{name}: self times sum to {total}, root span is {summary['wall_s']}")
    # Collections follow allocation counts, not code paths.
    ran = {
        layer
        for layer, calls in summary["calls"].items()
        if calls > 0 and layer != layers.GC_LAYER
    }
    return problems, ran


def check_declared_metrics(name: str) -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = run.measure(name, SEEDS[0], 0.0, trace, **TINY[name])
        if not result["correct"] or result["failed"]:
            problems.append(f"{name} trace {trace}: run not correct: {lines}")
        declared = {(m["name"], m["unit"]) for m in spec[key]}
        emitted = {(metric, value["unit"]) for metric, value in result["metrics"].items()}
        if declared != emitted:
            problems.append(f"{name} trace {trace}: declared-emitted mismatch {declared ^ emitted}")
        table = {
            (tokens[1], tokens[3])
            for tokens in (line.split() for line in lines)
            if len(tokens) >= 5 and tokens[0] == "#" and tokens[4].startswith("n=")
        }
        missing = declared - table
        if missing:
            problems.append(f"{name} trace {trace}: no sample count printed for {sorted(missing)}")
    return problems


def check_spec() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    if committed != run.spec():
        return ["BENCHMARK.json is out of date with the declarations (run --write-spec)"]
    return []


def main() -> int:
    problems = check_wrappers() + check_violations() + check_spec()
    for name, sizes in TINY.items():
        digests, layer_sets = set(), []
        for seed in SEEDS:
            instance = workloads.build_instance(workloads.WORKLOADS[name], seed, **sizes)
            digests.add(instance.input_digest())
            found, ran = check_accounting(name, instance)
            problems += found
            layer_sets.append(ran)
        if len(digests) != len(SEEDS):
            problems.append(f"{name}: different seeds produced identical inputs")
        if any(ran != layer_sets[0] for ran in layer_sets):
            problems.append(f"{name}: layers that run depend on the seed: {layer_sets}")
        print(f"{name}: layers with calls: {sorted(layer_sets[0])}")
        problems += check_declared_metrics(name)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
