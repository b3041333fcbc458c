#!/usr/bin/env python3
"""End-to-end matching benchmark with per-layer attribution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload day-dense --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload day-dense --seed 1 --seconds 25 --trace 1
    python3 e2ebench/run.py --selftest
    python3 e2ebench/run.py --write-spec        # regenerate BENCHMARK.json

One run, in one single-threaded process:

1. byte-compiles ``src`` (the package's only build step);
2. builds the workload from ``--seed`` and runs one untimed episode under
   :mod:`repro.check.runtime` invariants — the reference decisions;
3. ``--trace 0``: runs untraced episodes for ``--seconds``, timed on a
   :class:`hostclock.HostClock`, and reports the end-to-end metrics;
   ``--trace 1``: alternates untraced and traced episodes and reports the
   per-layer metrics (see ``layers.py``);
4. after every episode, times one fresh-interpreter set-up (import +
   instance build), so set-up samples spread over the run like episodes;
5. every episode must reproduce the reference decisions and realized
   utility bit for bit; a mismatch or exception counts as failed and makes
   the exit code 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the provenance stamp
and human-readable tables with sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 25
#: Fresh-interpreter set-ups a run makes at least; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Untraced episodes a ``--trace 0`` run makes at least.
MIN_EPISODES = 2
#: Thread-pool variables pinned to one thread for every episode.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def episode_environment(environ) -> dict:
    """The environment every measured process runs in.

    ``REPRO_*`` switches (reference kernels, runtime checks, ...) would
    silently change the program being measured, so they are stripped;
    thread pools are pinned to one thread and string hashing is fixed.
    Git discovery stops at the checkout, so provenance never reads outside.
    """
    env = {key: value for key, value in environ.items() if not key.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    return parser.parse_args()


def main() -> int:
    env = episode_environment(os.environ)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    args = _parse()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: package source not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.write_spec:
        write_spec()
        return 0
    if args.selftest:
        import selftest

        return selftest.main()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    build()
    result, lines = measure(args.workload, seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def build() -> None:
    """Byte-compile the package and the benchmark (no-op when current)."""
    for directory in (SRC, BENCH_DIR):
        if not compileall.compile_dir(directory, quiet=1):
            raise RuntimeError(f"byte-compiling {directory} failed")


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """``(import_s, build_s)`` of one fresh interpreter, in reference-host seconds.

    The host speed is taken just before and just after the probe, with
    :func:`hostclock.start_seconds`.
    """
    import hostclock

    before = hostclock.start_seconds(ROOT)
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    factor = 2 * hostclock.REFERENCE_START_S / (before + hostclock.start_seconds(ROOT))
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    return sample["import_s"] * factor, sample["build_s"] * factor


def assert_untraced() -> None:
    """Fail unless the program is exactly the one users run."""
    import layers
    from repro import perf
    from repro.check import runtime
    from repro.obs import telemetry

    problems = layers.installed_wrappers()
    if runtime.current() is not None:
        problems.append("runtime invariant checks are on")
    if telemetry.current() is not None:
        problems.append("telemetry is on")
    if not perf.fast_kernels_enabled():
        problems.append("reference kernels are selected")
    if problems:
        raise RuntimeError(f"untraced episode would not measure the shipped program: {problems}")


def measure(workload_name, seed, seconds, trace, **overrides):
    """One benchmark run; returns the result object and the report lines.

    ``overrides`` shrink the instance (the self-test's tiny instances); the
    set-up probes always build the workload at full size.
    """
    import hostclock
    import layers
    import metrics
    import workloads
    from repro.check import runtime

    workload = workloads.WORKLOADS[workload_name]
    instance = workloads.build_instance(workload, seed, **overrides)
    lines = ["# provenance " + json.dumps(provenance(workload_name, seed, seconds, trace, instance))]
    attempted, failed, errors = 1, 0, []

    state = runtime.CheckState(mode="raise")
    try:
        with runtime.use(state):
            checked = workloads.run_episode(instance)
    except Exception as exc:  # the reference episode itself failed
        traceback.print_exc()
        lines.append(f"# checked episode failed: {exc!r}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, lines
    lines.append(
        f"# checked episode: {state.invariants_checked} invariants, "
        f"{state.solver_checks} solver-oracle checks, assigned {checked.assigned}/"
        f"{checked.requests}, utility {checked.utility_total!r}"
    )

    def verify(episode, label) -> bool:
        nonlocal failed
        if episode.signature() != checked.signature():
            failed += 1
            errors.append(f"{label} decisions differ from the checked episode")
            return False
        return True

    # Per-layer numbers are shares of one traced episode and carry no
    # bound, so the trace run keeps plain perf_counter seconds.
    clock = None if trace else hostclock.HostClock()
    episodes, summaries, overheads, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Start another episode while at least half of one still fits, so a
    # run measures close to ``seconds`` instead of overshooting by one.
    while len(episodes) < (1 if trace else MIN_EPISODES) or (
        time.perf_counter() + last / 2 < deadline
    ):
        tick = time.perf_counter()
        try:
            assert_untraced()
            attempted += 1
            plain = workloads.run_episode(instance, clock=clock)
            if not verify(plain, f"episode {attempted}"):
                break
            episodes.append(plain)
            if trace:
                tracer = layers.Tracer()
                attempted += 1
                traced = workloads.run_episode(instance, around=tracer.tracing())
                verify(traced, f"traced episode {attempted}")
                summary = tracer.summary()
                if summary["accounting_error"] > metrics.ACCOUNTING_TOLERANCE:
                    failed += 1
                    errors.append(f"accounting error {summary['accounting_error']:.2e}")
                if summary["violations"]:
                    failed += 1
                    errors.append(f"span accounting violations {summary['violations']}")
                summaries.append(summary)
                overheads.append(traced.wall_s / plain.wall_s - 1.0)
            setup.append(setup_sample(workload_name, seed))
        except Exception as exc:
            traceback.print_exc()
            failed += 1
            errors.append(repr(exc))
            break
        last = time.perf_counter() - tick
    lines += [f"# error: {error}" for error in errors]
    if failed or not episodes:
        return {"correct": False, "attempted": attempted, "failed": max(failed, 1), "metrics": {}}, lines
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload_name, seed))

    if trace:
        values, samples = metrics.per_layer(summaries, overheads, setup)
        declared = [(name, unit) for name, unit, _better in metrics.PER_LAYER]
        lines += layer_table(summaries, workload)
    else:
        values, samples = metrics.end_to_end(episodes, checked, setup, instance.workload.num_days)
        declared = [(name, unit) for name, unit, _better, _bound in metrics.END_TO_END]
        kernel = 1e3 * statistics.median(clock.samples)
        lines.append(
            f"# host speed: calibration kernel median {kernel:.3f} ms over {len(clock.samples)} "
            f"passes (reference {1e3 * hostclock.REFERENCE_S:.3f} ms); times below are "
            f"reference-host seconds"
        )
    lines.append(f"# {'metric':<40} {'value':>14} {'unit':<8} samples")
    for name, unit in declared:
        lines.append(f"# {name:<40} {values[name]:>14.6g} {unit:<8} n={samples[name]}")
    bad = [name for name, _unit in declared if not math.isfinite(values[name])]
    if bad:
        failed += 1
        lines.append(f"# error: non-finite metrics {bad}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in declared},
    }
    return result, lines


def layer_table(summaries, workload) -> list[str]:
    """Per-layer self time of the median traced episode, plus GC attribution."""
    from layers import LAYERS

    walls = [s["wall_s"] for s in summaries]
    summary = summaries[walls.index(statistics.median_low(walls))]
    wall = summary["wall_s"]
    lines = [f"# traced episode wall {wall:.4f} s; {'layer':<28} {'calls':>8} {'self_s':>10} {'share':>7} gc_pause_s"]
    for layer in LAYERS:
        lines.append(
            f"# {layer:<28} {summary['calls'][layer]:>8.0f} {summary['self_s'][layer]:>10.4f} "
            f"{summary['self_s'][layer] / wall:>7.1%} {summary['gc']['pause_by_layer'].get(layer, 0.0):.4f}"
        )
    share = {layer: summary["self_s"][layer] / wall for layer in LAYERS}
    predicted = sum(share[layer] for layer in workload.dominant)
    # Other layers are grouped by module (simulation.*, bandits.*, ...), so
    # a package split into small layers cannot hide behind its parts.
    groups: dict[str, float] = {}
    for layer in LAYERS:
        if layer not in workload.dominant:
            group = layer.split(".")[0] + ".*"
            groups[group] = groups.get(group, 0.0) + share[layer]
    rival = max(groups, key=groups.get)
    verdict = "shows" if predicted >= groups[rival] else "DOES NOT show"
    lines.append(
        f"# prediction: {' + '.join(workload.dominant)} dominate -> {predicted:.1%} of the "
        f"episode vs {groups[rival]:.1%} for the largest other module ({rival}): "
        f"the trace {verdict} it"
    )
    return lines


def provenance(workload_name, seed, seconds, trace, instance) -> dict:
    """The run stamped with :mod:`repro.obs.manifest`'s schema."""
    import numpy as np
    from repro.obs.manifest import build_manifest

    return build_manifest(
        command="e2ebench",
        args={"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace},
        extra={
            "seeds": instance.seeds,
            "input_sha256": instance.input_digest(),
            "host_cpu": _cpu_model() or platform.processor(),
            "cpu_count": os.cpu_count(),
            "blas": _blas(np),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        },
    )


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas(np) -> dict | None:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # older numpy without the dict form
        return None


def spec() -> dict:
    """``BENCHMARK.json`` as the declarations in this package define it."""
    import metrics
    import workloads

    return {
        "command": ["python3", os.path.relpath(os.path.abspath(__file__), ROOT)],
        "paths": [os.path.relpath(BENCH_DIR, ROOT)],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics.PER_LAYER
        ],
    }


def write_spec() -> None:
    """Regenerate ``BENCHMARK.json`` from the declarations."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(spec(), handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
