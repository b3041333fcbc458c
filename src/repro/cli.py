"""Command-line entry points (``repro-lacb`` / ``python -m repro``).

Subcommands:

- ``compare``  — run the full algorithm roster on one synthetic city;
- ``sweep``    — one Fig. 8 column (vary a Table III factor);
- ``city``     — the Fig. 9-11 evaluation on a real-like city;
- ``motivate`` — the Sec. II measurement study (Figs. 2-4);
- ``serve``    — event-driven serving mode: micro-batched matching over a
  deterministic arrival process, with queue-wait/latency quantiles
  (``--equivalence`` proves boundary-flush serving ≡ the batch day loop);
- ``timing``   — the per-batch matching-cost profile (the CBS speedup);
- ``report``   — render the telemetry a ``--telemetry DIR`` run exported
  (falls back to streamed partials when the run crashed before export);
- ``watch``    — live view of an in-flight ``--telemetry`` run from its
  streamed segments;
- ``baseline`` — benchmark trajectory tracking: append ``BENCH_*.json``
  artifacts to ``BENCH_trajectory.json`` and/or check them against the
  baseline with a noise band (``--check`` exits non-zero on regression);
- ``check``    — the correctness self-diagnostic: runtime invariants on a
  small simulated city plus the differential property suites
  (see ``docs/correctness.md``).

``compare``, ``sweep`` and ``city`` additionally accept ``--check``, which
runs them with runtime invariant enforcement on (aborting on the first
violation); checks observe only and never change results.

Output discipline: result tables go to **stdout**; everything diagnostic
(progress, destinations, warnings) goes through :mod:`repro.obs.logging`
to **stderr**, so ``repro compare | tee results.txt`` captures exactly the
tables.  ``-v`` raises verbosity to DEBUG, ``-q`` lowers it to WARNING.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from repro.algorithms import ALGORITHM_NAMES, make_matcher
from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.experiments import (
    ascii_chart,
    ascii_histogram,
    evaluate_city,
    format_series,
    format_table,
    matching_time_profile,
    run_algorithm,
    save_sweep_result,
    signup_vs_workload,
    sweep,
    top_broker_load_ratio,
    workload_concentration,
)
from repro.obs import telemetry as obs
from repro.obs.logging import get_logger, setup_cli_logging
from repro.obs.manifest import build_manifest, repro_version
from repro.simulation import SyntheticConfig, generate_city

log = get_logger("cli")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--brokers", type=int, default=200, help="number of brokers |B|")
    parser.add_argument("--requests", type=int, default=8000, help="number of requests |R|")
    parser.add_argument("--days", type=int, default=14, help="covering days")
    parser.add_argument("--imbalance", type=float, default=0.015, help="sigma = |R|/|B| per batch")
    parser.add_argument("--seed", type=int, default=7, help="matcher seed")
    parser.add_argument("--instance-seed", type=int, default=1, help="city generation seed")
    _add_jobs_argument(parser)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the runs (1 = serial, 0 = one per CPU)",
    )


def _positive_float(text: str) -> float:
    """argparse type: a float ``> 0`` (``inf`` allowed, NaN rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _finite_positive_float(text: str) -> float:
    """argparse type: a finite float ``> 0``."""
    value = _positive_float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer ``> 0``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="collect metrics/spans during the run and export them to DIR "
        "(view with `repro report DIR`)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="record per-assignment decision provenance under DIR/audit/ "
        "(requires --telemetry; inspect with `repro-lacb explain DIR`)",
    )
    parser.add_argument(
        "--audit-sample",
        type=int,
        default=1,
        metavar="N",
        help="audit every Nth batch by global index (default 1 = every batch)",
    )


def _add_check_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check",
        action="store_true",
        help="enforce runtime invariants during the run (abort on the first "
        "violation); observation only — results are unchanged",
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="write durable day-boundary checkpoints of every run under "
        "DIR/<run_id> (see docs/state.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue each run from its latest checkpoint under the "
        "--checkpoint directory; results are bit-identical to an "
        "uninterrupted run",
    )


def _config_from(args: argparse.Namespace) -> SyntheticConfig:
    return SyntheticConfig(
        num_brokers=args.brokers,
        num_requests=args.requests,
        num_days=args.days,
        imbalance=args.imbalance,
        seed=args.instance_seed,
    )


def _cmd_compare(args: argparse.Namespace) -> None:
    platform_spec = PlatformSpec.synthetic(_config_from(args))
    specs = [
        RunSpec(
            platform=platform_spec,
            matcher=MatcherSpec(name, seed=args.seed),
            checkpoint_dir=args.checkpoint,
            resume_from=args.checkpoint if args.resume else None,
        )
        for name in args.algorithms
    ]
    rows = []
    for name, run in zip(args.algorithms, run_many(specs, jobs=args.jobs)):
        rows.append(
            (
                name,
                run.total_realized_utility,
                run.decision_time,
                top_broker_load_ratio(run),
            )
        )
    print(
        format_table(
            ["algorithm", "total utility", "decision s", "top-1 load ratio"],
            rows,
            title=f"Synthetic city |B|={args.brokers} |R|={args.requests} days={args.days}",
        )
    )


def _cmd_sweep(args: argparse.Namespace) -> None:
    result = sweep(
        args.factor,
        args.values,
        _config_from(args),
        algorithms=tuple(args.algorithms),
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
    )
    print(format_series(args.factor, result.values, result.utilities, title="Total utility"))
    print()
    print(format_series(args.factor, result.values, result.times, title="Decision time (s)"))
    if args.chart and len(result.values) >= 2:
        print()
        print(
            ascii_chart(
                result.values,
                result.utilities,
                title=f"Total utility vs {args.factor}",
            )
        )
    if args.output:
        save_sweep_result(result, args.output)
        log.info("sweep saved to %s", args.output)


def _cmd_city(args: argparse.Namespace) -> None:
    evaluation = evaluate_city(
        args.city,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
    )
    print(
        format_table(
            ["algorithm", "total utility", "decision s"],
            evaluation.utility_table(),
            title=f"Real-like City {args.city} (scale {args.scale})",
        )
    )
    if args.chart:
        print()
        names = list(evaluation.results)
        utilities = [evaluation.results[name].total_realized_utility for name in names]
        print(ascii_histogram(names, utilities, title="Total realized utility"))
    if evaluation.improved_vs_top3:
        print()
        print(
            format_table(
                ["algorithm", "brokers improved vs Top-3"],
                sorted(evaluation.improved_vs_top3.items()),
            )
        )
        print(f"RR degrades {evaluation.rr_degraded_vs_top3:.1%} of brokers vs Top-3")


def _cmd_motivate(args: argparse.Namespace) -> None:
    platform = generate_city(_config_from(args))
    study = signup_vs_workload(platform, seed=args.seed)
    rows = zip(study.bin_centers, study.mean_signup, study.count)
    print(
        format_table(
            ["workload bin", "mean sign-up rate", "broker-days"],
            rows,
            title="Fig. 2: sign-up rate vs daily workload (under Top-3)",
        )
    )
    print(f"below-threshold band: {study.low_band[0]:.1%} ~ {study.low_band[1]:.1%}")
    print(f"above-threshold band: {study.high_band[0]:.1%} ~ {study.high_band[1]:.1%}")
    print(f"Welch's t-test p-value: {study.welch_p_value:.2e}")
    concentration = workload_concentration(platform, seed=args.seed)
    print(
        f"\nFig. 4: top-1 broker load = {concentration.top1_ratio:.2f}x the city average; "
        f"{concentration.above_sweet_spot} top brokers above the typical sweet spot"
    )


def _cmd_develop(args: argparse.Namespace) -> None:
    config = _config_from(args)
    config = type(config)(**{**config.__dict__, "skill_growth": args.growth})
    from repro.experiments.metrics import gini
    from repro.simulation import generate_city

    platform = generate_city(config)
    population = platform.population
    initial = population.potential_quality * (0.55 + 0.45 * population.experience)
    rows = []
    for name in args.algorithms:
        result = run_algorithm(platform, make_matcher(name, platform, seed=args.seed))
        closed = population.base_quality - initial
        potential = np.maximum(population.potential_quality - initial, 1e-12)
        rows.append(
            (
                name,
                result.total_realized_utility,
                float(closed.sum() / potential.sum()),
                int(np.sum(closed > 0.1 * potential)),
                gini(result.broker_workload),
            )
        )
    print(
        format_table(
            ["policy", "total utility", "potential realized", "brokers developed", "workload gini"],
            rows,
            title=f"Matthew effect under learning-by-doing (growth={args.growth})",
        )
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.engine.hooks import MetricsCollector
    from repro.serving import MicroBatchPolicy, ServingEngine, derive_arrivals

    if args.equivalence:
        from repro.check.serving import run_serving_suite

        cases, violations = run_serving_suite(num_days=min(args.days, 4))
        print(f"serving equivalence: {cases} case(s) checked")
        if violations:
            print(f"FAILED: {len(violations)} violation(s)")
            for violation in violations:
                print(f"  - {violation}")
            raise SystemExit(1)
        print("OK: boundary-flush serving is bit-identical to the batch day loop")
        return

    platform_spec = PlatformSpec.synthetic(_config_from(args))
    max_wait = args.max_wait if args.max_wait is not None else args.window_seconds
    policy = MicroBatchPolicy(max_wait=max_wait, max_size=args.max_size)
    rows = []
    for name in args.algorithms:
        platform = platform_spec.build()
        matcher = MatcherSpec(name, seed=args.seed).build(platform)
        collector = MetricsCollector()
        schedule = derive_arrivals(
            platform.stream,
            window_seconds=args.window_seconds,
            profile=args.profile,
            seed=args.arrival_seed,
            burst_amplitude=args.burst_amplitude,
        )
        engine = ServingEngine(policy=policy, schedule=schedule)
        report = engine.run(platform, matcher, hooks=[collector])
        result = collector.result
        wait_p50, _, wait_p99 = report.wait_quantiles()
        _, _, latency_p99 = report.latency_quantiles()
        rows.append(
            (
                name,
                result.total_realized_utility,
                report.requests,
                report.micro_batches,
                wait_p50,
                wait_p99,
                latency_p99,
                report.throughput_rps,
            )
        )
    print(
        format_table(
            [
                "algorithm",
                "total utility",
                "requests",
                "micro-batches",
                "wait p50 s",
                "wait p99 s",
                "latency p99 s",
                "req/s",
            ],
            rows,
            title=(
                f"Serving mode ({args.profile} arrivals, window {args.window_seconds:g}s, "
                f"max-wait {max_wait:g}s"
                + (f", max-size {args.max_size}" if args.max_size else "")
                + ")"
            ),
        )
    )


def _cmd_timing(args: argparse.Namespace) -> None:
    rows = []
    for num_brokers in args.values:
        profile = matching_time_profile(int(num_brokers), args.batch, seed=args.seed)
        rows.append(
            (
                int(num_brokers),
                profile.km_square_seconds,
                profile.cbs_km_seconds,
                profile.speedup,
            )
        )
    print(
        format_table(
            ["|B|", "KM (square) s", "CBS+KM s", "speedup"],
            rows,
            title=f"Per-batch matching cost, |R|={args.batch}",
        )
    )


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.obs.report import load_spans, render_report

    print(render_report(args.dir))
    if args.flamegraph:
        from repro.obs.profile import write_collapsed

        spans = load_spans(args.dir)
        write_collapsed(args.flamegraph, spans)
        log.info(
            "collapsed stacks (%d spans) written to %s — render with "
            "flamegraph.pl or https://speedscope.app",
            len(spans),
            args.flamegraph,
        )


def _cmd_explain(args: argparse.Namespace) -> None:
    from repro.obs.audit import audit_dir_for, read_audit
    from repro.obs.report import render_explain

    view = read_audit(audit_dir_for(args.dir))
    print(
        render_explain(
            view,
            day=args.day,
            request=args.request,
            broker=args.broker,
            limit=args.limit,
        )
    )


def _cmd_watch(args: argparse.Namespace) -> None:
    import time as _time

    from repro.obs.report import render_watch

    while True:
        text, complete = render_watch(args.dir)
        print(text, flush=True)
        if complete or args.once:
            return
        _time.sleep(args.interval)
        print()


def _cmd_baseline(args: argparse.Namespace) -> None:
    from repro.obs.baseline import DuplicateEntryError, default_artifacts, run_baseline

    artifacts = args.artifacts or default_artifacts()
    if not artifacts:
        raise SystemExit("no BENCH_*.json artifacts found (run the benchmark suite first)")
    try:
        comparisons, appended = run_baseline(
            artifacts,
            args.trajectory,
            append=args.append,
            window=args.window,
        )
    except DuplicateEntryError as error:
        raise SystemExit(f"baseline --append rejected: {error}") from None
    rows = []
    for comparison in comparisons:
        baseline = (
            f"{comparison.baseline:.4f}" if comparison.baseline is not None else "-"
        )
        band = f"±{comparison.band:.4f}" if comparison.baseline is not None else "-"
        rows.append(
            (
                comparison.bench,
                comparison.metric,
                f"{comparison.current:.4f}",
                baseline,
                band,
                comparison.samples,
                comparison.status.upper() if comparison.is_regression else comparison.status,
            )
        )
    print(
        format_table(
            ["bench", "metric", "current", "baseline", "noise band", "n", "status"],
            rows,
            title=f"Benchmark baseline ({args.trajectory})",
        )
    )
    if appended:
        log.info("appended %d entr%s to %s", len(appended),
                 "y" if len(appended) == 1 else "ies", args.trajectory)
    regressions = [c for c in comparisons if c.is_regression]
    if args.strict_baseline and any(c.status == "no-baseline" for c in comparisons):
        raise SystemExit("no baseline available for some metrics (--strict-baseline)")
    if args.check and regressions:
        for comparison in regressions:
            print(
                f"REGRESSION: {comparison.bench}.{comparison.metric} = "
                f"{comparison.current:.4f} vs baseline {comparison.baseline:.4f} "
                f"(noise band ±{comparison.band:.4f}, n={comparison.samples})"
            )
        raise SystemExit(1)


def _cmd_check(args: argparse.Namespace) -> None:
    import os

    from repro.check import run_self_check
    from repro.state.io import atomic_write_json

    report = run_self_check(
        num_brokers=args.brokers,
        num_requests=args.requests,
        num_days=args.days,
        seed=args.seed,
        instance_seed=args.instance_seed,
        algorithms=tuple(args.algorithms),
        property_cases=args.cases,
        property_seed=args.property_seed,
    )
    # The resume phase runs under try/finally: whatever it finds — or if it
    # crashes outright — the --report artifact must still land on disk with
    # everything discovered so far, and only then may the failure propagate
    # (--telemetry flushes in _run_with_telemetry's own finally).
    try:
        if args.resume_cases > 0:
            from repro.check.resume import run_resume_suite

            cases_run, violations = run_resume_suite(
                num_cases=args.resume_cases,
                seed=args.property_seed,
                directory=args.resume_dir,
            )
            report.resume_cases = cases_run
            report.violations.extend(violations)
    finally:
        if args.report:
            os.makedirs(args.report, exist_ok=True)
            path = os.path.join(args.report, "check_report.json")
            atomic_write_json(path, report.to_dict())
            log.info("check report written to %s", path)
    print(
        format_table(
            ["phase", "checks"],
            [
                ("invariants", report.invariants_checked),
                ("solver oracle", report.solver_checks),
                ("property cases", report.property_cases),
                ("resume cases", report.resume_cases),
            ],
            title=f"Self-check on |B|={args.brokers} |R|={args.requests} "
            f"days={args.days} ({', '.join(report.algorithms)})",
        )
    )
    if report.ok:
        print("OK: all invariants and properties hold")
    else:
        print(f"FAILED: {len(report.violations)} violation(s)")
        for violation in report.violations:
            print(f"  - {violation}")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lacb",
        description="Capacity-aware broker matching (ICDE 2023) reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro_version()}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (DEBUG level)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only warnings and errors on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run the algorithm roster on a synthetic city")
    _add_config_arguments(compare)
    compare.add_argument(
        "--algorithms", nargs="+", default=list(ALGORITHM_NAMES), choices=ALGORITHM_NAMES
    )
    _add_telemetry_argument(compare)
    _add_check_argument(compare)
    _add_checkpoint_arguments(compare)
    compare.set_defaults(func=_cmd_compare)

    sweep_cmd = sub.add_parser("sweep", help="one Fig. 8 column")
    _add_config_arguments(sweep_cmd)
    sweep_cmd.add_argument("factor", choices=("num_brokers", "num_requests", "num_days", "imbalance"))
    sweep_cmd.add_argument("values", nargs="+", type=float)
    sweep_cmd.add_argument(
        "--algorithms", nargs="+", default=["Top-3", "CTop-3", "AN", "LACB", "LACB-Opt"],
        choices=ALGORITHM_NAMES,
    )
    sweep_cmd.add_argument("--chart", action="store_true", help="render an ASCII chart")
    sweep_cmd.add_argument("--output", help="save the sweep as JSON")
    _add_telemetry_argument(sweep_cmd)
    _add_check_argument(sweep_cmd)
    _add_checkpoint_arguments(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    city = sub.add_parser("city", help="Fig. 9-11 evaluation on a real-like city")
    city.add_argument("city", choices=("A", "B", "C"))
    city.add_argument("--scale", type=float, default=0.05)
    city.add_argument("--seed", type=int, default=7)
    _add_jobs_argument(city)
    city.add_argument("--chart", action="store_true", help="render an ASCII histogram")
    _add_telemetry_argument(city)
    _add_check_argument(city)
    _add_checkpoint_arguments(city)
    city.set_defaults(func=_cmd_city)

    motivate = sub.add_parser("motivate", help="the Sec. II measurement study")
    _add_config_arguments(motivate)
    motivate.set_defaults(func=_cmd_motivate)

    develop = sub.add_parser(
        "develop", help="the Matthew-effect study under learning-by-doing"
    )
    _add_config_arguments(develop)
    develop.add_argument("--growth", type=float, default=0.02, help="learning-by-doing rate")
    develop.add_argument(
        "--algorithms", nargs="+", default=["Top-3", "RR", "LACB-Opt"], choices=ALGORITHM_NAMES
    )
    develop.set_defaults(func=_cmd_develop)

    serve = sub.add_parser(
        "serve", help="event-driven serving mode (micro-batched matching)"
    )
    serve.add_argument("--brokers", type=int, default=50, help="number of brokers |B|")
    serve.add_argument("--requests", type=int, default=2000, help="number of requests |R|")
    serve.add_argument("--days", type=int, default=7, help="covering days")
    serve.add_argument("--imbalance", type=float, default=0.015, help="sigma = |R|/|B| per batch")
    serve.add_argument("--seed", type=int, default=7, help="matcher seed")
    serve.add_argument("--instance-seed", type=int, default=1, help="city generation seed")
    serve.add_argument(
        "--algorithms", nargs="+", default=["Top-3", "AN", "LACB", "LACB-Opt"],
        choices=ALGORITHM_NAMES,
    )
    serve.add_argument(
        "--window-seconds",
        type=_finite_positive_float,
        default=60.0,
        help="virtual length of one platform window on the serving timeline",
    )
    serve.add_argument(
        "--max-wait",
        type=_positive_float,
        default=None,
        help="micro-batch max wait in virtual seconds (default: the window "
        "length, i.e. the paper's fixed windows)",
    )
    serve.add_argument(
        "--max-size",
        type=_positive_int,
        default=None,
        help="close a micro-batch as soon as it holds this many requests",
    )
    serve.add_argument(
        "--profile",
        choices=("uniform", "bursty"),
        default="uniform",
        help="intra-window arrival rate profile",
    )
    serve.add_argument("--arrival-seed", type=int, default=0, help="arrival draw seed")
    serve.add_argument(
        "--burst-amplitude",
        type=float,
        default=1.2,
        help="bursty profile amplitude in [0, 2); 0 degenerates to uniform",
    )
    serve.add_argument(
        "--equivalence",
        action="store_true",
        help="run the serving-vs-batch equivalence suite instead of serving "
        "(exits non-zero on any divergence)",
    )
    _add_telemetry_argument(serve)
    _add_check_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    timing = sub.add_parser("timing", help="per-batch matching cost profile")
    timing.add_argument("values", nargs="+", type=int, help="|B| values")
    timing.add_argument("--batch", type=int, default=10, help="batch size |R|")
    timing.add_argument("--seed", type=int, default=0)
    timing.set_defaults(func=_cmd_timing)

    report = sub.add_parser(
        "report", help="render the telemetry exported by a --telemetry run"
    )
    report.add_argument("dir", help="telemetry directory written by --telemetry")
    report.add_argument(
        "--flamegraph",
        metavar="OUT",
        default=None,
        help="additionally write collapsed stacks (flamegraph.pl/speedscope "
        "format) built from the span tree to OUT",
    )
    report.set_defaults(func=_cmd_report)

    watch = sub.add_parser(
        "watch", help="live view of an in-flight --telemetry run (streamed segments)"
    )
    watch.add_argument("dir", help="telemetry directory of the running command")
    watch.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    watch.add_argument(
        "--once", action="store_true", help="render the current state once and exit"
    )
    watch.set_defaults(func=_cmd_watch)

    explain = sub.add_parser(
        "explain",
        help="reconstruct decision paths from a --telemetry --audit run",
    )
    explain.add_argument("dir", help="telemetry directory of the audited run")
    explain.add_argument("--day", type=int, default=None, help="only this day")
    explain.add_argument(
        "--request", type=int, default=None, help="only this request id"
    )
    explain.add_argument(
        "--broker", type=int, default=None, help="only matches to this broker"
    )
    explain.add_argument(
        "--limit",
        type=int,
        default=10,
        help="maximum decisions rendered (default 10; 0 = no limit)",
    )
    explain.set_defaults(func=_cmd_explain)

    baseline = sub.add_parser(
        "baseline",
        help="benchmark trajectory: append BENCH_*.json artifacts and/or "
        "check them against the baseline",
    )
    baseline.add_argument(
        "artifacts",
        nargs="*",
        help="benchmark artifacts (default: ./BENCH_*.json except the trajectory)",
    )
    baseline.add_argument(
        "--trajectory",
        default="BENCH_trajectory.json",
        help="trajectory file (committed; default ./BENCH_trajectory.json)",
    )
    baseline.add_argument(
        "--append", action="store_true", help="append the artifacts to the trajectory"
    )
    baseline.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any metric regresses beyond its noise band",
    )
    baseline.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail when a metric has no baseline to compare against",
    )
    baseline.add_argument(
        "--window",
        type=int,
        default=5,
        help="baseline = median of the last N matching trajectory entries",
    )
    baseline.set_defaults(func=_cmd_baseline)

    check = sub.add_parser(
        "check", help="correctness self-diagnostic (invariants + property suites)"
    )
    check.add_argument("--brokers", type=int, default=25, help="number of brokers |B|")
    check.add_argument("--requests", type=int, default=250, help="number of requests |R|")
    check.add_argument("--days", type=int, default=3, help="covering days")
    check.add_argument("--seed", type=int, default=7, help="matcher seed")
    check.add_argument("--instance-seed", type=int, default=1, help="city generation seed")
    check.add_argument(
        "--algorithms",
        nargs="+",
        default=["KM", "LACB", "LACB-Opt"],
        choices=ALGORITHM_NAMES,
        help="algorithms driven through the invariant phase",
    )
    check.add_argument(
        "--cases", type=int, default=200, help="randomized cases per property suite"
    )
    check.add_argument(
        "--property-seed", type=int, default=0, help="base seed of the property harness"
    )
    check.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="write a JSON violation report to DIR/check_report.json",
    )
    check.add_argument(
        "--resume-cases",
        type=int,
        default=2,
        help="checkpoint/resume equivalence cases with random kill days "
        "(0 disables the resume phase)",
    )
    check.add_argument(
        "--resume-dir",
        metavar="DIR",
        default=None,
        help="keep the resume phase's checkpoint stores under DIR "
        "(throwaway temp directories when omitted)",
    )
    _add_telemetry_argument(check)
    check.set_defaults(func=_cmd_check)

    return parser


def _run_with_telemetry(args: argparse.Namespace, directory: str) -> None:
    """Run one command under live telemetry and export the artifacts.

    The export happens in ``finally``: a failing command (e.g. ``check``
    exiting non-zero on violations) must still ship its telemetry — that
    run's trace is exactly the one worth inspecting — and the failure
    (exit code included) must still propagate.

    Streaming is on throughout: every run writes live segments under
    ``DIR/stream/`` (watch with ``repro-lacb watch DIR``), so even a
    hard kill leaves a partial view that ``report`` can render.
    """
    import os

    from repro.obs.manifest import describe_telemetry
    from repro.obs.stream import TelemetryStreamWriter, stream_dir_for

    telemetry = obs.enable()
    # Spec fan-outs (run_many) derive per-spec segments from stream_dir;
    # runs executed directly under this telemetry flush to "main".
    telemetry.stream_dir = stream_dir_for(directory)
    telemetry.stream = TelemetryStreamWriter(telemetry.stream_dir, segment="main")
    if getattr(args, "audit", False):
        from repro.obs.audit import AuditConfig, audit_dir_for

        telemetry.audit = AuditConfig(sample_every=args.audit_sample)
        telemetry.audit_dir = audit_dir_for(directory)
    start = time.perf_counter()
    try:
        args.func(args)
    finally:
        wall = time.perf_counter() - start
        obs.disable()
        manifest = build_manifest(
            command=args.command,
            args={
                key: value
                for key, value in sorted(vars(args).items())
                if key != "func" and not callable(value)
            },
            wall_seconds=wall,
            extra={"telemetry": describe_telemetry(telemetry)},
        )
        paths = telemetry.export(directory, manifest=manifest)
        log.info("telemetry exported to %s (%d files)", directory, len(paths))
        log.info("render it with: repro-lacb report %s", directory)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_cli_logging(-1 if args.quiet else args.verbose)
    # The sweep factor values arrive as floats; integer factors need casting.
    if getattr(args, "command", None) == "sweep" and args.factor != "imbalance":
        args.values = [int(v) for v in args.values]
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        parser.error("--resume requires --checkpoint DIR")
    if getattr(args, "audit", False) and not getattr(args, "telemetry", None):
        parser.error("--audit requires --telemetry DIR")
    if getattr(args, "audit_sample", 1) < 1:
        parser.error("--audit-sample must be >= 1")
    if getattr(args, "check", False):
        _run_with_checks(args)
    else:
        _dispatch(args)


def _dispatch(args: argparse.Namespace) -> None:
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir:
        _run_with_telemetry(args, telemetry_dir)
    else:
        args.func(args)


def _run_with_checks(args: argparse.Namespace) -> None:
    """Run one command with runtime invariant enforcement on.

    The environment flag — not just the in-process switchboard — is set so
    ``--jobs N`` worker processes come up with checks enabled too.
    """
    import os

    from repro.check import runtime as check_runtime

    previous = os.environ.get(check_runtime.ENV_FLAG)
    os.environ[check_runtime.ENV_FLAG] = "1"
    check_runtime.enable()
    try:
        _dispatch(args)
    finally:
        check_runtime.disable()
        if previous is None:
            os.environ.pop(check_runtime.ENV_FLAG, None)
        else:
            os.environ[check_runtime.ENV_FLAG] = previous


if __name__ == "__main__":
    main()
