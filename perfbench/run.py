"""Run the ObjectRunner benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py                       # all workloads, seed 1
    python3 perfbench/run.py --workload cold-batch --seed 7 --seconds 20
    python3 perfbench/run.py --workload warm-recrawl --trace 1

``--trace 0`` measures the end-to-end metrics with unpatched code.
``--trace 1`` runs the timed phase untraced, then again with every
layer's public calls wrapped in spans, and reports the per-layer
metrics.  Each workload runs in its own process, so its peak RSS is its
own.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give host and workload provenance, the correctness verdict,
and every metric with its unit and sample count.  The exit code is 0
only when the outputs checked out.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold-batch", "cold-batch-proc", "warm-recrawl")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", choices=(*WORKLOAD_NAMES, "all"), default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src`` (and time it)."""
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    start = time.perf_counter()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, not this checkout")
    from perfbench import report, spans, workloads

    return time.perf_counter() - start, report, spans, workloads


def _host(workers: int, seed: int) -> str:
    affinity = ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))
    return (
        f"host: nproc={os.cpu_count()} affinity={affinity} "
        f"python={platform.python_version()} "
        f"start_method={multiprocessing.get_start_method()} "
        f"workers={workers} seed={seed}"
    )


def _emit(lines: list[str], correct: bool, attempted: int, failed: int, metrics):
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    sys.stdout.flush()


def run_one(args: argparse.Namespace) -> int:
    try:
        import_s, report, spans, workloads = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    generate_start = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds)
    generate_s = time.perf_counter() - generate_start
    scratch = workloads.scratch_dir(CHECKOUT)
    try:
        workload = workloads.make_workload(args.workload, inputs, scratch)
        items = len(inputs.recrawl) or len(inputs.entries)
        lines = [
            f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
            "  " + _host(workload.workers, args.seed),
            f"  workload: items={items} sources={len(inputs.entries)} "
            f"inputs_sha256={inputs.digest()[:16]} "
            f"generate_s={generate_s:.3f} import_s={import_s:.3f}",
        ]
        if args.trace:
            body = _traced(workload, report, spans)
        else:
            body = _measured(workload, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    phase, problems, values, samples, units, extra = body
    problems = problems + workloads.check_digest_pair(
        CHECKOUT, args.workload, args.seed, phase.digest
    )
    lines.append(
        f"  correctness: objects_digest={phase.digest} pc={phase.pc:.4f} "
        f"attempted={phase.attempted} failed={phase.failed} "
        f"discards={phase.discards} registry_hits={phase.hits} "
        f"problems={len(problems)}"
    )
    lines.extend(f"  problem: {problem}" for problem in problems)
    lines.extend(extra)
    lines.append(f"  {'metric':<38} {'value':>14} {'unit':<6} samples")
    for name, value in values.items():
        lines.append(
            f"  {name:<38} {value:>14.6g} {units[name]:<6} {samples.get(name, '')}"
        )
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    correct = not problems
    _emit(lines, correct, phase.attempted, phase.failed, metrics)
    return 0 if correct else 1


def _measured(workload, report):
    """``--trace 0``: set up several times, then the untraced timed phase.

    A host-speed sidecar samples throughout; set-up times are scaled by
    the factor of the set-up samples, the timed phase by its own.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import (
        IMPORT_REPEATS,
        SETUP_REPEATS,
        import_seconds,
        peak_rss_mb,
        percentile,
        timed_setup,
    )

    # A serial workload is pinned to one CPU and sampled there; the
    # process backend's workers roam over every CPU, and so does the
    # sidecar.
    cpu = None
    if workload.workers == 1:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    speed = HostSpeed(cpu)
    try:
        setup_start = time.perf_counter()
        imports = import_seconds(CHECKOUT, IMPORT_REPEATS)
        walls = timed_setup(workload, SETUP_REPEATS)
        setup_s = statistics.median(imports) + statistics.median(walls)
        problems: list[str] = []
        population_s = 0.0
        if hasattr(workload, "populate"):
            population_start = time.perf_counter()
            problems.extend(workload.populate())
            population_s = time.perf_counter() - population_start
            setup_s += population_s
        setup_end = time.perf_counter()
        gc.collect()
        phase = workload.run()
        # Before the sidecar is reaped, so only the program's processes count.
        rss_mb = peak_rss_mb()
    finally:
        speed.stop()
    problems.extend(phase.problems)
    setup_factor = speed.factor(setup_start, setup_end)
    timed_factor = speed.factor(phase.start, phase.end)
    values, samples = report.end_to_end(
        phase, setup_s, len(walls), rss_mb, timed_factor
    )
    values["setup_s"] = setup_s * setup_factor
    raw, __ = report.end_to_end(phase, setup_s, len(walls), rss_mb)
    beyond = {share: percentile(phase.latencies_ms, share)[1] for share in (0.5, 0.9)}
    units = {name: unit for name, unit, __ in report.END_TO_END}
    extra = [
        f"  setup: import_median_s={statistics.median(imports):.4f} "
        f"(n={len(imports)}) runner_median_s={statistics.median(walls):.4f} "
        f"(n={len(walls)}) population_s={population_s:.4f} runner_walls="
        + ",".join(f"{wall:.4f}" for wall in walls),
        f"  timed: wall_s={phase.wall_s:.4f} cpu_s={phase.cpu_s:.4f} "
        f"since_start_s={time.perf_counter() - STARTED:.2f}",
        f"  percentiles: n={len(phase.latencies_ms)} "
        f"p50_beyond={beyond[0.5]} p90_beyond={beyond[0.9]} "
        "(Harrell-Davis)",
        f"  host speed: setup_factor={setup_factor:.4f} "
        f"(n={len(speed.during(setup_start, setup_end))}) "
        f"timed_factor={timed_factor:.4f} "
        f"(n={len(speed.during(phase.start, phase.end))})",
        "  raw (unscaled): "
        + " ".join(f"{name}={value:.6g}" for name, value in raw.items()),
    ]
    return phase, problems, values, samples, units, extra


def _traced(workload, report, spans):
    """``--trace 1``: untraced pass, then a traced pass over the same work."""
    workload.setup()
    problems: list[str] = []
    if hasattr(workload, "populate"):
        problems.extend(workload.populate())
    gc.collect()
    untraced = workload.run()
    problems.extend(untraced.problems)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        setup_start = time.perf_counter()
        workload.prepare()
        gc.collect()
        phase = workload.run()
    problems.extend(phase.problems)
    if phase.digest != untraced.digest:
        problems.append("the traced pass produced different objects")
    timed = spans.lanes(tracer, phase.start, phase.end)
    with_setup = spans.lanes(tracer, setup_start, phase.end)
    values, accounting = report.per_layer(
        timed, with_setup, phase.attempted, phase.wall_s, untraced.wall_s
    )
    if accounting["error"] > report.ACCOUNTING_TOLERANCE:
        problems.append(
            f"accounting error {accounting['error']:.4%} exceeds "
            f"{report.ACCOUNTING_TOLERANCE:.0%}"
        )
    units = {name: unit for name, unit, __ in report.PER_LAYER}
    extra = [
        "  accounting: lanes={:.0f} lane_wall_ms={:.1f} accounted_ms={:.1f} "
        "error={:.5%} tolerance={:.0%}".format(
            accounting["lanes"],
            accounting["lane_wall_ms"],
            accounting["accounted_ms"],
            accounting["error"],
            report.ACCOUNTING_TOLERANCE,
        ),
        "  self_ms: "
        + " ".join(
            f"{key.split('.', 1)[1]}={value:.1f}"
            for key, value in accounting.items()
            if key.startswith("self_ms.")
        ),
        f"  timed: untraced_wall_s={untraced.wall_s:.4f} "
        f"traced_wall_s={phase.wall_s:.4f}",
    ]
    samples = {name: phase.attempted for name in values}
    return phase, problems, values, samples, units, extra


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; one combined verdict at the end."""
    correct = True
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=CHECKOUT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and completed.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    _emit([], correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
