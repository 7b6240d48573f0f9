"""Command-line interface: ``python -m repro``.

Subcommands:

- ``extract`` — wrap a set of HTML files with an SOD and print extracted
  objects as JSON lines::

      python -m repro extract \
          --sod "album(title, artist, price<kind=predefined>)" \
          --dict artist=artists.txt --dict title=titles.txt \
          pages/*.html

  Dictionary files hold one instance per line.  Predefined recognizer
  types (date, price, address, phone, isbn, year, email, url) need no
  dictionary.

  Wrap-once / extract-often: ``--registry DIR`` keeps induced wrappers
  in a content-addressed registry keyed by (SOD, template fingerprint);
  re-running against the same registry skips induction on every hit.
  The older single-file flags remain as deprecated aliases:
  ``--save-wrapper wrapper.json`` persists the learned wrapper after a
  successful run, and ``--load-wrapper wrapper.json`` re-extracts from
  fresh pages without re-wrapping (the SOD travels inside the wrapper
  file, so ``--sod`` may be omitted).  Saved files now record the pages'
  structural fingerprint; on load a mismatch warns and — when ``--sod``
  is given — falls back to full induction.

  Observability: ``--trace trace.jsonl`` writes one JSON line per
  pipeline event (stage start/end with wall-clock timings and counters).

  Resilience: ``--failure-policy {fail_fast,isolate}`` selects how
  multi-source runs react to an unexpected per-source failure.

- ``serve`` — extraction-as-a-service: a JSON-lines request loop on
  stdin/stdout routing every request through a shared wrapper registry
  (first request per template induces, later ones hit)::

      python -m repro serve --registry wrappers/ < requests.jsonl

- ``registry`` — inspect and maintain a wrapper registry::

      python -m repro registry ls --root wrappers/
      python -m repro registry verify --root wrappers/   # exit 1 on problems
      python -m repro registry gc --root wrappers/       # drop orphan files
      python -m repro registry gc --root wrappers/ --dry-run  # preview only

  ``gc`` exits 0 whether or not orphans existed (``--dry-run`` included);
  only ``verify`` signals problems through its exit code.

- ``describe`` — parse an SOD and print its structure, canonical form and
  entity types (useful while authoring SODs).

- ``bench`` — run the benchmark catalog for every system under
  comparison and persist a schema-versioned ``BENCH_<seq>.json``
  artifact (per-domain Pc/Pp, per-stage timing summaries, cache stats,
  peak RSS)::

      python -m repro bench --scale 0.1
      python -m repro bench --compare            # diff vs previous BENCH
      python -m repro bench --compare-files BENCH_0.json BENCH_1.json

  ``--compare`` modes exit 3 when a regression exceeds the thresholds
  (``--threshold`` for Pc/Pp drops, ``--timing-threshold`` for relative
  timing growth) unless ``--warn-only`` is given.  See
  ``docs/METRICS.md`` for the artifact schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.faults import FAILURE_POLICIES
from repro.core.objectrunner import ObjectRunner
from repro.core.params import RunParams
from repro.core.sharding import ShardSpec
from repro.core.pipeline import TraceObserver
from repro.errors import ReproError
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.fingerprint import pages_fingerprint
from repro.htmlkit.tidy import tidy
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.registry.files import (
    fingerprint_matches,
    load_wrapper_file,
    save_wrapper_file,
)
from repro.registry.store import WrapperRegistry
from repro.sod.canonical import canonicalize
from repro.sod.dsl import parse_sod
from repro.sod.types import entity_types


def _load_dictionary(path: str) -> list[str]:
    return [
        line.strip()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def _cli_fingerprint(pages: list[str]) -> str:
    """The template fingerprint of raw pages, prepared as the pipeline does."""
    return pages_fingerprint([clean_tree(tidy(page)) for page in pages])


def _parse_shard(text: str | None) -> "ShardSpec | None":
    """Parse an ``I/N`` shard argument (``None`` passes through)."""
    if not text:
        return None
    return ShardSpec.parse(text)


def _cmd_extract(args: argparse.Namespace) -> int:
    if not args.sod and not args.load_wrapper:
        print("--sod is required unless --load-wrapper is given", file=sys.stderr)
        return 2
    try:
        shard = _parse_shard(args.shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if shard is not None and not shard.contains(args.source_name):
        print(
            f"source {args.source_name!r} is outside shard {shard}; "
            "nothing to do",
            file=sys.stderr,
        )
        return 0
    registry = RecognizerRegistry()
    for spec in args.dict or []:
        if "=" not in spec:
            print(f"--dict expects TYPE=FILE, got {spec!r}", file=sys.stderr)
            return 2
        type_name, __, path = spec.partition("=")
        registry.register(
            GazetteerRecognizer(type_name, _load_dictionary(path))
        )
    pages = [Path(page).read_text(encoding="utf-8") for page in args.pages]
    params = RunParams(failure_policy=args.failure_policy)
    wrapper_registry = (
        WrapperRegistry(args.registry) if args.registry else None
    )
    observers = []
    trace = None
    if args.trace:
        trace = TraceObserver(args.trace)
        observers.append(trace)
    try:
        if args.load_wrapper:
            print(
                "note: --load-wrapper is deprecated; prefer --registry DIR",
                file=sys.stderr,
            )
            wrapper, fingerprint = load_wrapper_file(args.load_wrapper)
            sod = parse_sod(args.sod) if args.sod else wrapper.sod
            runner = ObjectRunner(
                sod, registry=registry, params=params, observers=observers
            )
            prepared = (
                [clean_tree(tidy(page)) for page in pages]
                if fingerprint is not None
                else []
            )
            if fingerprint_matches(fingerprint, prepared) is False:
                if args.sod:
                    print(
                        "warning: wrapper fingerprint does not match these "
                        "pages; re-inducing from --sod",
                        file=sys.stderr,
                    )
                    result = runner.run_source(args.source_name, pages)
                else:
                    print(
                        "warning: wrapper fingerprint does not match these "
                        "pages; extraction may return garbage "
                        "(pass --sod to re-induce)",
                        file=sys.stderr,
                    )
                    result = runner.extract_with(wrapper, pages)
            else:
                result = runner.extract_with(wrapper, pages)
        else:
            sod = parse_sod(args.sod)
            runner = ObjectRunner(
                sod,
                registry=registry,
                params=params,
                observers=observers,
                wrapper_registry=wrapper_registry,
            )
            result = runner.run_source(args.source_name, pages)
    finally:
        if trace is not None:
            trace.close()
    if result.discarded:
        print(
            f"source discarded at {result.discard_stage}: {result.discard_reason}",
            file=sys.stderr,
        )
        return 1
    if args.save_wrapper and result.wrapper is not None:
        print(
            "note: --save-wrapper is deprecated; prefer --registry DIR",
            file=sys.stderr,
        )
        save_wrapper_file(
            args.save_wrapper, result.wrapper, _cli_fingerprint(pages)
        )
        print(f"wrapper saved to {args.save_wrapper}", file=sys.stderr)
    if wrapper_registry is not None:
        stats = wrapper_registry.stats()
        print(
            f"registry: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['stores']} stores, {stats['demotions']} demotions",
            file=sys.stderr,
        )
    for instance in result.objects:
        print(json.dumps(instance.values, ensure_ascii=False))
    print(
        f"extracted {len(result.objects)} objects "
        f"(wrapping {result.timings.wrapping * 1000:.0f} ms, "
        f"support {result.support_used}, conflicts {result.conflicts})",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark catalog and/or compare BENCH artifacts."""
    from repro.metrics.bench import (
        BENCH_PREFIX,
        BenchConfig,
        BenchSession,
        bench_digest,
        claim_bench_path,
        compare_documents,
        latest_bench,
        load_bench,
        merge_documents,
        write_bench,
    )

    if args.digest_files:
        digests = []
        for name in args.digest_files:
            digest = bench_digest(load_bench(Path(name)))
            digests.append(digest)
            print(f"{digest}  {name}")
        if len(set(digests)) > 1:
            print("digest mismatch", file=sys.stderr)
            return 3
        return 0
    if args.merge_shards:
        try:
            merged = merge_documents(
                [load_bench(Path(name)) for name in args.merge_shards]
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out_path = (
            Path(args.merge_out)
            if args.merge_out
            else Path(args.out) / "BENCH_merged.json"
        )
        write_bench(out_path, merged)
        print(f"wrote {out_path}")
        return 0
    if args.compare_files:
        old_path, new_path = (Path(p) for p in args.compare_files)
        comparison = compare_documents(
            load_bench(old_path),
            load_bench(new_path),
            quality_threshold=args.threshold,
            timing_threshold=args.timing_threshold,
        )
        print(f"comparing {old_path} -> {new_path}")
        print(comparison.render())
        return 0 if comparison.ok or args.warn_only else 3

    systems = tuple(name.strip() for name in args.systems.split(",") if name.strip())
    try:
        config = BenchConfig(
            scale=args.scale,
            coverage=args.coverage,
            systems=systems,
            registry_root=args.registry,
            shard=_parse_shard(args.shard),
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.profile:
        from repro.metrics.profiling import profile_session, render_profile

        print(
            f"repro bench --profile: scale={config.scale} "
            f"systems={','.join(systems)}",
            file=sys.stderr,
        )
        report = profile_session(config)
        rendered = render_profile(report, top=args.profile_top)
        print(rendered)
        if args.profile_out:
            Path(args.profile_out).write_text(rendered + "\n", encoding="utf-8")
            print(f"profile written to {args.profile_out}", file=sys.stderr)
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    shard_note = f" shard={config.shard}" if config.shard else ""
    print(
        f"repro bench: scale={config.scale} coverage={config.coverage} "
        f"systems={','.join(systems)} "
        f"workers={config.workers}{shard_note}",
        file=sys.stderr,
    )
    document = BenchSession(config).capture()
    # Claim the sequence number only after the (long) capture, so two
    # concurrent captures cannot both decide on the same file.
    path = claim_bench_path(out_dir)
    seq = int(path.stem[len(BENCH_PREFIX):])
    write_bench(path, document)
    print(f"wrote {path}")
    if not args.compare and not args.compare_to:
        return 0
    baseline_path = (
        Path(args.compare_to)
        if args.compare_to
        else latest_bench(out_dir, before=seq)
    )
    if baseline_path is None:
        print("no previous BENCH artifact to compare against", file=sys.stderr)
        return 0
    comparison = compare_documents(
        load_bench(baseline_path),
        document,
        quality_threshold=args.threshold,
        timing_threshold=args.timing_threshold,
    )
    print(f"comparing {baseline_path} -> {path}")
    print(comparison.render())
    return 0 if comparison.ok or args.warn_only else 3


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the JSON-lines extraction service until shutdown or EOF."""
    from repro.service.server import serve_loop

    wrapper_registry = WrapperRegistry(args.registry)
    observers = []
    trace = None
    if args.trace:
        trace = TraceObserver(args.trace)
        observers.append(trace)
    print(
        f"repro serve: registry at {args.registry}, "
        "one JSON request per line on stdin",
        file=sys.stderr,
    )
    try:
        served = serve_loop(
            wrapper_registry, sys.stdin, sys.stdout, observers=observers
        )
    finally:
        if trace is not None:
            trace.close()
    stats = wrapper_registry.stats()
    print(
        f"served {served} requests ({stats['hits']} registry hits, "
        f"{stats['misses']} misses, {stats['demotions']} demotions)",
        file=sys.stderr,
    )
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    """Inspect or maintain a wrapper registry (``ls``/``gc``/``verify``/``merge``)."""
    if args.action == "merge":
        if not args.from_roots:
            print("merge requires at least one --from DIR", file=sys.stderr)
            return 2
        parts = [WrapperRegistry(root) for root in args.from_roots]
        merged = WrapperRegistry.merged(args.root, parts)
        stats = merged.stats()
        print(
            f"merged {len(parts)} registr{'y' if len(parts) == 1 else 'ies'} "
            f"into {args.root} ({stats['stores']} stores, "
            f"{stats['races']} conflicts resolved canonically)",
            file=sys.stderr,
        )
        return 0
    wrapper_registry = WrapperRegistry(args.root)
    if args.action == "ls":
        rows = wrapper_registry.index_rows()
        for signature, row in rows:
            kind = row.get("kind", "wrapper")
            print(
                f"{signature}  kind={kind}  source={row['source']}  "
                f"sod={row['sod']}"
            )
        print(f"{len(rows)} entries in {args.root}", file=sys.stderr)
        return 0
    if args.action == "gc":
        removed = wrapper_registry.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        for name in removed:
            print(f"{verb} orphan {name}")
        print(f"{verb} {len(removed)} orphan file(s)", file=sys.stderr)
        return 0
    problems = wrapper_registry.verify()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print("registry is consistent", file=sys.stderr)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    sod = parse_sod(args.sod)
    print(f"SOD:        {sod}")
    print(f"canonical:  {canonicalize(sod)}")
    print("entity types:")
    for entity in entity_types(sod):
        optional = " (optional)" if entity.optional else ""
        print(f"  {entity.name:<16} kind={entity.kind:<14} "
              f"recognizer={entity.recognizer}{optional}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ObjectRunner: targeted extraction of structured Web data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    extract = subparsers.add_parser(
        "extract", help="wrap HTML files with an SOD and print JSON objects"
    )
    extract.add_argument(
        "--sod",
        help="SOD in the DSL syntax (optional with --load-wrapper)",
    )
    extract.add_argument(
        "--dict",
        action="append",
        metavar="TYPE=FILE",
        help="dictionary file for an isInstanceOf type (one value per line)",
    )
    extract.add_argument(
        "--source-name", default="cli-source", help="label for this source"
    )
    extract.add_argument(
        "--registry",
        metavar="DIR",
        help="wrapper registry directory: reuse a stored wrapper for this "
        "template or store the freshly induced one",
    )
    extract.add_argument(
        "--save-wrapper",
        metavar="FILE",
        help="(deprecated; prefer --registry) persist the learned wrapper "
        "as JSON after a successful run",
    )
    extract.add_argument(
        "--load-wrapper",
        metavar="FILE",
        help="(deprecated; prefer --registry) skip wrapping: extract with "
        "a previously saved wrapper",
    )
    extract.add_argument(
        "--trace",
        metavar="FILE",
        help="write pipeline events (stage timings, counters) as JSON lines",
    )
    extract.add_argument(
        "--failure-policy",
        choices=FAILURE_POLICIES,
        default="fail_fast",
        help="how multi-source runs treat an unexpected per-source "
        "failure: abort the batch (fail_fast) or record it and let "
        "sibling sources finish (isolate)",
    )
    extract.add_argument(
        "--shard",
        metavar="I/N",
        help="process this source only when its name hashes into shard I "
        "of N (stable across processes and PYTHONHASHSEED); a driver "
        "fanning invocations out across shards gets a disjoint, "
        "exhaustive partition of its sources",
    )
    extract.add_argument("pages", nargs="+", help="HTML files of one source")
    extract.set_defaults(func=_cmd_extract)

    serve = subparsers.add_parser(
        "serve",
        help="JSON-lines extraction service over a wrapper registry",
    )
    serve.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="wrapper registry directory shared by all requests",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="write pipeline events (stage timings, counters) as JSON lines",
    )
    serve.set_defaults(func=_cmd_serve)

    registry = subparsers.add_parser(
        "registry", help="inspect or maintain a wrapper registry"
    )
    registry.add_argument(
        "action",
        choices=("ls", "gc", "verify", "merge"),
        help="ls: list stored wrappers; gc: delete orphan entry files "
        "(exit 0 whether or not orphans existed); "
        "verify: check index/entry consistency (exit 1 on problems); "
        "merge: fold --from registries into --root; conflicting entries "
        "resolve canonically (wrapper before tombstone, then smaller "
        "source id), independent of part order",
    )
    registry.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="wrapper registry directory",
    )
    registry.add_argument(
        "--dry-run",
        action="store_true",
        help="gc only: print the sorted removal list without deleting "
        "anything (still exit 0)",
    )
    registry.add_argument(
        "--from",
        dest="from_roots",
        action="append",
        metavar="DIR",
        help="merge only: a shard registry to fold in (repeatable; "
        "applied in the given order)",
    )
    registry.set_defaults(func=_cmd_registry)

    describe = subparsers.add_parser(
        "describe", help="parse an SOD and show its structure"
    )
    describe.add_argument("sod", help="SOD in the DSL syntax")
    describe.set_defaults(func=_cmd_describe)

    bench = subparsers.add_parser(
        "bench",
        help="run the benchmark catalog and persist BENCH_<seq>.json",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.1")),
        help="workload scale relative to the paper's volumes "
        "(default: REPRO_BENCH_SCALE or 0.1)",
    )
    bench.add_argument(
        "--coverage",
        type=float,
        default=0.2,
        help="dictionary coverage for ObjectRunner (default: 0.2)",
    )
    bench.add_argument(
        "--systems",
        default="objectrunner,exalg,roadrunner",
        help="comma-separated systems to capture "
        "(default: objectrunner,exalg,roadrunner)",
    )
    bench.add_argument(
        "--registry",
        metavar="DIR",
        help="wrapper registry for the registry-first path: a populated "
        "registry captures the warm benchmark (induction skipped on "
        "every hit), an empty one is cold and populates it",
    )
    bench.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory receiving BENCH_<seq>.json (default: cwd)",
    )
    bench.add_argument(
        "--shard",
        metavar="I/N",
        help="capture only the catalog sources hashing into shard I of N; "
        "merge the per-shard documents with --merge-shards afterwards",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes of the sweep: above 1, N worker processes "
        "take entries one at a time off a shared queue (default: 1, one "
        "serial loop)",
    )
    bench.add_argument(
        "--merge-shards",
        nargs="+",
        metavar="FILE",
        help="skip the run: merge per-shard BENCH documents into one "
        "whole-catalog document (see --merge-out)",
    )
    bench.add_argument(
        "--merge-out",
        metavar="FILE",
        help="output path for --merge-shards "
        "(default: BENCH_merged.json in --out)",
    )
    bench.add_argument(
        "--digest-files",
        nargs="+",
        metavar="FILE",
        help="skip the run: print each document's run-stable digest; "
        "exit 3 when the digests differ (the byte-identity check)",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="after capturing, diff against the previous BENCH artifact "
        "in the output directory and exit 3 on regressions",
    )
    bench.add_argument(
        "--compare-to",
        metavar="FILE",
        help="after capturing, diff against this specific BENCH artifact",
    )
    bench.add_argument(
        "--compare-files",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="skip the run: just diff two existing BENCH artifacts",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.02,
        help="absolute Pc/Pp drop counted as a regression (default: 0.02)",
    )
    bench.add_argument(
        "--timing-threshold",
        type=float,
        default=0.5,
        help="relative timing growth counted as a regression at equal "
        "scale (default: 0.5 = +50%%)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="skip the BENCH capture: run the catalog under cProfile and "
        "print per-stage timers plus the top project functions by "
        "cumulative time",
    )
    bench.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="number of function rows in the --profile table (default: 25)",
    )
    bench.add_argument(
        "--profile-out",
        metavar="FILE",
        help="also write the rendered --profile tables to this file "
        "(the CI profile artifact)",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
