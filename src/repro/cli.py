"""Command-line interface: ``owl <command>``.

Commands:

- ``owl detect <program>`` — run the full pipeline on one target and print
  the per-stage counters, vulnerable input hints, and verified attacks.
- ``owl exploit <attack-id>`` — drive one of the ten exploit scripts.
- ``owl exploits`` — drive all ten.
- ``owl export <program> <path>`` — run the pipeline and save JSON results.
- ``owl trace <program>`` — run the pipeline with span tracing and write
  Chrome ``trace_event`` + JSON-lines trace files.
- ``owl explain <program> [report-uid]`` — print the provenance narrative
  for one race report, or the disposition listing for all of them;
  ``--replay`` derives the narrative by replaying recorded schedule logs
  instead of executing live (recording them first if absent).
- ``owl record <program>`` — record the spec's detect-seed sweep as
  schedule logs (one JSON-lines file per seed, no detector attached).
- ``owl replay <program>`` — replay recorded logs with the detector
  attached; ``--check-fingerprint`` additionally verifies each replay is
  bit-identical to a fresh recording (the diffcheck oracle).
- ``owl predict <program>`` — predict the feasible race set from one
  recorded execution via the sync-preserving closure
  (``--optimistic`` for the sync-reversal relaxation, ``--no-witness``
  to skip replay confirmation).
- ``owl fix <program>`` — run the pipeline, then synthesize and gate
  IR-level patches for every verified race (``repro.owl.repair``): a
  patch is emitted only when the diff oracle, the detector re-run, and
  the scheduler sweep all pass; ``--out DIR`` writes one patch+evidence
  JSON artifact per repaired race.
- ``owl resume <program>`` — finish an interrupted run from its run log
  (completed work is answered from the result cache).
- ``owl watch <log>`` — follow a run's log live (``tail -f`` for the
  pipeline); attach before or during the run.
- ``owl status <dir>`` — one-line summary per run log found under a
  directory: which runs completed, which stopped mid-stage.
- ``owl study`` — print the section-3 study findings.
- ``owl list`` — list available targets and attack ids.

``detect`` and ``export`` also accept ``--trace PATH`` to save the run's
span tree (Chrome format when PATH ends in ``.json``, JSON lines
otherwise), ``--cache``/``--no-cache`` to reuse stage results across
invocations, ``--explore`` (with ``--max-seeds``/``--wave-size``/
``--saturation-k``) to replace the fixed detect-seed sweep with
coverage-guided exploration, ``--predict`` (with ``--optimistic``/
``--no-witness``) to run a predict wave before exploring so later waves
only spend budget on interleavings prediction could not decide,
``--profile`` (with ``--profile-interval``/
``--profile-out``) to sample the VM call stack during detection, and
``--log PATH`` to write the run log (``--cache`` runs log to
``<cache-dir>/run_<program>.jsonl`` by default); ``docs/OPERATIONS.md``
is the runbook.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _make_pipeline(spec, args, export_path=None):
    """An :class:`OwlPipeline` configured from the shared CLI flags.

    Returns ``(pipeline, cache, log)``; ``cache`` is None unless
    ``--cache`` was given, ``log`` unless ``--log`` or ``--cache`` was.
    """
    from repro import OwlPipeline
    from repro.owl.cache import ResultCache
    from repro.owl.pipeline import PipelineConfig
    from repro.owl.runlog import RunLog, runlog_path

    cache = log = None
    log_path = getattr(args, "log", None)
    if args.cache:
        cache = ResultCache(args.cache_dir)
        log_path = log_path or runlog_path(args.cache_dir, spec.name)
    if log_path:
        log = RunLog(log_path, export_path=export_path,
                     metrics_path=args.metrics, command=args.command)
    explore = None
    if getattr(args, "explore", False) or getattr(args, "predict", False):
        from repro.detectors.predict import PredictPolicy
        from repro.owl.explore import ExplorePolicy

        explore = ExplorePolicy(
            max_seeds=args.max_seeds, wave_size=args.wave_size,
            saturation_k=args.saturation_k,
            predict=PredictPolicy(optimistic=args.optimistic,
                                  witness=args.witness)
            if args.predict else None,
        )
    profile = None
    if getattr(args, "profile", False):
        from repro.runtime.profiler import DEFAULT_SAMPLE_INTERVAL

        profile = args.profile_interval or DEFAULT_SAMPLE_INTERVAL
    config = PipelineConfig(
        jobs=args.jobs, explore=explore, profile=profile,
        item_timeout=args.item_timeout, retries=args.retries,
    )
    return OwlPipeline(spec, config, cache=cache, log=log), cache, log


def _finish_cached_run(cache, log) -> None:
    if cache is not None:
        print(cache.describe())
    if log is not None:
        log.close()
        if log.write_errors:
            print("run log %s: %d write error(s); logging stopped at the "
                  "first" % (log.path, log.write_errors), file=sys.stderr)


def _finish_telemetry(result, args) -> None:
    """Shared ``--profile`` epilogue of detect/export."""
    if result.profile is not None:
        print()
        print(result.profile.top_table(getattr(args, "profile_top", 10)))
        out = getattr(args, "profile_out", None)
        if out:
            import os

            directory = os.path.dirname(os.path.abspath(out))
            os.makedirs(directory, exist_ok=True)
            with open(out, "w") as handle:
                handle.write(result.profile.collapsed())
            print("collapsed stacks written to %s (feed to flamegraph.pl "
                  "or speedscope)" % out)


def _cmd_list(_args) -> int:
    from repro.exploits import list_exploits

    print("targets:")
    for name in ("apache", "apache_log", "apache_balancer", "apache_php",
                 "chrome", "libsafe", "linux", "linux_uselib", "linux_proc",
                 "memcached", "mysql", "ssdb"):
        print("  %s" % name)
    print("attacks:")
    for spec_name, attack_id in list_exploits():
        print("  %-28s (in %s)" % (attack_id, spec_name))
    return 0


def _save_trace(result, path: str) -> None:
    if path.endswith(".json"):
        result.spans.save_chrome(path)
    else:
        result.spans.save_jsonl(path)
    print("trace written to %s (%d spans)" % (path, len(result.spans)))


def _cmd_detect(args) -> int:
    from repro import spec_by_name
    from repro.owl.hints import format_full_report

    spec = spec_by_name(args.program)
    pipeline, cache, log = _make_pipeline(spec, args)
    result = pipeline.run()
    counters = result.counters
    print("== OWL pipeline: %s ==" % spec.name)
    print("race reports (R.R.):            %d" % counters.raw_reports)
    print("adhoc syncs annotated (A.S.):   %d" % counters.adhoc_syncs)
    print("reports after annotation:       %d" % counters.after_annotation)
    print("race verifier eliminated:       %d" % counters.verifier_eliminated)
    print("remaining reports (R.):         %d" % counters.remaining)
    print("vulnerability reports:          %d" % counters.vulnerability_reports)
    print("report reduction:               %.1f%%" % (
        100.0 * counters.reduction_ratio))
    if result.predict is not None:
        print()
        print(result.predict.describe())
    if result.explore is not None:
        print()
        print(result.explore.describe())
    for vulnerability in result.vulnerabilities:
        print()
        print(format_full_report(vulnerability))
    print()
    realized = result.realized_attacks()
    print("verified attacks: %d" % len(realized))
    for attack in realized:
        label = attack.ground_truth.attack_id if attack.ground_truth else "unknown"
        print("  %s: %s" % (label, attack.verification.describe()))
    if args.metrics:
        result.metrics.save(args.metrics)
        print("metrics written to %s" % args.metrics)
    if args.trace:
        _save_trace(result, args.trace)
    _finish_telemetry(result, args)
    _finish_cached_run(cache, log)
    print()
    print(result.metrics.describe())
    return 0


def _cmd_exploit(args) -> int:
    from repro.exploits import exploit_by_id

    outcome = exploit_by_id(args.attack_id, max_repetitions=args.repetitions)
    print(outcome.describe())
    return 0 if outcome.success else 1


def _cmd_exploits(args) -> int:
    from repro.exploits import run_all_exploits

    outcomes = run_all_exploits(max_repetitions=args.repetitions)
    failures = 0
    for outcome in outcomes:
        print(outcome.describe())
        if not outcome.success:
            failures += 1
    under_20 = sum(1 for o in outcomes if o.success and o.repetitions < 20)
    print()
    print("%d/%d exploited; %d under 20 repetitions (paper: 8/10)" % (
        len(outcomes) - failures, len(outcomes), under_20))
    return 0 if failures == 0 else 1


def _cmd_export(args) -> int:
    from repro import spec_by_name
    from repro.owl.export import save_result

    spec = spec_by_name(args.program)
    pipeline, cache, log = _make_pipeline(spec, args, export_path=args.path)
    result = pipeline.run()
    save_result(result, args.path)
    print("wrote %s (%d vulnerability reports, %d realized attacks)" % (
        args.path, result.counters.vulnerability_reports,
        len(result.realized_attacks()),
    ))
    if args.metrics:
        result.metrics.save(args.metrics)
        print("metrics written to %s" % args.metrics)
    if args.trace:
        _save_trace(result, args.trace)
    _finish_telemetry(result, args)
    _finish_cached_run(cache, log)
    return 0


def _cmd_fix(args) -> int:
    import json
    import os

    from repro import spec_by_name
    from repro.owl.repair import merge_repair_telemetry, repair_program

    spec = spec_by_name(args.program)
    pipeline, cache, log = _make_pipeline(spec, args)
    result = pipeline.run()
    repair = repair_program(
        spec, result=result,
        sweep_seeds=range(args.sweep_seeds),
        max_targets=args.max_targets,
        include_adhoc=args.include_adhoc,
        cache=cache,
    )
    result.metrics.blocks["repair"] = repair.metrics_block()
    if cache is not None:
        # the pipeline's cache block predates the repair stage's lookups
        result.metrics.blocks["cache"] = cache.counters()
    merge_repair_telemetry(result, repair, cache)
    print("== OWL fix: %s ==" % spec.name)
    print(repair.describe())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for payload in repair.patch_payloads():
            path = os.path.join(args.out, "patch_%s_%s.json" % (
                spec.name, payload["target"]["uid"]))
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("patch artifact written to %s" % path)
    if args.metrics:
        result.metrics.save(args.metrics)
        print("metrics written to %s" % args.metrics)
    _finish_cached_run(cache, log)
    if repair.targets and not repair.emitted:
        print("no candidate survived all three gates", file=sys.stderr)
        return 1
    return 0


def _cmd_resume(args) -> int:
    from repro.owl.cache import DEFAULT_CACHE_DIR
    from repro.owl.runlog import CannotResume, load_run, resume, runlog_path

    path = args.log or runlog_path(args.cache_dir or DEFAULT_CACHE_DIR,
                                   args.program)
    try:
        state = load_run(path)
    except ValueError as error:
        print("owl resume: %s" % error, file=sys.stderr)
        return 1
    if not state.begun:
        print("no run at %s — nothing to resume (run with --cache or "
              "--log first)" % path, file=sys.stderr)
        return 1
    print("%s:\n  %s" % (path, state.summary()))
    if state.completed:
        print("run already completed; nothing to resume")
        return 0
    try:
        result, _ = resume(path, jobs=args.jobs)
    except CannotResume as error:
        print("owl resume: %s" % error, file=sys.stderr)
        return 1
    print()
    counters = result.counters
    print("resumed run finished: %d raw reports, %d remaining, "
          "%d realized attacks" % (
              counters.raw_reports, counters.remaining,
              len(result.realized_attacks())))
    block = result.metrics.blocks.get("cache")
    if block is not None:
        print("cache: %d hits, %d misses, %d stored" % (
            block["hits"], block["misses"], block["stores"]))
    return 0


def _stage_spans(spans, stage: str):
    """The ``stage:<name>`` span and all its descendants (empty: unknown)."""
    roots = spans.find("stage:%s" % stage)
    if not roots:
        return []
    chosen = list(roots)
    frontier = [span.sid for span in roots]
    by_parent = {}
    for span in spans.spans:
        by_parent.setdefault(span.parent, []).append(span)
    while frontier:
        sid = frontier.pop()
        for child in by_parent.get(sid, ()):
            chosen.append(child)
            frontier.append(child.sid)
    return chosen


def _stage_rollup(spans) -> str:
    """Per-stage duration rollup: sum/count/max over each stage subtree."""
    lines = ["%-26s %10s %6s %10s" % ("stage", "sum ms", "count", "max ms")]
    for span in spans.spans:
        if not span.name.startswith("stage:"):
            continue
        stage = span.name[len("stage:"):]
        subtree = [s for s in _stage_spans(spans, stage)
                   if s.end is not None and not s.name.startswith("stage:")]
        durations = [s.duration for s in subtree]
        lines.append("%-26s %10.3f %6d %10.3f" % (
            stage, span.duration * 1e3, len(durations),
            max(durations) * 1e3 if durations else 0.0,
        ))
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    from repro import OwlPipeline, spec_by_name

    spec = spec_by_name(args.program)
    result = OwlPipeline(spec, jobs=args.jobs).run()
    spans = result.spans
    chrome_path = spans.save_chrome(args.out + ".json")
    jsonl_path = spans.save_jsonl(args.out + ".jsonl")
    print("== OWL trace: %s (%d spans) ==" % (spec.name, len(spans)))
    print("chrome trace: %s  (load in chrome://tracing or Perfetto)" %
          chrome_path)
    print("span lines:   %s" % jsonl_path)
    print()
    print(_stage_rollup(spans))
    print()
    if args.stage:
        chosen = _stage_spans(spans, args.stage)
        if not chosen:
            known = sorted(
                span.name[len("stage:"):] for span in spans.spans
                if span.name.startswith("stage:"))
            print("no stage %r in this run; stages: %s" % (
                args.stage, ", ".join(known)), file=sys.stderr)
            return 1
        pool = [s for s in chosen if not s.name.startswith("stage:")]
        pool.sort(key=lambda s: -s.duration)
        print("%d slowest spans in stage %s:" % (args.top, args.stage))
        slowest = pool[:args.top]
    else:
        print("%d slowest spans:" % args.top)
        slowest = spans.slowest(args.top, exclude=("pipeline",))
    for span in slowest:
        label = ", ".join(
            "%s=%s" % (key, span.attrs[key])
            for key in ("seed", "report", "site", "function")
            if key in span.attrs
        )
        print("  %9.3f ms  %-28s %s" % (
            span.duration * 1e3, span.name, label,
        ))
    return 0


def _cmd_watch(args) -> int:
    from repro import jsonl
    from repro.owl.runlog import RunState, render_event

    print("watching %s (ctrl-c to stop)" % args.log)
    state = RunState(args.log)
    try:
        for event in jsonl.follow(args.log, poll=args.poll,
                                  timeout=args.timeout):
            state.absorb(event)
            line = render_event(event)
            if line is not None:
                print(line, flush=True)
            if state.completed:
                return 0
    except ValueError as error:
        print("owl watch: %s" % error, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:  # `owl watch ... | head` is a normal usage
        return 0
    print("run log went quiet without a run_end event (timeout %ss)"
          % args.timeout, file=sys.stderr)
    return 1


def _cmd_status(args) -> int:
    import glob
    import os

    from repro.owl.runlog import load_run

    paths = sorted(glob.glob(os.path.join(args.out_dir, "run_*.jsonl")))
    if not paths:
        print("no run logs under %s (run with --log or --cache)"
              % args.out_dir, file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        try:
            print(load_run(path).summary())
        except ValueError as error:
            print("owl status: %s" % error, file=sys.stderr)
            failed = 1
    return failed


def _cmd_predict(args) -> int:
    import json

    from repro import spec_by_name
    from repro.detectors.predict import PredictPolicy
    from repro.owl.replay import default_record_dir, predict_program

    spec = spec_by_name(args.program)
    policy = PredictPolicy(optimistic=args.optimistic, witness=args.witness)
    record_dir = args.record_dir or default_record_dir(args.program)
    prediction = predict_program(
        spec, seed=args.seed, policy=policy, record_dir=record_dir,
    )
    print("== OWL predict: %s (seed %d, %s) ==" % (
        spec.name, args.seed, policy.mode))
    print(prediction.describe())
    counters = prediction.counters
    if counters["unwitnessed"]:
        # Invariant 8: unwitnessed predictions are surfaced, never
        # silently trusted.
        print("note: %d prediction(s) could not be replay-witnessed — "
              "confirm via `owl detect %s --explore` residual waves"
              % (counters["unwitnessed"], args.program))
    if args.metrics:
        import os

        directory = os.path.dirname(os.path.abspath(args.metrics))
        os.makedirs(directory, exist_ok=True)
        with open(args.metrics, "w") as handle:
            json.dump(prediction.metrics_block(), handle, indent=2)
            handle.write("\n")
        print("predict metrics written to %s" % args.metrics)
    return 0


def _cmd_record(args) -> int:
    import os

    from repro import spec_by_name
    from repro.owl.replay import (
        default_record_dir, log_path, record_program,
    )

    spec = spec_by_name(args.program)
    out_dir = args.out or default_record_dir(args.program)
    seeds = range(args.seeds) if args.seeds is not None else None
    source = record_program(spec, seeds=seeds, out_dir=out_dir)
    total_bytes = 0
    print("== OWL record: %s (%d seeds -> %s) ==" % (
        spec.name, len(source.logs), out_dir))
    for log, stat in zip(source.logs, source.record_stats):
        path = log_path(out_dir, spec.name, log.seed)
        size = os.path.getsize(path)
        total_bytes += size
        print("  seed %4d  %8d steps  %6d decisions  %6d bytes  %s" % (
            log.seed, stat.steps, log.decisions, size, stat.reason,
        ))
    print("recorded %d logs, %d schedule decisions, %d bytes" % (
        len(source.logs),
        sum(log.decisions for log in source.logs), total_bytes,
    ))
    return 0


def _cmd_replay(args) -> int:
    from repro import spec_by_name
    from repro.owl.replay import (
        default_record_dir, discover_seeds, load_recorded_logs,
    )

    spec = spec_by_name(args.program)
    record_dir = args.record_dir or default_record_dir(args.program)
    seeds = discover_seeds(record_dir, args.program)
    if not seeds:
        print("no recorded logs for %s under %s (run `owl record %s` "
              "first)" % (args.program, record_dir, args.program),
              file=sys.stderr)
        return 1
    source = load_recorded_logs(spec, record_dir=record_dir, seeds=seeds)
    stats: List = []
    reports, _ = source.run_detector(stats_out=stats)
    print("== OWL replay: %s (%d logs from %s) ==" % (
        spec.name, len(source.logs), record_dir))
    for stat in stats:
        print("  seed %4d  %8d steps  %4d reports  %s" % (
            stat.seed, stat.steps, stat.reports, stat.reason,
        ))
    print("reports: %d   replays: %d   divergences: %d   unfaithful: %d" % (
        len(reports), source.replays, source.total_divergences,
        source.unfaithful_replays,
    ))
    failures = source.total_divergences + source.unfaithful_replays
    if args.check_fingerprint:
        from repro.owl.replay import _spec_world, record_spec_seed
        from repro.runtime.diffcheck import compare_fingerprints
        from repro.runtime.record import replay_log

        module = spec.build()
        mismatches = 0
        for log in source.logs:
            _, _, recorded = record_spec_seed(spec, module, log.seed,
                                              fingerprint=True)
            outcome = replay_log(
                module, log, inputs=spec.workload_inputs,
                world=_spec_world(spec), fingerprint=True,
            )
            divergence = compare_fingerprints(recorded, outcome.fingerprint)
            if divergence is not None:
                mismatches += 1
                print(divergence.describe(), file=sys.stderr)
        print("fingerprint check: %d/%d seeds bit-identical" % (
            len(source.logs) - mismatches, len(source.logs)))
        failures += mismatches
    return 0 if failures == 0 else 1


def _cmd_explain(args) -> int:
    from repro import OwlPipeline, spec_by_name

    spec = spec_by_name(args.program)
    replay = None
    if getattr(args, "replay", False):
        from repro.owl.replay import (
            default_record_dir, load_recorded_logs, record_program,
        )

        record_dir = args.record_dir or default_record_dir(args.program)
        try:
            replay = load_recorded_logs(spec, record_dir=record_dir)
        except FileNotFoundError:
            replay = record_program(spec, out_dir=record_dir)
    result = OwlPipeline(spec, jobs=args.jobs, replay=replay).run()
    if replay is not None and (replay.total_divergences
                               or replay.unfaithful_replays):
        print("warning: %d replay divergences, %d unfaithful replays — "
              "the narrative below may not match a live run" % (
                  replay.total_divergences, replay.unfaithful_replays),
              file=sys.stderr)
    provenance = result.provenance
    if args.report_uid is None:
        print("== OWL provenance: %s (%d reports) ==" % (
            spec.name, len(provenance)))
        print(provenance.summary())
        print()
        print("run `owl explain %s <uid>` for one report's full narrative"
              % spec.name)
        return 0
    record = provenance.get(args.report_uid)
    if record is None:
        print("no report %r in %s; known uids:" % (
            args.report_uid, spec.name), file=sys.stderr)
        for uid in provenance.uids():
            print("  %s" % uid, file=sys.stderr)
        return 1
    print(record.narrative())
    return 0


def _cmd_study(_args) -> int:
    from repro.study import (
        finding1_severity, finding2_spread, finding3_repetitions,
        finding4_bug_types, finding5_burial,
    )

    for title, finding in (
        ("Finding I: severity", finding1_severity()),
        ("Finding II: spread", finding2_spread()),
        ("Finding III: repetitions", finding3_repetitions()),
        ("Finding IV: bug types", finding4_bug_types()),
        ("Finding V: report burial", finding5_burial()),
    ):
        print("== %s ==" % title)
        for key, value in finding.items():
            print("  %s: %s" % (key, value))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owl",
        description="OWL (DSN 2018) reproduction: directed concurrency "
                    "attack detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list targets and attacks").set_defaults(
        func=_cmd_list)

    def add_cache_arguments(command):
        from repro.owl.cache import DEFAULT_CACHE_DIR

        command.add_argument(
            "--cache", dest="cache", action="store_true", default=False,
            help="reuse stage results from the on-disk result cache and "
                 "log progress to <cache-dir>/run_<program>.jsonl for "
                 "`owl resume`")
        command.add_argument(
            "--no-cache", dest="cache", action="store_false",
            help="run everything fresh (the default)")
        command.add_argument(
            "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
            help="cache root (default: %s)" % DEFAULT_CACHE_DIR)
        command.add_argument(
            "--item-timeout", type=float, default=None, metavar="SECONDS",
            help="per-item result-wait budget for pooled stages "
                 "(default: wait; VM step budgets bound every run)")
        command.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="retry waves for transient worker failures before "
                 "falling back to in-process execution (default: 2)")

    def add_explore_arguments(command):
        command.add_argument(
            "--explore", action="store_true", default=False,
            help="replace the fixed detect-seed sweep with coverage-guided "
                 "exploration: seeds run in waves until interleaving "
                 "coverage saturates (see docs/OPERATIONS.md)")
        command.add_argument(
            "--max-seeds", type=int, default=20, metavar="N",
            help="exploration seed budget (default: 20)")
        command.add_argument(
            "--wave-size", type=int, default=4, metavar="N",
            help="seeds per exploration wave (default: 4)")
        command.add_argument(
            "--saturation-k", type=int, default=2, metavar="K",
            help="stop after K consecutive waves with no new coverage "
                 "(default: 2)")
        command.add_argument(
            "--predict", action="store_true", default=False,
            help="run a predict wave first: record seed 0 once and infer "
                 "every race feasible from that single trace "
                 "(sync-preserving closure; implies --explore — later "
                 "waves only spend budget on undecided interleavings)")
        command.add_argument(
            "--optimistic", action="store_true", default=False,
            help="with --predict: allow the optimistic sync-reversal "
                 "relaxation (more predictions, each still "
                 "witness-checked)")
        command.add_argument(
            "--no-witness", dest="witness", action="store_false",
            default=True,
            help="with --predict: skip witness replay; non-observed "
                 "predictions stay marked unwitnessed")

    def add_telemetry_arguments(command):
        from repro.runtime.profiler import DEFAULT_SAMPLE_INTERVAL

        command.add_argument(
            "--profile", action="store_true", default=False,
            help="sample the VM call stack during the detector stages and "
                 "print the hottest functions/opcodes (deterministic for a "
                 "given seed set and interval)")
        command.add_argument(
            "--profile-interval", type=int, default=None, metavar="K",
            help="sample every K-th scheduling decision (default: %d)"
                 % DEFAULT_SAMPLE_INTERVAL)
        command.add_argument(
            "--profile-out", metavar="PATH", default=None,
            help="write collapsed stacks ('stack count' lines) to PATH — "
                 "flamegraph.pl/speedscope input")
        command.add_argument(
            "--profile-top", type=int, default=10, metavar="N",
            help="rows in the printed hot-function table (default: 10)")
        command.add_argument(
            "--log", metavar="PATH", default=None,
            help="write the run log (progress events) to PATH; follow it "
                 "with `owl watch PATH`")

    detect = sub.add_parser("detect", help="run the OWL pipeline on a target")
    detect.add_argument("program")
    detect.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the parallel stages "
                             "(default: 1, serial)")
    detect.add_argument("--metrics", metavar="PATH", default=None,
                        help="write per-stage metrics JSON to PATH")
    detect.add_argument("--trace", metavar="PATH", default=None,
                        help="write the run's span tree to PATH (Chrome "
                             "trace_event when PATH ends in .json, JSON "
                             "lines otherwise)")
    add_cache_arguments(detect)
    add_explore_arguments(detect)
    add_telemetry_arguments(detect)
    detect.set_defaults(func=_cmd_detect)
    exploit = sub.add_parser("exploit", help="run one exploit script")
    exploit.add_argument("attack_id")
    exploit.add_argument("--repetitions", type=int, default=50)
    exploit.set_defaults(func=_cmd_exploit)
    exploits = sub.add_parser("exploits", help="run all ten exploit scripts")
    exploits.add_argument("--repetitions", type=int, default=50)
    exploits.set_defaults(func=_cmd_exploits)
    export = sub.add_parser("export", help="run the pipeline, save JSON")
    export.add_argument("program")
    export.add_argument("path")
    export.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the parallel stages "
                             "(default: 1, serial)")
    export.add_argument("--metrics", metavar="PATH", default=None,
                        help="write per-stage metrics JSON to PATH")
    export.add_argument("--trace", metavar="PATH", default=None,
                        help="write the run's span tree to PATH (Chrome "
                             "trace_event when PATH ends in .json, JSON "
                             "lines otherwise)")
    add_cache_arguments(export)
    add_explore_arguments(export)
    add_telemetry_arguments(export)
    export.set_defaults(func=_cmd_export)
    fix = sub.add_parser(
        "fix",
        help="synthesize and gate IR-level patches for the verified races")
    fix.add_argument("program")
    fix.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the pipeline's parallel "
                          "stages (repair itself runs serially; default: 1)")
    fix.add_argument("--out", metavar="DIR", default=None,
                     help="write one patch+evidence JSON artifact per "
                          "repaired race under DIR")
    fix.add_argument("--metrics", metavar="PATH", default=None,
                     help="write the run's metrics JSON (with "
                          "the `repair` block) to PATH")
    fix.add_argument("--sweep-seeds", type=int, default=3, metavar="N",
                     help="seeds 0..N-1 for the gate (c) scheduler sweep "
                          "(default: 3)")
    fix.add_argument("--max-targets", type=int, default=None, metavar="N",
                     help="repair at most the first N verified races "
                          "(static-key order)")
    fix.add_argument("--include-adhoc", action="store_true", default=False,
                     help="also target adhoc-annotated reports (the "
                          "realsync rewrite is the natural candidate)")
    add_cache_arguments(fix)
    fix.set_defaults(func=_cmd_fix)
    resume = sub.add_parser(
        "resume",
        help="finish an interrupted run from its run log")
    resume.add_argument("program")
    resume.add_argument("--log", metavar="PATH", default=None,
                        help="run log (default: "
                             "<cache-dir>/run_<program>.jsonl)")
    resume.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache root the interrupted run used")
    resume.add_argument("--jobs", type=int, default=None,
                        help="override the logged job count")
    resume.set_defaults(func=_cmd_resume)
    trace = sub.add_parser(
        "trace", help="run the pipeline with span tracing, save trace files")
    trace.add_argument("program")
    trace.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the parallel stages "
                            "(default: 1, serial)")
    trace.add_argument("--out", metavar="BASE", default="owl_trace",
                       help="output base path: writes BASE.json (Chrome "
                            "trace_event) and BASE.jsonl (span lines)")
    trace.add_argument("--top", type=int, default=10,
                       help="how many slowest spans to print (default: 10)")
    trace.add_argument("--stage", metavar="NAME", default=None,
                       help="restrict the slowest-span listing to one "
                            "stage's subtree (e.g. detect, "
                            "race_verification)")
    trace.set_defaults(func=_cmd_trace)
    watch = sub.add_parser(
        "watch", help="follow a run's log live (tail -f)")
    watch.add_argument("log", help="run log path (the run's --log PATH)")
    watch.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                       help="poll interval (default: 0.2)")
    watch.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="give up after this long without a new event "
                            "(default: wait forever)")
    watch.set_defaults(func=_cmd_watch)
    status = sub.add_parser(
        "status", help="summarize the run logs under a directory")
    status.add_argument("out_dir", help="directory holding run_*.jsonl")
    status.set_defaults(func=_cmd_status)
    explain = sub.add_parser(
        "explain",
        help="explain why OWL kept or pruned a race report")
    explain.add_argument("program")
    explain.add_argument("report_uid", nargs="?", default=None,
                         help="report uid (e.g. r13-28); omit to list all "
                              "reports with their dispositions")
    explain.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the parallel stages "
                              "(default: 1, serial)")
    explain.add_argument("--replay", action="store_true", default=False,
                         help="derive the narrative by replaying recorded "
                              "schedule logs (recording them first if "
                              "absent) instead of executing live")
    explain.add_argument("--record-dir", metavar="DIR", default=None,
                         help="record directory for --replay (default: "
                              "benchmarks/out/records/<program>)")
    explain.set_defaults(func=_cmd_explain)
    record = sub.add_parser(
        "record",
        help="record the detect-seed sweep as replayable schedule logs")
    record.add_argument("program")
    record.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="record seeds 0..N-1 instead of the spec's "
                             "detect seeds")
    record.add_argument("--out", metavar="DIR", default=None,
                        help="log directory (default: "
                             "benchmarks/out/records/<program>)")
    record.set_defaults(func=_cmd_record)
    replay = sub.add_parser(
        "replay",
        help="replay recorded schedule logs with the detector attached")
    replay.add_argument("program")
    replay.add_argument("--record-dir", metavar="DIR", default=None,
                        help="log directory (default: "
                             "benchmarks/out/records/<program>)")
    replay.add_argument("--check-fingerprint", action="store_true",
                        default=False,
                        help="also verify each replay is bit-identical to "
                             "a fresh recording (exit 1 on divergence)")
    replay.set_defaults(func=_cmd_replay)
    predict = sub.add_parser(
        "predict",
        help="predict the feasible race set from one recorded execution")
    predict.add_argument("program")
    predict.add_argument("--seed", type=int, default=0, metavar="N",
                         help="the recorded seed to predict from "
                              "(default: 0)")
    predict.add_argument("--optimistic", action="store_true", default=False,
                         help="allow the optimistic sync-reversal "
                              "relaxation (more predictions, each still "
                              "witness-checked)")
    predict.add_argument("--no-witness", dest="witness",
                         action="store_false", default=True,
                         help="skip witness replay; non-observed "
                              "predictions stay marked unwitnessed")
    predict.add_argument("--record-dir", metavar="DIR", default=None,
                         help="log directory (default: "
                              "benchmarks/out/records/<program>; the "
                              "seed is recorded there if absent)")
    predict.add_argument("--metrics", metavar="PATH", default=None,
                         help="write the prediction's predict "
                              "block as JSON to PATH")
    predict.set_defaults(func=_cmd_predict)
    sub.add_parser("study", help="print the study findings").set_defaults(
        func=_cmd_study)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
