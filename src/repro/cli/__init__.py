"""Command-line interface: run benchmarks and regenerate paper artifacts.

Examples::

    python -m repro list
    python -m repro compile --benchmark MATVEC
    python -m repro run --benchmark MATVEC --version B --scale small
    python -m repro run --spec mix.json --trace
    python -m repro suite --benchmark BUK --scale tiny --jobs 4
    python -m repro figure 7 --scale tiny --jobs 4 --cache-dir results/cache
    python -m repro table 3 --scale tiny
    python -m repro trace record --benchmark MATVEC --version B --out traces/
    python -m repro trace replay traces/MATVEC.trace --interactive
    python -m repro trace diff traces/MATVEC.trace traces/MATVEC2.trace

Every command exits 2 with a one-line ``repro: error: …`` message on bad
input (missing spec file, corrupt trace, invalid fault plan) instead of a
traceback.

Start-up cost is paid per command: this module builds the parser and
imports the handler module of the chosen subcommand only (``run``,
``figures``, ``sweep``, ``service``, ``trace``, ``cache``, ``bench``,
``compare``), so ``repro run`` never loads the HTTP server, the sweep
orchestrator, the warm pool or the profilers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import Callable, List, Optional

#: The scale presets of :mod:`repro.config` (``cli.common.SCALES``).
_SCALE_NAMES = ("paper", "small", "tiny")


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=_SCALE_NAMES,
        default="small",
        help="platform scale preset (default: small)",
    )


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiments (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for content-addressed result caching (default: off)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget per experiment in seconds (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a failing experiment (default 0)",
    )


def _add_benchmark(parser: argparse.ArgumentParser, required: bool = True) -> None:
    from repro.workloads.suite import BENCHMARKS

    parser.add_argument(
        "--benchmark",
        required=required,
        type=str.upper,
        choices=sorted(BENCHMARKS),
        help="which out-of-core benchmark",
    )


#: Each figure's experiment module and name: ``run_<name>`` computes it,
#: ``format_<name>`` renders it.
_FIGURE_SOURCES = {
    "1": ("figure1", "figure1"),
    "7": ("figure7", "figure7"),
    "8": ("figure8", "figure8"),
    "9": ("figure9", "figure9"),
    "10a": ("figure10", "figure10a"),
    "10bc": ("figure10", "figure10bc"),
}


def _render_figure(number: str, scale, **kwargs) -> str:
    module_name, name = _FIGURE_SOURCES[number]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    return getattr(module, f"format_{name}")(getattr(module, f"run_{name}")(scale, **kwargs))


#: ``repro figure <number>``: a callable ``(scale, **runner options) -> text``
#: per figure; only the chosen figure's module is imported.
_FIGURES = {number: functools.partial(_render_figure, number) for number in _FIGURE_SOURCES}


class _VersionAction(argparse._VersionAction):
    """``--version`` that reads the package version only when given."""

    def __call__(self, parser, namespace, values, option_string=None):
        from repro._version import detect_version

        self.version = f"repro {detect_version()}"
        super().__call__(parser, namespace, values, option_string)


def _handler(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``repro.cli.<module>.<name>``, imported when it runs."""

    def handle(args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(f"repro.cli.{module}"), name)(args)

    return handle


def build_parser() -> argparse.ArgumentParser:
    from repro.core.runtime.policies import VERSIONS
    from repro.policies import policy_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Taming the Memory Hogs' (OSDI 2000): run the "
            "simulated platform, benchmarks, and evaluation artifacts."
        ),
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print the package version and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _add_scenario_dirs(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario-dir",
            action="append",
            default=None,
            metavar="DIR",
            help="directory of *.json scenario templates to register "
            "alongside the builtins (repeatable)",
        )

    def _add_client(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=None,
            help="server base URL (e.g. http://127.0.0.1:8742)",
        )
        sub.add_argument(
            "--state-dir",
            default=None,
            help="server state directory: discovers the URL from its "
            "server.json",
        )
        sub.add_argument(
            "--http-timeout",
            type=float,
            default=None,
            help="HTTP timeout in seconds (default 300)",
        )

    list_parser = commands.add_parser("list", help="list the benchmarks (Table 2)")
    _add_scale(list_parser)
    list_parser.set_defaults(handler=_handler("figures", "cmd_list"))

    compile_parser = commands.add_parser(
        "compile", help="show the compiler's hint plan for a benchmark"
    )
    _add_benchmark(compile_parser)
    _add_scale(compile_parser)
    compile_parser.set_defaults(handler=_handler("figures", "cmd_compile"))

    run_parser = commands.add_parser(
        "run",
        help="run one benchmark version alongside the interactive task, "
        "or an arbitrary mix from a JSON spec",
    )
    _add_benchmark(run_parser, required=False)
    run_parser.add_argument(
        "--spec",
        default=None,
        help="JSON experiment spec (a file path or an inline literal): the "
        "scale/overrides/faults/processes/policy subset of the scenario "
        "format; overrides --benchmark/--version/--sleep",
    )
    run_parser.add_argument(
        "--version",
        default="B",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (O, P, R, B; default B)",
    )
    run_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive task sleep time in seconds (default: the scale's "
        "intermediate sleep)",
    )
    run_parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME[:K=V,...]",
        help="memory policy to run under, e.g. 'global-clock' or "
        "'paging-directed:frag_extent=32' "
        f"(registered: {', '.join(policy_names())})",
    )
    run_parser.add_argument(
        "--faults",
        default=None,
        help="fault plan as JSON (a file path or an inline literal), e.g. "
        '\'{"seed": 7, "disk": {"io_error_prob": 0.05}}\'',
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the fault plan's seed (reproduces one exact schedule)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="attach a trace recorder and print the tail of the event trace",
    )
    run_parser.add_argument(
        "--trace-last",
        type=int,
        default=40,
        help="how many trailing trace events to print (default 40)",
    )
    run_parser.add_argument(
        "--scenario",
        default=None,
        help="run a scenario (template name, file path, or inline JSON) "
        "in-process; overrides --benchmark/--spec",
    )
    run_parser.add_argument(
        "--digest",
        action="store_true",
        help="with --scenario: print the merged result digest (the same "
        "formula the service and sweeps use)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="with --scenario: content-addressed result cache directory",
    )
    _add_scenario_dirs(run_parser)
    _add_scale(run_parser)
    run_parser.set_defaults(handler=_handler("run", "cmd_run"))

    compare_parser = commands.add_parser(
        "compare-policies",
        help="run one mix under each registered memory policy and print a "
        "comparison table (faults, releases, fragmentation)",
    )
    _add_benchmark(compare_parser)
    compare_parser.add_argument(
        "--version",
        default="R",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (default R, the release-hinted build)",
    )
    compare_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive task sleep time in seconds (default: the scale's)",
    )
    compare_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME[:K=V,...]",
        help="policy to include (repeatable; default: every registered "
        f"policy: {', '.join(policy_names())})",
    )
    compare_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON",
    )
    _add_scale(compare_parser)
    _add_runner(compare_parser)
    compare_parser.set_defaults(handler=_handler("compare", "cmd_compare_policies"))

    suite_parser = commands.add_parser(
        "suite", help="run all four versions of one benchmark"
    )
    _add_benchmark(suite_parser)
    suite_parser.add_argument(
        "--versions", default="OPRB", help="which versions to run (default OPRB)"
    )
    _add_scale(suite_parser)
    _add_runner(suite_parser)
    suite_parser.set_defaults(handler=_handler("figures", "cmd_suite"))

    figure_parser = commands.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument("number", choices=sorted(_FIGURES))
    _add_scale(figure_parser)
    _add_runner(figure_parser)
    figure_parser.set_defaults(handler=_handler("figures", "cmd_figure"))

    table_parser = commands.add_parser(
        "table", help="regenerate one of the paper's tables"
    )
    table_parser.add_argument("number", choices=["1", "2", "3"])
    _add_scale(table_parser)
    _add_runner(table_parser)
    table_parser.set_defaults(handler=_handler("figures", "cmd_table"))

    bench_parser = commands.add_parser(
        "bench",
        help="time the simulator's hot paths and write BENCH_<case>.json",
    )
    bench_parser.add_argument(
        "--case",
        action="append",
        default=None,
        help="benchmark case to run (repeatable; default: all cases)",
    )
    bench_parser.add_argument(
        "--all", action="store_true", help="run every case (the default)"
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing passes per case; wall time is the best (default 2)",
    )
    bench_parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each case under cProfile and print the top "
        "functions by cumulative time",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any case regresses past --tolerance x baseline",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed wall-time ratio vs the committed baseline (default 2.0)",
    )
    bench_parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="with --check, also fail if any case's speedup_vs_baseline "
        "drops below this floor (default: no floor)",
    )
    bench_parser.add_argument(
        "--baseline",
        default="benchmarks/perf/baseline.json",
        help="baseline file to compare against "
        "(default benchmarks/perf/baseline.json)",
    )
    bench_parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for BENCH_<case>.json records (default: cwd)",
    )
    bench_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file with this run's wall times",
    )
    bench_parser.set_defaults(handler=_handler("bench", "cmd_bench"))

    cache_parser = commands.add_parser(
        "cache", help="inspect or prune a result cache directory"
    )
    cache_parser.add_argument("action", choices=["list", "prune"])
    cache_parser.add_argument(
        "--cache-dir",
        required=True,
        help="the result cache directory to inspect",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="with 'list': emit the entries as machine-readable JSON",
    )
    cache_parser.set_defaults(handler=_handler("cache", "cmd_cache"))

    def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (default 1: run inline, no subprocesses)",
        )
        parser.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="wall-clock budget per spec in seconds (default: none)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=0,
            help="extra attempts for a failing spec (default 0)",
        )
        parser.add_argument(
            "--backoff-base",
            type=float,
            default=0.25,
            help="base delay for exponential retry backoff (default 0.25s)",
        )
        parser.add_argument(
            "--heartbeat",
            type=float,
            default=1.0,
            help="worker heartbeat period in seconds (default 1.0)",
        )
        parser.add_argument(
            "--hang-timeout",
            type=float,
            default=None,
            help="kill a worker whose heartbeat stalls this long while busy "
            "(default: off)",
        )
        parser.add_argument(
            "--max-failures",
            type=int,
            default=None,
            help="abort the sweep after this many failed specs (default: off)",
        )
        parser.add_argument(
            "--batch-size",
            type=int,
            default=1,
            help="specs per dispatch to each worker (default 1)",
        )

    sweep_parser = commands.add_parser(
        "sweep",
        help="checkpointed, resumable parallel sweeps over experiment grids",
    )
    sweep_commands = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    sweep_run_parser = sweep_commands.add_parser(
        "run", help="start a sweep, journaling every outcome to --state-dir"
    )
    sweep_run_parser.add_argument(
        "--state-dir",
        required=True,
        help="checkpoint directory (journal + result cache)",
    )
    sweep_run_parser.add_argument(
        "--grid",
        default=None,
        help="JSON grid (file path or inline): axes over benchmark/version/"
        "sleep/policy/fault_seed, plus scale/overrides/faults; a sweep "
        "scenario with its axes one level up",
    )
    sweep_run_parser.add_argument(
        "--synthetic",
        type=int,
        default=None,
        help="run N synthetic no-op specs instead of a grid (orchestrator "
        "stress testing)",
    )
    sweep_run_parser.add_argument(
        "--synthetic-fail-every",
        type=int,
        default=0,
        help="every Nth synthetic spec fails (default 0: none)",
    )
    sweep_run_parser.add_argument(
        "--synthetic-sleep",
        type=float,
        default=0.0,
        help="per-synthetic-spec sleep in seconds (default 0)",
    )
    _add_scale(sweep_run_parser)
    _add_sweep_options(sweep_run_parser)
    sweep_run_parser.set_defaults(handler=_handler("sweep", "cmd_sweep_run"))

    sweep_resume_parser = sweep_commands.add_parser(
        "resume",
        help="resume an interrupted sweep from its checkpoint directory",
    )
    sweep_resume_parser.add_argument(
        "--state-dir", required=True, help="checkpoint directory to resume"
    )
    _add_sweep_options(sweep_resume_parser)
    sweep_resume_parser.set_defaults(handler=_handler("sweep", "cmd_sweep_resume"))

    sweep_status_parser = sweep_commands.add_parser(
        "status", help="summarise a sweep checkpoint without running anything"
    )
    sweep_status_parser.add_argument(
        "--state-dir", required=True, help="checkpoint directory to inspect"
    )
    sweep_status_parser.add_argument(
        "--digest",
        action="store_true",
        help="also compute the merged result digest (loads cached results)",
    )
    sweep_status_parser.add_argument(
        "--expect",
        default=None,
        metavar="SHA256",
        help="with --digest: exit non-zero unless the merged digest equals "
        "this value (a reproducibility gate for CI)",
    )
    sweep_status_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the status (and digest) as machine-readable JSON",
    )
    sweep_status_parser.set_defaults(handler=_handler("sweep", "cmd_sweep_status"))

    ensemble_parser = commands.add_parser(
        "ensemble",
        help="Monte Carlo fault ensemble: one spec across N fault seeds, "
        "merged with bootstrap confidence intervals",
    )
    _add_benchmark(ensemble_parser)
    ensemble_parser.add_argument(
        "--version",
        default="R",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (default R)",
    )
    ensemble_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep time (default: the scale's intermediate)",
    )
    ensemble_parser.add_argument(
        "--policy",
        default=None,
        choices=policy_names(),
        help="memory policy for every member (default: the paper's)",
    )
    ensemble_parser.add_argument(
        "--faults",
        required=True,
        help="JSON fault plan (file path or inline); its seed is replaced "
        "by each member's derived seed",
    )
    ensemble_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="base seed rooting the member seed stream (default 0)",
    )
    ensemble_parser.add_argument(
        "--seeds",
        type=int,
        default=32,
        help="ensemble size: number of derived fault seeds (default 32)",
    )
    ensemble_parser.add_argument(
        "--resamples",
        type=int,
        default=2000,
        help="bootstrap resamples per metric (default 2000)",
    )
    ensemble_parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="1 - confidence level for the intervals (default 0.05)",
    )
    ensemble_parser.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint the member sweep here (resumable); default: "
        "a throwaway directory",
    )
    ensemble_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted ensemble from --state-dir",
    )
    _add_scale(ensemble_parser)
    _add_sweep_options(ensemble_parser)
    ensemble_parser.set_defaults(handler=_handler("sweep", "cmd_ensemble"))

    trace_parser = commands.add_parser(
        "trace",
        help="record, replay, inspect, diff, and import binary op traces",
    )
    trace_commands = trace_parser.add_subparsers(dest="trace_command", required=True)

    record_parser = trace_commands.add_parser(
        "record",
        help="run an experiment and capture each hog's op stream to a trace",
    )
    _add_benchmark(record_parser, required=False)
    record_parser.add_argument(
        "--spec",
        default=None,
        help="JSON experiment spec (file path or inline): the scale/"
        "overrides/faults/processes/policy subset of the scenario format; "
        "overrides --benchmark/--version/--sleep",
    )
    record_parser.add_argument(
        "--version",
        default="B",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version for --benchmark (default B)",
    )
    record_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep for --benchmark (default: the scale's)",
    )
    record_parser.add_argument(
        "--out",
        required=True,
        help="output: a directory (one <process>.trace per hog) or a "
        "single .trace file (single-hog mixes only)",
    )
    record_parser.add_argument(
        "--process",
        action="append",
        default=None,
        help="capture only this process (repeatable; default: every hog)",
    )
    record_parser.add_argument(
        "--include-faults",
        action="store_true",
        help="also record page-fault annotations ('f' ops)",
    )
    _add_scale(record_parser)
    record_parser.set_defaults(handler=_handler("trace", "cmd_trace_record"))

    replay_parser = trace_commands.add_parser(
        "replay", help="replay trace files as a scheduled experiment mix"
    )
    replay_parser.add_argument(
        "trace", nargs="+", help="trace file(s) to replay as processes"
    )
    replay_parser.add_argument(
        "--interactive",
        action="store_true",
        help="add the paper's interactive task to the mix",
    )
    replay_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep time (default: the scale's intermediate)",
    )
    replay_parser.add_argument(
        "--record-to",
        default=None,
        help="re-record the replayed op streams to this directory "
        "(for round-trip checks via `repro trace diff`)",
    )
    _add_scale(replay_parser)
    replay_parser.set_defaults(handler=_handler("trace", "cmd_trace_replay"))

    info_parser = trace_commands.add_parser(
        "info", help="footprint and locality statistics for trace files"
    )
    info_parser.add_argument("trace", nargs="+", help="trace file(s)")
    info_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    info_parser.set_defaults(handler=_handler("trace", "cmd_trace_info"))

    diff_parser = trace_commands.add_parser(
        "diff",
        help="compare two traces op-for-op (exit 1 when they differ)",
    )
    diff_parser.add_argument("trace_a")
    diff_parser.add_argument("trace_b")
    diff_parser.add_argument(
        "--expand",
        action="store_true",
        help="expand run-length batches before comparing",
    )
    diff_parser.add_argument(
        "--include-faults",
        action="store_true",
        help="also compare fault annotations (stripped by default)",
    )
    diff_parser.set_defaults(handler=_handler("trace", "cmd_trace_diff"))

    import_parser = trace_commands.add_parser(
        "import", help="convert an external text trace to the binary format"
    )
    import_parser.add_argument("source", help="text trace file")
    import_parser.add_argument(
        "--out", required=True, help="binary trace file to write"
    )
    import_parser.add_argument(
        "--name", default=None, help="process name (default: the source stem)"
    )
    import_parser.set_defaults(handler=_handler("trace", "cmd_trace_import"))

    verify_parser = trace_commands.add_parser(
        "verify",
        help="check recorded op streams against the current compiler "
        "(no simulation; exit 1 on mismatch)",
    )
    verify_parser.add_argument("trace", nargs="+", help="trace file(s)")
    verify_parser.set_defaults(handler=_handler("trace", "cmd_trace_verify"))

    validate_parser = commands.add_parser(
        "validate",
        help="validate scenario files/templates without running anything "
        "(exit 2 with a path-precise error on a bad scenario)",
    )
    validate_parser.add_argument(
        "scenario",
        nargs="+",
        help="scenario template name(s), *.json file path(s), or inline JSON",
    )
    _add_scenario_dirs(validate_parser)
    validate_parser.set_defaults(handler=_handler("run", "cmd_validate"))

    scenarios_parser = commands.add_parser(
        "scenarios", help="list the registered scenario templates"
    )
    scenarios_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_scenario_dirs(scenarios_parser)
    scenarios_parser.set_defaults(handler=_handler("run", "cmd_scenarios"))

    serve_parser = commands.add_parser(
        "serve",
        help="run the experiment server: submit scenarios over HTTP, "
        "dedupe through the shared result cache, survive restarts",
    )
    serve_parser.add_argument(
        "--state-dir",
        required=True,
        help="server state: job journal, shared result cache, per-job "
        "events and traces",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: ephemeral, published in server.json)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent job worker threads (default 2)",
    )
    serve_parser.add_argument(
        "--pool-workers",
        type=int,
        default=None,
        help="warm execution-pool processes backing the job threads "
        "(default: match --workers)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget per spec in seconds (default: none)",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a failing spec (default 0)",
    )
    _add_scenario_dirs(serve_parser)
    serve_parser.set_defaults(handler=_handler("service", "cmd_serve"))

    submit_parser = commands.add_parser(
        "submit", help="submit a scenario to a running experiment server"
    )
    submit_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario to submit: template name, file path, or inline JSON",
    )
    submit_parser.add_argument(
        "--template",
        default=None,
        help="submit a template registered on the server by name",
    )
    submit_parser.add_argument(
        "--watch",
        action="store_true",
        help="stream the job's events until it finishes (exit 1 on failure)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_client(submit_parser)
    _add_scenario_dirs(submit_parser)
    submit_parser.set_defaults(handler=_handler("service", "cmd_submit"))

    jobs_parser = commands.add_parser(
        "jobs", help="list the jobs on a running experiment server"
    )
    jobs_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_client(jobs_parser)
    jobs_parser.set_defaults(handler=_handler("service", "cmd_jobs"))

    watch_parser = commands.add_parser(
        "watch", help="stream one job's events until it finishes"
    )
    watch_parser.add_argument("job", help="job id (e.g. j-000001)")
    watch_parser.add_argument(
        "--json", action="store_true", help="emit raw JSONL events"
    )
    _add_client(watch_parser)
    watch_parser.set_defaults(handler=_handler("service", "cmd_watch"))

    fetch_parser = commands.add_parser(
        "fetch", help="fetch a finished job's result, text, or traces"
    )
    fetch_parser.add_argument("job", help="job id (e.g. j-000001)")
    fetch_parser.add_argument(
        "--what",
        choices=["result", "serialized", "figure", "trace"],
        default="result",
        help="result: digest + outcome rows (JSON); serialized: canonical "
        "result text; figure: rendered tables; trace: recorded op streams "
        "(default result)",
    )
    fetch_parser.add_argument(
        "--out",
        default=None,
        help="write to this file (trace: directory) instead of stdout",
    )
    _add_client(fetch_parser)
    fetch_parser.set_defaults(handler=_handler("service", "cmd_fetch"))

    return parser


#: Bad input — missing spec file, corrupt trace, invalid plan, malformed
#: scenario, unreachable server — is an exit-2 one-liner, not a traceback.
#: The error classes are named by module so that ``main`` imports none of
#: them: a class whose module never loaded cannot have been raised.
_INPUT_ERRORS = (
    ("repro.machine", "SpecError"),
    ("repro.faults", "FaultPlanError"),
    ("repro.policies.base", "PolicyError"),
    ("repro.trace.format", "TraceError"),
    ("repro.experiments.sweep", "SweepError"),
    ("repro.scenarios.schema", "ScenarioError"),
    ("repro.service.client", "ServiceError"),
    ("repro.service.jobs", "JobError"),
)


def _input_errors() -> tuple:
    errors = [OSError]
    for module, name in _INPUT_ERRORS:
        loaded = sys.modules.get(module)
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        if not isinstance(exc, _input_errors()):
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
