"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Two entry points share the program:

* **Sweeps** (the default, also available as ``repro sweep``): build a
  :class:`repro.sim.spec.SweepSpec` from the command line, run it through the
  (optionally parallel) sweep executor, print the result table, and export
  the :class:`repro.sim.resultset.ResultSet` as JSON (and optionally CSV) so
  figures can be regenerated without re-simulating.
* **Trace tools** (``repro trace ...``): generate, inspect, and convert
  trace files in any format the :mod:`repro.trace` subsystem understands,
  plus trace-store maintenance (``repro trace store gc``).
* **Sampled measurement** (``repro sample``): checkpointed windowed sampling
  (see :mod:`repro.sampling`) of several designs over the *same* measurement
  windows, with per-design confidence intervals and matched-pair deltas.
* **Design catalog** (``repro designs``): every registered design with its
  component breakdown -- tag organization, hit predictor, fetch policy,
  writeback policy, replacement -- plus the component kinds available for
  composing new designs (``--components``).
* **Durable sweeps** (``repro queue ...``): submit a sweep as idempotent
  on-disk jobs, run any number of crash-tolerant workers against the shared
  store (``repro queue work``, or the short alias ``repro work``), check
  progress (``repro queue status``), and resume interrupted sweeps
  (``repro queue resume``) -- see :mod:`repro.queue`.
* **Run telemetry** (``repro runs ...``, ``repro top``): query the run
  ledger that ``--telemetry`` (or ``REPRO_TELEMETRY=1``) runs record --
  per-phase wall-clock, accesses/sec, store and checkpoint hit rates,
  queue events, and live worker heartbeats -- see :mod:`repro.obs`.
  These views and ``repro queue status`` render the dicts of
  :class:`repro.serve.readmodel.ReadModel`, so their ``--json`` output is
  the body of the matching ``repro serve`` endpoint.
* **Results service** (``repro serve``): a zero-dependency HTTP server
  over the archive, ledger, and queue -- JSON API (``/api/sweeps``,
  ``/api/runs``, ``/api/queue``), SVG paper figures with 95% CI error
  bars (``/api/figures/fig6``), and a live dashboard -- see
  :mod:`repro.serve`.

Examples::

    python -m repro                               # small default sweep
    python -m repro --designs unison alloy footprint \
                    --workloads "Web Search" "TPC-H Queries" \
                    --capacities 512MB 1GB 2GB --jobs 4
    python -m repro --list-designs

    python -m repro designs
    python -m repro designs --components
    python -m repro sample --designs unison alloy --workload "Web Search" \
                           --capacity 1GB --accesses 200000
    python -m repro trace gen --workload "Web Search" --accesses 100000 \
                              --out websearch.rptr
    python -m repro trace info websearch.rptr
    python -m repro trace convert llc_misses.csv llc_misses.rptr --codec none
    python -m repro trace store gc
    python -m repro trace formats
    python -m repro queue submit --designs unison alloy --capacities 512MB
    python -m repro queue work &
    python -m repro queue work &
    python -m repro queue status
    python -m repro queue status --json          # machine-readable, for CI
    python -m repro queue --telemetry resume <token>
    python -m repro runs list
    python -m repro runs show <run-id or sweep token>
    python -m repro runs compare <ref> <ref>
    python -m repro top
    python -m repro serve --port 8035
"""

from __future__ import annotations

import argparse
import json as _json
import os
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.sim.executor import run_sweep
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.sim.factory import design_names
from repro.sim.registry import DESIGNS
from repro.sim.spec import ExperimentSpec, SweepSpec
from repro.workloads.cloudsuite import ALL_WORKLOADS, workload_by_name


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The opt-in observability switches shared by the run-ish commands."""
    parser.add_argument("--telemetry", action="store_true",
                        help="record spans/metrics to the run ledger and "
                             "JSONL manifests (same as REPRO_TELEMETRY=1; "
                             "inspect with 'repro runs')")
    parser.add_argument("--profile", action="store_true",
                        help="dump a cProfile pstats artifact per profiled "
                             "block (same as REPRO_PROFILE=1; implies "
                             "--telemetry)")


def _apply_telemetry_arguments(args: argparse.Namespace) -> None:
    """Translate --telemetry/--profile into the environment switches.

    Environment variables (not globals) so forked/spawned queue workers
    inherit the setting.
    """
    from repro.obs.core import ENV_TELEMETRY
    from repro.obs.profiling import ENV_PROFILE

    if getattr(args, "profile", False):
        os.environ[ENV_PROFILE] = "1"
        os.environ.setdefault(ENV_TELEMETRY, "1")
    if getattr(args, "telemetry", False):
        os.environ[ENV_TELEMETRY] = "1"


def _add_batch_arguments(parser: argparse.ArgumentParser) -> None:
    """The batch-engine switches shared by the run-ish commands."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--batch-warming", dest="batch_warming",
                       action="store_true", default=None,
                       help="warm and replay designs through the fused "
                            "batch kernels (the default; same as "
                            "REPRO_BATCH=1)")
    group.add_argument("--no-batch-warming", dest="batch_warming",
                       action="store_false",
                       help="force the scalar engine for warming and "
                            "replay (same as REPRO_BATCH=0); results are "
                            "identical either way")


def _apply_batch_arguments(args: argparse.Namespace) -> None:
    """Translate --batch-warming/--no-batch-warming into the batch switch.

    Both the in-process override and the REPRO_BATCH environment variable
    are set, so forked/spawned sweep and queue workers inherit the choice.
    """
    from repro.engine import set_batch_enabled

    value = getattr(args, "batch_warming", None)
    if value is not None:
        os.environ["REPRO_BATCH"] = "1" if value else "0"
        set_batch_enabled(value)


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-grid arguments shared by ``repro`` and ``repro queue submit``."""
    parser.add_argument("--designs", nargs="+", default=["unison", "alloy"],
                        metavar="NAME",
                        help="registered design names (default: unison "
                             "alloy; see 'repro designs')")
    parser.add_argument("--workloads", nargs="+", default=["Web Search"],
                        metavar="NAME",
                        help="workload names (default: 'Web Search'; "
                             "see 'repro --list-workloads')")
    parser.add_argument("--capacities", nargs="+", default=["256MB", "1GB"],
                        metavar="SIZE",
                        help="paper-scale capacities (default: 256MB 1GB)")
    parser.add_argument("--scale", type=int, default=2048,
                        help="capacity scale-down factor (default: 2048)")
    parser.add_argument("--accesses", type=int, default=12_000,
                        help="accesses per trial, warm-up included "
                             "(default: 12000)")
    parser.add_argument("--cores", type=int, default=4,
                        help="interleaved cores in the synthetic trace "
                             "(default: 4)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload generator seed (default: 1)")


def _sampling_config(**overrides: object):
    """A :class:`SamplingConfig` with every non-``None`` override applied.

    An explicit ``max_windows`` budget also lowers the adaptive-termination
    minimum, which would otherwise exceed a small budget.
    """
    from repro.sampling import SamplingConfig

    overrides = {k: v for k, v in overrides.items() if v is not None}
    if "max_windows" in overrides:
        overrides["min_windows"] = min(SamplingConfig().min_windows,
                                       overrides["max_windows"])
    return SamplingConfig(**overrides)


def _grid_spec(args: argparse.Namespace, sampling=None) -> SweepSpec:
    """The sweep the :func:`_add_grid_arguments` flags describe."""
    return SweepSpec(
        designs=args.designs,
        workloads=args.workloads,
        capacities=args.capacities,
        config=ExperimentConfig(
            scale=args.scale, num_accesses=args.accesses,
            num_cores=args.cores, seed=args.seed,
        ),
        sampling=sampling,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run a DRAM-cache design sweep (Jevdjic et al., MICRO'14 "
                    "reproduction) and export the results.",
    )
    _add_grid_arguments(parser)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes; 1 = serial, 0 = one per CPU "
                             "(default: 1)")
    parser.add_argument("--json", default="sweep_results.json", metavar="PATH",
                        help="JSON export path (default: sweep_results.json; "
                             "'-' disables)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="optional CSV export path")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the result table")
    parser.add_argument("--list-designs", action="store_true",
                        help="list registered designs and exit")
    parser.add_argument("--list-workloads", action="store_true",
                        help="list available workloads and exit")
    _add_telemetry_arguments(parser)
    _add_batch_arguments(parser)
    return parser


def _list_designs() -> int:
    names = design_names()
    width = max(len(name) for name in names)
    for name in names:
        entry = DESIGNS.resolve(name)
        print(f"{name:<{width}}  {entry.description}")
    return 0


def _list_workloads() -> int:
    width = max(len(p.name) for p in ALL_WORKLOADS)
    for profile in ALL_WORKLOADS:
        print(f"{profile.name:<{width}}  working set {profile.working_set}, "
              f"{profile.l2_mpki:g} L2 MPKI")
    return 0


# --------------------------------------------------------------------- #
# repro designs
# --------------------------------------------------------------------- #
def build_designs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro designs",
        description="List registered DRAM-cache designs and their "
                    "component breakdown.",
    )
    parser.add_argument("--components", action="store_true",
                        help="also list the registered component kinds "
                             "available for composing new designs")
    return parser


def designs_main(argv: List[str]) -> int:
    """Entry point of ``repro designs``."""
    args = build_designs_parser().parse_args(argv)
    names = design_names()
    width = max(len(name) for name in names)
    for name in names:
        entry = DESIGNS.resolve(name)
        print(f"{name:<{width}}  {entry.description}")
        print(f"{'':<{width}}    {entry.spec.describe_components()}")
    if args.components:
        from repro.dramcache.components import (
            FETCH_POLICIES,
            HIT_PREDICTORS,
            REPLACEMENT_POLICIES,
            TAG_ORGANIZATIONS,
            WRITEBACK_POLICIES,
        )

        print()
        print("component kinds (DesignSpec building blocks):")
        for registry in (TAG_ORGANIZATIONS, HIT_PREDICTORS, FETCH_POLICIES,
                         WRITEBACK_POLICIES, REPLACEMENT_POLICIES):
            kinds = " ".join(sorted(registry.kinds()))
            print(f"  {registry.role + ':':<18} {kinds}")
    return 0


# --------------------------------------------------------------------- #
# repro trace ...
# --------------------------------------------------------------------- #
def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Generate, inspect, and convert memory-access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="generate a synthetic workload trace file",
        description="Stream a synthetic workload trace to disk (chunked; "
                    "the trace never has to fit in memory).")
    gen.add_argument("--workload", default="Web Search", metavar="NAME",
                     help="workload name (default: 'Web Search')")
    gen.add_argument("--accesses", type=int, default=100_000,
                     help="number of accesses to generate (default: 100000)")
    gen.add_argument("--cores", type=int, default=16,
                     help="interleaved cores (default: 16)")
    gen.add_argument("--seed", type=int, default=1,
                     help="generator seed (default: 1)")
    gen.add_argument("--scale", type=int, default=1,
                     help="working-set scale-down factor, matching the "
                          "sweep executor's scaling (default: 1 = unscaled)")
    gen.add_argument("--out", "-o", required=True, metavar="PATH",
                     help="output trace file")
    gen.add_argument("--format", default="auto",
                     help="output format (default: auto-detect from suffix; "
                          ".rptr/.bin = binary, else text)")

    info = sub.add_parser(
        "info", help="describe trace files",
        description="Print format, core count, and access count for each "
                    "trace file (binary headers are read without "
                    "decompressing the payload).")
    info.add_argument("paths", nargs="+", metavar="PATH")
    info.add_argument("--count", action="store_true",
                      help="scan non-binary traces to count accesses "
                           "(may be slow for huge files)")

    convert = sub.add_parser(
        "convert", help="convert a trace between formats",
        description="Stream a trace from one format into another "
                    "(text/binary/ChampSim-style/CSV in, text/binary out).")
    convert.add_argument("src", metavar="SRC")
    convert.add_argument("dst", metavar="DST")
    convert.add_argument("--in-format", default="auto",
                         help="input format (default: auto-detect)")
    convert.add_argument("--out-format", default="auto",
                         help="output format (default: auto-detect from "
                              "DST suffix)")
    convert.add_argument("--limit", type=int, default=None, metavar="N",
                         help="convert only the first N accesses")
    convert.add_argument("--codec", default=None,
                         choices=["none", "gzip"],
                         help="payload codec for binary output (default: "
                              "gzip)")

    sub.add_parser("formats", help="list known trace formats",
                   description="List every registered trace format.")

    store = sub.add_parser(
        "store", help="inspect and maintain the on-disk trace store",
        description="The trace store caches every generated synthetic trace "
                    "(REPRO_TRACE_STORE selects or disables the directory).")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_sub.add_parser(
        "info", help="print store location plus trace and checkpoint "
                     "entry counts and sizes")
    gc = store_sub.add_parser(
        "gc", help="collect garbage (stale temp files, old chunk "
                   "indexes, combined trace+checkpoint LRU eviction to "
                   "the size budget)")
    gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                    help="evict least-recently-used traces AND checkpoints "
                         "(one shared pool) down to SIZE (e.g. 512MB; "
                         "default: the store's budget, "
                         "REPRO_TRACE_STORE_BYTES or 2GB)")
    return parser


def _trace_gen(args: argparse.Namespace) -> int:
    from repro.engine.trace_array import array_to_records
    from repro.trace.adapters import resolve_format
    from repro.trace.binfmt import BinaryTraceWriter

    try:
        profile = workload_by_name(args.workload)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.accesses <= 0 or args.cores <= 0 or args.scale <= 0:
        print("error: --accesses, --cores, and --scale must be positive",
              file=sys.stderr)
        return 2
    runner = ExperimentRunner(ExperimentConfig(
        scale=args.scale, num_accesses=args.accesses, num_cores=args.cores,
        seed=args.seed,
    ))
    fmt_name = None if args.format == "auto" else args.format
    try:
        fmt = resolve_format(fmt_name, args.out, for_writing=True)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    chunks = runner.iter_trace_chunks(profile)
    if fmt.name == "binary":
        # The generator's record arrays are the binary payload: written as
        # they come, with no per-record round trip.
        with BinaryTraceWriter(args.out, num_cores=args.cores) as writer:
            for chunk in chunks:
                writer.write_all(chunk)
        count = writer.count
    else:
        stream = (access for chunk in chunks
                  for access in array_to_records(chunk))
        count = fmt.writer(args.out, stream, args.cores)
    print(f"wrote {count} accesses to {args.out} ({fmt.name})")
    return 0


def _trace_info(args: argparse.Namespace) -> int:
    from repro.trace.adapters import detect_format, open_trace
    from repro.trace.binfmt import read_header
    from repro.trace.errors import TraceFormatError
    from pathlib import Path

    status = 0
    for path in args.paths:
        if not Path(path).is_file():
            print(f"{path}: not a file", file=sys.stderr)
            status = 1
            continue
        fmt = detect_format(path)
        size = Path(path).stat().st_size
        if fmt == "binary":
            try:
                header = read_header(path)
            except TraceFormatError as error:
                print(f"{path}: corrupt binary trace: {error}",
                      file=sys.stderr)
                status = 1
                continue
            count = ("unknown" if header.access_count is None
                     else header.access_count)
            compression = header.codec
            print(f"{path}: format=binary v{header.version} "
                  f"compression={compression} cores={header.num_cores} "
                  f"accesses={count} bytes={size}")
        else:
            line = f"{path}: format={fmt} bytes={size}"
            if args.count:
                try:
                    total = sum(1 for _ in open_trace(path, fmt))
                except TraceFormatError as error:
                    print(f"{path}: {error}", file=sys.stderr)
                    status = 1
                    continue
                line += f" accesses={total}"
            print(line)
    return status


def _trace_convert(args: argparse.Namespace) -> int:
    from repro.trace.adapters import convert_trace
    from repro.trace.errors import TraceFormatError

    in_format = None if args.in_format == "auto" else args.in_format
    out_format = None if args.out_format == "auto" else args.out_format
    try:
        count = convert_trace(args.src, args.dst, in_format=in_format,
                              out_format=out_format, limit=args.limit,
                              codec=args.codec)
    except (TraceFormatError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"wrote {count} accesses to {args.dst}")
    return 0


def _trace_store(args: argparse.Namespace) -> int:
    from repro.sampling.checkpoints import CheckpointStore, shared_gc
    from repro.sampling.checkpoints import default_root as checkpoint_root
    from repro.trace.store import TraceStore, configured_root
    from repro.utils.units import format_size, parse_size

    root = configured_root()
    if root is None:
        print("trace store is disabled (REPRO_TRACE_STORE)", file=sys.stderr)
        return 1
    store = TraceStore(root=root)
    checkpoints = CheckpointStore(checkpoint_root())
    if args.store_command == "info":
        budget = ("unlimited" if store.max_bytes is None
                  else format_size(store.max_bytes))
        total = store.total_bytes()
        ckpt_total = checkpoints.total_bytes()
        print(f"root:        {store.root}")
        print(f"traces:      {len(store)} entries, {total} bytes "
              f"({format_size(total)})")
        print(f"checkpoints: {len(checkpoints)} entries, {ckpt_total} bytes "
              f"({format_size(ckpt_total)})")
        print(f"combined:    {total + ckpt_total} bytes "
              f"({format_size(total + ckpt_total)})")
        print(f"budget:      {budget} (shared across traces and checkpoints)")
        return 0
    try:
        max_bytes = (parse_size(args.max_bytes) if args.max_bytes is not None
                     else store.max_bytes)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    freed = shared_gc(store, checkpoints, max_bytes)
    reclaimed = freed["trace_freed"] + freed["checkpoint_freed"]
    print(f"reclaimed {reclaimed} bytes ({format_size(reclaimed)}): "
          f"{format_size(freed['trace_freed'])} of traces, "
          f"{format_size(freed['checkpoint_freed'])} of checkpoints; "
          f"{len(store)} traces ({format_size(store.total_bytes())}) and "
          f"{len(checkpoints)} checkpoints "
          f"({format_size(checkpoints.total_bytes())}) remain")
    return 0


def _trace_formats() -> int:
    from repro.trace.adapters import FORMATS

    width = max(len(name) for name in FORMATS)
    for name in sorted(FORMATS):
        fmt = FORMATS[name]
        mode = "read/write" if fmt.writable else "read-only"
        suffixes = " ".join(fmt.suffixes) or "(by content)"
        print(f"{name:<{width}}  {mode:<10}  {fmt.description}  "
              f"[{suffixes}]")
    return 0


def trace_main(argv: List[str]) -> int:
    """Entry point of the ``repro trace`` subcommands."""
    args = build_trace_parser().parse_args(argv)
    if args.command == "gen":
        return _trace_gen(args)
    if args.command == "info":
        return _trace_info(args)
    if args.command == "convert":
        return _trace_convert(args)
    if args.command == "store":
        return _trace_store(args)
    return _trace_formats()


# --------------------------------------------------------------------- #
# repro sample ...
# --------------------------------------------------------------------- #
def build_sample_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sample",
        description="Checkpointed windowed sampling: measure designs over "
                    "short, confidence-terminated windows of one trace "
                    "instead of replaying it whole.",
    )
    parser.add_argument("--designs", nargs="+", default=["unison", "alloy"],
                        metavar="NAME",
                        help="registered design names to compare over the "
                             "same windows (default: unison alloy)")
    parser.add_argument("--workload", default="Web Search", metavar="NAME",
                        help="workload name, or a path to a trace file "
                             "(binary traces are windowed seekably)")
    parser.add_argument("--capacity", default="1GB", metavar="SIZE",
                        help="paper-scale capacity (default: 1GB)")
    parser.add_argument("--scale", type=int, default=512,
                        help="capacity scale-down factor (default: 512)")
    parser.add_argument("--accesses", type=int, default=200_000,
                        help="trace length, warm-up region included "
                             "(default: 200000)")
    parser.add_argument("--cores", type=int, default=4,
                        help="interleaved cores (default: 4)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload generator seed (default: 1)")
    parser.add_argument("--windows", type=int, default=None, metavar="N",
                        help="window budget (default: SamplingConfig's)")
    parser.add_argument("--window-accesses", type=int, default=None,
                        metavar="N", help="accesses measured per window")
    parser.add_argument("--warmup-accesses", type=int, default=None,
                        metavar="N",
                        help="per-window functional warming accesses")
    parser.add_argument("--checkpoint-accesses", type=int, default=None,
                        metavar="N",
                        help="accesses of the one-time warm checkpoint "
                             "prologue")
    parser.add_argument("--target-error", type=float, default=None,
                        metavar="FRAC",
                        help="target relative CI half-width (default: 0.02)")
    parser.add_argument("--placement", choices=["systematic", "random"],
                        default=None, help="window placement strategy")
    parser.add_argument("--sampling-seed", type=int, default=None,
                        help="placement/order seed (default: 0)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="optional ResultSet JSON export path")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the result table")
    _add_telemetry_arguments(parser)
    _add_batch_arguments(parser)
    return parser


def sample_main(argv: List[str]) -> int:
    """Entry point of ``repro sample``."""
    from repro.sampling import WindowedSampler
    from repro.sim.spec import _coerce_workload

    args = build_sample_parser().parse_args(argv)
    _apply_telemetry_arguments(args)
    _apply_batch_arguments(args)
    try:
        sampling = _sampling_config(
            max_windows=args.windows,
            window_accesses=args.window_accesses,
            warmup_accesses=args.warmup_accesses,
            checkpoint_accesses=args.checkpoint_accesses,
            target_relative_error=args.target_error,
            placement=args.placement,
            seed=args.sampling_seed,
        )
        workload = _coerce_workload(args.workload)
        config = ExperimentConfig(
            scale=args.scale, num_accesses=args.accesses,
            num_cores=args.cores, seed=args.seed,
        )
        from repro.obs.core import start_run

        sampler = WindowedSampler(sampling, config=config)
        with start_run("trial", kind_detail="sample",
                       design=" ".join(args.designs),
                       workload=workload.name,
                       capacity=args.capacity):
            run = sampler.compare(args.designs, workload, args.capacity)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    results = run.to_resultset()
    if not args.quiet:
        plan = run.plan
        stopped = ("converged" if run.converged
                   else "window budget exhausted")
        print(f"Sampled {run.workload} @ {run.capacity}: "
              f"{run.windows_measured}/{len(plan.windows)} windows "
              f"({stopped}), {run.simulated_accesses} of "
              f"{plan.total_accesses} accesses simulated per design "
              f"({100 * run.sampled_fraction:.1f}%)")
        for label, sampled in run.designs.items():
            miss = sampled.interval("miss_ratio")
            speedup = sampled.interval("speedup_vs_no_cache")
            print(f"  {label:<12} miss {100 * miss.mean:5.2f}% "
                  f"+- {100 * miss.half_width:.2f} | "
                  f"speedup {speedup.mean:.3f} +- {speedup.half_width:.3f} "
                  f"(95% CI)")
        labels = list(run.designs)
        if len(labels) > 1:
            first = labels[0]
            print("Matched-pair deltas vs", first + ":")
            for other in labels[1:]:
                delta = run.delta("speedup_vs_no_cache", other, first)
                interval = delta.interval()
                print(f"  {other:<12} speedup {interval.mean:+.3f} "
                      f"+- {interval.half_width:.3f} (95% CI, "
                      f"{len(delta)} paired windows)")
        print()
    print(results.table())
    if args.json is not None:
        results.to_json(args.json)
        if not args.quiet:
            print(f"\nJSON export: {args.json}")
    return 0


# --------------------------------------------------------------------- #
# repro queue ...
# --------------------------------------------------------------------- #
def build_queue_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro queue",
        description="Durable work-queue sweeps: idempotent on-disk jobs, "
                    "crash-resumable leased workers, and a persistent result "
                    "archive.",
    )
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="queue directory (default: REPRO_QUEUE_DIR, "
                             "else <trace store>/queue)")
    _add_telemetry_arguments(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="plan a sweep into durable jobs (idempotent)",
        description="Plan a sweep grid into idempotent jobs keyed by each "
                    "trial's full identity; re-submitting an existing sweep "
                    "adds no jobs.")
    _add_grid_arguments(submit)
    submit.add_argument("--sampled", action="store_true",
                        help="run every trial through checkpointed windowed "
                             "sampling (cells decompose into window-batch "
                             "jobs)")
    submit.add_argument("--windows", type=int, default=None, metavar="N",
                        help="sampled-mode window budget")
    submit.add_argument("--window-accesses", type=int, default=None,
                        metavar="N", help="sampled-mode accesses per window")
    submit.add_argument("--window-batch", type=int, default=None, metavar="N",
                        help="windows per job for sampled trials (default: 4)")
    submit.add_argument("--max-attempts", type=int, default=None, metavar="N",
                        help="attempts before a job is failed (default: 3)")

    status = sub.add_parser(
        "status", help="report job states, attempts, and timing",
        description="Without a token: list every sweep in the job store or "
                    "result archive. With a token or unique token prefix: "
                    "per-state job counts plus timing/attempt totals.")
    status.add_argument("token", nargs="?", default=None, metavar="TOKEN")
    status.add_argument("--json", action="store_true",
                        help="machine-readable JSON output, the body of "
                             "/api/sweeps (listing) or /api/queue?token= "
                             "(for scripts/CI)")
    status.add_argument("--jobs", action="store_true",
                        help="also list every job row: state, kind, "
                             "attempts, lease owner, and run time")
    status.add_argument("--watch", action="store_true",
                        help="re-render every --interval seconds with live "
                             "worker heartbeats (Ctrl-C exits)")
    status.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                        help="refresh period for --watch (default: 2)")

    resume = sub.add_parser(
        "resume", help="run a submitted sweep to completion and print it",
        description="Reclaim dead workers' leases, execute whatever jobs "
                    "are not done (zero for an archived sweep), and print "
                    "the assembled result table.")
    resume.add_argument("token", metavar="TOKEN")
    resume.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes; 1 = in-process, 0 = one per "
                             "CPU (default: 1)")
    resume.add_argument("--json", default=None, metavar="PATH",
                        help="optional ResultSet JSON export path")
    resume.add_argument("--quiet", action="store_true",
                        help="print only the result table")

    prune = sub.add_parser(
        "prune", help="drop job rows of archived sweeps (retention policy)",
        description="Delete the job-store rows of sweeps whose results are "
                    "fully archived; the result archive is never touched. "
                    "With a TOKEN: prune exactly that sweep. Without one: "
                    "apply the retention policy (--keep-days / "
                    "--keep-archived) across the store.")
    prune.add_argument("token", nargs="?", default=None, metavar="TOKEN",
                       help="prune only this sweep's job rows")
    prune.add_argument("--keep-days", type=float, default=7.0, metavar="D",
                       help="retain sweeps submitted within D days "
                            "(default: 7; 0 = age protects nothing)")
    prune.add_argument("--keep-archived", type=int, default=0, metavar="N",
                       help="additionally retain the N most recent archived "
                            "sweeps regardless of age (default: 0)")
    prune.add_argument("--json", action="store_true",
                       help="machine-readable JSON summary")

    work = sub.add_parser(
        "work", help="run a standalone worker loop on the shared store",
        description="Lease and execute jobs until the store drains.  Any "
                    "number of workers may run concurrently; losing one "
                    "(even to kill -9) costs only its in-flight job.")
    work.add_argument("--sweep", default=None, metavar="TOKEN",
                      help="only run jobs of this sweep (default: any)")
    work.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after N jobs (default: run until drained)")
    work.add_argument("--lease-seconds", type=float, default=300.0,
                      help="lease duration per job (default: 300)")
    work.add_argument("--no-drain", action="store_true",
                      help="exit on the first empty lease instead of "
                           "polling while other workers still hold jobs; "
                           "a sampled cell's window jobs held back while "
                           "its first job warms the prologue count as "
                           "empty, so such a worker leaves them to the "
                           "draining ones")
    work.add_argument("--throttle", type=float, default=0.0, metavar="SEC",
                      help="sleep after each job (testing/pacing)")
    return parser


def _queue_service(args: argparse.Namespace):
    from repro.queue import SweepService

    kwargs = {}
    if getattr(args, "max_attempts", None) is not None:
        kwargs["max_attempts"] = args.max_attempts
    if getattr(args, "window_batch", None) is not None:
        kwargs["window_batch"] = args.window_batch
    if getattr(args, "lease_seconds", None) is not None:
        kwargs["lease_seconds"] = args.lease_seconds
    return SweepService(queue_dir=args.queue_dir, **kwargs)


def _sweep_token(service, ref: str) -> str:
    """The full token of the sweep ``ref`` names: exact or unique prefix.

    Resolved over the job store and the archive exactly as the read views
    resolve it; an unknown or ambiguous ref raises ``ValueError``, which
    :func:`queue_main` reports as a one-line error with exit status 2.
    """
    from repro.serve.readmodel import ReadModel

    try:
        return ReadModel(queue_dir=service.queue_dir).match_token(ref)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


def _queue_submit(args: argparse.Namespace) -> int:
    service = _queue_service(args)
    sampling = None
    if args.sampled:
        sampling = _sampling_config(max_windows=args.windows,
                                    window_accesses=args.window_accesses)
    spec = _grid_spec(args, sampling)
    outcome = service.submit(spec)
    print(f"sweep {outcome.token}")
    print(f"  {spec.describe()}")
    print(f"  {outcome.new_jobs} new jobs, {outcome.reused_jobs} already "
          f"present ({outcome.total_jobs} total for "
          f"{outcome.total_trials} trials)")
    print(f"  store: {service.db_path}")
    return 0


def _fail(error: object) -> int:
    """Report a failed lookup -- unknown or ambiguous ref, missing store."""
    if isinstance(error, KeyError) and error.args:
        error = error.args[0]  # KeyError reprs its message; unwrap it
    print(f"error: {error}", file=sys.stderr)
    return 1


def _print_json(data: dict) -> None:
    """Print a view exactly as its ``repro serve`` endpoint serves it."""
    from repro.serve.api import encode_json

    print(encode_json(data))


def _watch(render: Callable[[], int], interval: float) -> int:
    """Re-render every ``interval`` seconds until Ctrl-C or a failure.

    Clears the screen only on real terminals: piped to a file or a CI log
    the escapes are control garbage, so a separator line goes out instead.
    """
    tty = sys.stdout.isatty()
    try:
        while True:
            if tty:
                sys.stdout.write("\033[2J\033[H")  # clear screen, home
            else:
                print("---")
            code = render()
            if code:
                return code
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def _print_sweeps(data: dict) -> None:
    """Render ``ReadModel.sweeps()``: one line per sweep."""
    if not data["sweeps"]:
        print("no sweeps submitted")
        return
    pruned = 0
    for sweep in data["sweeps"]:
        jobs = sweep["jobs"]
        if jobs is None:
            pruned += 1
            text = "jobs pruned"
        else:
            text = f"{jobs['counts']['done']}/{jobs['total']} done"
        if sweep["archived"]:
            text += f"  archived {sweep['records']}/{sweep['total']}"
        print(f"{sweep['token']}  {text}  {sweep['description']}")
    if pruned:
        print(f"{pruned} sweeps pruned from the job store (results remain "
              f"in the archive)")


def _print_queue_status(data: dict, include_jobs: bool) -> None:
    """Render ``ReadModel.queue(token)``: counts, timing, and job rows."""
    counts, timing = data["counts"], data["timing"]
    print(f"sweep {data['token']}: {data['description']}")
    for state in ("pending", "leased", "done", "failed"):
        print(f"  {state:<8} {counts[state]}")
    print(f"  attempts {timing['attempts']} over {timing['jobs_timed']} "
          f"timed jobs, {timing['total_seconds']:.2f}s total, "
          f"{timing['mean_seconds']:.2f}s mean, "
          f"{timing['longest_seconds']:.2f}s longest")
    archived = data["archived"]
    if archived:
        state = " (complete)" if archived["complete"] else ""
        print(f"  archived {archived['records']}/{archived['total']} "
              f"records{state}")
    if counts["done"] == data["total"]:
        print(f"all {data['total']} jobs done")
    if include_jobs and data["jobs"]:
        print()
        print(f"  {'seq':>4} {'kind':<8} {'state':<8} {'att':>3} "
              f"{'seconds':>8} {'cost':<6}  owner/error")
        for job in data["jobs"]:
            seconds = ("" if job["run_seconds"] is None
                       else f"{job['run_seconds']:.2f}")
            cost = "scalar" if job["cost_scalar"] else ""
            detail = job["lease_owner"] or ""
            if job["state"] == "failed" and job["error"]:
                detail = job["error"]
            print(f"  {job['seq']:>4} {job['kind']:<8} {job['state']:<8} "
                  f"{job['attempts']:>3} {seconds:>8} {cost:<6}  {detail}")
    elif not include_jobs:
        failed = [job for job in data["jobs"] if job["state"] == "failed"]
        for job in failed[:5]:
            print(f"  failed job {job['seq']} (trial {job['trial_index']}): "
                  f"{job['error'] or 'unknown error'}")


def _worker_lines(view: dict) -> List[str]:
    """Render the ``workers`` block of ``ReadModel.queue()``."""
    workers = view["workers"]
    if not workers["available"]:
        return [f"workers: {workers['reason']}"]
    if not workers["workers"]:
        return ["workers: none active"]
    lines = ["workers:"]
    for worker in workers["workers"]:
        doing = ("-" if worker["job_seq"] is None
                 else f"{worker['job_kind']} #{worker['job_seq']}")
        rate = worker["jobs_per_second"]
        rate_text = f"{rate:.2f}/s" if rate else "-"
        sweep_text = (worker["sweep"] or "")[:8]
        lines.append(
            f"  {worker['owner']:<28} {worker['status']:<8} "
            f"job={doing:<12} done={worker['jobs_done']:<4} "
            f"rate={rate_text:<8} sweep={sweep_text:<8} "
            f"seen={worker['seen_seconds_ago']:.0f}s ago"
        )
    if "eta_seconds" in workers:
        lines.append(f"  ETA: {view['unfinished']} unfinished jobs / "
                     f"{workers['jobs_per_second']:.2f} jobs/s ~= "
                     f"{workers['eta_seconds']:.0f}s")
    return lines


def _queue_status(args: argparse.Namespace) -> int:
    """Render ``ReadModel.sweeps()``, or ``ReadModel.queue(TOKEN)``."""
    from repro.queue.service import NO_QUEUE_DIR
    from repro.serve.readmodel import ReadModel

    model = ReadModel(queue_dir=args.queue_dir)
    if model.queue_dir is None:
        print(f"error: {NO_QUEUE_DIR}", file=sys.stderr)
        return 2

    def render() -> int:
        if args.token is None:
            data = model.sweeps()
        else:
            try:
                data = model.queue(args.token,
                                   include_jobs=args.jobs or not args.json)
            except (KeyError, ValueError) as error:
                return _fail(error)
            if not data["available"]:
                return _fail(data["reason"])
        if args.json:
            _print_json(data)
            return 0
        if args.token is None:
            _print_sweeps(data)
        else:
            _print_queue_status(data, include_jobs=args.jobs)
        if args.watch:
            print()
            for line in _worker_lines(data if args.token else model.queue()):
                print(line)
        return 0

    if not args.watch or args.json:
        return render()
    return _watch(render, args.interval)


def _queue_resume(args: argparse.Namespace) -> int:
    service = _queue_service(args)
    token = _sweep_token(service, args.token)

    def progress(index: int, total: int, trial: ExperimentSpec) -> None:
        if not args.quiet:
            print(f"[{index + 1}/{total}] {trial.describe()}",
                  file=sys.stderr)

    try:
        results = service.resume(token, workers=args.jobs or None,
                                 progress=progress)
    except (KeyError, RuntimeError, ValueError) as error:
        return _fail(error)
    print(results.table())
    if args.json is not None:
        results.to_json(args.json)
        if not args.quiet:
            print(f"\nJSON export: {args.json}")
    return 0


def _queue_prune(args: argparse.Namespace) -> int:
    service = _queue_service(args)
    if args.token is not None:
        token = _sweep_token(service, args.token)
        with service.archive() as archive:
            meta = archive.sweep_meta(token)
        if meta is None:
            print(f"error: no archived sweep {token!r}", file=sys.stderr)
            return 1
        if not meta["complete"]:
            print(f"error: sweep {token!r} is not fully archived; "
                  f"its job rows are its resume state", file=sys.stderr)
            return 1
        deleted = service.prune(token)
        summary = {"pruned": [token], "jobs_deleted": deleted,
                   "kept_recent": 0, "kept_young": 0,
                   "skipped_unarchived": 0}
    else:
        summary = service.prune_retention(keep_days=args.keep_days,
                                          keep_archived=args.keep_archived)
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"pruned {len(summary['pruned'])} sweeps "
          f"({summary['jobs_deleted']} job rows); archive untouched")
    for token in summary["pruned"]:
        print(f"  {token}")
    kept = summary["kept_recent"] + summary["kept_young"]
    if kept or summary["skipped_unarchived"]:
        print(f"kept {kept} archived sweeps "
              f"({summary['kept_recent']} by --keep-archived, "
              f"{summary['kept_young']} within --keep-days), "
              f"skipped {summary['skipped_unarchived']} not fully archived")
    return 0


def _queue_work(args: argparse.Namespace) -> int:
    from repro.queue import work as queue_work

    service = _queue_service(args)
    sweep = None if args.sweep is None else _sweep_token(service, args.sweep)
    executed = queue_work(
        service.db_path,
        sweep=sweep,
        lease_seconds=args.lease_seconds,
        max_jobs=args.max_jobs,
        drain=not args.no_drain,
        throttle=args.throttle,
    )
    print(f"executed {executed} jobs")
    return 0


def queue_main(argv: List[str]) -> int:
    """Entry point of the ``repro queue`` subcommands."""
    args = build_queue_parser().parse_args(argv)
    _apply_telemetry_arguments(args)
    try:
        if args.command == "submit":
            return _queue_submit(args)
        if args.command == "status":
            return _queue_status(args)
        if args.command == "resume":
            return _queue_resume(args)
        if args.command == "prune":
            return _queue_prune(args)
        return _queue_work(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


# --------------------------------------------------------------------- #
# repro tune ...
# --------------------------------------------------------------------- #
def build_tune_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="Design-space autotuning: a seeded successive-halving "
                    "search over the composable component grid, run as "
                    "resumable queue sweeps of increasing CI fidelity, "
                    "ending in a CI-aware Pareto frontier against the "
                    "paper's designs.",
    )
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="queue directory (default: REPRO_QUEUE_DIR, "
                             "else <trace store>/queue)")
    _add_telemetry_arguments(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="plan a search and run it to completion",
        description="Draw candidates from the design space (seeded, "
                    "deterministic), then run every rung: each widens the "
                    "sampled window budget, tightens the CI target, and "
                    "prunes candidates whose CI is dominated beyond noise. "
                    "Idempotent and resumable: a killed search re-submitted "
                    "with the same flags re-runs zero finished jobs.")
    submit.add_argument("--workload", default="Web Search",
                        help='workload name (default: "Web Search")')
    submit.add_argument("--capacity", default="1GB",
                        help="cache capacity (default: 1GB)")
    submit.add_argument("--seed", type=int, default=1,
                        help="seed of the candidate draw and sampling")
    submit.add_argument("--candidates", type=int, default=36, metavar="N",
                        help="candidate compositions to draw (default: 36)")
    submit.add_argument("--rungs", type=int, default=3,
                        help="successive-halving rungs (default: 3)")
    submit.add_argument("--eta", type=int, default=2,
                        help="halving factor per rung (default: 2)")
    submit.add_argument("--scale", type=int, default=1024,
                        help="capacity scale-down factor (default: 1024)")
    submit.add_argument("--accesses", type=int, default=120_000,
                        help="trace length per trial (default: 120000)")
    submit.add_argument("--cores", type=int, default=16,
                        help="modeled core count (default: 16)")
    submit.add_argument("--window-accesses", type=int, default=2_000,
                        metavar="N", help="accesses per sampled window")
    submit.add_argument("--warmup-accesses", type=int, default=2_000,
                        metavar="N", help="per-window functional warming")
    submit.add_argument("--checkpoint-accesses", type=int, default=20_000,
                        metavar="N", help="warm-checkpoint prologue length")
    submit.add_argument("--min-windows", type=int, default=3, metavar="N",
                        help="windows before adaptive termination")
    submit.add_argument("--base-windows", type=int, default=4, metavar="N",
                        help="rung 0 window budget (x eta per rung)")
    submit.add_argument("--base-relative-error", type=float, default=0.10,
                        metavar="E", help="rung 0 CI target (/ eta per rung)")
    submit.add_argument("--no-baselines", action="store_true",
                        help="skip measuring the paper designs in the "
                             "final rung")
    submit.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per rung; 1 = in-process, "
                             "0 = one per CPU (default: 1)")
    submit.add_argument("--plan-only", action="store_true",
                        help="write the search state and print its token "
                             "without running any rung")

    status = sub.add_parser(
        "status", help="list searches, or one search's rung progress",
        description="Without a token: every persisted search. With one: "
                    "per-rung designs, fidelity, survivors, and results.")
    status.add_argument("token", nargs="?", default=None, metavar="TOKEN")
    status.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")

    resume = sub.add_parser(
        "resume", help="continue an interrupted search to completion",
        description="Reload the persisted state, re-register the candidate "
                    "designs, and drive the unfinished rungs; finished "
                    "jobs (and fully archived rungs) are never re-run.")
    resume.add_argument("token", metavar="TOKEN")
    resume.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per rung (default: 1)")

    frontier = sub.add_parser(
        "frontier", help="print (or export) a finished search's frontier",
        description="The CI-aware Pareto frontier of the final rung: "
                    "discovered hybrids and paper baselines on the "
                    "miss-ratio / speedup / SRAM-overhead axes.")
    frontier.add_argument("token", metavar="TOKEN")
    frontier.add_argument("--json", default=None, metavar="PATH",
                          help="write the frontier artifact JSON "
                               "('-' = stdout)")
    frontier.add_argument("--verify", action="store_true",
                          help="re-run the winning design by its registered "
                               "name and check it reproduces the archived "
                               "record bit-identically")
    return parser


def _tune_config(args: argparse.Namespace):
    from repro.search import TuneConfig

    return TuneConfig(
        workload=args.workload,
        capacity=args.capacity,
        seed=args.seed,
        num_candidates=args.candidates,
        rungs=args.rungs,
        eta=args.eta,
        scale=args.scale,
        num_accesses=args.accesses,
        num_cores=args.cores,
        window_accesses=args.window_accesses,
        warmup_accesses=args.warmup_accesses,
        checkpoint_accesses=args.checkpoint_accesses,
        min_windows=args.min_windows,
        base_windows=args.base_windows,
        base_relative_error=args.base_relative_error,
        include_baselines=not args.no_baselines,
    )


def _print_tune_state(state) -> None:
    print(f"search {state.token}: {state.status}, "
          f"{len(state.candidates)} candidates")
    for record in state.rungs:
        fidelity = (f"{record['max_windows']} windows @ "
                    f"{record['target_relative_error']:.3f} rel err")
        if record["status"] == "done":
            print(f"  rung {record['rung']}: {len(record['designs'])} "
                  f"designs, {fidelity} -> {len(record['survivors'])} "
                  f"survive, {len(record['pruned'])} pruned "
                  f"(sweep {record['sweep_token'][:12]})")
        else:
            print(f"  rung {record['rung']}: {len(record['designs'])} "
                  f"designs, {fidelity} -> {record['status']}")
    if state.winners:
        print(f"  winners: {' '.join(state.winners)}")


def _tune_submit(args: argparse.Namespace) -> int:
    from repro.search import TuneSearch

    search = TuneSearch(_tune_config(args), queue_dir=args.queue_dir)
    state = search.plan()
    print(f"search {state.token}")
    print(f"  space: {search.space.describe()}")
    print(f"  drawn: {len(state.candidates)} candidates, "
          f"{search.config.rungs} rungs (eta={search.config.eta})")
    print(f"  state: {search.state_path(state.token)}")
    if args.plan_only:
        return 0
    state = search.run(state, workers=args.jobs or None)
    print()
    _print_tune_state(state)
    return 0


def _tune_status(args: argparse.Namespace) -> int:
    from repro.search import list_searches, load_search

    if args.token is None:
        states = list_searches(args.queue_dir)
        if args.json:
            print(_json.dumps([state.to_json() for state in states],
                              indent=2, sort_keys=True))
            return 0
        if not states:
            print("no searches")
            return 0
        for state in states:
            done = sum(1 for r in state.rungs if r["status"] == "done")
            print(f"{state.token}  {state.status:<9} "
                  f"rungs {done}/{state.config.rungs}  "
                  f"{len(state.candidates)} candidates  "
                  f"{state.config.workload} @ {state.config.capacity}")
        return 0
    _, state = load_search(args.token, args.queue_dir)
    if args.json:
        print(_json.dumps(state.to_json(), indent=2, sort_keys=True))
        return 0
    _print_tune_state(state)
    return 0


def _tune_resume(args: argparse.Namespace) -> int:
    from repro.search import load_search

    search, state = load_search(args.token, args.queue_dir)
    state = search.run(state, workers=args.jobs or None)
    _print_tune_state(state)
    return 0


def _tune_frontier(args: argparse.Namespace) -> int:
    from repro.search import load_search

    search, state = load_search(args.token, args.queue_dir)
    artifact = state.frontier or search.build_frontier(state)
    if args.json == "-":
        print(_json.dumps(artifact, indent=2, sort_keys=True))
    else:
        width = max(len(d["name"]) for d in artifact["designs"])
        print(f"frontier of search {state.token} "
              f"({artifact['workload']} @ {artifact['capacity']}):")
        for design in artifact["designs"]:
            miss = design["miss_ratio"]
            speed = design["speedup"]
            mark = "*" if design["on_frontier"] else " "
            beats = (" beats: " + " ".join(design["dominates_baselines"])
                     if design["dominates_baselines"] else "")
            print(f" {mark} {design['name']:<{width}} "
                  f"[{design['kind']:<9}] "
                  f"miss {miss['mean']:.4f}±{miss['half_width']:.4f}  "
                  f"speedup {speed['mean']:.3f}±{speed['half_width']:.3f}  "
                  f"sram {design['sram_overhead_bytes'] / 1024:.1f}KB"
                  f"{beats}")
        print(f"  winners: {' '.join(artifact['winners']) or '(none)'}")
        if args.json is not None:
            Path(args.json).write_text(
                _json.dumps(artifact, indent=2, sort_keys=True))
            print(f"  artifact: {args.json}")
    if args.verify:
        report = search.verify_winner(state)
        verdict = "bit-identical" if report["identical"] else "MISMATCH"
        print(f"  verify {report['design']}: {verdict} "
              f"(miss {report['miss_ratio']:.6f} vs archived "
              f"{report['archived_miss_ratio']:.6f})")
        if not report["identical"]:
            return 1
    return 0


def tune_main(argv: List[str]) -> int:
    """Entry point of the ``repro tune`` subcommands."""
    args = build_tune_parser().parse_args(argv)
    _apply_telemetry_arguments(args)
    try:
        if args.command == "submit":
            return _tune_submit(args)
        if args.command == "status":
            return _tune_status(args)
        if args.command == "resume":
            return _tune_resume(args)
        return _tune_frontier(args)
    except (KeyError, RuntimeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


# --------------------------------------------------------------------- #
# repro runs ...
# --------------------------------------------------------------------- #
def build_runs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro runs",
        description="Query the telemetry run ledger recorded by --telemetry "
                    "/ REPRO_TELEMETRY=1 runs: per-phase wall-clock, "
                    "accesses/sec, store and checkpoint hit rates.",
    )
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="telemetry directory holding ledger.sqlite "
                             "(default: REPRO_TELEMETRY_DIR, else "
                             "<trace store>/telemetry)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="recent runs, newest first",
        description="List recorded runs: id, kind, status, wall-clock, and "
                    "the design/workload/capacity labels.")
    list_cmd.add_argument("--limit", type=int, default=20, metavar="N",
                          help="show at most N runs (default: 20)")
    list_cmd.add_argument("--sweep", default=None, metavar="TOKEN",
                          help="only runs of this sweep token (prefix ok)")
    list_cmd.add_argument("--kind", default=None,
                          choices=["trial", "windows", "assemble"],
                          help="only runs of this kind")
    list_cmd.add_argument("--json", action="store_true",
                          help="machine-readable JSON output (/api/runs)")

    show = sub.add_parser(
        "show", help="one run, or every run of a sweep, in detail",
        description="REF is a run-id prefix or a sweep-token prefix; a "
                    "sweep reference aggregates phases and metrics over "
                    "all of its runs.")
    show.add_argument("ref", metavar="REF")
    show.add_argument("--events", type=int, default=10, metavar="N",
                      help="show at most N of the 50 most recent events "
                           "(text view only; default: 10)")
    show.add_argument("--json", action="store_true",
                      help="machine-readable JSON output (/api/runs/REF)")

    compare = sub.add_parser(
        "compare", help="two runs or sweeps side by side",
        description="Resolve both references like 'show' and print their "
                    "phase timings and derived metrics in two columns.")
    compare.add_argument("ref_a", metavar="REF_A")
    compare.add_argument("ref_b", metavar="REF_B")
    return parser


def _format_run_line(row) -> str:
    from datetime import datetime

    started = datetime.fromtimestamp(row["started_at"]).strftime("%H:%M:%S")
    wall = ("..." if row["wall_seconds"] is None
            else f"{row['wall_seconds']:.2f}s")
    what = " ".join(filter(None, [row["design"], row["workload"],
                                  row["capacity"]])) or row["label"] or ""
    sweep = f" sweep={row['sweep'][:8]}" if row["sweep"] else ""
    return (f"{row['run_id']}  {row['kind']:<8} {row['status']:<6} "
            f"{started}  {wall:>8}  {what}{sweep}")


def _summary_lines(summary: dict) -> List[str]:
    from repro.obs.core import PHASE_ORDER

    lines = []
    wall = summary["wall_seconds"]
    lines.append(f"runs: {summary['runs']} ({summary['errors']} errors), "
                 f"wall-clock {wall:.2f}s")
    phases = summary["phases"]
    ordered = [name for name in PHASE_ORDER if name in phases]
    ordered += [name for name in sorted(phases) if name not in PHASE_ORDER]
    if ordered:
        lines.append("phases:")
    for name in ordered:
        seconds, count = phases[name]["seconds"], phases[name]["count"]
        share = f" ({100 * seconds / wall:.0f}%)" if wall > 0 else ""
        lines.append(f"  {name:<12} {seconds:8.3f}s{share}  x{count}")
    metrics = summary["metrics"]
    if metrics:
        lines.append("metrics:")
    for name in sorted(metrics):
        value = metrics[name]
        text = f"{value:g}" if value == int(value) else f"{value:.4f}"
        lines.append(f"  {name:<22} {text}")
    engine = summary.get("engine")
    if engine:
        line = (f"engine: batch {engine['batch_calls']} calls "
                f"({engine['batch_accesses']:,} accesses), scalar "
                f"{engine['scalar_calls']} calls "
                f"({engine['scalar_accesses']:,} accesses)")
        if engine["scalar_fallbacks"]:
            line += (f"; scalar fallback: "
                     f"{', '.join(engine['scalar_fallbacks'])}")
        lines.append(line)
    for name in ("accesses_per_sec", "restore_share", "trace_store_hit_rate",
                 "checkpoint_hit_rate"):
        if name in summary:
            if name.endswith(("rate", "share")):
                lines.append(f"{name}: {100 * summary[name]:.1f}%")
            else:
                lines.append(f"{name}: {summary[name]:,.0f}")
    return lines


def _runs_list(model, args: argparse.Namespace) -> int:
    data = model.runs(limit=args.limit, sweep=args.sweep, kind=args.kind)
    if not data["available"]:
        return _fail(data["reason"])
    if args.json:
        _print_json(data)
        return 0
    if not data["runs"]:
        print("no recorded runs")
        return 0
    for run in data["runs"]:
        print(_format_run_line(run))
    return 0


def _runs_show(model, args: argparse.Namespace) -> int:
    detail = model.run_detail(args.ref)
    if args.json:
        _print_json(detail)
        return 0
    row = detail["runs"][0]
    if detail["scope"] == "run":
        print(f"run {row['run_id']} ({row['kind']})")
        what = " ".join(filter(None, [row["design"], row["workload"],
                                      row["capacity"]]))
        if what:
            print(f"  {what}")
        if row["error"]:
            print(f"  error: {row['error'].strip().splitlines()[-1]}")
    else:
        print(f"sweep {row['sweep']}")
    for line in _summary_lines(detail["summary"]):
        print(f"  {line}")
    events = detail["events"][:args.events]  # newest first
    if events:
        print("  recent events:")
        for event in reversed(events):
            fields = _json.loads(event["detail"]) if event["detail"] else {}
            text = "".join(f" {k}={v}" for k, v in sorted(fields.items()))
            print(f"    {event['kind']}{text}")
    return 0


def _runs_compare(model, args: argparse.Namespace) -> int:
    from repro.obs.core import PHASE_ORDER

    sides = []
    for ref in (args.ref_a, args.ref_b):
        detail = model.run_detail(ref)
        row = detail["runs"][0]
        name = (row["run_id"] if detail["scope"] == "run"
                else f"sweep {row['sweep'][:12]}")
        sides.append((name, detail["summary"]))
    (name_a, sum_a), (name_b, sum_b) = sides
    width = 14
    print(f"{'':<{width}} {name_a:>20} {name_b:>20}")
    print(f"{'runs':<{width}} {sum_a['runs']:>20} {sum_b['runs']:>20}")
    print(f"{'wall_seconds':<{width}} {sum_a['wall_seconds']:>20.2f} "
          f"{sum_b['wall_seconds']:>20.2f}")
    names = [name for name in PHASE_ORDER
             if name in sum_a["phases"] or name in sum_b["phases"]]
    for name in names:
        a = sum_a["phases"].get(name, {"seconds": 0.0})["seconds"]
        b = sum_b["phases"].get(name, {"seconds": 0.0})["seconds"]
        print(f"{name:<{width}} {a:>19.3f}s {b:>19.3f}s")
    for name in ("accesses_per_sec", "trace_store_hit_rate",
                 "checkpoint_hit_rate"):
        if name in sum_a or name in sum_b:
            a, b = sum_a.get(name), sum_b.get(name)
            if name.endswith("rate"):
                text_a = "-" if a is None else f"{100 * a:.1f}%"
                text_b = "-" if b is None else f"{100 * b:.1f}%"
            else:
                text_a = "-" if a is None else f"{a:,.0f}"
                text_b = "-" if b is None else f"{b:,.0f}"
            print(f"{name:<{width}} {text_a:>20} {text_b:>20}")
    return 0


def runs_main(argv: List[str]) -> int:
    """Entry point of the ``repro runs`` subcommands."""
    from repro.serve.readmodel import ReadModel

    args = build_runs_parser().parse_args(argv)
    model = ReadModel(telemetry_dir=args.telemetry_dir)
    try:
        if args.command == "list":
            return _runs_list(model, args)
        if args.command == "show":
            return _runs_show(model, args)
        return _runs_compare(model, args)
    except (KeyError, ValueError) as error:
        return _fail(error)

# --------------------------------------------------------------------- #
# repro top
# --------------------------------------------------------------------- #
def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live worker heartbeats from the run ledger: per-worker "
                    "status, current job, throughput, and a drain ETA when "
                    "the job store is reachable.",
    )
    parser.add_argument("--sweep", default=None, metavar="TOKEN",
                        help="only workers on this sweep token (prefix ok)")
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="queue directory for the ETA's unfinished-job "
                             "count (default: REPRO_QUEUE_DIR, else "
                             "<trace store>/queue)")
    parser.add_argument("--watch", action="store_true",
                        help="re-render every --interval seconds "
                             "(Ctrl-C exits)")
    parser.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                        help="refresh period for --watch (default: 2)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the result archive, run ledger, and work queue "
                    "over HTTP: a JSON API, SVG paper figures with 95% CI "
                    "error bars, and a live dashboard.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"port, 0 picks a free one "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--root", default=None,
                        help="serve <root>/queue and <root>/telemetry "
                             "instead of the environment's queue dir and "
                             "telemetry root")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request log lines")
    return parser


def serve_main(argv: List[str]) -> int:
    """Entry point of ``repro serve``."""
    from repro.serve.server import serve

    args = build_serve_parser().parse_args(argv)
    try:
        return serve(host=args.host, port=args.port, root=args.root,
                     quiet=args.quiet)
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1


def top_main(argv: List[str]) -> int:
    """Entry point of ``repro top``: renders ``ReadModel.queue()``."""
    from repro.serve.readmodel import ReadModel

    args = build_top_parser().parse_args(argv)
    model = ReadModel(queue_dir=args.queue_dir)

    def render() -> int:
        try:
            data = model.queue(args.sweep, include_jobs=False)
        except (KeyError, ValueError) as error:
            return _fail(error)
        if data["available"]:
            print(f"queue: {data['unfinished']} unfinished jobs")
        for line in _worker_lines(data):
            print(line)
        return 0

    return _watch(render, args.interval) if args.watch else render()

# --------------------------------------------------------------------- #
# repro [sweep] ...
# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "sample":
        return sample_main(argv[1:])
    if argv and argv[0] == "designs":
        return designs_main(argv[1:])
    if argv and argv[0] == "queue":
        return queue_main(argv[1:])
    if argv and argv[0] == "tune":
        return tune_main(argv[1:])
    if argv and argv[0] == "runs":
        return runs_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "work":
        # `repro work` == `repro queue work`: the verb a fleet of standalone
        # worker shells actually types.
        return queue_main(["work"] + argv[1:])
    if argv and argv[0] == "sweep":
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_telemetry_arguments(args)
    _apply_batch_arguments(args)
    if args.list_designs:
        return _list_designs()
    if args.list_workloads:
        return _list_workloads()
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")

    try:
        spec = _grid_spec(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if not args.quiet:
        workers_note = "serial" if args.jobs == 1 else (
            f"{args.jobs} workers" if args.jobs else "one worker per CPU")
        print(f"Sweep: {spec.describe()}")
        print(f"Executor: {workers_note}")
        print()

    def progress(index: int, total: int, trial: ExperimentSpec) -> None:
        if not args.quiet:
            print(f"[{index + 1}/{total}] {trial.describe()}", file=sys.stderr)

    from repro.queue.service import SweepFailedError

    try:
        results = run_sweep(spec, workers=args.jobs or None,
                            progress=progress)
    except (SweepFailedError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if not args.quiet:
        print()
    print(results.table())

    if args.json != "-":
        results.to_json(args.json)
        if not args.quiet:
            print(f"\nJSON export: {args.json}")
    if args.csv is not None:
        results.to_csv(args.csv)
        if not args.quiet:
            print(f"CSV export: {args.csv}")
    return 0


def run() -> "None":
    """Console-script wrapper: ``main`` plus graceful SIGPIPE handling."""
    import os

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (e.g. ``repro --list-designs | head``) closed
        # the pipe; suppress the shutdown-time flush error too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
