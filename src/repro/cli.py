"""Command-line interface: ``repro-workflow <subcommand>``.

Subcommands
-----------
``period``     compute the exact period / throughput of an instance
``paths``      print the round-robin path table (Table 1)
``cycle``      per-resource cycle-times and the ``M_ct`` bound
``latency``    per-data-set latency (saturated or paced injection)
``gantt``      simulate and render an ASCII Gantt chart (Figures 7/12)
``dot``        export the TPN to graphviz DOT (Figures 4/5/8)
``table2``     run the Table 2 experimental campaign
``sweep``      run one experiment family through the batch engine
``search``     greedy + local-search mapping optimization (extension)
``optimize``   multi-start portfolio mapping search (repro.search)
``campaign``   durable, resumable scenario campaigns (repro.campaign)
``telemetry``  merge and report instrumentation traces (repro.telemetry)
``example``    dump one of the paper's examples (A/B/C) as JSON

Instances are JSON files in the :meth:`repro.core.instance.Instance.to_dict`
schema; ``example --out`` produces ready-made ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from pathlib import Path

from .algorithms.general_tpn import describe_critical_cycle
from .core.cycle_time import cycle_times
from .core.instance import Instance
from .core.paths import format_path_table
from .core.throughput import compute_period
from .petri.builder import build_tpn
from .utils import format_time

__all__ = ["main", "build_parser"]

# Each subcommand imports the modules only it runs (simulation, the
# Table-2 harness, search, DOT export) inside its handler, so
# ``campaign status`` does not pay for them.


def _paper_example(which: str) -> Instance:
    """The paper's example A, B or C (``which`` in either case)."""
    from .experiments.examples_paper import example_a, example_b, example_c

    return {"a": example_a, "b": example_b, "c": example_c}[which.lower()]()


def _load_instance(path: str) -> Instance:
    if path.lower() in ("a", "b", "c"):
        return _paper_example(path)
    return Instance.from_json(Path(path))


def _open_store(path: str | None):
    """Context manager over an optional ``--store`` flag (None when unset)."""
    if not path:
        from contextlib import nullcontext

        return nullcontext(None)
    from .campaign import ResultStore

    return ResultStore(path)


def _cmd_period(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = compute_period(inst, args.model, method=args.method,
                            max_rows=args.max_rows)
    print(result.summary())
    if args.breakdown and result.breakdown is not None:
        print("\nper-column contributions:")
        for col in result.breakdown.columns:
            print("  " + col.describe())
    if args.critical_cycle and result.tpn_solution is not None:
        print()
        print(describe_critical_cycle(result.tpn_solution))
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    print(format_path_table(inst.mapping, args.count))
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = cycle_times(inst, args.model)
    print(f"{'proc':>5} {'stage':>5} {'C_in':>12} {'C_comp':>12} "
          f"{'C_out':>12} {'C_exec':>12}")
    for ct in report.per_processor:
        print(
            f"P{ct.proc:<4} S{ct.stage:<4} {format_time(ct.cin):>12} "
            f"{format_time(ct.ccomp):>12} {format_time(ct.cout):>12} "
            f"{format_time(ct.cexec(report.model)):>12}"
        )
    print(f"\nM_ct = {format_time(report.mct)}  "
          f"(critical processors: "
          f"{', '.join('P%d' % p for p in report.critical_processors())})")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from .core.latency import measure_latency, path_latency_bound

    inst = _load_instance(args.instance)
    rep = measure_latency(
        inst,
        args.model,
        n_datasets=args.datasets,
        injection_period=args.inject,
        max_rows=args.max_rows,
    )
    regime = (
        "saturated (all data sets at t=0)"
        if args.inject is None
        else f"paced, one data set every {args.inject:g}"
    )
    print(f"regime          : {regime}")
    print(f"data sets       : {rep.n_datasets}")
    print(f"mean latency    : {rep.mean:g}")
    print(f"max latency     : {rep.max:g}")
    print(f"steady latency  : {rep.steady_latency():g}")
    bounds = [path_latency_bound(inst, j)
              for j in range(min(inst.num_paths, rep.n_datasets))]
    print(f"path bounds     : {', '.join(format_time(b) for b in bounds)}")
    if args.per_dataset:
        for j, lat in enumerate(rep.latencies):
            print(f"  data set {j:>4}: {lat:g}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import numpy as np

    from .extensions.mapping_opt import greedy_mapping, local_search_mapping

    inst = _load_instance(args.instance)
    app, plat = inst.application, inst.platform
    greedy = greedy_mapping(app, plat, args.model, max_paths=args.max_rows)
    print(f"greedy mapping : {[list(s) for s in greedy.mapping.assignments]}")
    print(f"greedy period  : {greedy.period:g} "
          f"({greedy.evaluations} evaluations)")
    if args.refine:
        ls = local_search_mapping(
            app, plat, args.model, rng=np.random.default_rng(args.seed),
            start=greedy.mapping, max_iters=args.iters,
            max_paths=args.max_rows,
        )
        print(f"refined mapping: {[list(s) for s in ls.mapping.assignments]}")
        print(f"refined period : {ls.period:g} ({ls.evaluations} evaluations)")
    original = compute_period(inst, args.model, max_rows=args.max_rows)
    print(f"input mapping  : {original.period:g} (for comparison)")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    if args.jobs != 1:
        print("warning: optimize --jobs is deprecated, ignored and will be "
              "removed in 4.0", file=sys.stderr)
    if args.objectives:
        return _optimize_objectives(args)
    from .search import portfolio_search

    inst = _load_instance(args.instance)
    result = portfolio_search(
        inst.application, inst.platform, args.model,
        n_restarts=args.restarts, budget=args.budget, root_seed=args.seed,
        max_iters=args.iters, max_paths=args.max_rows,
        allocator=args.allocator or "fair-share",
    )
    if not _machine_stdout(args, result.to_dict()):
        print(f"portfolio      : {args.restarts} restarts, "
              f"budget {args.budget} evaluations "
              f"({result.evaluations} spent, {result.allocator} allocator)")
        print(f"{'restart':>7} {'kind':>16} {'evals':>6} {'rungs':>6} "
              f"{'period':>12}")
        for r in result.restarts:
            print(f"{r.index:>7} {r.kind:>16} {r.evaluations:>6} "
                  f"{len(r.rungs):>6} {format_time(r.period):>12}")
        print(f"best mapping   : "
              f"{[list(s) for s in result.mapping.assignments]}")
        best = result.best_restart
        provenance = f" (restart {best.index}, {best.kind})" if best else \
            " (budget exhausted before any restart)"
        print(f"best period    : {format_time(result.period)}{provenance}")
        original = compute_period(inst, args.model, max_rows=args.max_rows)
        print(f"input mapping  : {format_time(original.period)} "
              f"(for comparison)")
    if args.json_out:
        from .experiments.io import portfolio_to_json

        portfolio_to_json(result, args.json_out)
        _notice(args, f"wrote {args.json_out}")
    if args.csv:
        from .experiments.io import restarts_to_csv

        restarts_to_csv(result, args.csv)
        _notice(args, f"wrote {args.csv}")
    return 0


def _optimize_objectives(args: argparse.Namespace) -> int:
    """The multi-criteria ``optimize --objectives`` path (Pareto portfolio)."""
    from .search import pareto_portfolio_search

    inst = _load_instance(args.instance)
    result = pareto_portfolio_search(
        inst.application, inst.platform, args.model,
        objectives=args.objectives,
        n_restarts=args.restarts, budget=args.budget, root_seed=args.seed,
        max_iters=args.iters, max_paths=args.max_rows,
        allocator=args.allocator or "epsilon-constraint",
    )
    if not _machine_stdout(args, result.to_dict()):
        print(f"objectives     : {', '.join(result.objectives)}")
        print(f"portfolio      : {len(result.directions)} directions, "
              f"budget {args.budget} evaluations "
              f"({result.evaluations} spent, {result.allocator} allocator)")
        print(f"{'dir':>4} {'kind':>9} {'evals':>6} {'acc':>4}  label")
        for rec in result.records:
            print(f"{rec.index:>4} {rec.kind:>9} {rec.evaluations:>6} "
                  f"{rec.accepted:>4}  {rec.label}")
        front = result.front()
        print(f"pareto front   : {len(front)} non-dominated mapping(s)")
        for entry in front:
            values = ", ".join(
                f"{name}={entry.result.value(name):.6g}"
                for name in result.objectives
            )
            print(f"  {values}  "
                  f"{[list(s) for s in entry.assignments]}")
    if args.json_out:
        from .experiments.io import write_canonical_json

        write_canonical_json(result.to_dict(), args.json_out)
        _notice(args, f"wrote {args.json_out}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .simulation.event_sim import simulate
    from .simulation.gantt import render_gantt, resource_order, utilization_table
    from .simulation.schedule import extract_schedules
    from .simulation.steady_state import measure_period

    inst = _load_instance(args.instance)
    net = build_tpn(inst, args.model, max_rows=args.max_rows)
    trace = simulate(net, args.firings)
    est = measure_period(trace)
    schedules = extract_schedules(trace, args.model)
    order = resource_order(inst, args.model)
    # Window: a whole number of TPN periods, past the transient.
    t_end = float(trace.completion[-1].max())
    span = est.rate * args.periods
    t0 = max(0.0, t_end - span) if args.start is None else args.start
    t1 = t0 + span
    print(f"measured period: {est.period:g} per data set "
          f"({est.rate:g} per {net.n_rows}-data-set sweep)\n")
    print(render_gantt(schedules, t0, t1, width=args.width, resources=order))
    print()
    print(utilization_table(schedules, t0, t1, resources=order))
    if args.svg:
        from .simulation.svg import render_gantt_svg

        marks = [t0 + i * est.rate for i in range(int(args.periods) + 1)]
        render_gantt_svg(
            schedules, t0, t1, resources=order, period_marks=marks,
            title=f"{inst.application.name} ({args.model})", path=args.svg,
        )
        print(f"\nwrote {args.svg}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .algorithms.verify import certify_period

    inst = _load_instance(args.instance)
    cert = certify_period(inst, args.model, max_rows=args.max_rows)
    print(f"period          : {cert.period:g}")
    print(f"rows m          : {cert.m}")
    print(f"primal cycle    : {len(cert.cycle_edges)} places "
          f"(achieves m*P exactly)")
    print(f"dual potentials : {len(cert.potentials)} entries "
          f"(no place violates the bound)")
    print("certificate verified: the period is provably optimal")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .petri.dot import tpn_to_dot

    inst = _load_instance(args.instance)
    net = build_tpn(inst, args.model, max_rows=args.max_rows)
    highlight: tuple[int, ...] = ()
    if args.critical_cycle:
        result = compute_period(inst, args.model, method="tpn",
                                max_rows=args.max_rows)
        highlight = result.tpn_solution.ratio.cycle_nodes
    text = tpn_to_dot(net, highlight=highlight,
                      title=f"{inst.application.name} ({args.model})")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments.table2 import format_table2, run_table2

    with _open_store(args.store) as store:
        rows = run_table2(scale=args.scale, models=tuple(args.models),
                          n_jobs=args.jobs, root_seed=args.seed,
                          store=store)
    print(format_table2(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.generator import TABLE2_CONFIGS
    from .experiments.runner import run_family

    if not 0 <= args.family < len(TABLE2_CONFIGS):
        print(f"error: --family must be in [0, {len(TABLE2_CONFIGS)})",
              file=sys.stderr)
        return 1
    config = TABLE2_CONFIGS[args.family]
    with _open_store(args.store) as store:
        records = run_family(
            config, args.model, count=args.count, root_seed=args.seed,
            n_jobs=args.jobs, store=store,
        )
    no_crit = [r for r in records if not r.critical]
    payload = {
        "family": config.name,
        "model": args.model,
        "experiments": len(records),
        "no_critical": len(no_crit),
        "max_gap": max((r.gap for r in no_crit), default=0.0),
        "records": [dataclasses.asdict(r) for r in records],
    }
    if not _machine_stdout(args, payload):
        print(f"family         : {config.name}")
        print(f"model          : {args.model}")
        print(f"experiments    : {len(records)}")
        print(f"no critical    : {len(no_crit)}")
        if no_crit:
            print(f"max gap        : "
                  f"{100 * max(r.gap for r in no_crit):.2f}%")
    if args.csv:
        from .experiments.io import records_to_csv

        records_to_csv(records, args.csv)
        _notice(args, f"wrote {args.csv}")
    return 0


def _write_machine_json(path: str, payload: dict) -> None:
    """Canonical JSON to a file, or stdout when ``path`` is ``-``."""
    from .experiments.io import canonical_json, write_canonical_json

    if path == "-":
        sys.stdout.write(canonical_json(payload, indent=2) + "\n")
    else:
        write_canonical_json(payload, path)
        print(f"wrote {path}")


def _machine_stdout(args: argparse.Namespace, payload: object) -> bool:
    """Honor the unified ``--format`` flag; ``True`` when JSON was emitted.

    Subcommands call this before their human rendering: under
    ``--format json`` the payload goes to stdout as canonical JSON
    (:func:`repro.experiments.io.format_payload`, the shared writer)
    and the caller skips its text output.  The historical ``--json`` /
    ``--summary-json`` *file* flags keep working as aliases alongside.
    """
    if getattr(args, "format", "text") != "json":
        return False
    from .experiments.io import format_payload

    sys.stdout.write(format_payload(payload, "json"))
    return True


def _notice(args: argparse.Namespace, message: str) -> None:
    """An informational line ("wrote PATH") that must never corrupt
    machine output: stderr under ``--format json``, stdout otherwise."""
    stream = (sys.stderr if getattr(args, "format", "text") == "json"
              else sys.stdout)
    print(message, file=stream)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignSpec,
        ResultStore,
        campaign_status,
        export_campaign_csv,
        export_campaign_json,
        run_campaign,
    )

    spec = CampaignSpec.from_file(args.spec)
    with ResultStore(args.store) as store:
        if args.action == "run":
            def show(done: int, total: int) -> None:
                print(f"  ... {done}/{total} new points evaluated",
                      file=sys.stderr)

            report = run_campaign(
                spec, store,
                n_jobs=args.workers,
                max_points=args.max_points,
                progress=show if args.verbose else None,
                trace_dir=args.trace,
            )
            workers = (f", {report.workers} fabric workers"
                       if report.workers > 1 else "")
            if not _machine_stdout(args, report.to_dict()):
                print(f"campaign       : {report.spec_name}")
                print(f"points         : {report.total}")
                print(f"store hits     : {report.hits} "
                      f"(resumed, not recomputed)")
                print(f"evaluated      : {report.evaluated} "
                      f"({report.groups} topology groups{workers})")
                print(f"remaining      : {report.remaining}"
                      + ("" if report.complete else "  (rerun to continue)"))
            if args.summary_json:
                # Machine-readable twin of the summary above: CI asserts
                # on parsed fields, immune to human-format reflowing.
                _write_machine_json(args.summary_json, report.to_dict())
        elif args.action == "report":
            from .campaign.report import campaign_report_data, render_report_text

            counters = None
            if args.trace:
                # Join the report with a traced run's deterministic
                # counters (engine cache / lockstep / fallback figures).
                from .telemetry import merge_traces, trace_files

                files = trace_files(args.trace)
                if not files:
                    print(f"error: no trace-*.jsonl files in {args.trace}",
                          file=sys.stderr)
                    return 1
                counters = merge_traces(files)["counters"]
            data = campaign_report_data(
                spec, store, allow_partial=args.allow_partial,
                counters=counters)
            if args.json_out:
                _write_machine_json(args.json_out, data)
            elif not _machine_stdout(args, data):
                print(render_report_text(data))
        elif args.action == "status":
            status = campaign_status(spec, store)
            if args.json_out:
                _write_machine_json(args.json_out, status)
            elif not _machine_stdout(args, status):
                print(f"campaign       : {status['campaign']}")
                print(f"done           : {status['done']} / {status['total']}")
                for cell in status["cells"]:
                    print(f"  {cell['application']} | {cell['platform']} | "
                          f"{cell['replication']} | {cell['model']:<7} : "
                          f"{cell['done']}/{cell['total']}")
                for cell in status["skipped"]:
                    print(f"  skipped {cell['application']} | "
                          f"{cell['platform']} | {cell['replication']} : "
                          f"{cell['reason']}")
        # run/export both honor --json/--csv; status has no artifacts.
        if args.action in ("run", "export"):
            # A truncated run (--max-points) exporting right away is
            # explicit enough; standalone export is strict by default.
            partial = (True if args.action == "run"
                       else getattr(args, "allow_partial", False))
            if args.json_out:
                export_campaign_json(spec, store, args.json_out,
                                     allow_partial=partial)
                _notice(args, f"wrote {args.json_out}")
            if args.csv:
                export_campaign_csv(spec, store, args.csv,
                                    allow_partial=partial)
                _notice(args, f"wrote {args.csv}")
            if args.action == "export" and not (args.json_out or args.csv):
                print("error: export needs --json and/or --csv",
                      file=sys.stderr)
                return 1
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import (
        attribution,
        chrome_trace,
        merge_traces,
        render_summary,
        trace_files,
    )

    paths: list[Path] = []
    for target in args.traces:
        p = Path(target)
        if p.is_dir():
            paths.extend(trace_files(p))
        else:
            paths.append(p)
    if not paths:
        print("error: no trace-*.jsonl files found", file=sys.stderr)
        return 1
    merged = merge_traces(paths)
    if args.chrome:
        _write_machine_json(args.chrome, chrome_trace(merged))
    if args.json_out:
        _write_machine_json(
            args.json_out, {**merged, "attribution": attribution(merged)})
    if not (args.chrome or args.json_out):
        payload = {**merged, "attribution": attribution(merged)}
        if not _machine_stdout(args, payload):
            print(render_summary(merged))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, merge_stores, pull, push
    from .faults import heal

    with ResultStore(args.store) as store:
        if args.action == "push":
            report = push(store, args.target, strict=args.strict)
        elif args.action == "pull":
            report = pull(store, args.target, strict=args.strict)
        elif args.action == "heal":
            # Replay a worker's spill journal (idempotent: rerunning a
            # finished or interrupted heal is always safe).
            report = heal(store, args.target, strict=args.strict)
        else:  # merge: another store *file* into this one
            with ResultStore(args.target) as other:
                report = merge_stores(store, other, strict=args.strict)
    if not _machine_stdout(args, report.to_dict()):
        print(f"sync           : {report.source} -> {report.dest}")
        print(f"examined       : {report.examined}")
        print(f"merged         : {report.merged}"
              + (f"  (+{report.repaired} repaired)" if report.repaired
                 else ""))
        print(f"skipped        : {report.skipped} "
              f"(already present, equal bytes)")
        if not report.clean:
            print(f"conflicts      : {len(report.conflicts)} (destination "
                  f"rows kept; incoming copies quarantined)")
            print(f"quarantined    : {len(report.quarantined)} payload(s) "
                  f"refused — inspect the destination's quarantine area")
    if args.json_out:
        _write_machine_json(args.json_out, report.to_dict())
    return 0 if report.clean else 1


def _cmd_example(args: argparse.Namespace) -> int:
    inst = _paper_example(args.which)
    text = inst.to_json()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the test-suite)."""
    parser = argparse.ArgumentParser(
        prog="repro-workflow",
        description="Throughput of replicated workflows on heterogeneous "
                    "platforms (Benoit, Gallet, Gaujal, Robert — ICPP 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance",
                       help="instance JSON path, or a/b/c for paper examples")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="overlap",
                       choices=["overlap", "strict"],
                       help="communication model (default overlap)")
        p.add_argument("--max-rows", type=int, default=20_000,
                       help="budget on lcm(m_i) for full-TPN methods")

    def add_format(p: argparse.ArgumentParser) -> None:
        # The one machine-output convention: every subcommand that can
        # speak to machines takes --format {text,json}; the historical
        # --json PATH / --summary-json PATH flags stay as file-writing
        # compatibility aliases.
        p.add_argument("--format", choices=["text", "json"], default="text",
                       help="stdout format: human text (default) or "
                            "canonical JSON (byte-deterministic, shared "
                            "across all subcommands)")

    p = sub.add_parser("period", help="compute the exact period")
    add_instance(p)
    add_model(p)
    p.add_argument("--method", default="auto",
                   choices=["auto", "polynomial", "tpn", "simulation"])
    p.add_argument("--breakdown", action="store_true",
                   help="print per-column contributions (polynomial method)")
    p.add_argument("--critical-cycle", action="store_true",
                   help="print the critical cycle (tpn method)")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("paths", help="round-robin path table (Table 1)")
    add_instance(p)
    p.add_argument("--count", type=int, default=None,
                   help="number of data sets to list (default m + 2)")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("cycle", help="resource cycle-times and M_ct")
    add_instance(p)
    add_model(p)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("latency", help="per-data-set latency analysis")
    add_instance(p)
    add_model(p)
    p.add_argument("--datasets", type=int, default=60,
                   help="number of data sets to measure")
    p.add_argument("--inject", type=float, default=None,
                   help="injection period T (default: saturated input)")
    p.add_argument("--per-dataset", action="store_true",
                   help="print every data set's latency")
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("search", help="mapping optimization heuristics")
    add_instance(p)
    add_model(p)
    p.add_argument("--refine", action="store_true",
                   help="run local search after the greedy phase")
    p.add_argument("--iters", type=int, default=60,
                   help="local-search iteration budget")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "optimize",
        help="multi-start portfolio mapping optimization (repro.search)")
    add_instance(p)
    add_model(p)
    p.add_argument("--restarts", type=int, default=6,
                   help="diversified restarts (greedy/random/perturbed-elite)")
    p.add_argument("--budget", type=int, default=1500,
                   help="total period-oracle evaluations across all restarts")
    p.add_argument("--iters", type=int, default=100,
                   help="hill-climbing iteration cap per restart")
    p.add_argument("--seed", type=int, default=20090302,
                   help="root entropy of the restart seed tree")
    p.add_argument("--jobs", type=int, default=1,
                   help="deprecated and ignored; removed in 4.0")
    p.add_argument("--objectives", default=None,
                   help="comma-separated criteria out of period, latency, "
                        "reliability — switches to the Pareto-archive "
                        "portfolio (repro.search.pareto) and reports the "
                        "non-dominated front")
    p.add_argument("--allocator", default=None,
                   choices=["fair-share", "racing", "epsilon-constraint",
                            "weighted-sum"],
                   help="budget allocation across restarts: even splits "
                        "(fair-share, the period-only default) or "
                        "successive halving over resumable climbs (racing); "
                        "with --objectives, the scalarization strategy "
                        "(epsilon-constraint, the multi-criteria default, "
                        "or weighted-sum)")
    add_format(p)
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the full result (restart traces, or the "
                        "Pareto archive with --objectives) as JSON")
    p.add_argument("--csv", default=None,
                   help="write the per-restart summary as CSV "
                        "(period-only portfolios)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("gantt", help="ASCII Gantt chart (Figures 7/12)")
    add_instance(p)
    add_model(p)
    p.add_argument("--firings", type=int, default=64,
                   help="simulated firings per transition")
    p.add_argument("--periods", type=float, default=2.0,
                   help="window length in TPN periods")
    p.add_argument("--start", type=float, default=None,
                   help="window start time (default: end of simulation)")
    p.add_argument("--width", type=int, default=120, help="chart width")
    p.add_argument("--svg", default=None,
                   help="also write an SVG rendering to this path")
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("certify",
                       help="compute the period with an optimality proof")
    add_instance(p)
    add_model(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("dot", help="export the TPN to graphviz DOT")
    add_instance(p)
    add_model(p)
    p.add_argument("--critical-cycle", action="store_true",
                   help="highlight the critical cycle (Figure 8)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("table2", help="run the Table 2 campaign")
    p.add_argument("--scale", type=float, default=0.1,
                   help="fraction of the paper's per-row counts (default 0.1; "
                        "1.0 = full 5152 experiments)")
    p.add_argument("--models", nargs="+", default=["overlap", "strict"],
                   choices=["overlap", "strict"])
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = all cores, 1 = serial)")
    p.add_argument("--seed", type=int, default=20090302)
    p.add_argument("--store", default=None,
                   help="content-addressed result store (SQLite path); "
                        "already-stored points are reused, new ones saved")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser(
        "sweep",
        help="run one experiment family through the batch engine")
    p.add_argument("--family", type=int, default=0,
                   help="index into the Table 2 families (0-5)")
    p.add_argument("--model", default="overlap",
                   choices=["overlap", "strict"])
    p.add_argument("--count", type=int, default=None,
                   help="number of experiments (default: the family's "
                        "paper count)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = all cores, 1 = serial)")
    p.add_argument("--seed", type=int, default=20090302)
    p.add_argument("--csv", default=None,
                   help="also write the records to this CSV path")
    p.add_argument("--store", default=None,
                   help="content-addressed result store (SQLite path); "
                        "already-stored points are reused, new ones saved")
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="durable, resumable scenario campaigns (repro.campaign)")
    p.add_argument("action", choices=["run", "status", "export", "report"],
                   help="run (resumable), inspect progress, export stored "
                        "results, or aggregate them (per-axis pivots + "
                        "cross-model deltas)")
    p.add_argument("spec", help="campaign spec file (.json or .toml)")
    p.add_argument("--store", required=True,
                   help="content-addressed result store (SQLite path)")
    p.add_argument("--workers", "--jobs", dest="workers", type=int,
                   default=1,
                   help="run: 1 drains in this process; N > 1 runs N "
                        "independent fabric worker processes coordinated "
                        "through the store's claim/lease table (the "
                        "multi-host execution model on one machine); 0 = "
                        "one per core.  Stored values and exports are "
                        "byte-identical for any N")
    p.add_argument("--max-points", type=int, default=None,
                   help="evaluate at most this many new points then stop "
                        "(deterministic interruption; rerun to resume)")
    p.add_argument("--verbose", action="store_true",
                   help="print progress while running")
    add_format(p)
    p.add_argument("--json", dest="json_out", default=None,
                   help="run/export: write the joined results as "
                        "deterministic JSON; report: write the aggregated "
                        "report; status: write the progress summary as "
                        "canonical JSON ('-' for stdout)")
    p.add_argument("--summary-json", dest="summary_json", default=None,
                   help="run: write the run summary (points/hits/evaluated/"
                        "remaining) as canonical JSON ('-' for stdout)")
    p.add_argument("--csv", default=None,
                   help="write the joined results as deterministic CSV")
    p.add_argument("--allow-partial", action="store_true",
                   help="export even when some points are missing")
    p.add_argument("--trace", default=None,
                   help="run: enable telemetry and write per-process "
                        "trace-*.jsonl files (deterministic counters + "
                        "wall-clock spans) into this directory; report: "
                        "merge that directory's traces and add an engine "
                        "telemetry section")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "store",
        help="sync content-addressed stores (repro.campaign.sync) and "
             "heal spill journals (repro.faults)")
    p.add_argument("action", choices=["push", "pull", "merge", "heal"],
                   help="push local rows to a remote, pull remote rows in, "
                        "merge another store file into this one, or heal "
                        "(replay a fabric worker's spill journal)")
    p.add_argument("store",
                   help="the local store file (push source / pull+merge+"
                        "heal destination)")
    p.add_argument("target",
                   help="the other side: a store file, a directory "
                        "remote (existing directory or a path ending in "
                        "'/'; rsync/NFS-able object tree), or for heal "
                        "the spill-journal directory")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on payload conflicts instead of "
                        "quarantining and reporting them")
    add_format(p)
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the sync report as canonical JSON "
                        "('-' for stdout)")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "telemetry",
        help="merge and report instrumentation traces (repro.telemetry)")
    p.add_argument("action", choices=["report"],
                   help="report: merge trace files and print the counter "
                        "and span-attribution summary")
    p.add_argument("traces", nargs="+",
                   help="trace-*.jsonl files and/or directories containing "
                        "them (e.g. the campaign run's --trace directory)")
    add_format(p)
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the merged trace plus its span attribution "
                        "as canonical JSON ('-' for stdout)")
    p.add_argument("--chrome", default=None,
                   help="write Chrome trace-event JSON for chrome://tracing "
                        "or https://ui.perfetto.dev ('-' for stdout)")
    p.set_defaults(func=_cmd_telemetry)

    p = sub.add_parser("example", help="dump a paper example as JSON")
    p.add_argument("which", choices=["a", "b", "c", "A", "B", "C"])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (returns a process exit code).

    Human-readable output is printed in the locale's encoding with
    backslash escapes for what it cannot encode, so a non-ASCII spec
    label prints as ``l\\xf3cale`` under ``LC_ALL=C`` instead of failing
    the command (machine output is ASCII-escaped JSON already).  The
    streams' own error handlers are restored on return.
    """
    streams = [(stream, stream.errors) for stream in (sys.stdout, sys.stderr)
               if isinstance(stream, io.TextIOWrapper)]
    for stream, _ in streams:
        stream.reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except Exception as exc:  # surfaced as clean CLI errors
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        for stream, errors in streams:
            stream.reconfigure(errors=errors)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
