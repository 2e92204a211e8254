"""Command-line front end: evaluate, improve, re-evaluate, compare.

Subcommands
    simulate    ideal-conditions campaign -> sample set + fit artifacts
    crawl       build and save the target's site model
    evaluate    live evaluation rounds against an HTTP target
    psp         quality-metric trend report from program records
    fit         fit an existing sample file
    compare     compare two fitted phases, emit overlay curve data
    mock-serve  start the bundled mock target

Every documented error class exits with a fixed code (see EXIT_CODES); 0
means success, 1 is reserved for unexpected failures, 2 for bad usage,
bad config files or an input file that cannot be read.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import errors
from .project import Analysis, EiProject, check_label
from .stats import compare_models, weibull_pdf
from .stats.serialize import (
    comparison_to_dict,
    csv_text,
    dump_json,
    load_samples_csv,
    load_samples_text,
    read_json,
)

EXIT_CODES: dict[type, int] = {
    errors.UnreadableInput: 2,
    errors.EmptySample: 3,
    errors.NonIdentifiable: 4,
    errors.NoConvergence: 5,
    errors.Unreachable: 6,
    errors.TargetDown: 6,
    errors.AuthFailed: 6,
    errors.MissingPhase: 7,
    errors.RecordParseError: 8,
    errors.AllDiscarded: 9,
    errors.InsufficientData: 10,
    errors.LockHeld: 11,
    errors.InvariantBreach: 12,
    errors.EmptyModel: 13,
}

COMPARE_CURVE_POINTS = 512


# --- config files -------------------------------------------------------------
# A config dataclass declares its keys: each field annotated float, int or str
# is one key, parsed by that type and checked by the class on construction.
# The key is the field's name, or the "key" in its metadata when the file
# spells it otherwise.  An absent key leaves its field at the default.

# an annotation is a string under `from __future__ import annotations`
_PARSERS = {t: t for t in (float, int, str)} | {t.__name__: t for t in (float, int, str)}


def config_keys(config_class) -> dict:
    """Config-file key -> (field, parser) for each keyed field of a config class."""
    return {
        f.metadata.get("key", f.name): (f.name, _PARSERS[f.type])
        for f in fields(config_class)
        if f.type in _PARSERS
    }


def _read_input(path, read, *args):
    """read(path, *args) on a file the user named.  An OSError while reading
    it, or text that is not UTF-8, becomes UnreadableInput (exit 2); an
    OSError while writing artifacts is not caught here and stays an
    unexpected failure."""
    try:
        return read(path, *args)
    except OSError as exc:
        raise errors.UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise errors.UnreadableInput(f"cannot read {path}: {exc}") from None


def _parse_kv(path: str | Path) -> dict[str, str]:
    """'key = value' lines, one pair per line, # comments."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _read_config(args, *config_classes) -> list[dict]:
    """Parse --config against the keys of the config classes; one dict of
    keyword arguments per class.  A key no class declares is an error."""
    pairs = _read_input(args.config, _parse_kv) if args.config else {}
    kwargs = []
    for config_class in config_classes:
        found = {}
        for key, (name, parse) in config_keys(config_class).items():
            if key not in pairs:
                continue
            raw = pairs.pop(key)
            try:
                found[name] = parse(raw)
            except (TypeError, ValueError):
                raise ValueError(f"config key {key!r}: cannot parse {raw!r}") from None
        kwargs.append(found)
    if pairs:
        raise ValueError(f"unknown config keys {sorted(pairs)}")
    return kwargs


def _section(obj) -> dict:
    """The fields the config keys of obj set, as recorded in config.json."""
    return {name: getattr(obj, name) for name, _ in config_keys(type(obj)).values()}


def _report_fit(result) -> None:
    fit = result.fit
    print(
        f"retained {result.samples.n} values "
        f"({len(result.samples.discarded)} discarded); "
        f"shape {fit.model.shape:.4f} scale {fit.model.scale:.4f} "
        f"via {fit.method} in {fit.iterations} iterations"
    )
    if fit.gof is not None:
        print(
            f"goodness of fit ({fit.gof.method}): statistic {fit.gof.statistic:.3f} "
            f"threshold {fit.gof.threshold:.3f} -> "
            f"{'accepted' if fit.gof.passed else 'REJECTED'}"
        )


# --- subcommands ------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .simulator import SimConfig, run_campaign, write_trace_csv

    project = EiProject(args.project_dir)
    sim_kw, analysis_kw = _read_config(args, SimConfig, Analysis)
    if args.seed is not None:
        sim_kw["seed"] = args.seed
    cfg = SimConfig(**sim_kw)
    analysis = Analysis(**analysis_kw)
    with project.lock():
        samples = run_campaign(cfg, source_label=args.label)
        config_doc = {
            "command": "simulate",
            "label": args.label,
            "sim": _section(cfg),
            "analysis": _section(analysis),
        }
        result = project.persist_phase(args.label, samples, config_doc, analysis)
        if args.trace:
            write_trace_csv(cfg, 0, project.phase_dir(args.label) / "trace-run0.csv")
    _report_fit(result)
    print(f"artifacts under {project.phase_dir(args.label)}")
    return 0


def _auth_from_profiles(profiles) -> dict:
    return {view: profile.credentials for view, profile in profiles.items()}


def cmd_crawl(args) -> int:
    from .harness import CrawlLimits, crawl_site, default_profiles

    limits = CrawlLimits(**_read_config(args, CrawlLimits)[0])
    profiles = default_profiles()
    out = Path(args.out) if args.out else Path(args.project_dir) / "models" / "site_model.json"
    try:  # before the first request, so a crawl never runs to be thrown away
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands where the directory or a parent of it should be
        raise errors.UnreadableInput(f"cannot create directory {out.parent}: "
                                     f"{exc.strerror}") from None
    model = crawl_site(args.target, _auth_from_profiles(profiles), limits)
    dump_json(model.to_dict(), out)
    print(f"{len(model.nodes)} nodes, {len(model.edges)} edges -> {out}")
    if model.truncated:
        print("note: crawl limits were hit; the model is truncated")
    return 0


def cmd_evaluate(args) -> int:
    from .harness import CampaignConfig, CrawlLimits, HarnessConfig, SiteModel, crawl_site
    from .harness import run_campaign as run_live_campaign

    project = EiProject(args.project_dir)
    campaign_kw, harness_kw, crawl_kw, analysis_kw = _read_config(
        args, CampaignConfig, HarnessConfig, CrawlLimits, Analysis
    )
    if args.seed is not None:
        campaign_kw["seed"] = args.seed
    campaign = CampaignConfig(**campaign_kw, harness=HarnessConfig(**harness_kw))
    limits = CrawlLimits(**crawl_kw)
    analysis = Analysis(**analysis_kw)

    with project.lock():
        if args.model:
            model = SiteModel.from_dict(_read_input(args.model, read_json))
        else:
            model = crawl_site(args.target, _auth_from_profiles(campaign.profiles), limits)
        phase_dir = project.phase_dir(args.label)
        dump_json(model.to_dict(), phase_dir / "model.json")
        samples = run_live_campaign(
            args.target, model, campaign, phase_dir / "logs", source_label=args.label
        )
        config_doc = {
            "command": "evaluate",
            "label": args.label,
            "target": args.target,
            "campaign": {**_section(campaign), **_section(campaign.harness)},
            "analysis": _section(analysis),
        }
        if args.model:
            config_doc["model"] = str(args.model)
        else:
            config_doc["crawl"] = _section(limits)
        result = project.persist_phase(args.label, samples, config_doc, analysis)
    _report_fit(result)
    print(f"artifacts under {project.phase_dir(args.label)}")
    return 0


def cmd_psp(args) -> int:
    from .psp import load_records, trend_report, trend_series_csv

    project = EiProject(args.project_dir)
    with project.lock():
        records = _read_input(args.records, load_records)
        report = trend_report(records)
        directory = project.psp_dir(args.label)
        doc = {"command": "psp", "label": args.label, "records": Path(args.records).name}
        doc.update(report.to_dict())
        dump_json(doc, directory / "trend.json")
        for metric in report.series:
            (directory / f"{metric}.csv").write_text(trend_series_csv(report, metric))
    slopes = ", ".join(
        f"{name} {slope:+.4g}" if slope is not None else f"{name} n/a"
        for name, slope in sorted(report.slopes.items())
    )
    print(f"{len(records)} programs; slopes: {slopes}")
    print(f"artifacts under {project.psp_dir(args.label)}")
    return 0


def cmd_fit(args) -> int:
    project = EiProject(args.project_dir)
    analysis = Analysis(**_read_config(args, Analysis)[0])
    if args.column:
        samples = _read_input(args.samples, load_samples_csv, args.column, args.label)
    else:
        samples = _read_input(args.samples, load_samples_text, args.label)
    with project.lock():
        config_doc = {
            "command": "fit",
            "label": args.label,
            "samples": str(args.samples),
            "column": args.column,
            "analysis": _section(analysis),
        }
        result = project.persist_phase(args.label, samples, config_doc, analysis)
    _report_fit(result)
    return 0


def _curves_csv(model_a, model_b) -> str:
    # grid spans to the 99.9th percentile of the wider model
    hi = max(
        m.scale * math.log(1000.0) ** (1.0 / m.shape) for m in (model_a, model_b)
    )
    step = hi / (COMPARE_CURVE_POINTS - 1)
    xs = (i * step for i in range(COMPARE_CURVE_POINTS))
    return csv_text(["x", "pdf_a", "pdf_b"], (
        [f"{x:.6g}", f"{weibull_pdf(model_a, x):.6g}", f"{weibull_pdf(model_b, x):.6g}"]
        for x in xs
    ))


def cmd_compare(args) -> int:
    project = EiProject(args.project_dir)
    with project.lock():
        model_a = project.load_fit(args.label_a)
        model_b = project.load_fit(args.label_b)
        report = compare_models(model_a, model_b)
        # two finite means can still divide to inf or 0.0, and inf is no JSON
        if not 0.0 < report.mean_ratio < math.inf:
            raise errors.MissingPhase(
                f"phases {args.label_a!r} and {args.label_b!r} have no finite, nonzero "
                f"ratio of means ({report.mean_a:g} / {report.mean_b:g})"
            )
        directory = project.compare_dir(args.label_a, args.label_b)
        doc = comparison_to_dict(report, args.label_a, args.label_b)
        dump_json(doc, directory / "report.json")
        (directory / "curves.csv").write_text(_curves_csv(model_a, model_b))
    print(
        f"{args.label_a}: mean {report.mean_a:.4f}  {args.label_b}: mean {report.mean_b:.4f}  "
        f"ratio {report.mean_ratio:.4f}  verdict: {report.verdict} ({doc['improvement']})"
    )
    print(f"artifacts under {directory}")
    return 0


def cmd_mock_serve(args) -> int:
    import signal

    from .harness import MockTarget, load_fault_table

    faults = _read_input(args.faults, load_fault_table) if args.faults else None
    target = MockTarget(faults, port=args.port)
    # a background job of a non-interactive shell starts with SIGINT ignored,
    # and SIGTERM would end the process without stop(): route both through
    # KeyboardInterrupt so either one stops the target and exits 0
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    # the try starts first, so a signal sent as soon as the URL is read,
    # even before print returns, still stops the target
    try:
        target.start()
        # flush so piped callers (tests, scripts) see the URL immediately
        print(f"mock target serving on {target.base_url} (Ctrl-C to stop)", flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        target.stop()
    return 0


# --- argument parsing -------------------------------------------------------


def phase_label(text: str) -> str:
    """project.check_label's rule, as a usage error."""
    try:
        return check_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def port_number(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"{text!r} is not a port number in 0-65535")
    return port


# the only commands that draw random numbers; the rest reject --seed
SEEDED_COMMANDS = (cmd_simulate, cmd_evaluate)


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps subparser defaults from clobbering values parsed early
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--project-dir", default=argparse.SUPPRESS, help="artifact store root")
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="override the config seed (simulate and evaluate only)",
    )
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")

    parser = argparse.ArgumentParser(
        prog="webrely",
        description="Reliability evaluation and improvement toolkit for web applications",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="ideal-conditions evaluation", parents=[common])
    p.add_argument("--label", type=phase_label, default="ideal")
    p.add_argument("--trace", action="store_true", help="save an event trace of run 0")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("crawl", help="build the target site model", parents=[common])
    p.add_argument("--target", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser(
        "evaluate", help="live evaluation against an HTTP target", parents=[common]
    )
    p.add_argument("--target", required=True)
    p.add_argument("--label", type=phase_label, default="real")
    p.add_argument("--model", default=None, help="reuse a saved site model")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "psp", help="quality-metric trends from program records", parents=[common]
    )
    p.add_argument("--records", required=True)
    p.add_argument("--label", type=phase_label, default="psp")
    p.set_defaults(func=cmd_psp)

    p = sub.add_parser("fit", help="fit an existing sample file", parents=[common])
    p.add_argument("--samples", required=True)
    p.add_argument("--label", type=phase_label, required=True)
    p.add_argument("--column", default=None, help="read this CSV column instead of plain text")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="compare two fitted phases", parents=[common])
    p.add_argument("label_a", type=phase_label)
    p.add_argument("label_b", type=phase_label)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mock-serve", help="serve the bundled mock target", parents=[common])
    p.add_argument("--port", type=port_number, default=8008)
    p.add_argument("--faults", default=None, help="JSON fault table file")
    p.set_defaults(func=cmd_mock_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.project_dir = getattr(args, "project_dir", ".")
    args.seed = getattr(args, "seed", None)
    args.config = getattr(args, "config", None)
    if args.seed is not None and args.func not in SEEDED_COMMANDS:
        print(f"usage error: --seed applies to simulate and evaluate, not {args.command}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except errors.WebrelyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
