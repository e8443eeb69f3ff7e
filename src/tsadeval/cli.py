"""Command-line interface.

Commands:

* evaluate      score a prediction or score file against labels
* attack        random-flag stress test against real or synthetic labels
* attack-cdf    analytic distribution of adjusted F1 for a random flagger
* attack-worst  analytic worst-case curves as the alarm budget grows
* far-study     expected F1 over a false-alarm-rate grid and class balances
* synth         generate a labelled synthetic frame (optionally train/test)
* baseline      fit, score and evaluate the PCA baseline
* check-labels  compare point labels against an exported event list

evaluate and baseline share one scoring step: protocols.evaluate counts
the output once, at the --threshold-policy threshold for scores, and its
reports become report.csv, the results and the printed table. So baseline
reports exactly what evaluate --scores reports on its scores.csv.

Every command computes a `Report` and writes nothing. One function then
checks every destination: each must sit in an existing directory or
directly in --out (default ".", overridable via the TSADEVAL_OUT
environment variable), and must be neither a directory, an input nor
another output. Only then does it create --out, write the command's
files and its record, and print its lines. The record, `report.json` in
--out, holds the results and a run manifest: command line, resolved
configuration, seeds, SHA-256 digests of the input files, package version
and a timestamp. synth has no --out; its record, `<out-file>.manifest.json`,
holds the SHA-256 of every file it wrote in place of results. With a fixed
seed all outputs are byte-identical across runs except the manifest
timestamp, which can be pinned via TSADEVAL_TIMESTAMP. Exit status is 0
only if every output was fully written; input, usage and destination
errors exit with status 2 and write nothing.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tsadeval import __version__
from tsadeval.adversary import (
    AttackSetup,
    SamplingModel,
    WorstCaseRow,
    f1_pa_distribution,
    prob_perfect_recall,
    random_flag_trials,
    single_segment_labels,
    worst_case_f1_pa,
    worst_case_precision_pa,
    worst_case_table,
)
from tsadeval.data_io import (
    atomic_open,
    atomic_write_text,
    check_label_consistency,
    generate_synthetic,
    generate_train_test,
    labels_from_events,
    load_events,
    load_frame,
    load_label_series,
    load_prediction_series,
    load_score_series,
    load_synthetic_spec,
    sha256_digest,
    write_csv,
    write_events,
    write_frame,
)
from tsadeval.metric_study import DatasetShape, default_far_grid, f1_far_table
from tsadeval.metrics import LabelSeries, _check_range
from tsadeval.pca_baseline import (
    AnomalyScoreSeries,
    PcaConfig,
    fit,
    score_frame,
)
# predictions_at_threshold and sweep_threshold go unused here;
# perfbench/tracer.py binds both
from tsadeval.protocols import (
    DEPRECATED_PROTOCOLS,
    Protocol,
    ProtocolReport,
    evaluate,
    predictions_at_threshold,
    sweep_threshold,
)

__all__ = ["main"]

REPORT_CSV_FIELDS = [f.name for f in fields(ProtocolReport)] + [
    "deprecated_protocol"
]
DISTRIBUTION_CSV_FIELDS = ["s", "f1_value", "probability", "cumulative"]


# ---------------------------------------------------------------------------
# manifest and report plumbing


@dataclass
class Report:
    """What one command computed, before anything is written.

    files lists (path, writer) pairs in the order they are written; each
    writer is called with its path. The record, report.json in --out unless
    given, holds the manifest and the results, or with no results the
    SHA-256 of each file by its path as given. lines are printed to stdout
    after every file is written.
    """

    config: dict
    results: Optional[dict]
    lines: list
    seeds: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    files: list = field(default_factory=list)
    record: Optional[str] = None


def _timestamp() -> str:
    pinned = os.environ.get("TSADEVAL_TIMESTAMP")
    if pinned:
        return pinned
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest(command: str, config: dict, seeds: list, inputs: Sequence) -> dict:
    return {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "seeds": [int(s) for s in seeds],
        "inputs": {str(p): sha256_digest(p) for p in inputs},
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _write_json(path: Path, manifest: dict, key: str, value: dict) -> None:
    payload = {"manifest": manifest, key: value}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def _write_outputs(args: argparse.Namespace) -> int:
    """Run a command, check every destination, then create --out, write the
    command's files and its record, and print its lines. The first check
    that fails raises, naming the path as given, before anything is written."""
    report = args.compute(args)
    manifest = _manifest(args.command, report.config, report.seeds, report.inputs)
    out = getattr(args, "out", None)  # synth has no --out
    record = report.record or Path(out) / "report.json"
    inputs = {Path(p).resolve() for p in report.inputs}
    seen = set()
    for path in [p for p, _ in report.files] + [record]:
        resolved = Path(path).resolve()
        in_out = out is not None and resolved.parent == Path(out).resolve()
        if not (Path(path).parent.is_dir() or in_out):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        if resolved.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if resolved in inputs:
            raise ValueError(f"{path}: an output at an input's path")
        if resolved in seen:
            raise ValueError(f"{path}: two outputs at one path")
        seen.add(resolved)
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    for path, write in report.files:
        write(path)
    if report.results is None:
        key, value = "outputs", {str(p): sha256_digest(p) for p, _ in report.files}
    else:
        key, value = "results", report.results
    _write_json(record, manifest, key, value)
    print(*report.lines, sep="\n")
    return 0


def _table(args: argparse.Namespace, name: str, fieldnames: list, rows) -> tuple:
    """A CSV file in --out, as one entry of Report.files."""
    return Path(args.out) / name, lambda path: write_csv(path, fieldnames, rows)


def _report_row(report: ProtocolReport) -> dict:
    return {
        **asdict(report),
        "protocol": report.protocol.value,
        "deprecated_protocol": report.deprecated,
    }


def _row_lines(rows: Sequence[dict]) -> list:
    header = f"{'protocol':<14} {'precision':>10} {'recall':>10} {'f1':>10} {'far':>10}"
    return [header, "-" * len(header)] + [
        f"{row['protocol']:<14} {row['precision']:>10.6f} "
        f"{row['recall']:>10.6f} {row['f1']:>10.6f} {row['far']:>10.6f}"
        + ("  (deprecated)" if row["deprecated_protocol"] else "")
        for row in rows
    ]


# ---------------------------------------------------------------------------
# shared argument handling


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        default=os.environ.get("TSADEVAL_OUT", "."),
        help="output directory (default: TSADEVAL_OUT or current directory)",
    )


def _parse_protocols(text: str) -> tuple:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no protocols given")
    valid = ", ".join(p.value for p in Protocol)
    protocols = []
    for name in names:
        try:
            protocol = Protocol(name)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown protocol {name!r}; valid: {valid}"
            ) from None
        if protocol in protocols:
            raise argparse.ArgumentTypeError(f"protocol {name!r} given twice")
        protocols.append(protocol)
    return tuple(protocols)


def _add_protocols(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocols",
        type=_parse_protocols,
        default=tuple(Protocol),
        help="comma-separated protocol list (default: all four)",
    )


def _parse_threshold_policy(text: str):
    """"best-pw-f1", or the fixed threshold of "fixed:<value>" as a float."""
    if text == "best-pw-f1":
        return text
    if text.startswith("fixed:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            value = math.nan
        # an infinite threshold is valid (the sweep can pick +inf itself);
        # NaN flags nothing and would make report.json invalid JSON
        if math.isnan(value):
            raise argparse.ArgumentTypeError(
                f"bad fixed threshold in {text!r}"
            )
        return value
    raise argparse.ArgumentTypeError(
        f"threshold policy must be 'best-pw-f1' or 'fixed:<value>', got {text!r}"
    )


def _add_threshold_policy(parser: argparse.ArgumentParser) -> None:
    # None when not given, so that evaluate can refuse it with --predictions
    parser.add_argument(
        "--threshold-policy",
        type=_parse_threshold_policy,
        metavar="{best-pw-f1,fixed:<v>}",
        help="how to binarize scores (default: best-pw-f1)",
    )


def _json_threshold(threshold):
    """The threshold as report.json holds it: JSON has no infinity, so
    +-inf is the string "inf" or "-inf", which float() reads back."""
    if threshold is None or math.isfinite(threshold):
        return threshold
    return repr(threshold)


# ---------------------------------------------------------------------------
# evaluate


def _scored(args: argparse.Namespace, labels: LabelSeries, series) -> tuple:
    """The one scoring step of evaluate and baseline: protocols.evaluate of
    series (predictions or scores) under every --protocols entry. Returns
    the threshold (None for predictions) and a Report of the rows,
    report.csv, the printed table and the step's config."""
    policy = args.threshold_policy
    threshold, reports = evaluate(
        labels, series, None if policy == "best-pw-f1" else policy,
        args.protocols,
    )
    if threshold is not None:  # predictions take no threshold policy
        policy = f"fixed:{policy}" if isinstance(policy, float) else "best-pw-f1"
    rows = [_report_row(r) for r in reports]
    return threshold, Report(
        config={
            "protocols": [p.value for p in args.protocols],
            "threshold_policy": policy,
        },
        results={"threshold": _json_threshold(threshold), "rows": rows},
        lines=_row_lines(rows),
        files=[_table(args, "report.csv", REPORT_CSV_FIELDS, rows)],
    )


def _cmd_evaluate(args: argparse.Namespace) -> Report:
    if args.predictions and args.threshold_policy is not None:
        raise ValueError("--threshold-policy applies only to --scores")
    labels = load_label_series(args.labels)
    path = args.predictions or args.scores
    if args.predictions:
        series, kind = load_prediction_series(path), "predictions"
    else:
        series, kind = AnomalyScoreSeries(load_score_series(path)), "scores"
    if len(series) != len(labels):
        raise ValueError(
            f"{path}: {len(series)} {kind}, but {args.labels} holds "
            f"{len(labels)} labels"
        )
    _, report = _scored(args, labels, series)
    report.config["threshold"] = report.results["threshold"]
    report.inputs = [args.labels, path]
    return report


# ---------------------------------------------------------------------------
# attack


def _check_segment(args: argparse.Namespace) -> None:
    """Check the --total-points, then the --segment-length, of one
    centred segment."""
    _check_range("--total-points", args.total_points, 1)
    _check_range("--segment-length", args.segment_length, 1, args.total_points)


def _attack_labels(args: argparse.Namespace) -> tuple:
    given = [
        bool(args.labels),
        bool(args.synthetic_spec),
        args.total_points is not None or args.segment_length is not None,
    ]
    if sum(given) != 1:
        raise ValueError(
            "give exactly one of --labels, --synthetic-spec, or "
            "--total-points with --segment-length"
        )
    if args.labels:
        return load_label_series(args.labels), [args.labels]
    if args.synthetic_spec:
        from tsadeval.data_io import synthetic_labels

        spec = load_synthetic_spec(args.synthetic_spec)
        return synthetic_labels(spec), [args.synthetic_spec]
    if args.total_points is None or args.segment_length is None:
        raise ValueError("--total-points and --segment-length go together")
    _check_segment(args)
    return (
        single_segment_labels(args.total_points, args.segment_length),
        [],
    )


def _quantiles(values: np.ndarray) -> dict:
    qs = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "mean": float(values.mean()),
        "std": float(values.std()),
        "min": float(values.min()),
        "q05": float(qs[0]),
        "q25": float(qs[1]),
        "median": float(qs[2]),
        "q75": float(qs[3]),
        "q95": float(qs[4]),
        "max": float(values.max()),
    }


def _cmd_attack(args: argparse.Namespace) -> Report:
    _check_range("--trials", args.trials, 1)
    _check_range("--seed", args.seed, 0)
    labels, inputs = _attack_labels(args)
    _check_range("--alpha", args.alpha, 1, len(labels))
    setup = (
        AttackSetup(len(labels), labels.n_anomalous, args.alpha)
        if labels.n_events == 1
        else None
    )
    trials = random_flag_trials(
        labels, args.alpha, args.trials, args.seed, args.protocols
    )
    summary = {
        p.value: _quantiles(trials.f1_by_protocol[p]) for p in args.protocols
    }
    for p in args.protocols:
        summary[p.value]["deprecated_protocol"] = p in DEPRECATED_PROTOCOLS
    results: dict = {
        "labels": {
            "total_points": len(labels),
            "n_events": labels.n_events,
            "n_anomalous": labels.n_anomalous,
            "contamination_rate": labels.contamination_rate,
        },
        "f1_summary": summary,
        "empirical_prob_zero_hits": float(np.mean(trials.hits == 0)),
    }
    files = []
    if setup is not None:
        analytic = {
            "prob_perfect_recall": prob_perfect_recall(
                setup.contamination_rate, setup.alpha
            ),
            "worst_precision_pa": worst_case_precision_pa(
                setup.anomalous_length, setup.alpha
            ),
            "worst_f1_pa": worst_case_f1_pa(
                setup.anomalous_length, setup.alpha
            ),
        }
        for model in SamplingModel:
            dist = f1_pa_distribution(setup, model)
            analytic[model.value] = {
                "prob_zero": dist.prob_zero,
                "mean_f1": dist.mean_f1,
            }
        results["analytic_single_segment"] = analytic
        if Protocol.POINT_ADJUST in args.protocols:
            rows = trials.point_adjust_distribution(setup).rows()
            files.append(
                _table(args, "distribution.csv", DISTRIBUTION_CSV_FIELDS, rows)
            )
    lines = [
        f"random flagger, alpha={args.alpha}, {args.trials} trials over "
        f"{len(labels)} points / {labels.n_events} event(s)"
    ] + [
        f"  {name:<14} mean F1 {stats['mean']:.6f}  "
        f"median {stats['median']:.6f}  q95 {stats['q95']:.6f}"
        + ("  (deprecated)" if stats["deprecated_protocol"] else "")
        for name, stats in summary.items()
    ]
    return Report(
        config={
            "alpha": args.alpha,
            "trials": args.trials,
            "protocols": [p.value for p in args.protocols],
            "total_points": args.total_points,
            "segment_length": args.segment_length,
        },
        results=results,
        lines=lines,
        seeds=[args.seed],
        inputs=inputs,
        files=files,
    )


def _cmd_attack_cdf(args: argparse.Namespace) -> Report:
    _check_segment(args)
    _check_range("--alpha", args.alpha, 1, args.total_points)
    setup = AttackSetup(
        total_points=args.total_points,
        anomalous_length=args.segment_length,
        alpha=args.alpha,
    )
    dist = f1_pa_distribution(setup, SamplingModel(args.model))
    return Report(
        config={
            "total_points": args.total_points,
            "segment_length": args.segment_length,
            "alpha": args.alpha,
            "model": args.model,
        },
        results={
            "model": dist.model,
            "prob_zero": dist.prob_zero,
            "mean_f1": dist.mean_f1,
            "prob_f1_at_least_worst_case": dist.prob_f1_at_least(
                worst_case_f1_pa(setup.anomalous_length, setup.alpha)
            ),
        },
        lines=[
            f"P(F1=0) = {dist.prob_zero:.6f}, mean F1 = {dist.mean_f1:.6f} "
            f"({dist.model})"
        ],
        files=[_table(args, "distribution.csv", DISTRIBUTION_CSV_FIELDS, dist.rows())],
    )


def _cmd_attack_worst(args: argparse.Namespace) -> Report:
    _check_range("--segment-length", args.segment_length, 1)
    _check_range("--contamination", args.contamination, 0, 1)
    _check_range("--alpha-min", args.alpha_min, 1)
    _check_range("--alpha-step", args.alpha_step, 1)
    _check_range("--alpha-max", args.alpha_max, args.alpha_min)
    alphas = list(range(args.alpha_min, args.alpha_max + 1, args.alpha_step))
    rows = worst_case_table(args.segment_length, args.contamination, alphas)
    last = rows[-1]
    return Report(
        config={
            "segment_length": args.segment_length,
            "contamination": args.contamination,
            "alpha_min": args.alpha_min,
            "alpha_max": args.alpha_max,
            "alpha_step": args.alpha_step,
        },
        results={
            "n_rows": len(rows),
            "final_alpha": last.alpha,
            "final_p_perfect_recall": last.p_perfect_recall,
            "final_worst_f1_pa": last.worst_f1_pa,
        },
        lines=[
            f"{len(rows)} rows; at alpha={last.alpha}: "
            f"P(perfect recall)={last.p_perfect_recall:.6f}, "
            f"worst F1={last.worst_f1_pa:.6f}"
        ],
        files=[
            _table(
                args,
                "worst_case.csv",
                [f.name for f in fields(WorstCaseRow)],
                [asdict(r) for r in rows],
            )
        ],
    )


# ---------------------------------------------------------------------------
# far-study


def _parse_shapes(text: str) -> tuple:
    shapes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            n_normal, n_anomalous = (int(t) for t in token.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad shape {token!r}; expected n_normal:n_anomalous"
            ) from None
        # argparse would replace a ValueError by a message without its reason
        try:
            shapes.append(DatasetShape(n_normal, n_anomalous))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad shape {token!r}: {exc}")
    if not shapes:
        raise argparse.ArgumentTypeError("no shapes given")
    return tuple(shapes)


def _shape_column(shape: DatasetShape) -> str:
    return f"f1_n{shape.n_normal}_a{shape.n_anomalous}"


def _cmd_far_study(args: argparse.Namespace) -> Report:
    _check_range("--recall", args.recall, 0, 1)
    _check_range("--far-max", args.far_max, 0, 1, "(]")
    _check_range("--far-min", args.far_min, 0, args.far_max, "()")
    _check_range("--far-points", args.far_points, 2)
    grid = default_far_grid(args.far_min, args.far_max, args.far_points)
    table = f1_far_table(args.recall, grid, args.shapes)
    columns = [_shape_column(s) for s in args.shapes]
    rows = [
        {"far": far, **dict(zip(columns, table[i]))} for i, far in enumerate(grid)
    ]
    return Report(
        config={
            "recall": args.recall,
            "far_min": args.far_min,
            "far_max": args.far_max,
            "far_points": args.far_points,
            "shapes": [asdict(s) for s in args.shapes],
        },
        results={
            "n_rows": len(rows),
            "columns": columns,
            "f1_range": [float(table.min()), float(table.max())],
        },
        lines=[
            f"{len(rows)} x {len(columns)} expected-F1 grid written; "
            f"F1 spans [{table.min():.6f}, {table.max():.6f}]"
        ],
        files=[_table(args, "far_study.csv", ["far"] + columns, rows)],
    )


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> Report:
    if args.train_points is not None:
        _check_range("--train-points", args.train_points, 1)
    if (args.train_points is not None) != bool(args.train_out):
        raise ValueError("--train-points and --train-out go together")
    spec = load_synthetic_spec(args.spec)
    files = []
    if args.train_points:
        train, test = generate_train_test(spec, args.train_points)
        files.append((args.train_out, lambda path: write_frame(train, path)))
    else:
        test = generate_synthetic(spec)
    files.append((args.out_file, lambda path: write_frame(test, path)))
    if args.events_out:
        events = np.column_stack((test.labels.starts, test.labels.ends))
        files.append((args.events_out, lambda path: write_events(events, path)))
    return Report(
        config={
            "spec": asdict(spec),
            "train_points": args.train_points or 0,
        },
        results=None,
        lines=[
            f"wrote {', '.join(str(path) for path, _ in files)}; "
            f"{test.labels.n_events} events over {test.n_points} points"
        ],
        seeds=[spec.seed],
        inputs=[args.spec],
        files=files,
        record=f"{Path(args.out_file)}.manifest.json",
    )


# ---------------------------------------------------------------------------
# baseline


def _cmd_baseline(args: argparse.Namespace) -> Report:
    _check_range("--variance-target", args.variance_target, 0, 1, "(]")
    _check_range("--clip-low", args.clip_low, 0, 1, "[)")
    _check_range("--clip-high", args.clip_high, args.clip_low, 1, "(]")
    _check_range("--smooth-window", args.smooth_window, 1)
    config = PcaConfig(
        variance_target=args.variance_target,
        clip_quantiles=(args.clip_low, args.clip_high),
        smooth_window=args.smooth_window,
    )
    train = load_frame(args.train)
    if train.n_points < 2:
        raise ValueError(
            f"{args.train}: {train.n_points} rows, but the fit needs at least 2"
        )
    test = load_frame(args.test)
    if test.labels is None:
        raise ValueError(f"{args.test}: test frame has no label column")
    if test.n_channels != train.n_channels:
        raise ValueError(
            f"{args.test}: {test.n_channels} channels, but {args.train} "
            f"holds {train.n_channels}"
        )
    if test.channel_names != train.channel_names:
        raise ValueError(
            f"{args.test}: channels {','.join(test.channel_names)}, but "
            f"{args.train} holds {','.join(train.channel_names)}"
        )
    model = fit(train, config)
    scores = score_frame(model, test)
    threshold, report = _scored(args, test.labels, scores)
    model_path = args.model_out or Path(args.out) / "model.npz"

    def save_model(path):
        with atomic_open(path, "wb") as fh:
            model.save(fh)

    report.config.update(
        variance_target=args.variance_target,
        clip_quantiles=[args.clip_low, args.clip_high],
        smooth_window=args.smooth_window,
    )
    report.results.update(
        n_components=model.n_components,
        model_path=os.path.relpath(model_path, args.out),
    )
    report.lines.insert(
        0,
        f"PCA baseline: {model.n_components} of {model.n_channels} "
        f"components, threshold {threshold:.6g}",
    )
    report.inputs = [args.train, args.test]
    report.files[:0] = [
        (model_path, save_model),
        _table(
            args, "scores.csv", ["score"], ({"score": s} for s in scores.scores)
        ),
    ]
    return report


# ---------------------------------------------------------------------------
# check-labels


def _cmd_check_labels(args: argparse.Namespace) -> Report:
    labels = load_label_series(args.labels)
    events = load_events(
        args.events, end_exclusive=args.end_exclusive, total_points=len(labels)
    )
    reconstructed = labels_from_events(events, len(labels))
    report = check_label_consistency(labels, reconstructed)
    return Report(
        config={"end_exclusive": args.end_exclusive},
        results={
            "is_consistent": report.is_consistent,
            "total_points": report.total_points,
            "integrated_only_points": report.integrated_only,
            "reconstructed_only_points": report.reconstructed_only,
            "runs": [
                {
                    "start": run.segment.start,
                    "end": run.segment.end,
                    "direction": run.direction,
                }
                for run in report.runs
            ],
        },
        lines=[report.summary()],
        inputs=[args.labels, args.events],
    )


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsadeval",
        description="evaluation protocols for time-series anomaly detection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions or scores")
    p.add_argument("--labels", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--predictions")
    group.add_argument("--scores")
    _add_protocols(p)
    _add_threshold_policy(p)
    _add_out(p)
    p.set_defaults(compute=_cmd_evaluate)

    p = sub.add_parser("attack", help="random-flag stress test")
    p.add_argument("--labels")
    p.add_argument("--synthetic-spec")
    p.add_argument("--total-points", type=int)
    p.add_argument("--segment-length", type=int)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_protocols(p)
    _add_out(p)
    p.set_defaults(compute=_cmd_attack)

    p = sub.add_parser("attack-cdf", help="analytic adjusted-F1 distribution")
    p.add_argument("--total-points", type=int, required=True)
    p.add_argument("--segment-length", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument(
        "--model",
        choices=[m.value for m in SamplingModel],
        default=SamplingModel.BERNOULLI_APPROX.value,
    )
    _add_out(p)
    p.set_defaults(compute=_cmd_attack_cdf)

    p = sub.add_parser("attack-worst", help="analytic worst-case curves")
    p.add_argument("--segment-length", type=int, required=True)
    p.add_argument("--contamination", type=float, required=True)
    p.add_argument("--alpha-min", type=int, default=1)
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--alpha-step", type=int, default=1)
    _add_out(p)
    p.set_defaults(compute=_cmd_attack_worst)

    p = sub.add_parser("far-study", help="expected F1 across class balances")
    p.add_argument("--recall", type=float, default=0.99)
    p.add_argument("--far-min", type=float, default=0.001)
    p.add_argument("--far-max", type=float, default=0.2)
    p.add_argument("--far-points", type=int, default=50)
    p.add_argument(
        "--shapes",
        type=_parse_shapes,
        default=_parse_shapes("10000:5000,10000:1000,10000:100"),
        help="comma-separated n_normal:n_anomalous pairs",
    )
    _add_out(p)
    p.set_defaults(compute=_cmd_far_study)

    p = sub.add_parser("synth", help="generate a synthetic labelled frame")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-file", required=True)
    p.add_argument("--train-points", type=int)
    p.add_argument("--train-out")
    p.add_argument("--events-out")
    p.set_defaults(compute=_cmd_synth)

    p = sub.add_parser("baseline", help="PCA reconstruction-error baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--variance-target", type=float, default=0.9)
    p.add_argument("--clip-low", type=float, default=0.001)
    p.add_argument("--clip-high", type=float, default=0.999)
    p.add_argument("--smooth-window", type=int, default=5)
    p.add_argument("--model-out")
    _add_protocols(p)
    _add_threshold_policy(p)
    _add_out(p)
    p.set_defaults(compute=_cmd_baseline)

    p = sub.add_parser("check-labels", help="labels vs exported event list")
    p.add_argument("--labels", required=True)
    p.add_argument("--events", required=True)
    p.add_argument(
        "--end-exclusive",
        action="store_true",
        help="event ends point one past the last anomalous index",
    )
    _add_out(p)
    p.set_defaults(compute=_cmd_check_labels)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # entering it resets the registry of warnings shown, so each run warns anew
    with warnings.catch_warnings():
        try:
            return _write_outputs(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
