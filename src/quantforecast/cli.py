"""Experiment command line.

Subcommands: generate (synthetic series to CSV), experiment (seeded
campaign of one or more runs), report (re-aggregate persisted runs into the
campaign CSVs, labelled from the campaign's config.json beside them),
gradcheck (gradient acceptance suite). Each ExperimentConfig field has an
experiment flag named after it (--out sets output_dir), and each generator
is a generate subcommand with a flag per setting. A JSON config file may
supply any experiment field, as a value of its declared type, and no
other key; flags override file values. Output paths are used as given.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from .datapipe import GENERATORS, write_series_csv
from .errors import ConfigError, ForecastError
from .evaluation import aggregate_runs
from .experiment import (FIELD_CHOICES, FIELD_TYPES, ExperimentConfig,
                         campaign_label, emit_report, load_run_reports,
                         run_experiment)
from .gradsuite import run_suite


class _Parser(argparse.ArgumentParser):
    """Reports a command-line mistake (an unknown flag, a value of the
    wrong type) as a ConfigError, so it exits 1 like the same mistake in a
    config file. --help still exits 0. Flags must be spelled in full, so a
    new flag cannot make an abbreviation in use ambiguous."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _add_field_flags(parser: argparse.ArgumentParser, hints: dict,
                     choices: dict) -> None:
    """One flag per annotated field, named after it (output_dir is --out);
    an unset flag is None, leaving the config file's or dataclass's value.
    A bool field gets a --name/--no-name pair; an X, X | None or
    tuple[X, ...] field takes values of type X, one or more for a tuple."""
    for name, hint in hints.items():
        flag = "--out" if name == "output_dir" else \
            "--" + name.replace("_", "-")
        if hint is bool:
            pair = parser.add_mutually_exclusive_group()
            pair.add_argument(flag, dest=name, action="store_true",
                              default=None)
            pair.add_argument(f"--no-{name}", dest=name,
                              action="store_false", default=None)
        else:
            parser.add_argument(
                flag, dest=name, type=(typing.get_args(hint) or (hint,))[0],
                nargs="+" if typing.get_origin(hint) is tuple else None,
                choices=choices.get(name))


def _experiment_config(args) -> ExperimentConfig:
    fields: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ConfigError(f"{args.config}: not valid JSON: "
                              f"{exc}") from None
        except OSError as exc:
            raise ConfigError(f"{args.config}: cannot read: "
                              f"{exc.strerror}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of "
                              f"experiment fields, got "
                              f"{type(loaded).__name__}")
        fields.update(loaded)
    fields.update({name: getattr(args, name) for name in FIELD_TYPES
                   if getattr(args, name) is not None})
    if "dataset" not in fields or "family" not in fields:
        raise ConfigError("--dataset and --family are required "
                          "(by flag or config file)")
    fields.setdefault("name", fields["dataset"])
    return ExperimentConfig.from_dict(fields)


def _cmd_generate(args) -> int:
    # Unset flags leave the generator's own defaults in place.
    cls, generate = GENERATORS[args.generator]
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if getattr(args, f.name) is not None}
    series = generate(cls(**given), args.seed)
    write_series_csv(args.out, series)
    print(f"wrote {series.length} rows to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    aggregate = run_experiment(config)
    print(f"{aggregate.runs_completed}/{aggregate.runs_requested} runs "
          f"completed; mean RMSE {aggregate.mean_rmse.mean:.4f} "
          f"+- {aggregate.mean_rmse.half_width:.4f}")
    failed = aggregate.runs_requested - aggregate.runs_completed
    if failed:
        print(f"{failed} run(s) failed; see failures.json")
    return 0


def _cmd_report(args) -> int:
    reports = load_run_reports(args.runs_dir)
    if not reports:
        raise ConfigError(f"no run_*.json files under {args.runs_dir}")
    aggregate = aggregate_runs(reports)
    paths = emit_report(aggregate, "csv", args.out,
                        label=campaign_label(args.runs_dir))
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_gradcheck(args) -> int:
    ok = run_suite(seed=args.seed)
    print("gradient suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quantforecast",
        description="Quantile sequence forecasting experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic series to CSV")
    generators = p_gen.add_subparsers(dest="generator", required=True)
    for name, (cls, _) in GENERATORS.items():
        # one flag per setting of this generator
        p = generators.add_parser(name, help=f"write a {name} series")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        _add_field_flags(p, typing.get_type_hints(cls), {})
        p.set_defaults(func=_cmd_generate, parser=p)

    p_exp = sub.add_parser("experiment", help="run a seeded campaign")
    p_exp.add_argument("--config", help="JSON file with experiment fields")
    _add_field_flags(p_exp, FIELD_TYPES, FIELD_CHOICES)
    p_exp.set_defaults(func=_cmd_experiment, parser=p_exp)

    p_rep = sub.add_parser("report", help="re-aggregate persisted runs")
    p_rep.add_argument("--runs-dir", required=True)
    p_rep.add_argument("--out", default=".")
    p_rep.set_defaults(func=_cmd_report, parser=p_rep)

    p_grad = sub.add_parser("gradcheck", help="gradient acceptance suite")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck, parser=p_grad)
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:  # reported under the usage of the command given
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ForecastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
