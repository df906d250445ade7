"""Command-line front end.

Subcommands: ``expand`` (exact noncommutative power expansion), ``member``
(span membership with a certificate), ``verify`` (named verification
campaigns, each knob set by ``--knob``), and ``params`` (checkpoint
inspection and validation).  All structured output is a single JSON
document on standard output; progress and diagnostics go to standard error.

Exit statuses: 0 success, 1 campaign failure, 2 usage error (argparse),
3 validation failure, 4 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import harness
from .budgets import BudgetExceeded, Budgets
from .construction import (
    ConstructionParams,
    ParamsError,
    SpanOracle,
    SpanQuery,
)
from .fields import FieldError, make_field
from .freealg import ShiftDerivation, poly_from_text, poly_to_text
from .ore import OrePoly, expand_power, expand_power_window, ore_to_text

EXIT_OK = 0
EXIT_CAMPAIGN = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

# CLI space letters for the span families backing a membership query.
SPACE_LETTERS = {
    "W": "words",
    "B": "collisions",
    "I": "ideal",
}


class ConfigError(ValueError):
    """A config file failed to parse or failed validation."""


# -- config files -------------------------------------------------------------


# config key -> ConstructionParams field
_PARAM_KEYS = {"b": "base", "r": "ratio", "k_max": "k_max"}
_BUDGET_KEYS = tuple(cap.name for cap in fields(Budgets))
_CONFIG_KEYS = {
    **dict.fromkeys(_PARAM_KEYS, int),
    "field": str,
    "prime": int,
    **dict.fromkeys(_BUDGET_KEYS, int),
    "seed": int,
    "output": str,
}


@dataclass
class RunConfig:
    """Validated run configuration: parameters, budgets, seed, output path."""

    params: ConstructionParams
    budgets: Budgets
    seed: int = 0
    output: str | None = None


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw mapping.

    Blank lines and ``#`` comments are ignored; unknown keys and malformed
    lines are rejected with the offending line number.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _CONFIG_KEYS:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise ConfigError(f"line {lineno}: unknown key {key!r} (known keys: {known})")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = _CONFIG_KEYS[key]
        if caster is int:
            try:
                raw[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects an integer, got {value!r}"
                ) from None
        else:
            raw[key] = value
    return raw


def build_run_config(raw: dict) -> RunConfig:
    """Turn a raw key mapping into a validated RunConfig.

    A key left out takes the default of ConstructionParams, Budgets or
    RunConfig; the field is the rationals unless named.  Field and parameter
    constructors raise on invalid values (for example b = 1 violates
    base >= 2).
    """
    try:
        field = make_field(raw.get("field", "rationals"), raw.get("prime"))
    except FieldError as exc:
        raise ConfigError(str(exc)) from None
    try:
        params = ConstructionParams(field=field, **{
            name: raw[key] for key, name in _PARAM_KEYS.items() if key in raw})
    except ParamsError as exc:
        raise ConfigError(str(exc)) from None
    try:
        budgets = Budgets(**{key: raw[key] for key in _BUDGET_KEYS
                             if key in raw})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(params, budgets, **{
        key: raw[key] for key in ("seed", "output") if key in raw})


def load_run_config(path: str | None, seed_override: int | None = None,
                    output_override: str | None = None) -> RunConfig:
    """Read a config file (all defaults when path is None), applying CLI
    seed/output overrides on top."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        raw = parse_config_text(text)
    cfg = build_run_config(raw)
    if seed_override is not None:
        cfg.seed = seed_override
    if output_override is not None:
        cfg.output = output_override
    return cfg


# -- output helpers -----------------------------------------------------------


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text)


def _fail(status: int, message: str, output: str | None = None) -> int:
    _emit({"schema": "dpring.error/1", "status": status, "error": message}, output)
    print(f"error: {message}", file=sys.stderr)
    return status


def _params_doc(params: ConstructionParams) -> dict:
    levels = {}
    for k in range(1, params.k_max + 1):
        levels[str(k)] = {
            "block": params.block(k),
            "checkpoints": params.checkpoints(k),
            "valid": params.level_valid(k),
        }
    return {
        "b": params.base,
        "r": params.ratio,
        "k_max": params.k_max,
        "field": harness.field_label(params.field),
        "levels": levels,
    }


# -- subcommands --------------------------------------------------------------


def cmd_expand(args, cfg: RunConfig) -> int:
    field = cfg.params.field
    if args.window is not None:
        ore = OrePoly(ShiftDerivation(field), expand_power_window(
            field, args.m, args.window, cfg.budgets))
    else:
        ore = expand_power(field, args.m, cfg.budgets)
    doc = {
        "schema": "dpring.expand/1",
        "m": args.m,
        "window_floor": args.window,
        "field": harness.field_label(field),
        "ore_text": ore_to_text(ore),
        "coefficients": {
            str(t): poly_to_text(p) for t, p in sorted(ore.coeffs.items())
        },
    }
    _emit(doc, cfg.output)
    return EXIT_OK


def cmd_member(args, cfg: RunConfig) -> int:
    field = cfg.params.field
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError as exc:
        return _fail(EXIT_VALIDATION, f"cannot read input {args.input!r}: {exc}",
                     cfg.output)
    poly = poly_from_text(field, text)
    query = SpanQuery(SPACE_LETTERS[args.space], args.length, args.degree,
                      level=args.k)
    oracle = SpanOracle(cfg.params, budgets=cfg.budgets)
    print(f"member: querying {args.space} at length {args.length} "
          f"degree {args.degree}", file=sys.stderr)
    cert = oracle.member(poly, query)
    verified = oracle.verify(poly, query, cert)
    doc = {
        "schema": "dpring.member/1",
        "space": args.space,
        "level": args.k,
        "length": args.length,
        "degree": args.degree,
        "input": poly_to_text(poly),
        "kind": cert.kind,
        "certificate": harness.summarize_certificate(field, cert),
        "verified": verified,
        "parameters": _params_doc(cfg.params),
    }
    _emit(doc, cfg.output)
    return EXIT_OK


def _knob(text: str) -> tuple[str, object]:
    """One ``--knob key=value``: the value an int, or comma-separated ints
    for a sequence knob, a trailing comma making a sequence of one."""
    key, sep, value = text.partition("=")
    try:
        if not key or not sep:
            raise ValueError
        if "," in value:
            return key, tuple(int(v) for v in value.removesuffix(",").split(","))
        return key, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected key=N or key=N,N,..., got {text!r}") from None


def cmd_verify(args, cfg: RunConfig) -> int:
    name = args.campaign
    knobs = dict(args.knob)
    if len(knobs) != len(args.knob):
        raise ValueError("a knob is given twice")
    print(f"verify: campaign {name} with seed {cfg.seed}", file=sys.stderr)
    report = harness.run_campaign(name, cfg.params, seed=cfg.seed,
                                  include_timing=args.timing,
                                  budgets=cfg.budgets, knobs=knobs)
    counts = report.counts()
    print(f"verify: {name}: {counts.get('pass', 0)} pass, "
          f"{counts.get('fail', 0)} fail, verdict {report.verdict}",
          file=sys.stderr)
    _emit(report.to_dict(), cfg.output)
    return EXIT_OK if report.verdict != "fail" else EXIT_CAMPAIGN


def cmd_params(args, cfg: RunConfig) -> int:
    params = cfg.params
    doc = {"schema": "dpring.params/1"}
    doc.update(_params_doc(params))
    if args.validate:
        try:
            params.validate()
        except ParamsError as exc:
            doc["status"] = "invalid"
            doc["error"] = str(exc)
            _emit(doc, cfg.output)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    doc["status"] = "ok"
    _emit(doc, cfg.output)
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key = value config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--output", metavar="FILE", default=None,
                        help="write the JSON document here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="dpring",
        description="Exact computations in a differential polynomial ring "
                    "over a free algebra.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("expand", parents=[common],
                       help="expand the canonical twisted power exactly")
    p.add_argument("--m", type=int, required=True, help="exponent")
    p.add_argument("--window", type=int, default=None, metavar="T",
                   help="only coefficients of skew degree >= T")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("member", parents=[common],
                       help="decide span membership with a certificate")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="file holding one polynomial in text form")
    p.add_argument("--space", required=True, choices=sorted(SPACE_LETTERS),
                   help="span family to query")
    p.add_argument("--k", type=int, default=None,
                   help="construction level (none for space I)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification campaign")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings in reports")
    p.add_argument("--campaign", required=True, metavar="NAME",
                   help="one of: " + ", ".join(harness.CAMPAIGNS))
    p.add_argument("--knob", type=_knob, action="append", default=[],
                   metavar="KEY=VALUE",
                   help="set a campaign knob to an int, or to comma-separated "
                        "ints (repeatable); a name the campaign does not "
                        "take exits 3")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("params", parents=[common],
                       help="inspect checkpoint data and validate levels")
    p.add_argument("--validate", action="store_true",
                   help="fail (status 3) when any level is degenerate")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_run_config(args.config, seed_override=args.seed,
                              output_override=args.output)
    except ConfigError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:  # tried before any work; the error goes to stdout
        if cfg.output:
            open(cfg.output, "a", encoding="utf-8").close()
    except OSError as exc:
        return _fail(EXIT_VALIDATION, f"cannot write output: {exc}")
    try:
        return args.func(args, cfg)
    except BudgetExceeded as exc:
        return _fail(EXIT_BUDGET, str(exc), cfg.output)
    except (ParamsError, FieldError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, str(exc), cfg.output)


if __name__ == "__main__":
    sys.exit(main())
