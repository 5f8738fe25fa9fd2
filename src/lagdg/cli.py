"""Command-line experiment runner.

Subcommands ``rule``, ``operator`` and ``spectrum`` inspect individual
discretization objects, one ``--KEY VALUE`` option per key of their
scenario's defaults table (``--KEY=VALUE`` for a value that begins with
``-``); ``run`` executes a scenario described by a flat
key = value config file.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .scenarios import SCENARIOS, ConfigError, parse_config_file, parse_value, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


INSPECTORS = {"spectrum": "eigenvalues of one discretization variant",
              "rule": "dump quadrature nodes and weights as CSV",
              "operator": "dump the dense (A, g) pair of a variant"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # what exit_on_error=False still leaves here: a missing or ambiguous option
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lagdg", description=__doc__, exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file", exit_on_error=False)
    run_p.add_argument("--config", required=True, help="path to key = value config file")
    run_p.add_argument("--output", default="out", help="output directory")
    run_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    # an inspection subcommand is its scenario: one --KEY VALUE per key of its defaults table, parsed
    # and checked like a config value; a flag left out takes its default, a prefix is an unknown key
    for name, help_text in INSPECTORS.items():
        defaults = SCENARIOS[name].defaults
        p = sub.add_parser(name, help=help_text, description=f"{help_text}; defaults {json.dumps(defaults)}",
                           exit_on_error=False, allow_abbrev=False)
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), type=parse_value, default=argparse.SUPPRESS)
        p.add_argument("--output", default="out", help="output directory")
    return parser


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        cfg[key.strip()] = parse_value(value.strip())
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
        # an inspection flag its scenario does not have is an unknown key, as in its --override spelling
        unknown = {a[2:].partition("=")[0].replace("-", "_"): None for a in extra if a.startswith("--")}
        if extra and (args.command == "run" or not unknown):
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "run":
            cfg = _apply_overrides(parse_config_file(args.config), args.override)
        else:
            known = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
            cfg = {**known, **unknown, "scenario": args.command}
        summary = run_scenario(cfg, args.output)
        if args.command == "run":
            summary = {"scenario": cfg["scenario"], "output": str(args.output), "summary_keys": sorted(summary)}
        print(json.dumps(summary, sort_keys=True))
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except argparse.ArgumentError as exc:
        # argparse reads a value that begins with '-' and is not a plain number as an option
        flag = exc.argument_name
        value = argv[argv.index(flag) + 1] if flag in argv[:-1] else ""
        hint = ""
        if value.startswith("-") and not value.startswith("--"):
            hint = f"; give a value that begins with '-' as {flag}={value}"
        print(f"configuration error: {exc}{hint}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
