"""Command-line experiment runner.

Subcommands ``rule``, ``operator`` and ``spectrum`` inspect individual
discretization objects; ``run`` executes a scenario described by a flat
key = value config file.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .scenarios import ConfigError, parse_config_file, parse_value, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lagdg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True, help="path to key = value config file")
    run_p.add_argument("--output", default="out", help="output directory")
    run_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    # the variant arguments of spectrum and operator; every dest is a config key
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--form", required=True, choices=["strong", "nodal", "modal"])
    variant.add_argument("--basis", required=True, choices=["functions", "polynomials"])
    variant.add_argument("--nodes", default="glr", choices=["gl", "glr"])
    variant.add_argument("--direction", required=True, choices=["inflow", "outflow"])
    variant.add_argument("--beta", type=float, required=True)
    variant.add_argument("--M", type=int, required=True)
    variant.add_argument("--u", type=float, default=None)

    spec_p = sub.add_parser("spectrum", parents=[variant], help="eigenvalues of one discretization variant")
    spec_p.add_argument("--output", default="out")

    rule_p = sub.add_parser("rule", help="dump quadrature nodes and weights as CSV")
    rule_p.add_argument("--nodes", default="gl", choices=["gl", "glr"])
    rule_p.add_argument("--basis", default="polynomials", choices=["functions", "polynomials"])
    rule_p.add_argument("--beta", type=float, default=1.0)
    rule_p.add_argument("--M", type=int, required=True)
    rule_p.add_argument("--output", default="out")

    op_p = sub.add_parser("operator", parents=[variant], help="dump the dense (A, g) pair of a variant")
    op_p.add_argument("--q-left", type=float, default=1.0)
    op_p.add_argument("--output", default="out")

    return parser


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        cfg[key.strip()] = parse_value(value.strip())
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config_file(args.config)
            cfg = _apply_overrides(cfg, args.override)
            if "scenario" not in cfg:
                raise ConfigError("config file must set 'scenario'")
            summary = run_scenario(cfg, args.output)
            print(json.dumps({"scenario": cfg["scenario"], "output": str(args.output),
                              "summary_keys": sorted(summary)}, sort_keys=True))
        else:
            # spectrum, rule, operator: the subcommand is the scenario
            cfg = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
            summary = run_scenario({**cfg, "scenario": args.command}, args.output)
            print(json.dumps(summary, sort_keys=True))
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
