"""Command-line experiment runner.

    lagdg run --config FILE [--override KEY=VALUE]... [--output DIR]
    lagdg spectrum|rule|operator [--KEY VALUE]... [--output DIR]

After the command word every argument is ``--NAME VALUE`` or
``--NAME=VALUE``: a token that begins with ``--`` is a name, any other
token is its value (``--u -1`` is a value).  ``run`` reads a flat key =
value config file, each ``--override`` replacing one key; for ``rule``,
``operator`` and ``spectrum`` each name but ``--output`` is a key of the
scenario's defaults table, dashes read as underscores.  The last value
of a name wins.  Exit codes: 0 success, 2 configuration error, 3
numerical failure.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .scenarios import SCENARIOS, ConfigError, parse_config_file, parse_item, parse_value, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


INSPECTORS = {"spectrum": "eigenvalues of one discretization variant",
              "rule": "dump quadrature nodes and weights as CSV",
              "operator": "dump the dense (A, g) pair of a variant"}


def _options(args: list[str], names=None) -> list[tuple[str, str]] | None:
    """(NAME, VALUE) of each ``--NAME VALUE`` or ``--NAME=VALUE`` argument,
    NAME one of names unless names is None; None for ``-h`` or ``--help``."""
    options, i = [], 0
    while i < len(args):
        token = args[i]
        if token in ("-h", "--help"):
            return None
        if not token.startswith("--"):
            raise ConfigError(f"expected an option --NAME, got {token!r}")
        name, eq, value = token[2:].partition("=")
        if names is not None and name not in names:
            raise ConfigError(f"unknown option --{name}; expected one of {', '.join(names)}")
        if not eq:
            if i + 1 == len(args) or args[i + 1].startswith("--"):
                raise ConfigError(f"option --{name} takes a value")
            i += 1
            value = args[i]
        options.append((name, value))
        i += 1
    return options


def _usage(command: str) -> str:
    if command not in INSPECTORS:
        return __doc__
    return f"{__doc__}\nlagdg {command}: {INSPECTORS[command]}; defaults {json.dumps(SCENARIOS[command].defaults)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else ""
    try:
        if command not in ("run", *INSPECTORS, "-h", "--help"):
            raise ConfigError(f"unknown command {command!r}; expected one of run, {', '.join(INSPECTORS)}")
        names = ("config", "override", "output") if command == "run" else None
        options = None if command.startswith("-") else _options(argv[1:], names)
        if options is None:
            print(_usage(command))
            return EXIT_OK
        given = dict(options)   # the last value of each name
        output = given.get("output", "out")
        if command == "run":
            if "config" not in given:
                raise ConfigError("run needs --config FILE")
            cfg = parse_config_file(given["config"])
            cfg.update(parse_item(value, "override") for name, value in options if name == "override")
        else:
            cfg = {name.replace("-", "_"): parse_value(value) for name, value in options if name != "output"}
            cfg["scenario"] = command
        summary = run_scenario(cfg, output)
        if command == "run":
            summary = {"scenario": cfg["scenario"], "output": output, "summary_keys": sorted(summary)}
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
