"""Command-line entry point.

Usage:
    nhqubit run CONFIG [--out DIR] [--tol TOL]
    nhqubit run --preset NAME [--out DIR] [--tol TOL]
    nhqubit list-presets
    nhqubit compare CONFIG_A CONFIG_B [--out DIR]
    nhqubit -h | --help

Options take exact names, after the verb: --name VALUE or --name=VALUE.
Exit codes: 0 success, 2 configuration error (a malformed command line, or
any other domain error a config reaches, such as a trajectory with nothing
to measure), 3 broken symmetry phase, 4 bath-kernel failure (error bound
above tolerance), 5 I/O error.
"""

from __future__ import annotations

import dataclasses
import sys
import types

from .bath import DEFAULT_TOL
from .errors import (
    BrokenPhase,
    ConfigError,
    NhQubitError,
    QuadratureDivergence,
    UsageError,
)
from .presets import list_presets, run_preset
from .scenario import compare, load_scenario, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BROKEN_PHASE = 3
EXIT_QUADRATURE = 4
EXIT_IO = 5

# (error type, exit code), first match wins.
_EXIT_CODES = (
    (BrokenPhase, EXIT_BROKEN_PHASE),
    (QuadratureDivergence, EXIT_QUADRATURE),
    (NhQubitError, EXIT_CONFIG),
    (OSError, EXIT_IO),
)


# Per verb: positionals, how many are required, {option: (default, type)}.
_VERBS = {
    "run": (("config",), 0, {"--preset": (None, str), "--out": (".", str),
                             "--tol": (None, float)}),
    "list-presets": ((), 0, {}),
    "compare": (("config_a", "config_b"), 2, {"--out": (None, str)}),
}


def _parse_args(argv: list[str]) -> types.SimpleNamespace:
    if not argv or argv[0] not in _VERBS:
        raise UsageError(f"expected a verb {list(_VERBS)}, got {argv[:1]}")
    verb, rest = argv[0], iter(argv[1:])
    names, required, options = _VERBS[verb]
    args = types.SimpleNamespace(verb=verb, **dict.fromkeys(names), **{
        name[2:]: default for name, (default, _) in options.items()})
    positionals = []
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            raise UsageError(f"{verb} has no option {name}")
        if not eq and (value := next(rest, None)) is None:
            raise UsageError(f"{name} needs a value")
        try:
            setattr(args, name[2:], options[name][1](value))
        except ValueError:
            raise UsageError(f"{name} needs a number, got {value}") from None
    if not required <= len(positionals) <= len(names):
        raise UsageError(f"{verb}: wrong number of arguments {positionals}")
    vars(args).update(zip(names, positionals))
    return args


def _cmd_run(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("run takes exactly one of CONFIG or --preset")
    if args.preset is not None:
        try:
            manifest = run_preset(
                args.preset, args.out,
                tol=DEFAULT_TOL if args.tol is None else args.tol,
            )
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        print(f"wrote {manifest['files'][args.preset]} to {args.out}")
        return EXIT_OK
    scenario = load_scenario(args.config)
    if args.tol is not None:
        scenario = dataclasses.replace(scenario, tol=args.tol)
    manifest = run(scenario, args.out)
    names = ", ".join(sorted(manifest["files"])) or "manifest only"
    print(f"wrote {names} to {args.out}")
    return EXIT_OK


def _cmd_list_presets() -> int:
    for name, description in list_presets():
        print(f"{name:28s} {description}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = compare(
        load_scenario(args.config_a), load_scenario(args.config_b), args.out
    )
    print(f"fraction of grid with D_b >= D_a: {report['fraction_b_ge_a']:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print((__doc__ or "").partition("\n\n")[2].rstrip())
        return EXIT_OK
    try:
        args = _parse_args(argv)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "list-presets":
            return _cmd_list_presets()
        return _cmd_compare(args)
    except (NhQubitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
