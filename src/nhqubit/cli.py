"""Command-line entry point.

Verbs:
    nhqubit run CONFIG [--out DIR] [--tol TOL]
    nhqubit run --preset NAME [--out DIR] [--tol TOL]
    nhqubit list-presets
    nhqubit compare CONFIG_A CONFIG_B [--out DIR]

Exit codes: 0 success, 2 configuration error (any other domain error a
config reaches, such as a trajectory with nothing to measure, counts as
one), 3 broken symmetry phase, 4 bath-kernel failure (error bound above
tolerance), 5 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .bath import DEFAULT_TOL
from .errors import (
    BrokenPhase,
    ConfigError,
    GridMismatch,
    NhQubitError,
    QuadratureDivergence,
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
    ((ConfigError, GridMismatch), EXIT_CONFIG),
    (BrokenPhase, EXIT_BROKEN_PHASE),
    (QuadratureDivergence, EXIT_QUADRATURE),
    (NhQubitError, EXIT_CONFIG),
    (OSError, EXIT_IO),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: building costs ten times what parsing does.
    parser = argparse.ArgumentParser(
        prog="nhqubit",
        description="Dephasing dynamics of PT- and Anti-PT-symmetric qubits",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario config or a preset")
    p_run.add_argument("config", nargs="?", help="path to a key-value config")
    p_run.add_argument("--preset", help="named preset instead of a config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--tol", type=float, default=None,
                       help="bath-kernel error tolerance override")

    sub.add_parser("list-presets", help="list available presets")

    p_cmp = sub.add_parser(
        "compare", help="compare decoherence between two scenarios"
    )
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--out", default=None, help="output directory")
    return parser


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
    args = _build_parser().parse_args(argv)
    try:
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
