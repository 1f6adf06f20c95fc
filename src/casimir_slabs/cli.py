"""Command-line front end.

Single-point evaluations, parameter sweeps, crossover searches and
applicability reports.  All lengths are nm, frequencies s^-1 (scientific
notation accepted).  The lines of an optional key-value config file
(--config) are parsed as the flags they name; flags given on the command
line override them, and both override the built-in defaults.

Exit codes: 0 success (crossover found), 1 crossover not found,
2 usage error, 3 quadrature failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .quadrature import QuadratureError, QuadratureSpec
from .sweep import (
    PRESETS,
    QUANTITIES,
    SweepAxis,
    SweepRequest,
    UsageError,
    _check_grid,
    evaluate_quantity,
    format_value,
    run_preset,
    run_sweep,
    write_outputs,
)
from .validity import DEFAULT_THRESHOLD


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sweep_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    try:
        if len(parts) not in (4, 5):
            raise ValueError("expected NAME:FROM:TO:POINTS[:SPACING]")
        name, start, stop, points, *spacing = parts
        bounds = finite_float(start), finite_float(stop)
        return SweepAxis(name, *bounds, int(points), *spacing)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad axis {text!r}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:  # no prefix matching: "--l" is no flag
        super().__init__(allow_abbrev=False, **kwargs)


class Flag(NamedTuple):
    """One long flag: its type (or a tuple of choices), the evaluator
    parameter it sets, its built-in default and its help text."""

    kind: object
    key: str | None = None
    default: object = None
    help: str | None = None


# Every flag, keyed by argparse dest.  eps_b has no default here: it
# defaults per quantity (Quantity.eps_b_default); the quadrature flags
# leave theirs to QuadratureSpec.
FLAGS = {
    "l_nm": Flag(finite_float, "l", help="separation between slabs, nm"),
    "d_nm": Flag(finite_float, "d", help="slab thickness, nm"),
    "eps_b": Flag(finite_float, "eps_b", help="in-plane background permittivity"),
    # free-electron-gas bulk plasma frequency, free-standing environment
    "omega_p": Flag(finite_float, "omega_p", 2.0e16, "bulk plasma frequency, 1/s"),
    "eps_sub": Flag(finite_float, "eps_sub", 1.0, "substrate permittivity"),
    "eps_sup": Flag(finite_float, "eps_sup", 1.0, "superstrate permittivity"),
    "radius_nm": Flag(finite_float, "radius", 2.0, "nanotube radius, nm"),
    "delta_nm": Flag(finite_float, "delta", help="array period, nm (default 2R)"),
    "layers": Flag(int, "layers", help="number of monolayers (d = 2R layers)"),
    "threshold": Flag(
        finite_float, "threshold", DEFAULT_THRESHOLD, "deviation threshold"
    ),
    "d_min_nm": Flag(finite_float, "d_min", help="lower thickness bracket, nm"),
    "d_max_nm": Flag(finite_float, "d_max", help="upper thickness bracket, nm"),
    "orientation": Flag(("parallel", "perp", "both"), default="both"),
    "out": Flag(str, help="output file path"),
    "format": Flag(("csv", "json"), default="csv"),
    "curve_out": Flag(str, help="CSV of the anisotropy curve over the bracket"),
    "curve_points": Flag(positive_int, default=25, help="points of the curve"),
    "points": Flag(positive_int),
    "d_points": Flag(positive_int),
    "l_points": Flag(positive_int),
    "panels": Flag(str, help="fig4 panels, e.g. ab"),
    "rel_tol": Flag(finite_float),
    "abs_tol": Flag(finite_float),
    "p_transform": Flag(("hyperbolic", "shifted-square")),
    "config": Flag(str, help="key = value file of flags"),
}
_PARAM_DEST = {flag.key: dest for dest, flag in FLAGS.items() if flag.key}
QUADRATURE_FLAGS = ("rel_tol", "abs_tol", "p_transform")
# The presets' size flags; --points also fills a preset's unset *_points sizes.
PRESET_SIZES = tuple(dict.fromkeys(size for p in PRESETS.values() for size in p.sizes))

# Point subcommands: help, the quantities they evaluate, their other flags.
COMMANDS = {
    "casimir": ("ideal-conductor pressure", ("casimir",), ()),
    "lifshitz-local": ("local-metal force, 1/l correction", ("lifshitz_local",), ()),
    "iso-nonlocal": ("nonlocal isotropic-film force", ("iso_nonlocal",), ()),
    "iso-thin": ("small-thickness closed form", ("iso_thin",), ()),
    "aniso": (
        "nanotube-array force, both orientations",
        ("aniso_parallel", "aniso_perp"),
        ("orientation",),
    ),
    "main-terms": ("infinite-wp limits", ("main_terms",), ()),
    "crossover": (
        "orientation crossover thickness",
        ("crossover",),
        ("curve_out", "curve_points"),
    ),
    "validity": ("film vs half-space applicability", ("validity",), ()),
}


def _add_flags(parser: argparse.ArgumentParser, dests: Sequence[str]) -> None:
    for dest in (*dests, "config"):
        flag = FLAGS[dest]
        kind = "choices" if isinstance(flag.kind, tuple) else "type"
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            default=None,
            required=dest == "out",  # the commands that take --out write it
            help=flag.help,
            **{kind: flag.kind},
        )


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="casimir-slabs",
        description="Casimir-Lifshitz attraction between ultrathin material slabs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    add_parser = parser.add_subparsers(dest="command", required=True).add_parser

    for command, (text, quantities, extra) in COMMANDS.items():
        record = QUANTITIES[quantities[0]]
        params = [_PARAM_DEST[key] for key in record.params]
        quadrature = QUADRATURE_FLAGS if record.integrates else ()
        _add_flags(add_parser(command, help=text), [*params, *extra, *quadrature])

    sweep = add_parser("sweep", help="parameter grid to CSV/JSON")
    sweep.add_argument("--quantity", required=True, choices=QUANTITIES)
    sweep.add_argument(
        "--axis",
        action="append",
        type=_sweep_axis,
        metavar="NAME:FROM:TO:POINTS[:SPACING]",
        help="swept axis (name in d,l,eps_b,R,layers); up to two",
    )
    _add_flags(sweep, [*_PARAM_DEST.values(), "out", "format", *QUADRATURE_FLAGS])

    preset = add_parser("preset", help="standard figure data sets")
    preset.add_argument("name", choices=PRESETS)
    _add_flags(preset, [*PRESET_SIZES, "out", *QUADRATURE_FLAGS])
    return parser


def _load_config(path: str) -> list[str]:
    """The file's ``key = value`` or ``key: value`` lines as ``--key=value`` args."""
    arguments = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            # The first of '=' and ':' separates, so a value may hold the other.
            key, sep, value = line.partition(":" if ":" in line.split("=")[0] else "=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            arguments.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return arguments


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the --config lines put right after the subcommand,
    argv[0], so that a flag given on the command line comes later and wins."""
    pre = _Parser(prog="casimir-slabs", usage=argparse.SUPPRESS, add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        argv = [*argv[:1], *_load_config(config), *argv[1:]]
    return _build_parser().parse_args(argv)


def _reject_given(args: argparse.Namespace, dests: Sequence[str], why: str) -> None:
    """A usage error if any of these flags was set, by a flag or by --config."""
    given = [dest for dest in dests if getattr(args, dest, None) is not None]
    if given:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
        raise UsageError(f"{flags}: {why}")


def _resolve(
    args: argparse.Namespace, eps_b_default: float | None
) -> tuple[dict, QuadratureSpec]:
    """Fill every flag left unset with its default, then return the
    evaluator parameters and the quadrature spec the command's flags set.

    A value given explicitly is kept as given, 0 included."""
    for dest, value in list(vars(args).items()):
        if value is None and dest in FLAGS:
            default = eps_b_default if dest == "eps_b" else FLAGS[dest].default
            setattr(args, dest, default)
    params = {key: getattr(args, dest) for key, dest in _PARAM_DEST.items()
              if hasattr(args, dest)}
    given = {dest: getattr(args, dest, None) for dest in QUADRATURE_FLAGS}
    return params, QuadratureSpec(**{k: v for k, v in given.items() if v is not None})


def run_point(quantity: str, params: dict, spec: QuadratureSpec) -> int:
    """Evaluate one configuration, print text plus a machine-readable line.

    The configuration is a grid of one point, evaluated as a sweep's grid
    is; its outputs are read back as plain Python values.  Returns 3 on a
    failed quadrature, 1 for a crossover search without a sign change,
    else 0.
    """
    slab = _check_grid(quantity, params)
    (values,) = evaluate_quantity((quantity,), params, spec, [slab])
    outputs = {key: np.asarray(value).tolist() for key, value in values.items()}
    for key, value in outputs.items():
        print(f"{key}: {format_value(value)}")
    record = {
        "quantity": quantity,
        "params": {k: v for k, v in sorted(params.items()) if v is not None},
        **outputs,
    }
    print("RESULT " + json.dumps(record, sort_keys=True, allow_nan=False))
    if any(v == "quadrature_failed" for v in outputs.values()):
        return 3
    return 1 if quantity == "crossover" and outputs["crossover_d_nm"] is None else 0


def _crossover_with_curve(path: str, n: int, params: dict, spec: QuadratureSpec) -> int:
    """The search, then both orientation forces over the n thicknesses of a
    d axis on the bracket, its ends exact, in one pass, all inside
    write_outputs: a path that cannot be written fails first."""
    d = SweepAxis("d", params["d_min"], params["d_max"], n).grid()
    request = SweepRequest("crossover", {**params, "curve_points": n}, (), path)
    names = ["d_nm", "ratio_parallel", "ratio_perp", "anisotropy"]
    with write_outputs(request, spec, names) as write:
        code = run_point("crossover", params, spec)
        grid = {**params, "d": d}
        both = ("aniso_parallel", "aniso_perp")
        pair = evaluate_quantity(both, grid, spec, [_check_grid(q, grid) for q in both])
        par, perp = (values["ratio_to_casimir"] for values in pair)
        write([d, par, perp, np.subtract(par, perp)])
    print(f"anisotropy curve written to {path}")
    return code


def _run_sweep_cmd(args: argparse.Namespace) -> int:
    record = QUANTITIES[args.quantity]
    axes = tuple(args.axis or ())
    swept = {ax.param for ax in axes}
    unread = [dest for key, dest in _PARAM_DEST.items() if key not in record.params]
    _reject_given(args, unread, f"not read by {args.quantity}")
    _reject_given(args, [_PARAM_DEST[key] for key in swept], "set by a sweep axis")
    if not record.integrates:
        _reject_given(args, QUADRATURE_FLAGS, f"{args.quantity} does not integrate")
    params, spec = _resolve(args, record.eps_b_default)
    fixed = {k: params[k] for k in record.params if k not in swept}
    request = SweepRequest(args.quantity, fixed, axes, args.out, args.format)
    summary = run_sweep(request, spec)
    print(
        f"wrote {summary['rows']} rows to {summary['output']} "
        f"(manifest: {summary['manifest']})"
    )
    return 0


def _run_preset(args: argparse.Namespace) -> int:
    sizes = {size: getattr(args, size) for size in PRESETS[args.name].sizes}
    unread = [size for size in PRESET_SIZES if size not in sizes and size != "points"]
    _reject_given(args, unread, f"not read by {args.name}")
    counts = [size for size in sizes if size.endswith("_points")]
    if counts and None not in (sizes[size] for size in counts):
        both = " and ".join("--" + size.replace("_", "-") for size in counts)
        _reject_given(args, ("points",), f"{both} set both")
    sizes.update((size, args.points) for size in counts if sizes[size] is None)
    summary = run_preset(args.name, args.out, _resolve(args, None)[1], **sizes)
    print(f"wrote {summary['rows']} rows to {summary['output']}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "preset":
        return _run_preset(args)
    if args.command == "sweep":
        return _run_sweep_cmd(args)
    quantities = COMMANDS[args.command][1]
    curve_out = getattr(args, "curve_out", None)
    if curve_out is None:
        _reject_given(args, ("curve_points",), "read only with --curve-out")
    params, spec = _resolve(args, QUANTITIES[quantities[0]].eps_b_default)
    if args.command == "aniso" and args.orientation != "both":
        quantities = ("aniso_" + args.orientation,)
    if curve_out is not None:
        return _crossover_with_curve(curve_out, args.curve_points, params, spec)
    return max(run_point(quantity, params, spec) for quantity in quantities)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _dispatch(_parse(list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
