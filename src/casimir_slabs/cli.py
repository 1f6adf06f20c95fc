"""Command-line front end.

Single-point evaluations, parameter sweeps, crossover searches and
applicability reports.  All lengths are nm, frequencies s^-1 (scientific
notation accepted).  Flags override an optional key-value config file
(--config), which overrides the built-in defaults.

Exit codes: 0 success (crossover found), 1 crossover not found,
2 usage error, 3 quadrature failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple, Sequence

from . import __version__
from .anisotropic import orientation_forces
from .quadrature import QuadratureError, QuadratureSpec
from .sweep import (
    QUANTITIES,
    SweepAxis,
    SweepRequest,
    UsageError,
    array_slab,
    evaluate_quantity,
    format_value,
    preset_fig2,
    preset_fig3,
    preset_fig4,
    run_sweep,
    write_outputs,
)


class Flag(NamedTuple):
    """One long flag: its type (or a tuple of choices), the evaluator
    parameter it sets, its built-in default and its help text."""

    kind: object
    key: str | None = None
    default: object = None
    help: str | None = None


# Every flag, keyed by argparse dest.  eps_b has no default here: it
# defaults per quantity (Quantity.eps_b_default).
FLAGS = {
    "l_nm": Flag(float, "l", help="separation between slabs, nm"),
    "d_nm": Flag(float, "d", help="slab thickness, nm"),
    "eps_b": Flag(float, "eps_b", help="in-plane background permittivity"),
    # free-electron-gas bulk plasma frequency, free-standing environment
    "omega_p": Flag(float, "omega_p", 2.0e16, "bulk plasma frequency, 1/s"),
    "eps_sub": Flag(float, "eps_sub", 1.0, "substrate permittivity"),
    "eps_sup": Flag(float, "eps_sup", 1.0, "superstrate permittivity"),
    "radius_nm": Flag(float, "radius", 2.0, "nanotube radius, nm"),
    "delta_nm": Flag(float, "delta", help="array period, nm (default 2R)"),
    "layers": Flag(int, "layers", help="number of monolayers (d = 2R layers)"),
    "threshold": Flag(float, "threshold", 0.01, "deviation threshold"),
    "d_min_nm": Flag(float, "d_min", help="lower thickness bracket, nm"),
    "d_max_nm": Flag(float, "d_max", help="upper thickness bracket, nm"),
    "orientation": Flag(("parallel", "perp", "both"), default="both"),
    "out": Flag(str, help="output file path"),
    "format": Flag(("csv", "json"), default="csv"),
    "curve_out": Flag(str, help="CSV of the anisotropy curve over the bracket"),
    "curve_points": Flag(int, default=25, help="points of the anisotropy curve"),
    "points": Flag(int),
    "d_points": Flag(int),
    "l_points": Flag(int),
    "panels": Flag(str, help="fig4 panels, e.g. ab"),
    "rel_tol": Flag(float, default=QuadratureSpec.rel_tol),
    "abs_tol": Flag(float, default=QuadratureSpec.abs_tol),
    "p_transform": Flag(
        ("hyperbolic", "shifted-square"), default=QuadratureSpec.p_transform
    ),
    "config": Flag(str, help="key = value file of flags"),
}
_PARAM_DEST = {flag.key: dest for dest, flag in FLAGS.items() if flag.key}

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
    for dest in (*dests, "rel_tol", "abs_tol", "p_transform", "config"):
        flag = FLAGS[dest]
        kind = "choices" if isinstance(flag.kind, tuple) else "type"
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            default=None,
            help=flag.help,
            **{kind: flag.kind},
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-slabs",
        description="Casimir-Lifshitz attraction between ultrathin material slabs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (text, quantities, extra) in COMMANDS.items():
        params = QUANTITIES[quantities[0]].params
        _add_flags(
            sub.add_parser(command, help=text),
            [*(_PARAM_DEST[key] for key in params), *extra],
        )

    sweep = sub.add_parser("sweep", help="parameter grid to CSV/JSON")
    sweep.add_argument("--quantity", required=True, choices=QUANTITIES)
    sweep.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="NAME:FROM:TO:POINTS[:SPACING]",
        help="swept axis (name in d,l,eps_b,R,layers); up to two",
    )
    _add_flags(sweep, [*_PARAM_DEST.values(), "out", "format"])

    preset = sub.add_parser("preset", help="standard figure data sets")
    preset.add_argument("name", choices=("fig2", "fig3", "fig4"))
    _add_flags(preset, ["points", "d_points", "l_points", "panels", "out"])
    return parser


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, value = line.split("=", 1)
            elif ":" in line:
                key, value = line.split(":", 1)
            else:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, eps_b_default: float | None) -> None:
    """Fill every flag left unset: from --config, else from its default.

    A value given explicitly is kept as given, 0 included."""
    config = _load_config(args.config) if args.config else {}
    for dest, value in list(vars(args).items()):
        if value is not None:
            continue
        flag = FLAGS.get(dest, Flag(str))
        if dest in config:
            raw = config[dest]
            value = raw if isinstance(flag.kind, tuple) else flag.kind(raw)
        else:
            value = eps_b_default if dest == "eps_b" else flag.default
        setattr(args, dest, value)
    for dest in ("points", "d_points", "l_points", "curve_points"):
        if getattr(args, dest, None) is not None and getattr(args, dest) < 1:
            raise UsageError(f"--{dest.replace('_', '-')} must be >= 1")


def _params(args: argparse.Namespace) -> dict:
    return {key: getattr(args, dest) for key, dest in _PARAM_DEST.items()
            if hasattr(args, dest)}


def _spec(args: argparse.Namespace) -> QuadratureSpec:
    return QuadratureSpec(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, p_transform=args.p_transform
    )


def _print_result(quantity: str, params: dict, outputs: dict) -> None:
    for key, value in outputs.items():
        print(f"{key}: {format_value(value)}")
    record = {
        "quantity": quantity,
        "params": {k: v for k, v in sorted(params.items()) if v is not None},
        **outputs,
    }
    print("RESULT " + json.dumps(record, sort_keys=True))


def run_point(quantity: str, params: dict, spec: QuadratureSpec) -> int:
    """Evaluate one configuration, print text plus a machine-readable line.

    Returns 3 on a failed quadrature, 1 for a crossover search without a
    sign change, else 0.
    """
    outputs = evaluate_quantity(quantity, params, spec)
    _print_result(quantity, params, outputs)
    if any(v == "quadrature_failed" for v in outputs.values()):
        return 3
    return 1 if quantity == "crossover" and outputs["crossover_d_nm"] is None else 0


def _write_curve(path: str, n: int, params: dict, spec: QuadratureSpec) -> None:
    """Both orientation forces at n evenly spaced thicknesses of the bracket."""
    step = (params["d_max"] - params["d_min"]) / max(n - 1, 1)

    def rows():
        for i in range(n):
            d = params["d_min"] + i * step
            slab = array_slab({**params, "d": d}, "crossover")
            forces = orientation_forces(slab, params["l"], spec)
            par, perp = forces.f_parallel, forces.f_perp
            yield [d, par.ratio_to_casimir, perp.ratio_to_casimir, forces.anisotropy]

    request = SweepRequest("crossover", {**params, "curve_points": n}, (), path)
    write_outputs(
        request, spec, ["d_nm", "ratio_parallel", "ratio_perp", "anisotropy"], rows()
    )
    print(f"anisotropy curve written to {path}")


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise UsageError(
            f"axis must be NAME:FROM:TO:POINTS[:SPACING], got {text!r}"
        )
    name, start, stop, points = parts[0], parts[1], parts[2], parts[3]
    spacing = parts[4] if len(parts) == 5 else "linear"
    try:
        return SweepAxis(name, float(start), float(stop), int(points), spacing)
    except ValueError as exc:
        raise UsageError(f"bad axis {text!r}: {exc}") from None


def _run_sweep_cmd(args: argparse.Namespace) -> int:
    if not args.out:
        raise UsageError("sweep requires --out")
    axes = tuple(_parse_axis(a) for a in (args.axis or []))
    swept = {ax.param for ax in axes}
    request = SweepRequest(
        quantity=args.quantity,
        fixed_params={k: v for k, v in _params(args).items() if k not in swept},
        axes=axes,
        output_path=args.out,
        format=args.format,
    )
    summary = run_sweep(request, _spec(args))
    print(
        f"wrote {summary['rows']} rows to {summary['output']} "
        f"(manifest: {summary['manifest']})"
    )
    return 0


def _run_preset(args: argparse.Namespace) -> int:
    _resolve(args, None)
    if not args.out:
        raise UsageError("preset requires --out")
    if args.name == "fig4":
        sizes = {
            "d_points": args.points if args.d_points is None else args.d_points,
            "l_points": args.points if args.l_points is None else args.l_points,
            "panels": args.panels,
        }
    else:
        sizes = {"points": args.points}
    preset = {"fig2": preset_fig2, "fig3": preset_fig3, "fig4": preset_fig4}[args.name]
    summary = preset(
        args.out,
        spec=_spec(args),
        **{k: v for k, v in sizes.items() if v is not None},
    )
    print(f"wrote {summary['rows']} rows to {summary['output']}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "preset":
        return _run_preset(args)
    sweep = args.command == "sweep"
    quantities = (args.quantity,) if sweep else COMMANDS[args.command][1]
    _resolve(args, QUANTITIES[quantities[0]].eps_b_default)
    if sweep:
        return _run_sweep_cmd(args)
    params, spec = _params(args), _spec(args)
    if args.command == "aniso" and args.orientation != "both":
        quantities = ("aniso_" + args.orientation,)
    code = max(run_point(quantity, params, spec) for quantity in quantities)
    if getattr(args, "curve_out", None):
        _write_curve(args.curve_out, args.curve_points, params, spec)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return _dispatch(args)
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
