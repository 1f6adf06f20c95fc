"""Parameter sweeps with reproducible CSV/JSON artifacts.

Each quantity is described once, by a ``Quantity`` record in
``QUANTITIES``: the parameters it requires and the optional ones it
reads, the slab it builds, its evaluator and its output columns.  Point
evaluation, sweep validation and the command line all read that table.

A grid, the unit of evaluation, is held as columns: an array per swept
parameter (the axes expanded in axis-major order), a number per fixed
one.  It is checked once, with one slab of array fields per quantity,
and evaluated in one pass, into one array or list per output column:
each closed form as array expressions, the integrating quantities row
by row, all of a row back to back.  A point is a grid of numbers.

A sweep names a quantity, fixes the remaining parameters, and walks up
to two axes in deterministic axis-major order.  A CSV table is filled
from one row template with a single ``%`` operation.  Every output file
gets a sibling ``<name>.manifest.json`` recording the fixed parameters,
the tool version and the quadrature settings, so a run can be
reproduced byte for byte.  Both files are written under temporary
names in the target directory and renamed into place only when complete,
so a failed run leaves earlier outputs untouched.  The ``PRESETS`` records describe
the data behind the standard plots (main terms vs 1/eps_b, the isotropic
force vs separation for three thicknesses, the orientation-resolved
nanotube surfaces) as fixed grids over the same quantities.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .anisotropic import (
    crossover_thickness,
    f_parallel_ratio,
    f_perp_ratio,
    main_term_parallel,
    main_term_perp,
)
from .lifshitz import (
    ForceResult,
    casimir_pressure,
    lifshitz_force_local,
    nonlocal_isotropic_ratio,
    thin_limit_ratio,
)
from .quadrature import QuadratureSpec
from .response import IsotropicSlab, NanotubeArraySlab, _require, _require_background
from .validity import DEFAULT_THRESHOLD, applicability_report

__all__ = [
    "UsageError",
    "Quantity",
    "QUANTITIES",
    "SweepAxis",
    "SweepRequest",
    "evaluate_quantity",
    "run_sweep",
    "write_outputs",
    "Preset",
    "PRESETS",
    "run_preset",
]


class UsageError(ValueError):
    """Bad request: unknown quantity, malformed axis, missing parameter."""


AXIS_COLUMNS = {
    "d": "d_nm",
    "l": "l_nm",
    "eps_b": "eps_b",
    "R": "radius_nm",
    "layers": "layers",
}

FORCE_COLUMNS = ("ratio_to_casimir", "pressure_pa", "error_estimate", "validity")
MAIN_TERMS = ("main_parallel", "main_perp")
_ORIENTED = ("ratio_to_casimir", "error_estimate", "validity")  # fig4, per orientation
_SURROUNDINGS = ("eps_sub", "eps_sup")
CELL_FORMAT = "%.10g"  # a float cell: 10 significant digits, locale-free


def _count(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise UsageError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name in {d, l, eps_b, R, layers}."""

    name: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in AXIS_COLUMNS:
            raise UsageError(
                f"unknown axis {self.name!r}; choose from {sorted(AXIS_COLUMNS)}"
            )
        object.__setattr__(self, "points", _count(self.points, f"{self.name}: points"))
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"axis {self.name}: spacing must be linear or log")
        if self.spacing == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise UsageError(f"axis {self.name}: log spacing needs positive bounds")

    @property
    def param(self) -> str:
        """The parameter key the axis sets."""
        return "radius" if self.name == "R" else self.name

    def grid(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.start, self.stop, self.points)  # both ends exact


@dataclass(frozen=True)
class SweepRequest:
    """Grid description: quantity, fixed parameters, up to two axes."""

    quantity: str
    fixed_params: dict
    axes: tuple[SweepAxis, ...]
    output_path: str
    format: str = "csv"

    def __post_init__(self) -> None:
        _lookup(QUANTITIES, self.quantity, "quantity")
        if len(self.axes) > 2:
            raise UsageError("at most two sweep axes are supported")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class Quantity:
    """Everything the sweep, point and CLI code know about one quantity.

    ``slab(params, name)`` builds and checks the evaluator's input,
    without quadrature, for a grid (``params`` a number or an array over
    the rows per parameter), so no row fails once one is computed, and
    for each row of a quantity that ``integrates``.  ``evaluate(params,
    slab, spec)`` returns a dict with at least ``columns``: one row's
    values for a quantity that ``integrates``, else a number (standing
    for every row), array or list per column of the grid.
    """

    requires: tuple[str, ...]
    optional: tuple[str, ...]
    slab: Callable[[dict, str], object] | None
    evaluate: Callable[[dict, object, QuadratureSpec], dict]
    columns: tuple[str, ...] = FORCE_COLUMNS
    eps_b_default: float = 9.0  # 10 for the nanotube-array quantities
    integrates: bool = True  # reads the quadrature spec, one row at a time

    @property
    def params(self) -> tuple[str, ...]:
        return self.requires + self.optional


def _surroundings(params: dict) -> dict:
    # An absent permittivity means vacuum, the slab's default; an explicit
    # 0 reaches the slab, which rejects it.
    return {k: params[k] for k in _SURROUNDINGS if params.get(k) is not None}


def _iso_slab(params: dict, quantity: str) -> IsotropicSlab:
    return IsotropicSlab(
        omega_p3d=params["omega_p"],
        thickness_d=params["d"],
        eps_b=params["eps_b"],
        **_surroundings(params),
    )


def array_slab(params: dict, quantity: str) -> NanotubeArraySlab:
    radius = params["radius"]
    d, layers = params.get("d"), params.get("layers")
    if d is not None and layers is not None:
        raise UsageError(f"{quantity} takes d or layers, not both")
    if d is None:
        if layers is None:
            raise UsageError(f"{quantity} requires either d or layers")
        whole = np.rint(layers)
        _require(np.abs(layers - whole) <= 1e-9 * np.abs(whole),
                 quantity + ": layers must be whole numbers, got {}", layers)
        d = whole * 2.0 * radius  # n monolayers of diameter 2R
    return NanotubeArraySlab(
        omega_p3d=params["omega_p"],
        radius_R=radius,
        thickness_d=d,
        eps_b=params["eps_b"],
        period_Delta=params.get("delta"),
        **_surroundings(params),
    )


def _crossover_template(params: dict, quantity: str) -> NanotubeArraySlab:
    if not params["d_min"] < params["d_max"]:
        raise UsageError(
            f"need d_min < d_max, got {params['d_min']} >= {params['d_max']}"
        )
    # The bracket sets the thickness (crossover reads neither d nor layers),
    # so a slab must exist at both its ends before the search probes either.
    array_slab({**params, "d": params["d_max"], "layers": None}, quantity)
    return array_slab({**params, "d": params["d_min"], "layers": None}, quantity)


def _rows(columns: dict, shape: tuple) -> list[dict]:
    """The rows of a grid of ``shape`` as dicts of plain numbers; one for a point."""
    lists = [np.broadcast_to(v, shape or (1,)).tolist() for v in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*lists)]


def _force_columns(result: ForceResult) -> dict:
    return dict(zip(FORCE_COLUMNS, vars(result).values()))  # fields in this order


def _casimir(params: dict, slab: None, spec: QuadratureSpec) -> dict:
    return {
        "ratio_to_casimir": 1.0,
        "pressure_pa": casimir_pressure(params["l"]),
        "error_estimate": 0.0,
        "validity": "valid",
    }


def _main_terms(params: dict, slab: None, spec: QuadratureSpec) -> dict:
    return {
        "main_parallel": main_term_parallel(params["eps_b"], spec),
        "main_perp": main_term_perp(params["eps_b"], spec),
    }


def _crossover(params: dict, template, spec: QuadratureSpec) -> dict:
    result = crossover_thickness(
        template, params["l"], (params["d_min"], params["d_max"]), spec
    )
    return {
        "crossover_d_nm": result.crossover_d,
        "crossover_d_error_nm": result.d_error,
        "bracket_low_nm": result.bracket[0],
        "bracket_high_nm": result.bracket[1],
        "sign_low": result.sign_low,
        "sign_high": result.sign_high,
        "iterations": result.iterations,
    }


_VALIDITY = ("max_rel_deviation_s", "max_rel_deviation_p", "d_ok", "l_ok", "verdict")


def _validity(params: dict, slab: IsotropicSlab, spec: QuadratureSpec) -> dict:
    threshold = params.get("threshold")
    report = applicability_report(
        slab, params["l"], DEFAULT_THRESHOLD if threshold is None else threshold
    )
    return {name: getattr(report, name) for name in _VALIDITY}


_FILM = ("l", "d", "eps_b", "omega_p")
_ARRAY = ("l", "radius", "eps_b", "omega_p")
_ARRAY_OPTIONAL = ("d", "layers", "delta", *_SURROUNDINGS)

QUANTITIES = {
    "casimir": Quantity(("l",), (), None, _casimir, integrates=False),
    "lifshitz_local": Quantity(
        ("l", "omega_p"), (), None,
        lambda p, slab, spec: _force_columns(
            lifshitz_force_local(p["omega_p"], p["l"])),
        integrates=False,
    ),
    "iso_nonlocal": Quantity(
        _FILM, _SURROUNDINGS, _iso_slab,
        lambda p, slab, spec: _force_columns(
            nonlocal_isotropic_ratio(slab, p["l"], spec)),
    ),
    "iso_thin": Quantity(
        _FILM, _SURROUNDINGS, _iso_slab,
        lambda p, slab, spec: _force_columns(thin_limit_ratio(slab, p["l"])),
        integrates=False,
    ),
    "aniso_parallel": Quantity(
        _ARRAY, _ARRAY_OPTIONAL, array_slab,
        lambda p, slab, spec: _force_columns(
            f_parallel_ratio(slab, p["l"], spec)),
        eps_b_default=10.0,
    ),
    "aniso_perp": Quantity(
        _ARRAY, _ARRAY_OPTIONAL, array_slab,
        lambda p, slab, spec: _force_columns(
            f_perp_ratio(slab, p["l"], spec)),
        eps_b_default=10.0,
    ),
    "main_terms": Quantity(
        ("eps_b",), (), lambda params, name: _require_background(params["eps_b"]),
        _main_terms, MAIN_TERMS, eps_b_default=10.0,
    ),
    "crossover": Quantity(
        ("l", "d_min", "d_max", "radius", "eps_b", "omega_p"),
        ("delta", *_SURROUNDINGS), _crossover_template, _crossover,
        ("crossover_d_nm", "crossover_d_error_nm", "sign_low", "sign_high",
         "iterations"), eps_b_default=10.0,
    ),
    "validity": Quantity(
        _FILM, (*_SURROUNDINGS, "threshold"), _iso_slab, _validity, _VALIDITY,
        integrates=False,
    ),
}


def _lookup(table: dict, name: str, what: str):
    """``table[name]``, or a UsageError naming the choices."""
    if name not in table:
        raise UsageError(f"unknown {what} {name!r}; choose from {tuple(table)}")
    return table[name]


def _check_grid(quantity: str, params: dict):
    """Check a grid's parameters and build its slab for all rows at once,
    with the evaluators' own checks, so no row fails once one is computed."""
    record = _lookup(QUANTITIES, quantity, "quantity")
    missing = [k for k in record.requires if params.get(k) is None]
    if missing:
        raise UsageError(f"{quantity} requires parameters: {', '.join(missing)}")
    if "l" in record.params:
        casimir_pressure(params["l"])  # every evaluator's separation check
    return None if record.slab is None else record.slab(params, quantity)


def evaluate_quantity(quantities: Sequence[str], params: dict, spec: QuadratureSpec,
                      slabs: Sequence) -> list[dict]:
    """Compute a grid's cells in one pass, ``params`` a number or an array
    over the rows per parameter, into one dict per quantity of a number,
    array or list per column.  ``slabs`` are the cells' inputs from
    ``_check_grid``, which the caller has run.  The integrating quantities
    run row by row, those of a row back to back, each on the input its
    ``slab`` builds from that row alone; a closed form runs as arrays."""
    records = [_lookup(QUANTITIES, quantity, "quantity") for quantity in quantities]
    values = [None if record.integrates else record.evaluate(params, slab, spec)
              for record, slab in zip(records, slabs)]
    cells = [i for i, record in enumerate(records) if record.integrates]
    shape = np.broadcast_shapes(*map(np.shape, params.values()))  # () or (n,)
    by_row = [[records[i].evaluate(row, records[i].slab(row, quantities[i]), spec)
               for i in cells] for row in (_rows(params, shape) if cells else ())]
    for i, outputs in zip(cells, zip(*by_row)):
        values[i] = outputs[0] if not shape else {
            name: [out[name] for out in outputs] for name in outputs[0]}
    return values


def format_value(value) -> str:
    """Locale-free cell format: 10 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return CELL_FORMAT % value
    return str(value)


def _cells(column) -> tuple[str, list]:
    """A column's ``%`` spec and cells, as format_value writes them."""
    values = np.asarray(column)
    if values.dtype.kind == "U":
        return "%s", values.tolist()
    if values.dtype.kind == "f":
        return CELL_FORMAT, values.tolist()
    return "%s", list(map(format_value, values.tolist()))


def write_table(path: str | Path, names: Sequence[str], columns: Sequence,
                fmt: str = "csv") -> None:
    """Write equal-length columns (arrays or lists) as a CSV or JSON table,
    a CSV as one row template filled once."""
    path = Path(path)
    if fmt == "csv":
        specs, cells = zip(*map(_cells, columns))
        template = "%s\n" + (",".join(specs) + "\n") * len(cells[0])
        flat = (",".join(names), *itertools.chain.from_iterable(zip(*cells)))
        path.write_text(template % flat)
    else:
        values = [np.asarray(column).tolist() for column in columns]
        payload = {"columns": list(names), "rows": [list(row) for row in zip(*values)]}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(output_path: str | Path, payload: dict) -> Path:
    manifest_path = Path(str(output_path) + ".manifest.json")
    manifest_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return manifest_path


@contextlib.contextmanager
def write_outputs(request: SweepRequest, spec: QuadratureSpec, names: Sequence[str]):
    """A ``with`` block that writes a table and its manifest atomically.

    Entering creates a temporary file in the target directory, so a
    missing or unwritable directory fails before any point is computed.
    The block computes the columns and passes them to the ``write(columns)
    -> summary`` it gets.  Table and manifest are renamed into place when
    the block completes; on any error the temporary files are removed and
    earlier outputs keep their bytes.
    """
    target = Path(request.output_path)
    manifest_target = Path(str(request.output_path) + ".manifest.json")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp_manifest = Path(str(tmp) + ".manifest.json")
    try:
        tmp.touch()
    except OSError as exc:
        exc.filename = str(target)  # name the output, not its temporary file
        raise

    def write(columns: Sequence[Sequence]) -> dict:
        rows = len(columns[0])
        write_table(tmp, names, columns, request.format)
        write_manifest(tmp, {
            "tool": "casimir-slabs",
            "version": __version__,
            "quantity": request.quantity,
            "fixed_params": {
                k: v for k, v in request.fixed_params.items() if v is not None
            },
            "axes": [asdict(ax) for ax in request.axes],
            "quadrature": asdict(spec),
            "format": request.format,
            "columns": list(names),
            "rows": rows,
            "output": target.name,
        })
        return {
            "rows": rows,
            "output": str(request.output_path),
            "manifest": str(manifest_target),
        }

    try:
        yield write
        os.replace(tmp, target)
        os.replace(tmp_manifest, manifest_target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)
        raise


def _check_and_write(
    request: SweepRequest,
    spec: QuadratureSpec,
    names: Sequence[str],
    cells: Sequence[tuple[str, Sequence[str]]],
    leading: Sequence[Sequence],
    params: dict,
) -> dict:
    """Check the grid ``params`` for every quantity in ``cells``, then
    compute and write the table: the ``leading`` columns, then the named
    outputs of each quantity, from one evaluate_quantity call."""
    slabs = [_check_grid(quantity, params) for quantity, _ in cells]
    rows = len(leading[0]) if leading else 1
    with write_outputs(request, spec, names) as write:
        values = evaluate_quantity([q for q, _ in cells], params, spec, slabs)
        columns = [out[k] for out, (_, keys) in zip(values, cells) for k in keys]
        return write([*leading, *(np.broadcast_to(c, (rows,)) for c in columns)])


def _product(*grids: Sequence) -> list[np.ndarray]:
    """The columns of the grids' Cartesian product, the first slowest."""
    return [axis.ravel() for axis in np.meshgrid(*grids, indexing="ij")]


def run_sweep(request: SweepRequest, spec: QuadratureSpec = QuadratureSpec()) -> dict:
    """Execute a sweep: validate the whole grid, then compute and write.

    A parameter the quantity does not read or that is set twice (by two
    axes, or by an axis and a fixed value) is a UsageError.  Grid points
    are emitted in axis-major order, the first axis slowest, and reruns
    are byte-identical.  Returns a summary dict (rows, output paths).
    """
    record = QUANTITIES[request.quantity]
    swept = [ax.param for ax in request.axes]
    fixed = request.fixed_params
    keys = [k for k, v in fixed.items() if v is not None] + swept
    for i, key in enumerate(keys):
        if key not in record.params:
            raise UsageError(f"{key}: not read by {request.quantity}")
        if key in keys[:i]:
            raise UsageError(f"{key}: set by a sweep axis and another input")
    axes = _product(*(ax.grid() for ax in request.axes))
    names = [AXIS_COLUMNS[ax.name] for ax in request.axes] + list(record.columns)
    cells = [(request.quantity, record.columns)]
    params = {**fixed, **dict(zip(swept, axes))}
    return _check_and_write(request, spec, names, cells, axes, params)


@dataclass(frozen=True)
class Preset:
    """A standard figure data set: a fixed grid over table quantities.

    ``grid(settings)`` returns the leading columns and the evaluator
    parameters as grid columns.  The manifest records the settings
    (sizes and constants) as its fixed parameters and names the quantity
    of the first cell.
    """

    sizes: dict  # size parameter -> default
    constants: dict
    columns: tuple[str, ...]
    grid: Callable[[dict], tuple[list, dict]]
    cells: tuple[tuple[str, tuple[str, ...]], ...]  # (quantity, its outputs)


def _fig2_grid(settings: dict):
    # 1/eps_b in [1e-3, 0.99]: eps_b = 1 is a pole of the background factors
    inv = np.geomspace(1.0e-3, 0.99, settings["points"])
    return [inv, 1.0 / inv], {"eps_b": 1.0 / inv}


def _fig3_grid(settings: dict):
    omega_p, eps_b = settings["omega_p"], settings["eps_b"]
    l_grid = np.geomspace(100.0, 5000.0, settings["points"])
    d, l = _product(settings["d_values"], l_grid)
    return [d, l], {"l": l, "d": d, "eps_b": eps_b, "omega_p": omega_p}


def _fig4_grid(settings: dict):
    n, panels = settings["d_points"], settings["panels"]
    # 5 monolayers of growing tubes, or a growing stack of 2 nm tubes
    by_radius = [(float(r), 5) for r in np.linspace(0.5, 4.0, n)]
    by_layers = [(2.0, layers) for layers in range(1, n + 1)]
    modes = {"a": (10.0, by_radius), "b": (10.0, by_layers),
             "c": (5.0, by_radius), "d": (5.0, by_layers)}
    known = isinstance(panels, str) and len(set(panels) & set(modes)) == len(panels)
    if not (panels and known):
        raise UsageError(f"fig4 panels must be some of abcd, each once, got {panels!r}")
    l_grid = np.geomspace(500.0, 5000.0, settings["l_points"]).tolist()
    rows = [
        (panel, modes[panel][0], radius, layers, layers * 2.0 * radius, l)
        for panel in panels
        for (radius, layers), l in itertools.product(modes[panel][1], l_grid)
    ]
    leading = [np.array(column) for column in zip(*rows)]
    _, eps_b, radius, _, d, l = leading
    return leading, {"l": l, "d": d, "radius": radius, "eps_b": eps_b,
                     "omega_p": settings["omega_p"]}


PRESETS = {
    # main expansion terms against 1/eps_b; both tend to 1 as 1/eps_b -> 0
    "fig2": Preset(
        {"points": 50}, {}, ("inv_eps_b", "eps_b", *MAIN_TERMS),
        _fig2_grid, (("main_terms", MAIN_TERMS),),
    ),
    # isotropic nonlocal force vs separation for 10/20/200 nm slabs, with
    # the local-metal force as a reference column
    "fig3": Preset(
        {"points": 25},
        {"omega_p": 2.0e16, "eps_b": 9.0, "d_values": [10.0, 20.0, 200.0]},
        ("d_nm", "l_nm", *FORCE_COLUMNS, "ratio_lifshitz_local"), _fig3_grid,
        (("iso_nonlocal", FORCE_COLUMNS), ("lifshitz_local", ("ratio_to_casimir",))),
    ),
    # orientation-resolved forces of dense (period 2R), free-standing arrays:
    # 5 monolayers of tubes with R = 0.5..4 nm (radius panels), or
    # 1..d_points monolayers of 2 nm tubes (layer panels)
    "fig4": Preset(
        {"d_points": 5, "l_points": 6, "panels": "abcd"},
        {"omega_p": 2.0e16},
        ("panel", "eps_b", "radius_nm", "layers", "d_nm", "l_nm",
         "ratio_parallel", "error_parallel", "validity_parallel",
         "ratio_perp", "error_perp", "validity_perp", *MAIN_TERMS),
        _fig4_grid,
        (("aniso_parallel", _ORIENTED), ("aniso_perp", _ORIENTED),
         ("main_terms", MAIN_TERMS)),
    ),
}


def run_preset(
    name: str, output_path: str | Path, spec: QuadratureSpec = QuadratureSpec(), **sizes
) -> dict:
    """Validate, compute and write preset ``name``; a size given as None
    keeps its default."""
    preset = _lookup(PRESETS, name, "preset")
    if not sizes.keys() <= preset.sizes.keys():
        raise UsageError(f"{name} takes only the sizes {tuple(preset.sizes)}")
    settings = {"preset": name, **preset.sizes, **preset.constants}
    settings.update((k, v) for k, v in sizes.items() if v is not None)
    settings.update((k, _count(settings[k], k)) for k in sizes if k.endswith("points"))
    request = SweepRequest(preset.cells[0][0], settings, (), output_path)
    leading, params = preset.grid(settings)
    return _check_and_write(request, spec, preset.columns,
                            preset.cells, leading, params)
