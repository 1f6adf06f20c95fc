"""Parameter sweeps with reproducible CSV/JSON artifacts.

Each quantity is described once, by a ``Quantity`` record in
``QUANTITIES``: the parameters it requires and the optional ones it
reads, the slab it builds, its evaluator and its output columns.  Point
evaluation, sweep validation and the command line all read that table.

A sweep names a quantity, fixes the remaining parameters, and walks up
to two axes in deterministic axis-major order.  Every output file gets a
sibling ``<name>.manifest.json`` recording the fixed parameters, the
tool version and the quadrature settings, so a run can be reproduced
byte for byte.  Both files are written under temporary names in the
target directory and renamed into place only when complete, so a failed
run leaves earlier outputs untouched.  The three ``fig*`` presets
generate the data behind the standard plots: main terms vs 1/eps_b, the
isotropic force vs separation for three thicknesses, and the
orientation-resolved nanotube surfaces.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .anisotropic import (
    crossover_thickness,
    f_parallel_ratio,
    f_perp_ratio,
    main_term_parallel,
    main_term_perp,
    orientation_forces,
)
from .lifshitz import (
    ForceResult,
    casimir_pressure,
    lifshitz_force_local,
    nonlocal_isotropic_ratio,
    thin_limit_ratio,
)
from .quadrature import QuadratureSpec
from .response import IsotropicSlab, NanotubeArraySlab
from .validity import applicability_report

__all__ = [
    "UsageError",
    "Quantity",
    "QUANTITIES",
    "SweepAxis",
    "SweepRequest",
    "evaluate_quantity",
    "run_sweep",
    "write_outputs",
    "preset_fig2",
    "preset_fig3",
    "preset_fig4",
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
_SURROUNDINGS = ("eps_sub", "eps_sup")


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
        if self.points < 1:
            raise UsageError(f"axis {self.name}: points must be >= 1")
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"axis {self.name}: spacing must be linear or log")
        if self.spacing == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise UsageError(f"axis {self.name}: log spacing needs positive bounds")

    @property
    def param(self) -> str:
        """The parameter key the axis sets."""
        return "radius" if self.name == "R" else self.name

    def grid(self) -> list[float]:
        if self.points == 1:
            return [float(self.start)]
        if self.spacing == "log":
            values = np.geomspace(self.start, self.stop, self.points)
        else:
            values = np.linspace(self.start, self.stop, self.points)
        return [float(v) for v in values]


@dataclass(frozen=True)
class SweepRequest:
    """Grid description: quantity, fixed parameters, up to two axes."""

    quantity: str
    fixed_params: dict
    axes: tuple[SweepAxis, ...]
    output_path: str
    format: str = "csv"

    def __post_init__(self) -> None:
        record = _record(self.quantity)
        if len(self.axes) > 2:
            raise UsageError("at most two sweep axes are supported")
        for ax in self.axes:
            if ax.param not in record.params:
                raise UsageError(f"{self.quantity} does not read the {ax.name} axis")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class Quantity:
    """Everything the sweep, point and CLI code know about one quantity.

    ``slab(params, name)`` builds and checks the evaluator's input without
    any quadrature, so a whole grid is validated before the first point
    is computed.  ``evaluate(params, slab, spec)`` returns a dict holding
    at least ``columns``.
    """

    requires: tuple[str, ...]
    optional: tuple[str, ...]
    slab: Callable[[dict, str], object] | None
    evaluate: Callable[[dict, object, QuadratureSpec], dict]
    columns: tuple[str, ...] = FORCE_COLUMNS
    array: bool = False  # a nanotube-array quantity rather than a film one

    @property
    def params(self) -> tuple[str, ...]:
        return self.requires + self.optional

    @property
    def eps_b_default(self) -> float:
        return 10.0 if self.array else 9.0


def _require(params: dict, keys: Sequence[str], quantity: str) -> None:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise UsageError(f"{quantity} requires parameters: {', '.join(missing)}")


def _surroundings(params: dict) -> dict:
    # An absent permittivity means vacuum; an explicit 0 reaches the slab,
    # which rejects it.
    sub, sup = params.get("eps_sub"), params.get("eps_sup")
    return {
        "eps_sub": 1.0 if sub is None else sub,
        "eps_sup": 1.0 if sup is None else sup,
    }


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
        d = int(round(layers)) * 2.0 * radius  # n monolayers of diameter 2R
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
    # The bracket sets the thickness: crossover reads neither d nor layers.
    return array_slab({**params, "d": params["d_max"], "layers": None}, quantity)


def _check_background(params: dict, quantity: str) -> None:
    if params["eps_b"] <= 1.0:
        raise UsageError(f"{quantity} requires eps_b > 1")


def _force_row(result: ForceResult) -> dict:
    return {
        "ratio_to_casimir": result.ratio_to_casimir,
        "pressure_pa": result.pressure,
        "error_estimate": result.error_estimate,
        "validity": result.validity,
    }


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
        "bracket_low_nm": result.bracket[0],
        "bracket_high_nm": result.bracket[1],
        "sign_low": result.sign_low,
        "sign_high": result.sign_high,
        "iterations": result.iterations,
    }


def _validity(params: dict, slab: IsotropicSlab, spec: QuadratureSpec) -> dict:
    threshold = params.get("threshold")
    report = applicability_report(
        slab, params["l"], 0.01 if threshold is None else threshold
    )
    return {
        "max_rel_deviation_s": report.max_rel_deviation_s,
        "max_rel_deviation_p": report.max_rel_deviation_p,
        "d_ok": report.d_ok,
        "l_ok": report.l_ok,
        "verdict": report.verdict,
    }


_FILM = ("l", "d", "eps_b", "omega_p")
_ARRAY = ("l", "radius", "eps_b", "omega_p")
_ARRAY_OPTIONAL = ("d", "layers", "delta", *_SURROUNDINGS)

QUANTITIES = {
    "casimir": Quantity(("l",), (), None, _casimir),
    "lifshitz_local": Quantity(
        ("l", "omega_p"), (), None,
        lambda p, slab, spec: _force_row(lifshitz_force_local(p["omega_p"], p["l"])),
    ),
    "iso_nonlocal": Quantity(
        _FILM, _SURROUNDINGS, _iso_slab,
        lambda p, slab, spec: _force_row(nonlocal_isotropic_ratio(slab, p["l"], spec)),
    ),
    "iso_thin": Quantity(
        _FILM, _SURROUNDINGS, _iso_slab,
        lambda p, slab, spec: _force_row(thin_limit_ratio(slab, p["l"])),
    ),
    "aniso_parallel": Quantity(
        _ARRAY, _ARRAY_OPTIONAL, array_slab,
        lambda p, slab, spec: _force_row(f_parallel_ratio(slab, p["l"], spec)),
        array=True,
    ),
    "aniso_perp": Quantity(
        _ARRAY, _ARRAY_OPTIONAL, array_slab,
        lambda p, slab, spec: _force_row(f_perp_ratio(slab, p["l"], spec)),
        array=True,
    ),
    "main_terms": Quantity(
        ("eps_b",), (), _check_background, _main_terms,
        ("main_parallel", "main_perp"), array=True,
    ),
    "crossover": Quantity(
        ("l", "d_min", "d_max", "radius", "eps_b", "omega_p"),
        ("delta", *_SURROUNDINGS), _crossover_template, _crossover,
        ("crossover_d_nm", "sign_low", "sign_high", "iterations"), array=True,
    ),
    "validity": Quantity(
        _FILM, (*_SURROUNDINGS, "threshold"), _iso_slab, _validity,
        ("max_rel_deviation_s", "max_rel_deviation_p", "d_ok", "l_ok", "verdict"),
    ),
}


def _record(quantity: str) -> Quantity:
    if quantity not in QUANTITIES:
        raise UsageError(
            f"unknown quantity {quantity!r}; choose from {tuple(QUANTITIES)}"
        )
    return QUANTITIES[quantity]


def _prepare(quantity: str, params: dict) -> tuple[Quantity, object]:
    """Check one point's parameters and build its slab; no quadrature."""
    record = _record(quantity)
    _require(params, record.requires, quantity)
    return record, None if record.slab is None else record.slab(params, quantity)


def evaluate_quantity(quantity: str, params: dict, spec: QuadratureSpec) -> dict:
    """Compute one grid point; returns the output columns for that quantity."""
    record, slab = _prepare(quantity, params)
    return record.evaluate(params, slab, spec)


def format_value(value) -> str:
    """Locale-free cell format: 10 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence],
                fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = {"columns": list(columns), "rows": [list(row) for row in rows]}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(output_path: str | Path, payload: dict) -> Path:
    manifest_path = Path(str(output_path) + ".manifest.json")
    manifest_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return manifest_path


def write_outputs(
    request: SweepRequest,
    spec: QuadratureSpec,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> dict:
    """Compute ``rows`` and write the table and its manifest atomically.

    ``rows`` may be a generator.  It is consumed only once a temporary
    file exists in the target directory, so a missing or unwritable
    directory fails before any point is computed.  Table and manifest
    are renamed into place only when both are complete; on any error the
    temporary files are removed and earlier outputs keep their bytes.
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
    try:
        rows = list(rows)
        write_table(tmp, columns, rows, request.format)
        payload = {
            "tool": "casimir-slabs",
            "version": __version__,
            "quantity": request.quantity,
            "fixed_params": {
                k: v for k, v in request.fixed_params.items() if v is not None
            },
            "axes": [asdict(ax) for ax in request.axes],
            "quadrature": asdict(spec),
            "format": request.format,
            "columns": list(columns),
            "rows": len(rows),
            "output": target.name,
        }
        write_manifest(tmp, payload)
        os.replace(tmp, target)
        os.replace(tmp_manifest, manifest_target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)
        raise
    return {
        "rows": len(rows),
        "output": str(request.output_path),
        "manifest": str(manifest_target),
    }


def run_sweep(request: SweepRequest, spec: QuadratureSpec | None = None) -> dict:
    """Execute a sweep: validate the whole grid, then compute and write.

    Returns a small summary dict (rows written, output paths).  Grid
    points are emitted in axis-major order: the first axis varies
    slowest.  Reruns of the same request produce byte-identical files.
    """
    spec = spec or QuadratureSpec()
    record = QUANTITIES[request.quantity]
    combos = list(itertools.product(*(ax.grid() for ax in request.axes)))

    # Validate every grid point (slab invariants, required parameters)
    # before any quadrature or file output.
    swept = [ax.param for ax in request.axes]
    param_sets = []
    for combo in combos:
        params = dict(request.fixed_params)
        params.update(zip(swept, combo))
        _prepare(request.quantity, params)
        param_sets.append(params)

    def rows():
        for combo, params in zip(combos, param_sets):
            outputs = evaluate_quantity(request.quantity, params, spec)
            yield list(combo) + [outputs[c] for c in record.columns]

    columns = [AXIS_COLUMNS[ax.name] for ax in request.axes] + list(record.columns)
    return write_outputs(request, spec, columns, rows())


# ---------------------------------------------------------------------------
# Presets reproducing the standard figure data sets.  Their grids are not
# sweep axes, so each generates its own rows; the manifest records the
# preset's settings as its fixed parameters.


def preset_fig2(
    output_path: str | Path,
    points: int = 50,
    spec: QuadratureSpec | None = None,
) -> dict:
    """Main expansion terms against 1/eps_b.

    The grid spans 1/eps_b in [1e-3, 0.99]; the endpoint eps_b = 1 is a
    pole of the background factors and is excluded.  Both columns tend
    to 1 as 1/eps_b -> 0.
    """
    spec = spec or QuadratureSpec()

    def rows():
        for inv in np.geomspace(1.0e-3, 0.99, points):
            eps_b = 1.0 / float(inv)
            yield [float(inv), eps_b, *_main_terms({"eps_b": eps_b}, None, spec).values()]

    request = SweepRequest(
        "main_terms", {"preset": "fig2", "points": points}, (), output_path
    )
    return write_outputs(
        request, spec, ["inv_eps_b", "eps_b", "main_parallel", "main_perp"], rows()
    )


def preset_fig3(
    output_path: str | Path,
    points: int = 25,
    spec: QuadratureSpec | None = None,
) -> dict:
    """Isotropic nonlocal force vs separation for 10/20/200 nm slabs,
    with the local-metal force as a reference column."""
    spec = spec or QuadratureSpec()
    omega_p, eps_b = 2.0e16, 9.0
    l_grid = [float(v) for v in np.geomspace(100.0, 5000.0, points)]

    def rows():
        for d in (10.0, 20.0, 200.0):
            slab = IsotropicSlab(omega_p3d=omega_p, thickness_d=d, eps_b=eps_b)
            for l in l_grid:
                res = nonlocal_isotropic_ratio(slab, l, spec)
                local = lifshitz_force_local(omega_p, l)
                yield [d, l, *_force_row(res).values(), local.ratio_to_casimir]

    settings = {
        "preset": "fig3",
        "omega_p": omega_p,
        "eps_b": eps_b,
        "d_values": [10.0, 20.0, 200.0],
        "points": points,
    }
    return write_outputs(
        SweepRequest("iso_nonlocal", settings, (), output_path),
        spec,
        ["d_nm", "l_nm", *FORCE_COLUMNS, "ratio_lifshitz_local"],
        rows(),
    )


_FIG4_PANELS = {
    # panel: (eps_b, mode); mode "radius" = 5 monolayers of growing tubes,
    # mode "layers" = growing stack of 2 nm tubes.
    "a": (10.0, "radius"),
    "b": (10.0, "layers"),
    "c": (5.0, "radius"),
    "d": (5.0, "layers"),
}


def preset_fig4(
    output_path: str | Path,
    d_points: int = 5,
    l_points: int = 6,
    panels: str = "abcd",
    spec: QuadratureSpec | None = None,
) -> dict:
    """Orientation-resolved nanotube-array force surfaces.

    Radius panels: 5-monolayer slabs of tubes with radius 0.5..4 nm.
    Layer panels: 1..d_points monolayers of 2 nm tubes.  Densely packed
    arrays (period = 2R), free-standing, omega_p = 2e16 1/s.
    """
    spec = spec or QuadratureSpec()
    if not panels:
        raise UsageError("fig4 needs at least one panel")
    for panel in panels:
        if panel not in _FIG4_PANELS:
            raise UsageError(f"unknown fig4 panel {panel!r}")
    omega_p = 2.0e16
    l_grid = [float(v) for v in np.geomspace(500.0, 5000.0, l_points)]

    def rows():
        main_terms: dict[float, list] = {}
        for panel in panels:
            eps_b, mode = _FIG4_PANELS[panel]
            if eps_b not in main_terms:
                main_terms[eps_b] = list(_main_terms({"eps_b": eps_b}, None, spec).values())
            if mode == "radius":
                configs = [(float(r), 5) for r in np.linspace(0.5, 4.0, d_points)]
            else:
                configs = [(2.0, n) for n in range(1, d_points + 1)]
            for radius, layers in configs:
                d = layers * 2.0 * radius
                slab = NanotubeArraySlab(
                    omega_p3d=omega_p, radius_R=radius, thickness_d=d, eps_b=eps_b
                )
                for l in l_grid:
                    row = [panel, eps_b, radius, layers, d, l]
                    forces = orientation_forces(slab, l, spec)
                    for res in (forces.f_parallel, forces.f_perp):
                        row += [res.ratio_to_casimir, res.error_estimate, res.validity]
                    yield row + main_terms[eps_b]

    settings = {
        "preset": "fig4",
        "panels": panels,
        "omega_p": omega_p,
        "d_points": d_points,
        "l_points": l_points,
    }
    return write_outputs(
        SweepRequest("aniso_parallel", settings, (), output_path),
        spec,
        ["panel", "eps_b", "radius_nm", "layers", "d_nm", "l_nm"]
        + [f"{c}_{o}" for o in ("parallel", "perp") for c in ("ratio", "error", "validity")]
        + ["main_parallel", "main_perp"],
        rows(),
    )
