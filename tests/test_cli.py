import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from casimir_slabs import (
    IsotropicSlab, NanotubeArraySlab, cli, orientation_forces, sweep,
)
from casimir_slabs.cli import (
    COMMANDS,
    FLAGS,
    QUADRATURE_FLAGS,
    _build_parser,
    main,
    run_point,
)
from casimir_slabs.quadrature import QuadratureError, QuadratureSpec
from casimir_slabs.sweep import _check_grid, evaluate_quantity, format_value

FAST = ["--rel-tol", "1e-6", "--abs-tol", "1e-10"]
# Expected bytes of the files the small runs below write, by file name.
# A difference is a change of output, which a refactor must not make.
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(*paths):
    for path in paths:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def with_manifest(path):
    return path, path.with_name(path.name + ".manifest.json")


def result_records(stdout):
    return [
        json.loads(line[len("RESULT "):])
        for line in stdout.splitlines()
        if line.startswith("RESULT ")
    ]


class TestPointCommands:
    def test_casimir_micron(self, capsys):
        code, out, _ = run(capsys, "casimir", "--l-nm", "1000")
        assert code == 0
        record = result_records(out)[0]
        assert record["pressure_pa"] == pytest.approx(1.300e-3, rel=1e-3)
        assert record["ratio_to_casimir"] == 1.0

    def test_nonlocal_below_local(self, capsys):
        code1, out1, _ = run(
            capsys, "iso-nonlocal", "--d-nm", "10", "--l-nm", "1000",
            "--eps-b", "9", "--omega-p", "2e16", *FAST,
        )
        code2, out2, _ = run(
            capsys, "lifshitz-local", "--omega-p", "2e16", "--l-nm", "1000",
        )
        assert code1 == code2 == 0
        nonlocal_ratio = result_records(out1)[0]["ratio_to_casimir"]
        local_ratio = result_records(out2)[0]["ratio_to_casimir"]
        assert nonlocal_ratio < local_ratio

    def test_thin_limit_huge_geometry(self, capsys):
        code, out, _ = run(
            capsys, "iso-thin", "--d-nm", "1e6", "--l-nm", "1e6",
        )
        assert code == 0
        assert result_records(out)[0]["ratio_to_casimir"] > 0.9999

    def test_aniso_both_orientations(self, capsys):
        code, out, _ = run(
            capsys, "aniso", "--l-nm", "1000", "--layers", "5", *FAST,
        )
        assert code == 0
        records = result_records(out)
        assert {r["quantity"] for r in records} == {"aniso_parallel", "aniso_perp"}

    @pytest.mark.parametrize("orientation", ["parallel", "perp"])
    def test_aniso_one_orientation_is_its_record_of_both(self, capsys, orientation):
        argv = ("aniso", "--l-nm", "1000", "--layers", "5", *FAST, "--orientation")
        code, out, _ = run(capsys, *argv, orientation)
        assert code == 0
        (record,) = result_records(out)
        both = result_records(run(capsys, *argv, "both")[1])
        assert record in both
        assert record["quantity"] == "aniso_" + orientation

    def test_validity_report(self, capsys):
        code, out, _ = run(capsys, "validity", "--d-nm", "20", "--l-nm", "1000")
        assert code == 0
        record = result_records(out)[0]
        assert record["verdict"] is True

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "casimir")
        assert code == 2
        assert "requires" in err

    def test_unknown_flag(self, capsys):
        assert run(capsys, "casimir", "--l-nm", "10", "--bogus", "1")[0] == 2

    def test_invalid_slab_is_usage_error(self, capsys):
        # surroundings screen as much as the film: type invariant violation
        code, _, err = run(
            capsys, "iso-nonlocal", "--d-nm", "10", "--l-nm", "1000",
            "--eps-b", "1.5",
        )
        assert code == 2

    def test_quadrature_failure_exit_code(self, capsys):
        broken = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)  # below the roundoff floor
        params = {"l": 1000.0, "d": 10.0, "eps_b": 9.0, "omega_p": 2e16}
        code = run_point("iso_nonlocal", params, broken)
        out = capsys.readouterr().out
        assert code == 3
        assert result_records(out)[0]["validity"] == "quadrature_failed"

    def test_unconverged_main_terms_exit_3(self, capsys):
        code, out, err = run(
            capsys, "main-terms", "--eps-b", "10", "--rel-tol", "1e-16", "--abs-tol", "0"
        )
        assert code == 3
        assert out == "" and "main term did not converge" in err

    def test_infinite_correction_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "iso-thin", "--d-nm", "1e-10", "--l-nm", "1", "--omega-p", "1e-300"
        )
        assert code == 2
        assert "Infinity" not in out and "RESULT" not in out
        assert "no finite pressure" in err

    def test_result_line_is_strict_json(self, capsys, monkeypatch):
        # any non-finite output left over is refused, not printed as Infinity
        monkeypatch.setattr(
            cli, "evaluate_quantity", lambda *a: [{"ratio_to_casimir": float("inf")}]
        )
        code, out, _ = run(capsys, "casimir", "--l-nm", "1000")
        assert code == 2
        assert "RESULT" not in out


@pytest.mark.parametrize(
    "argv",
    [
        "iso-thin --d-nm 10 --l-nm 1000 --eps-sub 0",
        "iso-thin --d-nm 10 --l-nm 1000 --eps-sup 0",
        "aniso --layers 5 --l-nm 1000 --eps-sub 0",
        "validity --d-nm 20 --l-nm 1000 --threshold 0",
        "casimir --l-nm 1000 --rel-tol 0",
        "casimir --l-nm 1000 --config {tmp}/empty-transform.conf",
        "main-terms --rel-tol 0",
        "main-terms --config {tmp}/empty-transform.conf",
        "preset fig2 --points 0 --out {tmp}/x.csv",
        "preset fig4 --d-points 0 --out {tmp}/x.csv",
        "preset fig4 --l-points 0 --out {tmp}/x.csv",
        "crossover --l-nm 1000 --d-min-nm 40 --d-max-nm 50 --curve-out {tmp}/x.csv "
        "--curve-points 0",
    ],
)
def test_explicit_zero_is_not_replaced_by_default(capsys, tmp_path, argv):
    (tmp_path / "empty-transform.conf").write_text("p-transform =\n")
    code, out, _ = run(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert "RESULT" not in out
    assert not (tmp_path / "x.csv").exists()


def test_flag_table_matches_quantities():
    # A point subcommand takes exactly the parameters its quantity reads,
    # and the quadrature flags only where that quantity integrates.
    parser = _build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    without_quadrature = set()
    for command, (_, quantities, extra) in COMMANDS.items():
        dests = {a.dest for a in subparsers[command]._actions} - {"help", "config"}
        quadrature = dests & set(QUADRATURE_FLAGS)
        for quantity in quantities:
            record = sweep.QUANTITIES[quantity]
            keys = {FLAGS[dest].key for dest in dests - quadrature - set(extra)}
            assert keys == set(record.params), command
            expected = set(QUADRATURE_FLAGS) if record.integrates else set()
            assert quadrature == expected, command
        if not quadrature:
            without_quadrature.add(command)
    assert without_quadrature == {"casimir", "lifshitz-local", "iso-thin", "validity"}
    for command in ("sweep", "preset"):
        dests = {a.dest for a in subparsers[command]._actions}
        assert set(QUADRATURE_FLAGS) <= dests


@pytest.mark.parametrize(
    "argv",
    [
        # fixed flags a sweep does not read: unread, swept, or quadrature
        "sweep --quantity casimir --axis l:100:1000:2 --d-nm 5 --out {tmp}/x.csv",
        "sweep --quantity iso_nonlocal --axis l:500:2000:3 --l-nm 1000 --d-nm 20 "
        "--out {tmp}/x.csv",
        "sweep --quantity aniso_parallel --axis R:1:2:2 --d-nm 20 --l-nm 1000 "
        "--radius-nm 2 --out {tmp}/x.csv",
        "sweep --quantity lifshitz_local --axis l:100:1000:2 --rel-tol 1e-6 "
        "--out {tmp}/x.csv",
        "sweep --quantity iso_thin --axis l:100:1000:2 --d-nm 10 "
        "--p-transform shifted-square --out {tmp}/x.csv",
        # preset sizes the preset does not read
        "preset fig2 --points 2 --d-points 3 --out {tmp}/x.csv",
        "preset fig3 --points 2 --panels a --out {tmp}/x.csv",
        "preset fig4 --points 2 --d-points 2 --l-points 2 --out {tmp}/x.csv",
        # fig4 panels: none, one that does not exist, or one given twice
        "preset fig4 --panels= --points 1 --out {tmp}/x.csv",
        "preset fig4 --panels x --points 1 --out {tmp}/x.csv",
        "preset fig4 --panels aa --d-points 1 --l-points 1 --out {tmp}/x.csv",
        # an abbreviated flag is not the flag it abbreviates
        "casimir --l 1000",
        # flags a point command does not have
        "casimir --l-nm 1000 --rel-tol 1e-3",
        "validity --d-nm 20 --l-nm 1000 --abs-tol 1e-9",
        "crossover --l-nm 1000 --d-min-nm 40 --d-max-nm 50 --curve-points 5",
        # values no evaluator can use
        "casimir --l-nm nan",
        "casimir --l-nm inf",
        "casimir --l-nm 1e-80",
        "iso-thin --d-nm nan --l-nm 1000",
        "sweep --quantity iso_thin --axis d:nan:10:2 --l-nm 1000 --out {tmp}/x.csv",
        # axes without points, with an unknown spacing, or log through 0
        "sweep --quantity casimir --axis l:1:2:0 --out {tmp}/x.csv",
        "sweep --quantity casimir --axis l:1:2:3:cubic --out {tmp}/x.csv",
        "sweep --quantity casimir --axis l:0:2:3:log --out {tmp}/x.csv",
        # an array thickness given neither as d nor as layers
        "aniso --l-nm 1000",
        # a layers axis through counts that are not whole (1.667, 2.333)
        "sweep --quantity aniso_parallel --axis layers:1:3:4 --l-nm 1000 "
        "--out {tmp}/x.csv",
    ],
)
def test_unread_or_unusable_input_is_usage_error(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert "RESULT" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,config,flag",
    [
        ("aniso --layers 5 --l-nm 1000", "orientation = sideways", "--orientation"),
        ("sweep --quantity casimir --axis l:1:2:2", "format = xml", "--format"),
        ("casimir", "l-nm = nan", "--l-nm"),
        ("lifshitz-local", "l-nm = 1000\nradius-nm = 3", "--radius-nm"),
        ("sweep --quantity casimir --axis l:100:1000:2", "d-nm = 5", "--d-nm"),
        ("sweep --quantity lifshitz_local --axis l:1:2:2", "rel-tol = 1e-6", "--rel-tol"),
        ("preset fig2 --points 2", "panels = ab", "--panels"),
        ("casimir", "l = 1000", "--l"),
    ],
)
def test_config_values_are_checked_as_flags(capsys, tmp_path, argv, config, flag):
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n")
    out_path = tmp_path / "x.csv"
    extra = ["--out", str(out_path)] if argv.startswith(("sweep", "preset")) else []
    code, out, err = run(capsys, *argv.split(), *extra, "--config", str(conf))
    assert code == 2
    assert flag in err
    assert "RESULT" not in out
    assert not out_path.exists()


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("l-nm = 1000\n# comment\nomega-p = 2e16\n")
        code, out, _ = run(capsys, "lifshitz-local", "--config", str(config))
        assert code == 0
        assert result_records(out)[0]["ratio_to_casimir"] == pytest.approx(0.92, abs=1e-3)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("l-nm = 1000\n")
        code, out, _ = run(
            capsys, "casimir", "--config", str(config), "--l-nm", "2000",
        )
        assert code == 0
        assert result_records(out)[0]["params"]["l"] == 2000.0

    def test_config_axis_lines_add_axes(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("quantity = casimir\naxis = l:100:1000:2\n")
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "sweep", "--out", str(out), "--config", str(config))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header and 2 rows
        # the file's axes come before the command line's own
        config.write_text("axis = d:10:20:2\n")
        code, _, _ = run(
            capsys, "sweep", "--quantity", "iso_thin", "--axis", "l:200:300:2",
            "--out", str(out), "--config", str(config),
        )
        assert code == 0
        assert out.read_text().startswith("d_nm,l_nm,")

    def test_colon_form_matches_the_equals_form(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("l-nm: 1000\n")
        colon = run(capsys, "casimir", "--config", str(config))
        assert colon == run(capsys, "casimir", "--l-nm", "1000")
        assert colon[0] == 0

    def test_the_first_separator_splits(self, capsys, tmp_path):
        # a value may hold the other separator, as axis = l:100:1000:2 does
        config = tmp_path / "run.conf"
        config.write_text(f"out: {tmp_path / 'a=b.csv'}\n")
        code, _, err = run(capsys, "preset", "fig2", "--points", "2",
                           "--config", str(config))
        assert code == 0, err
        assert (tmp_path / "a=b.csv").is_file()

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("just words without separator\n")
        assert run(capsys, "casimir", "--l-nm", "10", "--config", str(config))[0] == 2


class TestParserIsBuiltOnce:
    """main() reuses one parser; each call parses into a fresh namespace."""

    def test_two_calls_build_one_parser(self, capsys):
        _build_parser.cache_clear()
        assert run(capsys, "casimir", "--l-nm", "1000")[0] == 0
        assert run(capsys, "casimir", "--l-nm", "2000")[0] == 0
        assert _build_parser.cache_info().misses == 1

    def test_appended_axes_do_not_leak(self, capsys, tmp_path):
        first, second = tmp_path / "dl.csv", tmp_path / "l.csv"
        code, _, _ = run(
            capsys, "sweep", "--quantity", "iso_thin", "--axis", "d:10:20:2",
            "--axis", "l:500:1000:2", "--out", str(first),
        )
        assert code == 0
        code, _, err = run(
            capsys, "sweep", "--quantity", "iso_thin", "--d-nm", "10",
            "--axis", "l:500:1000:3", "--out", str(second),
        )
        assert (code, err) == (0, "")
        lines = second.read_text().splitlines()
        assert lines[0].split(",")[0] == "l_nm"
        assert [line.split(",")[0] for line in lines[1:]] == ["500", "750", "1000"]

    def test_resolved_defaults_do_not_leak(self, capsys, tmp_path):
        # both sweeps parse with the same subparser; the first resolves eps_b 10
        eps_b = {}
        for quantity, fixed in (("aniso_parallel", ["--layers", "1", *FAST]),
                                ("iso_thin", ["--d-nm", "10"])):
            out = tmp_path / f"{quantity}.csv"
            code, _, _ = run(
                capsys, "sweep", "--quantity", quantity, "--axis", "l:1000:2000:2",
                *fixed, "--out", str(out),
            )
            assert code == 0
            manifest = json.loads(with_manifest(out)[1].read_text())
            eps_b[quantity] = manifest["fixed_params"]["eps_b"]
        assert eps_b == {"aniso_parallel": 10.0, "iso_thin": 9.0}


class TestSweep:
    def _sweep_args(self, out_path):
        return [
            "sweep", "--quantity", "iso_nonlocal",
            "--axis", "l:500:2000:3:log", "--d-nm", "20", "--out", str(out_path),
            *FAST,
        ]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(self._sweep_args(first)) == 0
        assert main(self._sweep_args(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_rows_match_point_recomputation(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self._sweep_args(out)) == 0
        capsys.readouterr()
        header, *rows = out.read_text().strip().splitlines()
        columns = header.split(",")
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            params = {
                "l": float(cells["l_nm"]), "d": 20.0, "eps_b": 9.0,
                "omega_p": 2e16, "eps_sub": 1.0, "eps_sup": 1.0,
            }
            (point,) = evaluate_quantity(
                ("iso_nonlocal",), params, spec, [_check_grid("iso_nonlocal", params)]
            )
            assert cells["validity"] == point["validity"]
            assert float(cells["ratio_to_casimir"]) == pytest.approx(
                point["ratio_to_casimir"], rel=1e-9
            )

    def test_manifest_written(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self._sweep_args(out)) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["tool"] == "casimir-slabs"
        assert manifest["quantity"] == "iso_nonlocal"
        assert manifest["quadrature"]["rel_tol"] == 1e-6
        assert manifest["rows"] == 3
        assert_golden(*with_manifest(out))

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        args = self._sweep_args(out) + ["--format", "json"]
        assert main(args) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "l_nm"
        assert len(payload["rows"]) == 3
        assert_golden(*with_manifest(out))

    @pytest.mark.parametrize(
        "fixed, axes, why",
        [
            ({"radius": 2.0}, 1, "radius: not read by iso_nonlocal"),
            ({"l": 100.0}, 1, "l: set by a sweep axis"),
            ({}, 2, "l: set by a sweep axis"),  # the same axis twice
        ],
    )
    def test_library_parameter_unread_or_set_twice(self, tmp_path, fixed, axes, why):
        request = sweep.SweepRequest(
            "iso_nonlocal", {"d": 20.0, "eps_b": 9.0, "omega_p": 2e16, **fixed},
            (sweep.SweepAxis("l", 500.0, 2000.0, 3, "log"),) * axes,
            str(tmp_path / "x.csv"),
        )
        with pytest.raises(sweep.UsageError, match=why):
            sweep.run_sweep(request)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "quantity, fmt, why",
        [("iso_nonlocal", "xml", "format must be csv or json"),
         ("iso_local", "csv", "unknown quantity 'iso_local'")],
    )
    def test_library_request_unknown_quantity_or_format(self, tmp_path, quantity, fmt,
                                                        why):
        with pytest.raises(sweep.UsageError, match=why):
            sweep.SweepRequest(quantity, {}, (), str(tmp_path / "x.csv"), fmt)

    def test_unwritable_path_fails_before_compute(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--quantity", "casimir",
            "--axis", "l:100:1000:2", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 4

    def test_axis_validation(self, capsys, tmp_path):
        out = str(tmp_path / "x.csv")
        bad_name = run(
            capsys, "sweep", "--quantity", "casimir",
            "--axis", "q:1:2:2", "--out", out,
        )
        assert bad_name[0] == 2
        bad_shape = run(
            capsys, "sweep", "--quantity", "casimir", "--axis", "l:1:2", "--out", out,
        )
        assert bad_shape[0] == 2
        too_many = run(
            capsys, "sweep", "--quantity", "casimir",
            "--axis", "l:1:2:2", "--axis", "d:1:2:2", "--axis", "eps_b:2:3:2",
            "--out", out,
        )
        assert too_many[0] == 2
        # an axis the quantity does not read, or d together with layers
        ignored = [
            ("casimir", "--axis", "d:1:10:3", "--l-nm", "1000"),
            ("lifshitz_local", "--axis", "R:1:3:2"),
            ("crossover", "--axis", "d:10:20:2", "--l-nm", "1000",
             "--d-min-nm", "40", "--d-max-nm", "50"),
            ("aniso_parallel", "--axis", "layers:1:3:3", "--d-nm", "20",
             "--l-nm", "1000"),
        ]
        for quantity, *flags in ignored:
            code, _, err = run(
                capsys, "sweep", "--quantity", quantity, *flags, "--out", out,
            )
            assert code == 2, quantity
        assert not (tmp_path / "x.csv").exists()

    def test_failed_sweep_keeps_existing_output(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "keep.csv"
        manifest = tmp_path / "keep.csv.manifest.json"
        out.write_bytes(b"earlier,run\n")
        manifest.write_bytes(b"{}\n")
        inverted = run(
            capsys, "sweep", "--quantity", "crossover", "--axis", "l:900:1100:2",
            "--d-min-nm", "100", "--d-max-nm", "4", "--out", str(out),
        )
        assert inverted[0] == 2

        listings = []

        def fail_inside_grid_evaluation(*args):
            # the grid's one evaluation, once the temporary file exists
            listings.append(sorted(p.name for p in tmp_path.iterdir()))
            raise QuadratureError("injected failure")

        monkeypatch.setattr(sweep, "evaluate_quantity", fail_inside_grid_evaluation)
        failed = run(
            capsys, "sweep", "--quantity", "casimir", "--axis", "l:100:1000:3",
            "--out", str(out),
        )
        assert failed[0] == 3
        assert len(listings) == 1
        assert any(name.endswith(".tmp") for name in listings[0])
        assert out.read_bytes() == b"earlier,run\n"
        assert manifest.read_bytes() == b"{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, manifest.name]

    def test_main_terms_sweep_defaults_to_array_eps_b(self, capsys, tmp_path):
        out = tmp_path / "main.csv"
        assert main(["sweep", "--quantity", "main_terms", "--out", str(out), *FAST]) == 0
        code, stdout, _ = run(capsys, "main-terms", *FAST)
        assert code == 0
        point = result_records(stdout)[0]
        manifest = json.loads((tmp_path / "main.csv.manifest.json").read_text())
        assert manifest["fixed_params"]["eps_b"] == point["params"]["eps_b"] == 10.0
        row = out.read_text().splitlines()[1]
        assert row == ",".join(
            format_value(point[c]) for c in ("main_parallel", "main_perp")
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            # eps_b = 1 is rejected by the slab, not first by a kernel
            ("--quantity aniso_parallel --axis eps_b:10:1:3 --layers 2 --l-nm 1000",
             "background factors require eps_b > 1, got 1.0"),
            ("--quantity crossover --axis eps_b:10:1:2 --l-nm 1000 --d-min-nm 40 "
             "--d-max-nm 50", "background factors require eps_b > 1, got 1.0"),
            # the bracket's thin end is below one monolayer at R = 3
            ("--quantity crossover --axis R:1:3:3 --l-nm 1000 --d-min-nm 4 "
             "--d-max-nm 100", "thickness_d = 4.0 nm is not finite or is below one "
             "monolayer (2R = 6.0 nm)"),
            # the separation check runs on the whole grid
            ("--quantity iso_nonlocal --axis l:1000:-1000:3 --d-nm 10",
             "separation must be > 0 with a finite pressure, got 0.0 nm"),
        ],
    )
    def test_grid_fails_before_any_integral(self, capsys, tmp_path, monkeypatch, argv,
                                            message):
        from casimir_slabs import quadrature

        integrate, started = quadrature.integrate_p_axis, []

        def counting(*args, **kwargs):
            started.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_p_axis", counting)
        out = str(tmp_path / "x.csv")
        code, _, err = run(capsys, "sweep", *argv.split(), "--out", out)
        assert code == 2
        assert message in err
        assert started == []
        assert list(tmp_path.iterdir()) == []

    def test_library_crossover_bracket_checked_at_both_ends(self, tmp_path, monkeypatch):
        from casimir_slabs import quadrature

        def no_quadrature(*args, **kwargs):
            raise AssertionError("an integral started before the grid check")

        monkeypatch.setattr(quadrature, "integrate_p_axis", no_quadrature)
        fixed = {"l": 1000.0, "d_min": 40.0, "d_max": math.inf, "radius": 2.0,
                 "eps_b": 10.0, "omega_p": 2e16}
        request = sweep.SweepRequest("crossover", fixed, (), str(tmp_path / "x.csv"))
        with pytest.raises(ValueError, match="thickness_d = inf nm"):
            sweep.run_sweep(request)
        assert list(tmp_path.iterdir()) == []

    def test_grid_invariants_checked_before_compute(self, capsys, tmp_path):
        # layers axis reaching below one monolayer must fail upfront
        code, _, err = run(
            capsys, "sweep", "--quantity", "aniso_parallel",
            "--axis", "d:1:8:3", "--l-nm", "1000", "--radius-nm", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_layers_are_whole_to_within_rounding(self):
        # geomspace's 4th point of layers:1:16:5:log is 7.999999999999999,
        # a count of 8; 1.5 is no count of monolayers at all
        layers = sweep.SweepAxis("layers", 1.0, 16.0, 5, "log").grid()
        assert layers[3] != 8.0
        params = {"radius": 2.0, "layers": layers, "eps_b": 10.0, "omega_p": 2e16}
        slab = sweep.array_slab(params, "aniso_perp")
        assert slab.thickness_d.tolist() == [4.0, 8.0, 16.0, 32.0, 64.0]
        with pytest.raises(ValueError, match="aniso_perp: layers must be whole "
                                             "numbers, got 1.5"):
            sweep.array_slab({**params, "layers": np.array([1.0, 1.5])}, "aniso_perp")


# Closed-form sweeps with their fixed flags set away from the defaults.
CLOSED_FORM_GRIDS = [
    ("casimir", ["--axis", "l:1:10000:7:log"], []),
    ("lifshitz_local", ["--axis", "l:3:10000:7:log"], ["--omega-p", "3e15"]),
    (
        "iso_thin",
        ["--axis", "d:0.5:80:4:log", "--axis", "l:20:8000:5:log"],
        ["--eps-b", "12", "--eps-sub", "1.5", "--eps-sup", "2.5", "--omega-p", "7e15"],
    ),
    (
        "validity",
        ["--axis", "d:2:200:4:log", "--axis", "l:2:5000:5:log"],
        ["--eps-b", "7", "--eps-sub", "1.2", "--eps-sup", "3", "--threshold", "0.05"],
    ),
]
# Integrating sweeps, whose rows each build their own slab.
INTEGRATING_GRIDS = [
    (
        "aniso_parallel",
        ["--axis", "R:0.5:3:3"],
        ["--l-nm", "1000", "--d-nm", "12", "--delta-nm", "7", *FAST],
    ),
    ("aniso_perp", ["--axis", "layers:1:3:3"], ["--l-nm", "1000", *FAST]),
]


def point_command(quantity):
    if quantity.startswith("aniso_"):
        return ["aniso", "--orientation", quantity.removeprefix("aniso_")]
    return [quantity.replace("_", "-")]


class TestColumnEvaluation:
    @pytest.mark.parametrize("quantity, axes, fixed",
                             CLOSED_FORM_GRIDS + INTEGRATING_GRIDS)
    def test_json_rows_are_the_point_results(self, capsys, tmp_path, quantity, axes,
                                             fixed):
        # A grid is evaluated as arrays, a point as numbers: every row must
        # still hold exactly, at full precision, what the point command prints.
        out = tmp_path / "grid.json"
        argv = ["sweep", "--quantity", quantity, *axes, *fixed, "--out", str(out)]
        assert main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        table = json.loads(out.read_text())
        flags = {"d_nm": "--d-nm", "l_nm": "--l-nm", "radius_nm": "--radius-nm",
                 "layers": "--layers"}
        outputs = sweep.QUANTITIES[quantity].columns
        assert len(table["rows"]) == math.prod(int(a.split(":")[3]) for a in axes[1::2])
        for row in table["rows"]:
            cells = dict(zip(table["columns"], row))
            point = [*point_command(quantity), *fixed]
            for column in set(flags) & set(cells):
                value = cells[column]
                if column == "layers":  # the flag takes an integer
                    value = int(value)
                point += [flags[column], repr(value)]
            code, stdout, _ = run(capsys, *point)
            assert code == 0
            record = result_records(stdout)[0]
            assert [cells[c] for c in outputs] == [record[c] for c in outputs]

    @pytest.mark.parametrize("quantity", ["iso_thin", "validity"])
    def test_closed_form_sweep_builds_one_slab(self, capsys, tmp_path, monkeypatch,
                                               quantity):
        built, check = [], IsotropicSlab.__post_init__

        def counted(slab):
            built.append(slab)
            check(slab)

        monkeypatch.setattr(IsotropicSlab, "__post_init__", counted)
        code, _, _ = run(
            capsys, "sweep", "--quantity", quantity, "--axis", "d:2:50:30:log",
            "--axis", "l:200:5000:40:log", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 1 + 30 * 40
        assert len(built) == 1
        assert np.shape(built[0].thickness_d) == (30 * 40,)

    def test_each_grid_is_checked_once_per_cell(self, tmp_path, monkeypatch,
                                                fast_spec):
        # A sweep of every quantity and every preset checks each cell's
        # grid once, whether or not its quantity builds a slab.
        check, checked = sweep._check_grid, []

        def counted(quantity, params):
            checked.append(quantity)
            return check(quantity, params)

        monkeypatch.setattr(sweep, "_check_grid", counted)
        film = {"l": 1000.0, "d": 20.0, "eps_b": 9.0, "omega_p": 2e16}
        tubes = {"l": 1000.0, "d": 20.0, "radius": 2.0, "eps_b": 10.0,
                 "omega_p": 2e16}
        one_row = {
            "casimir": {"l": 1000.0}, "lifshitz_local": {"l": 1000.0, "omega_p": 2e16},
            "iso_nonlocal": film, "iso_thin": film, "validity": film,
            "aniso_parallel": tubes, "aniso_perp": tubes, "main_terms": {"eps_b": 10.0},
            "crossover": {"l": 1000.0, "d_min": 40.0, "d_max": 50.0, "radius": 2.0,
                          "eps_b": 10.0, "omega_p": 2e16},
        }
        assert one_row.keys() == sweep.QUANTITIES.keys()
        for quantity, fixed in one_row.items():
            checked.clear()
            request = sweep.SweepRequest(quantity, fixed, (), str(tmp_path / "x.csv"))
            sweep.run_sweep(request, fast_spec)
            assert checked == [quantity]
        sizes = {"fig2": {"points": 2}, "fig3": {"points": 2},
                 "fig4": {"d_points": 1, "l_points": 1, "panels": "a"}}
        assert sizes.keys() == sweep.PRESETS.keys()
        for name, preset in sweep.PRESETS.items():
            checked.clear()
            sweep.run_preset(name, tmp_path / "x.csv", fast_spec, **sizes[name])
            assert checked == [quantity for quantity, _ in preset.cells]

    @pytest.mark.parametrize(
        "quantity, function, grid",
        [
            ("iso_nonlocal", "nonlocal_isotropic_ratio",
             {"l": [500.0, 1000.0], "d": 10.0, "eps_b": 9.0}),
            ("aniso_parallel", "f_parallel_ratio",
             {"l": [500.0, 1000.0], "radius": 2.0, "layers": 5, "eps_b": 10.0}),
            ("aniso_perp", "f_perp_ratio",
             {"l": [500.0, 1000.0], "radius": 2.0, "layers": 5, "eps_b": 10.0}),
            ("main_terms", "main_term_parallel", {"eps_b": [10.0, 20.0]}),
            ("crossover", "crossover_thickness",
             {"l": [900.0, 1000.0], "d_min": 40.0, "d_max": 50.0, "radius": 2.0,
              "eps_b": 10.0}),
        ],
    )
    def test_integrating_rows_call_the_library_by_its_sweep_name(
        self, monkeypatch, fast_spec, quantity, function, grid
    ):
        # An integrating quantity runs once per row, and reads the library
        # function from the sweep module at call time, so a replacement
        # there (a tracer's counter, say) sees every row.
        library, calls = getattr(sweep, function), []

        def counted(*args):
            calls.append(args)
            return library(*args)

        monkeypatch.setattr(sweep, function, counted)
        params = {"omega_p": 2e16, **{k: np.asarray(v) for k, v in grid.items()}}
        (values,) = evaluate_quantity(
            (quantity,), params, fast_spec, [_check_grid(quantity, params)]
        )
        assert len(calls) == 2
        assert all(len(column) == 2 for column in values.values())


class TestCrossoverCommand:
    def test_inverted_range(self, capsys):
        code, _, err = run(
            capsys, "crossover", "--l-nm", "1000",
            "--d-min-nm", "100", "--d-max-nm", "4",
        )
        assert code == 2

    def test_no_sign_change_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "crossover", "--l-nm", "1000",
            "--d-min-nm", "50", "--d-max-nm", "70", *FAST,
        )
        assert code == 1
        record = result_records(out)[0]
        assert record["crossover_d_nm"] is None
        assert record["sign_low"] == record["sign_high"] == 1.0

    def test_wide_bracket_found(self, capsys, tmp_path):
        # d_max^1.5 overflows past ~3e205 nm; the root is still found, so
        # neither command exits 1, the code for no crossover
        bracket = ("--l-nm", "1000", "--d-min-nm", "4", "--d-max-nm", "1e300")
        code, out, _ = run(capsys, "crossover", *bracket)
        assert code == 0
        assert 44.0 < result_records(out)[0]["crossover_d_nm"] < 46.0
        out = tmp_path / "wide.csv"
        code, _, _ = run(capsys, "sweep", "--quantity", "crossover", *bracket,
                         "--out", str(out))
        assert code == 0
        assert 44.0 < float(out.read_text().splitlines()[1].split(",")[0]) < 46.0

    def test_found_with_curve(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "crossover", "--l-nm", "1000",
            "--d-min-nm", "40", "--d-max-nm", "50",
            "--curve-out", str(curve), "--curve-points", "3", *FAST,
        )
        assert code == 0
        record = result_records(out)[0]
        assert 40.0 < record["crossover_d_nm"] < 50.0
        header, *rows = curve.read_text().strip().splitlines()
        assert header == "d_nm,ratio_parallel,ratio_perp,anisotropy"
        assert len(rows) == 3
        # anisotropy column changes sign across the bracket
        first, last = rows[0].split(","), rows[-1].split(",")
        assert float(first[3]) < 0.0 < float(last[3])
        assert_golden(curve)
        assert (tmp_path / "curve.csv.manifest.json").exists()

    def test_unwritable_curve_fails_before_search(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "evaluate_quantity", lambda *a: calls.append(a))
        code, out, err = run(
            capsys, "crossover", "--l-nm", "1000",
            "--d-min-nm", "40", "--d-max-nm", "50",
            "--curve-out", "/nonexistent-dir/c.csv", *FAST,
        )
        assert code == 4
        assert "RESULT" not in out
        assert calls == []


BRACKET = ["--l-nm", "1000", "--d-min-nm", "40", "--d-max-nm", "50", *FAST]


@pytest.mark.parametrize(
    "argv, alone",
    [
        (["crossover", *BRACKET, "--curve-out", "curve.csv", "--curve-points", "3"],
         ["crossover", *BRACKET]),
        (["aniso", "--layers", "5", "--l-nm", "1000", *FAST],
         ["aniso", "--layers", "5", "--l-nm", "1000", "--orientation", "perp", *FAST]),
    ],
)
def test_point_command_shares_one_bessel_table(capsys, tmp_path, monkeypatch,
                                               bessel_calls, argv, alone):
    # A point command has one l and one R, so the curve rows reuse the
    # search's cached Bessel normalisations, and the second orientation the
    # first's: from an empty cache each costs no more Bessel calls than the
    # search or one orientation alone.
    monkeypatch.chdir(tmp_path)  # where the curve is written
    counts = []
    for command in (alone, argv):
        bessel_calls.cold()
        assert run(capsys, *command)[0] == 0
        assert len(set(bessel_calls)) == len(bessel_calls)
        counts.append(len(bessel_calls))
    assert counts[1] == counts[0] > 0


def test_sweep_rows_at_one_l_and_radius_share_the_cached_blocks(capsys, tmp_path,
                                                                bessel_calls):
    # The normalisation does not depend on d: ten rows of a d sweep make
    # the Bessel calls of one row.
    fixed = ["--quantity", "aniso_perp", "--l-nm", "1000", *FAST]
    row = ["sweep", *fixed, "--d-nm", "20", "--out", str(tmp_path / "row.csv")]
    assert main(row) == 0
    one_row = len(bessel_calls)
    bessel_calls.cold()
    rows = ["sweep", *fixed, "--axis", "d:10:100:10", "--out", str(tmp_path / "d.csv")]
    assert main(rows) == 0
    capsys.readouterr()
    assert 0 < len(bessel_calls) <= one_row


class TestOnePassPerGrid:
    """A grid's quantities are evaluated by one evaluate_quantity call,
    each row's quantities back to back."""

    @staticmethod
    def _counted(monkeypatch, module):
        calls, evaluate = [], sweep.evaluate_quantity

        def counted(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(module, "evaluate_quantity", counted)
        return calls

    @pytest.mark.parametrize("name, sizes", [
        ("fig3", {"points": 2}),
        ("fig4", {"d_points": 2, "l_points": 2, "panels": "ab"}),
    ])
    def test_preset_makes_one_call(self, tmp_path, monkeypatch, fast_spec, name,
                                   sizes):
        calls = self._counted(monkeypatch, sweep)
        sweep.run_preset(name, tmp_path / "x.csv", fast_spec, **sizes)
        assert calls == [[quantity for quantity, _ in sweep.PRESETS[name].cells]]

    def test_curve_makes_one_call_after_the_search(self, capsys, tmp_path,
                                                   monkeypatch):
        calls = self._counted(monkeypatch, cli)
        curve = ["--curve-out", str(tmp_path / "c.csv"), "--curve-points", "3"]
        assert run(capsys, "crossover", *BRACKET, *curve)[0] == 0
        assert calls == [("crossover",), ("aniso_parallel", "aniso_perp")]

    def test_curve_ends_exactly_on_the_bracket(self, capsys, tmp_path, monkeypatch):
        # d_min + i step misses d_max here: 61.10000000000001 as the last row
        grids, evaluate = [], cli.evaluate_quantity

        def recorded(*args):
            grids.append(args[1])
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate_quantity", recorded)
        bracket = ["--l-nm", "1000", "--d-min-nm", "4", "--d-max-nm", "61.1", *FAST]
        curve = ["--curve-out", str(tmp_path / "c.csv"), "--curve-points", "7"]
        assert run(capsys, "crossover", *bracket, *curve)[0] == 0
        d = grids[-1]["d"]
        assert (len(d), d[0], d[-1]) == (7, 4.0, 61.1)

    def test_fig4_rows_make_the_bessel_calls_of_orientation_forces(
        self, tmp_path, fast_spec, bessel_calls
    ):
        # Each row's crossed force reads the blocks its co-aligned force
        # cached, as orientation_forces does for one slab pair.
        sizes = {"panels": "b", "d_points": 2, "l_points": 2}
        sweep.run_preset("fig4", tmp_path / "x.csv", fast_spec, **sizes)
        preset = bessel_calls.copy()
        bessel_calls.cold()
        _, grid = sweep.PRESETS["fig4"].grid({**sizes, "omega_p": 2e16})
        rows = zip(grid["l"], grid["d"], grid["radius"], grid["eps_b"])
        for l, d, radius, eps_b in rows:
            array = NanotubeArraySlab(omega_p3d=2e16, radius_R=radius, thickness_d=d,
                                      eps_b=eps_b)
            orientation_forces(array, l, fast_spec)
        assert len(grid["l"]) == 4
        assert preset == bessel_calls
        assert len(preset) > 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda out: sweep.run_preset("fig5", out),
         "unknown preset 'fig5'; choose from ('fig2', 'fig3', 'fig4')"),
        (lambda out: sweep.run_preset("fig2", out, points=0), None),
        (lambda out: sweep.run_preset("fig4", out, l_points=0), None),
        (lambda out: sweep.run_preset("fig4", out, d_points=np.int64(0)), None),
        (lambda out: sweep.run_preset("fig2", out, points=-3), None),
        (lambda out: sweep.run_preset("fig2", out, points=2.5), None),
        (lambda out: sweep.run_sweep(sweep.SweepRequest(
            "casimir", {}, (sweep.SweepAxis("l", 100.0, 1000.0, 2.5),), str(out))),
         None),
        (lambda out: sweep.run_preset("fig4", out, panels=5), None),
        (lambda out: sweep.run_preset("fig4", out, panels="aa", d_points=1,
                                      l_points=1), None),
    ],
    ids=["unknown", "zero", "zero-l", "numpy-zero", "negative", "float", "axis-float",
         "panels-int", "panels-repeated"],
)
def test_bad_library_grid_sizes_are_usage_errors(tmp_path, call, message):
    # The CLI's own checks never send these; the library rejects them
    # before any file is touched.
    with pytest.raises(sweep.UsageError) as error:
        call(tmp_path / "x.csv")
    assert message is None or str(error.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("start, stop, spacing", [
    (math.nan, 100.0, "linear"), (100.0, math.inf, "log"), (-math.inf, 100.0, "linear"),
])
def test_non_finite_axis_bounds_are_usage_errors(start, stop, spacing):
    # The CLI's own checks never send these; without the library's check a
    # NaN bound reached the evaluators as a plain ValueError.
    with pytest.raises(sweep.UsageError, match="^axis l: bounds must be finite$"):
        sweep.SweepAxis("l", start, stop, 3, spacing)


def test_numpy_integer_sizes_are_plain_sizes(tmp_path, fast_spec):
    axis = sweep.SweepAxis("l", 100.0, 1000.0, np.int64(3))
    request = sweep.SweepRequest("casimir", {}, (axis,), str(tmp_path / "a.csv"))
    assert sweep.run_sweep(request)["rows"] == 3
    preset = sweep.run_preset("fig2", tmp_path / "p.csv", fast_spec, points=np.int64(2))
    assert preset["rows"] == 2
    assert json.loads((tmp_path / "p.csv.manifest.json").read_text())[
        "fixed_params"]["points"] == 2


TUBES = {"l": 1000.0, "radius": 2.0, "eps_b": 10.0, "omega_p": 2e16}


@pytest.mark.parametrize("quantity, fixed, axes", [
    ("aniso_parallel", {**TUBES, "layers": np.int64(5)}, ()),
    ("lifshitz_local", {"l": 1000.0, "omega_p": np.int64(2e16)}, ()),
    ("casimir", {}, (sweep.SweepAxis("l", np.int64(900), 1000, 2),)),
    ("casimir", {}, (sweep.SweepAxis("l", np.float32(900.5), 1000.0, 2),)),
], ids=["layers", "omega_p", "axis-start", "axis-float32"])
def test_numpy_scalar_inputs_are_plain_numbers_in_the_manifest(
    tmp_path, fast_spec, quantity, fixed, axes
):
    # A numpy scalar the evaluators accept is recorded as the plain number,
    # so the manifest cannot fail after every row is computed.
    def written(name, fixed, axes):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "x.csv"
        sweep.run_sweep(sweep.SweepRequest(quantity, fixed, axes, str(out)), fast_spec)
        return [path.read_bytes() for path in with_manifest(out)]

    def plain(value):
        return np.asarray(value).item()

    plain_fixed = {k: plain(v) for k, v in fixed.items()}
    plain_axes = tuple(
        sweep.SweepAxis(ax.name, plain(ax.start), plain(ax.stop), ax.points)
        for ax in axes
    )
    assert written("numpy", fixed, axes) == written("plain", plain_fixed, plain_axes)


class TestPresets:
    def test_fig2_structure(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run(
            capsys, "preset", "fig2", "--points", "4", "--out", str(out), *FAST,
        )
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header == "inv_eps_b,eps_b,main_parallel,main_perp"
        assert len(rows) == 4
        first = rows[0].split(",")
        # smallest 1/eps_b comes first and both terms are nearest to 1 there
        assert float(first[0]) == pytest.approx(1e-3, rel=1e-9)
        assert float(first[2]) > 0.8
        assert float(first[3]) > 0.8
        assert_golden(*with_manifest(out))

    @pytest.mark.parametrize("command", [
        ("preset", "fig2", "--points", "2"),
        ("sweep", "--quantity", "main_terms", "--axis", "eps_b:5:50:2"),
    ])
    def test_unconverged_main_terms_exit_3_and_write_nothing(
        self, capsys, tmp_path, command
    ):
        out = tmp_path / "main.csv"
        code, _, err = run(
            capsys, *command, "--out", str(out), "--rel-tol", "1e-16", "--abs-tol", "0"
        )
        assert code == 3
        assert "main term did not converge" in err
        assert list(tmp_path.iterdir()) == []

    def test_fig3_structure(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = run(
            capsys, "preset", "fig3", "--points", "3", "--out", str(out), *FAST,
        )
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header.split(",")[:2] == ["d_nm", "l_nm"]
        assert "ratio_lifshitz_local" in header
        assert len(rows) == 9  # three thicknesses x three separations
        for row in rows:
            cells = row.split(",")
            assert float(cells[2]) < float(cells[6])  # nonlocal below local
        assert_golden(*with_manifest(out))

    def test_fig4_structure(self, capsys, tmp_path):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(
            capsys, "preset", "fig4", "--d-points", "2", "--l-points", "2",
            "--panels", "b", "--out", str(out), *FAST,
        )
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        columns = header.split(",")
        assert columns[0] == "panel"
        assert {"ratio_parallel", "ratio_perp", "main_parallel"} <= set(columns)
        assert len(rows) == 4  # two layer counts x two separations
        idx = {c: i for i, c in enumerate(columns)}
        for row in rows:
            cells = row.split(",")
            assert cells[idx["panel"]] == "b"
            # finite plasma frequency keeps both below their main terms
            assert float(cells[idx["ratio_parallel"]]) < float(
                cells[idx["main_parallel"]]
            )
            assert float(cells[idx["ratio_perp"]]) < float(cells[idx["main_perp"]])
        assert_golden(*with_manifest(out))

    def test_fig4_radius_panels(self, capsys, tmp_path):
        # radius mode, eps_b = 5, and --points standing in for both sizes
        out = tmp_path / "fig4_radius.csv"
        code, _, _ = run(
            capsys, "preset", "fig4", "--points", "2", "--panels", "ca",
            "--out", str(out), *FAST,
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["c"] * 4 + ["a"] * 4
        assert_golden(*with_manifest(out))

    def test_preset_requires_out(self, capsys):
        assert run(capsys, "preset", "fig2")[0] == 2

    def test_preset_flags_come_from_records(self):
        parser = _build_parser()
        preset = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices["preset"]
        actions = {a.dest: a for a in preset._actions}
        assert set(actions["name"].choices) == set(sweep.PRESETS)
        sizes = {size for record in sweep.PRESETS.values() for size in record.sizes}
        assert sizes == set(actions) - {"help", "name", "out", "config", *QUADRATURE_FLAGS}

    def test_run_preset_rejects_unknown_size(self, tmp_path):
        with pytest.raises(sweep.UsageError):
            sweep.run_preset("fig2", tmp_path / "x.csv", points=2, panels="b")
        assert list(tmp_path.iterdir()) == []
