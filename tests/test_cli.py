import json
from pathlib import Path

import pytest

from casimir_slabs import sweep
from casimir_slabs.cli import main, run_point
from casimir_slabs.quadrature import QuadratureError, QuadratureSpec
from casimir_slabs.sweep import evaluate_quantity, format_value

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
        broken = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=1)
        params = {"l": 1000.0, "d": 10.0, "eps_b": 9.0, "omega_p": 2e16}
        code = run_point("iso_nonlocal", params, broken)
        out = capsys.readouterr().out
        assert code == 3
        assert result_records(out)[0]["validity"] == "quadrature_failed"


@pytest.mark.parametrize(
    "argv",
    [
        "iso-thin --d-nm 10 --l-nm 1000 --eps-sub 0",
        "iso-thin --d-nm 10 --l-nm 1000 --eps-sup 0",
        "aniso --layers 5 --l-nm 1000 --eps-sub 0",
        "validity --d-nm 20 --l-nm 1000 --threshold 0",
        "casimir --l-nm 1000 --rel-tol 0",
        "casimir --l-nm 1000 --config {tmp}/empty-transform.conf",
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

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("just words without separator\n")
        assert run(capsys, "casimir", "--l-nm", "10", "--config", str(config))[0] == 2


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
            point = evaluate_quantity(
                "iso_nonlocal",
                {
                    "l": float(cells["l_nm"]), "d": 20.0, "eps_b": 9.0,
                    "omega_p": 2e16, "eps_sub": 1.0, "eps_sup": 1.0,
                },
                spec,
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

        evaluate, calls = sweep.evaluate_quantity, []

        def fail_on_second_point(quantity, params, spec):
            calls.append(params)
            if len(calls) == 2:
                raise QuadratureError("injected failure")
            return evaluate(quantity, params, spec)

        monkeypatch.setattr(sweep, "evaluate_quantity", fail_on_second_point)
        failed = run(
            capsys, "sweep", "--quantity", "casimir", "--axis", "l:100:1000:3",
            "--out", str(out),
        )
        assert failed[0] == 3
        assert len(calls) == 2
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

    def test_grid_invariants_checked_before_compute(self, capsys, tmp_path):
        # layers axis reaching below one monolayer must fail upfront
        code, _, err = run(
            capsys, "sweep", "--quantity", "aniso_parallel",
            "--axis", "d:1:8:3", "--l-nm", "1000", "--radius-nm", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


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

    def test_preset_requires_out(self, capsys):
        assert run(capsys, "preset", "fig2")[0] == 2
