import json
from pathlib import Path

import pytest

from bohrqed.cli import main

ALPHA = 1.0 / 137.035999


def read_all_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestSolveBohr:
    def test_writes_state_and_passes(self, tmp_path, capsys):
        rc = main(["solve-bohr", "--out", str(tmp_path)])
        assert rc == 0
        state = json.loads((tmp_path / "bohr_state.json").read_text())
        assert state["v"] == pytest.approx(ALPHA, rel=1e-12)
        report = json.loads((tmp_path / "solve_bohr_report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"mass-shell-residual", "quantization-mu-R",
                "energy-identity"} <= names
        out = capsys.readouterr().out
        assert "[pass]" in out

    def test_supercritical_exit_3(self, tmp_path, capsys):
        rc = main(["solve-bohr", "--out", str(tmp_path),
                   "--e", "2.0", "--f", "-1.0"])
        assert rc == 3
        assert "SupercriticalCoupling" in capsys.readouterr().err

    def test_repulsive_needs_flag(self, tmp_path):
        rc = main(["solve-bohr", "--out", str(tmp_path), "--f", "0.001"])
        assert rc == 3
        rc = main(["solve-bohr", "--out", str(tmp_path), "--f", "0.001",
                   "--allow-repulsive"])
        assert rc == 0

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        rc = main(["solve-bohr", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["solve-bohr", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_flag_exit_2(self, tmp_path, capsys):
        rc = main(["solve-bohr", "--no-such-flag"])
        assert rc == 2

    def test_config_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f = -0.25\nn = 2\n# comment line\n")
        rc = main(["solve-bohr", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        state = json.loads((tmp_path / "bohr_state.json").read_text())
        assert state["input"]["f"] == -0.25
        assert state["input"]["n"] == 2

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f = -0.25\n")
        rc = main(["solve-bohr", "--config", str(cfg), "--f", "-0.125",
                   "--out", str(tmp_path)])
        assert rc == 0
        state = json.loads((tmp_path / "bohr_state.json").read_text())
        assert state["input"]["f"] == -0.125


class TestLocalSolve:
    def test_grid_with_zero(self, tmp_path):
        rc = main(["local-solve", "--out", str(tmp_path), "--include-zero",
                   "--a-min", "-1", "--a-max", "1", "--a-count", "9"])
        assert rc == 0
        lines = (tmp_path / "local_solve.csv").read_text().splitlines()
        assert lines[0] == "A,rho,R,f,residual,branch"
        degenerate = [l for l in lines if l.endswith("degenerate")]
        assert len(degenerate) == 1
        assert degenerate[0].startswith("0,0,")

    def test_signs_on_symmetric_grid(self, tmp_path):
        rc = main(["local-solve", "--out", str(tmp_path),
                   "--a-min", "-2", "--a-max", "2", "--a-count", "8"])
        assert rc == 0
        for line in (tmp_path / "local_solve.csv").read_text().splitlines()[1:]:
            a, rho = (float(x) for x in line.split(",")[:2])
            if a != 0:
                assert a * rho > 0


class TestTile:
    def test_unit_square(self, tmp_path):
        rc = main(["tile", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "tile_summary.json").read_text())
        assert summary["roundels"] == 4

    def test_infeasible_c_exit_3(self, tmp_path, capsys):
        rc = main(["tile", "--out", str(tmp_path), "--c", "0.5"])
        assert rc == 3
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pure", "superposition"])
    def test_radius_wider_than_side_exit_3(self, tmp_path, capsys, kind):
        rc = main(["tile", "--out", str(tmp_path), "--kind", kind,
                   "--radius", "0.6"])
        assert rc == 3
        assert "InfeasibleCoverage" in capsys.readouterr().err
        assert not (tmp_path / "boundary_points.csv").exists()

    def test_seeded_boundary_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["tile", "--out", str(out), "--kind", "superposition",
                       "--radius", "0.5", "--seed", "5"])
            assert rc == 0
        assert (out1 / "boundary_points.csv").read_bytes() == \
            (out2 / "boundary_points.csv").read_bytes()


class TestLatticeVerify:
    def test_default_run_passes(self, tmp_path):
        rc = main(["lattice-verify", "--out", str(tmp_path),
                   "--extent", "10", "--spacings", "0.2", "0.1", "0.05"])
        assert rc == 0
        report = json.loads(
            (tmp_path / "lattice_verify_report.json").read_text())
        assert report["passed"] is True

    def test_single_spacing_skips_convergence(self, tmp_path, capsys):
        rc = main(["lattice-verify", "--out", str(tmp_path),
                   "--extent", "8", "--spacings", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[skip]" in out
        report = json.loads(
            (tmp_path / "lattice_verify_report.json").read_text())
        skipped = [c for c in report["checks"] if c.get("skipped")]
        assert len(skipped) >= 2

    def test_conjugate_charge_flag(self, tmp_path):
        rc = main(["lattice-verify", "--out", str(tmp_path),
                   "--extent", "8", "--spacings", "0.1", "0.05",
                   "--conjugate-charge"])
        assert rc == 0
        report = json.loads(
            (tmp_path / "lattice_verify_report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert "charge-conjugation-invariance" in names

    def test_central_differences_flag(self, tmp_path):
        rc = main(["lattice-verify", "--out", str(tmp_path),
                   "--extent", "10", "--spacings", "0.2", "0.1", "0.05",
                   "--central-differences"])
        assert rc == 0
        report = json.loads(
            (tmp_path / "lattice_verify_report.json").read_text())
        order = [c for c in report["checks"]
                 if c["name"] == "dirac-convergence-order"][0]
        assert order["expected"] == 2.0


class TestScalingSweep:
    def test_exponent_table(self, tmp_path):
        rc = main(["scaling-sweep", "--out", str(tmp_path)])
        assert rc == 0
        exponents = json.loads((tmp_path / "exponents.json").read_text())
        assert exponents["roundel.f"]["expected"] == 1.0
        assert abs(exponents["roundel.f"]["deviation"]) < 0.02
        assert exponents["lattice.M"]["expected"] == -4.0
        assert abs(exponents["lattice.M"]["deviation"]) < 0.02
        csv = (tmp_path / "roundel_sweep.csv").read_text().splitlines()
        assert csv[0] == "R,mB,eB,eBa,f,A,rho,nl"
        assert len(csv) == 10

    def test_p_half(self, tmp_path):
        rc = main(["scaling-sweep", "--out", str(tmp_path), "--p", "0.5"])
        assert rc == 0
        exponents = json.loads((tmp_path / "exponents.json").read_text())
        assert exponents["lattice.M"]["expected"] == -3.5

    def test_two_point_low_confidence(self, tmp_path, capsys):
        rc = main(["scaling-sweep", "--out", str(tmp_path),
                   "--a-count", "2", "--r-count", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "low-confidence" in out
        exponents = json.loads((tmp_path / "exponents.json").read_text())
        assert exponents["lattice.M"]["low_confidence"] is True

    def test_zero_tolerance_fails_checks(self, tmp_path):
        # slopes deviate from the ideal at rounding level, so a zero
        # tolerance scale must flip the run to exit code 1
        rc = main(["scaling-sweep", "--out", str(tmp_path),
                   "--tolerance-scale", "0.0"])
        assert rc == 1


class TestEnvironment:
    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("BOHRQED_OUT", str(target))
        rc = main(["solve-bohr"])
        assert rc == 0
        assert (target / "bohr_state.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOHRQED_OUT", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        rc = main(["solve-bohr", "--out", str(explicit)])
        assert rc == 0
        assert (explicit / "bohr_state.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["solve-bohr"],
        ["local-solve", "--include-zero"],
        ["tile", "--kind", "superposition", "--radius", "0.25", "--seed", "3"],
        ["scaling-sweep", "--r-count", "5", "--a-count", "5"],
        ["lattice-verify", "--extent", "8", "--spacings", "0.2", "0.1"],
    ])
    def test_byte_identical_reruns(self, tmp_path, argv):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(argv + ["--out", str(out1), "--seed", "7"]) == 0
        assert main(argv + ["--out", str(out2), "--seed", "7"]) == 0
        assert read_all_outputs(out1) == read_all_outputs(out2)


def test_non_numeric_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("f = not-a-number\n")
    rc = main(["solve-bohr", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
