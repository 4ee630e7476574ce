import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed import cli
from bohrqed.cli import (build_parser, config_hash, main, parse_args,
                         resolve_out_dir, write_csv)
from bohrqed.ensemble import tile, verify_ensemble

ALPHA = 1.0 / 137.035999


def read_all_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def failed_report(outdir: Path, command: str, code: int, error_type: str) -> dict:
    """The report of a run of ``command`` that exited ``code`` on an
    ``error_type`` error, read from ``outdir`` and checked; exits 3 and 4
    used to leave no report, then one without the checks made before the
    error."""
    report = json.loads((outdir / f"{command.replace('-', '_')}_report.json").read_text())
    assert report["command"] == command and report["passed"] is False
    assert isinstance(report["checks"], list)
    assert report["exit_code"] == code and report["error"]["type"] == error_type
    assert sorted(report["metadata"]) == ["config_hash", "seed", "version"]
    return report


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

    def test_misspelt_config_key_exit_2(self, tmp_path, capsys):
        # a key that names no option of any subcommand used to be ignored
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("radiuss = 0.1\n")
        rc = main(["tile", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "radiuss" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_other_commands_config_keys_ignored(self, tmp_path):
        # one file serves several commands: tile's keys do not stop solve-bohr
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("radius = 0.1\nregions-per-axis = 2\nf = -0.25\n")
        rc = main(["solve-bohr", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        state = json.loads((tmp_path / "bohr_state.json").read_text())
        assert state["input"]["f"] == -0.25

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

    def test_infeasible_c_report_keeps_its_checks(self, tmp_path):
        # the report used to drop the checks, so the measured ratio was only
        # in the message, rounded to 6 digits
        assert main(["tile", "--out", str(tmp_path), "--c", "0.5"]) == 3
        report = failed_report(tmp_path, "tile", 3, "InfeasibleCoverage")
        coverage = [c for c in report["checks"] if c["name"] == "coverage-ratio"]
        assert [c["passed"] for c in coverage] == [False]
        stats = verify_ensemble(tile([(0.0, 1.0)] * 2, 0.25, c=0.5))
        assert coverage[0]["measured"] == stats["max_coverage_ratio"]

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

    @pytest.mark.parametrize(("flags", "message"), [
        (["--radius", "nan"], "radius must be finite and positive, got nan"),
        (["--radius", "inf"], "radius must be finite and positive, got inf"),
        (["--side", "nan"], "domain bounds must be finite"),
        (["--side", "inf"], "domain bounds must be finite"),
        (["--boundary-samples", "0"], "boundary_samples must be a positive integer, got 0"),
        (["--regions-per-axis", "0"], "regions_per_axis must be a positive integer, got 0"),
        (["--c", "nan"], "coverage slack c must be finite, got nan"),
        (["--c", "inf"], "coverage slack c must be finite, got inf"),
    ])
    def test_invalid_input_exit_3(self, tmp_path, capsys, flags, message):
        # these used to exit 3 on int(nan), crash on int(inf), run on
        # without a boundary set or a region split, or report a NaN c as
        # InfeasibleCoverage
        rc = main(["tile", "--out", str(tmp_path), *flags])
        assert rc == 3
        err = capsys.readouterr().err
        assert message in err
        assert "InfeasibleCoverage" not in err
        assert not (tmp_path / "boundary_points.csv").exists()
        report = failed_report(tmp_path, "tile", 3, "DomainError")
        assert message in report["error"]["message"]
        assert report["checks"] == []  # rejected before any check ran


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

    @pytest.mark.parametrize("h", ["-0.1", "nan"])
    def test_bad_single_spacing_named_exit_3(self, tmp_path, capsys, h):
        # a lone spacing used to be ignored unless --conjugate-charge read it
        rc = main(["lattice-verify", "--out", str(tmp_path), "--spacings", h])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"spacing must be finite and positive, got {float(h)}" in err

    @pytest.mark.parametrize("rapidity", ["nan", "inf"])
    def test_non_finite_rapidity_named_exit_3(self, tmp_path, capsys, rapidity):
        # NaN used to exit 3 with "transported potential values must be finite"
        rc = main(["lattice-verify", "--out", str(tmp_path), "--spacings", "0.1",
                   "--rapidity", rapidity])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"domain error: rapidity must be finite, got {rapidity}\n"
        report = failed_report(tmp_path, "lattice-verify", 3, "DomainError")
        assert report["error"]["message"] == f"rapidity must be finite, got {rapidity}"

    def test_duplicate_spacings_exit_2(self, tmp_path, capsys):
        # a repeated spacing used to exit 3 with "abscissa has zero span"
        rc = main(["lattice-verify", "--out", str(tmp_path / "o"),
                   "--spacings", "0.1", "0.05", "0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: --spacings lists 0.1 more than once" in err
        assert not (tmp_path / "o").exists()

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
    @pytest.mark.parametrize("side", ["nan", "inf"])
    def test_non_finite_big_t_exit_3(self, tmp_path, capsys, side):
        # NaN used to exit 3 on int(nan), infinity to crash on int(inf)
        rc = main(["scaling-sweep", "--out", str(tmp_path), "--big-t", side])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"box side T must be finite, got {side}" in err
        assert "cannot convert" not in err
        assert not (tmp_path / "roundel_sweep.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        # infinity used to crash on a ZeroDivisionError, exit 1
        ("--p", "inf", "exponent p must be finite and positive, got inf"),
        ("--r-max", "inf", "radii must be finite and positive, got inf"),
        # these used to exit 3 naming int(nan), the log-log fit or no value
        ("--r-min", "nan", "radii must be finite and positive, got nan"),
        ("--a-min", "nan", "spacings must be finite and positive, got nan"),
        ("--a-max", "inf", "spacings must be finite and positive, got inf"),
        ("--p", "nan", "exponent p must be finite and positive, got nan"),
        # these two, and the two --p cases above, used to leave the roundel
        # table behind: the lattice sweep ran after it was written
        ("--p", "0", "exponent p must be finite and positive, got 0.0"),
        ("--a-min", "1e-300",
         "spacings must keep the fitted columns finite and positive, got 1e-300"),
        ("--r-min", "-1", "radii must be finite and positive, got -1.0"),
        # the bare charge divides by |e|: a ZeroDivisionError, exit 1
        ("--e", "0", "template charge e must be non-zero, got 0.0"),
    ])
    def test_bad_sweep_input_named_exit_3(self, tmp_path, capsys, flag, value,
                                          message):
        rc = main(["scaling-sweep", "--out", str(tmp_path), flag, value])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"domain error: {message}\n" == err
        assert not (tmp_path / "exponents.json").exists()
        assert not (tmp_path / "roundel_sweep.csv").exists()
        report = failed_report(tmp_path, "scaling-sweep", 3, "DomainError")
        assert report["error"]["message"] == message

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


def _options():
    """(command, option) for every option of every subcommand but --config."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(name, action) for name, sub in commands.items()
            for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")]


def _non_default(action, tmp_path) -> list[str]:
    """Value tokens of the flag form that parse to a non-default value."""
    if action.nargs == 0:
        return []
    if action.choices:
        return [next(c for c in action.choices if c != action.default)]
    if action.nargs == "+":
        return ["0.3", "0.15"]
    if action.type is str:
        return [str(tmp_path / "elsewhere")]
    return [str(action.default + 1)]


class TestConfigFile:
    @pytest.mark.parametrize(("argv", "config", "flags"), [
        (["local-solve", "--a-count", "8", "--include-zero"],
         "include-zero = false\n", []),
        (["lattice-verify", "--extent", "6"], "spacings = 0.1 0.05\n",
         ["--spacings", "0.1", "0.05"]),
        (["tile", "--kind", "superposition", "--radius", "0.25"],
         "seed = 5\ntolerance-scale = 2\n", ["--seed", "5", "--tolerance-scale", "2"]),
    ], ids=["explicit-store-true-wins", "sequence", "seed-and-tolerance-scale"])
    def test_config_gives_flag_artifacts(self, tmp_path, argv, config, flags):
        # each config entry here used to be overridden, ignored or dropped
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(argv + flags + ["--out", str(tmp_path / "flags")]) == 0
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "config")]) == 0
        assert (read_all_outputs(tmp_path / "config")
                == read_all_outputs(tmp_path / "flags"))

    def test_choices_apply_to_config_values(self, tmp_path, capsys):
        # an unknown kind used to reach the tiling and exit 3 as a domain error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = hexagonal\n")
        rc = main(["tile", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}: argument --kind: invalid choice" in err
        assert not (tmp_path / "o").exists()

    def test_env_beats_config_out(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from-config'}\n")
        monkeypatch.setenv("BOHRQED_OUT", str(tmp_path / "from-env"))
        assert main(["solve-bohr", "--config", str(cfg)]) == 0
        assert (tmp_path / "from-env" / "bohr_state.json").exists()
        assert not (tmp_path / "from-config").exists()

    @pytest.mark.parametrize("option", [o for o in _options() if o[1].nargs == 0],
                             ids=lambda o: f"{o[0]}:{o[1].option_strings[0]}")
    def test_bare_flag_takes_a_boolean(self, tmp_path, capsys, option):
        # any value outside the true words used to mean false: a typo of
        # "true" ran without the flag and exited 0
        command, action = option
        key = action.option_strings[0][2:]
        cfg = tmp_path / "run.cfg"
        for value in ("0", "false", "No", "OFF"):
            cfg.write_text(f"{key} = {value}\n")
            ns, _ = parse_args([command, "--config", str(cfg)])
            assert getattr(ns, action.dest) is False
        for value in ("ture", "2", "y", ""):
            cfg.write_text(f"{key} = {value}\n")
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == 2
            assert (f"config error: config key {key} takes true or false, got {value!r}"
                    in capsys.readouterr().err)
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", _options(),
                             ids=lambda o: f"{o[0]}:{o[1].option_strings[0]}")
    def test_every_option_from_config(self, tmp_path, monkeypatch, option):
        command, action = option
        monkeypatch.delenv("BOHRQED_OUT", raising=False)
        flag = action.option_strings[0]
        values = _non_default(action, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {' '.join(values) or 'true'}\n")
        by_flag, _ = parse_args([command, flag, *values])
        by_config, entries = parse_args([command, "--config", str(cfg)])
        assert getattr(by_flag, action.dest) != action.default
        assert config_hash(by_config) == config_hash(by_flag)
        if action.dest == "out":  # resolves after the environment, not in ns
            assert (resolve_out_dir(by_config, entries)
                    == resolve_out_dir(by_flag, {}))
        else:
            assert vars(by_config) == {**vars(by_flag), "config": str(cfg)}


class TestParserReuse:
    def test_reused_parser_gives_fresh_parser_artifacts(self, tmp_path):
        # main builds the parser once per process; a default that one call
        # changed in place would leak into the next call's artifacts
        calls = [["lattice-verify", "--spacings", "0.2", "0.1"],
                 ["lattice-verify"], ["lattice-verify"]]
        for i, argv in enumerate(calls):
            build_parser.cache_clear()
            assert main(argv + ["--out", str(tmp_path / f"fresh{i}")]) == 0
        build_parser.cache_clear()
        for i, argv in enumerate(calls):
            assert main(argv + ["--out", str(tmp_path / f"reused{i}")]) == 0
        for i in range(len(calls)):
            assert (read_all_outputs(tmp_path / f"reused{i}")
                    == read_all_outputs(tmp_path / f"fresh{i}"))


# ---------------------------------------------------------------------------
# Exit codes: every input is a pass, a failed check, a configuration error
# or a domain error; anything else is a defect
# ---------------------------------------------------------------------------

#: Cheap runs to vary one option of; other commands run from their defaults.
_BASELINES = {"lattice-verify": ["--extent", "6", "--spacings", "0.2", "0.1"],
              "scaling-sweep": ["--r-count", "3", "--a-count", "3"]}
_FLOAT_EDGES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e100", "1e308",
                str(2**63)]
_INT_EDGES = ["0", "-1", str(2**63)]


def _edge_runs():
    """(command, flag, value) for every edge value of every valued option."""
    return [(command, action.option_strings[0], value)
            for command, action in _options()
            if action.dest != "out" and action.nargs != 0
            for value in (_INT_EDGES if action.type is int else _FLOAT_EDGES)]


def _argv(command: str, flag: str, value: str) -> list[str]:
    """The baseline of ``command`` with ``flag`` set to ``value`` alone."""
    argv, dropped = [command], False
    for token in _BASELINES.get(command, []):
        if token.startswith("--"):
            dropped = token == flag
        if not dropped:
            argv.append(token)
    return argv + [f"{flag}={value}"]  # "=": a "-inf" value is not a flag


_TOO_BIG = f"must be at most {2**63 - 1}, got {2**63}"


def _error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines()
            if line.startswith(("domain error:", "config error:"))]


def _no_room(*args):
    raise MemoryError("no room")


class TestExitCodes:
    @pytest.mark.parametrize("run", _edge_runs(), ids="{0[0]}:{0[1]}={0[2]}".format)
    def test_edge_value_is_a_known_outcome(self, tmp_path, capsys, run):
        rc = main(_argv(*run) + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2, 3), err
        assert "Traceback" not in err and "Warning" not in err
        assert len(_error_lines(err)) <= 1

    @pytest.mark.parametrize("command", ["solve-bohr", "local-solve", "tile",
                                         "lattice-verify", "scaling-sweep"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_scale_exit_2(self, tmp_path, capsys, command, scale):
        # each used to FAIL every check and exit 1
        rc = main([command, f"--tolerance-scale={scale}",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"must be finite and >= 0, got {scale!r}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tolerance-scale = {scale}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfg}: argument --tolerance-scale" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_zero_tolerance_scale_parses(self):
        ns, _ = parse_args(["solve-bohr", "--tolerance-scale", "0"])
        assert ns.tolerance_scale == 0.0

    @pytest.mark.parametrize(("argv", "named"), [
        # these crashed with a traceback and exit 1
        (["solve-bohr", "--m", "1e308"], "m = 1e+308"),
        (["tile", "--side", "1e308"], "1e+308"),
        (["scaling-sweep", "--big-t", "1e308"], "T = 1e+308"),
        (["scaling-sweep", "--p", "1e308"], "p = 1e+308"),
        (["local-solve", "--a-count", str(2**63)], f"a-count {_TOO_BIG}"),
        (["scaling-sweep", "--r-count", str(2**63)], f"r-count {_TOO_BIG}"),
        (["scaling-sweep", "--a-count", str(2**63)], f"a-count {_TOO_BIG}"),
        (["lattice-verify", "--spacings", "1e300", "0.1"], "spacing 1e+300"),
        # these leaked warnings before the error
        (["local-solve", "--a-min", "inf"], "got inf, 2.0"),
        (["lattice-verify", "--m", "1e308"], "m = 1e+308"),
        (["lattice-verify", "--spacings", "1e308"], "spacing 1e+308"),
        # a finite rapidity whose cosh overflows: warnings and an unnamed value
        (["lattice-verify", "--spacings", "0.1", "--rapidity", "2000"], "got 2000.0"),
        # an overflowing bare mass only failed the log-log fit, unnamed, or
        # raised OverflowError (exit 4)
        (["scaling-sweep", "--m", "1e308"], "m = 1e+308, R = 0.001"),
        (["scaling-sweep", "--m", "1e200"], "m = 1e+200, R = 0.001"),
        # a boost in range whose transported fields overflow: unnamed, or
        # FloatingPointError (exit 4)
        (["lattice-verify", "--extent", "6", "--spacings", "0.2", "0.1",
          "--rapidity", "1000"], "rapidity 1000.0"),
        (["lattice-verify", "--extent", "6", "--spacings", "0.2", "0.1",
          "--rapidity", "500"], "rapidity 500.0"),
        # an intermediate that underflows to 0 or overflows: a traceback and
        # exit 4 from ZeroDivisionError or OverflowError
        (["solve-bohr", "--m", "1e-300"], "m**2 at m = 1e-300"),
        (["scaling-sweep", "--r-min", "1e-300"], "radii must keep the fitted "
         "columns finite and positive, got 1e-300"),
        (["scaling-sweep", "--r-max", "1e-300"], "radii must keep the fitted "
         "columns finite and positive, got 1e-300"),
        (["scaling-sweep", "--a-min", "1e-300"], "spacings must keep the "
         "fitted columns finite and positive, got 1e-300"),
        (["scaling-sweep", "--a-max", "1e-300"], "spacings must keep the "
         "fitted columns finite and positive, got 1e-300"),
        (["local-solve", "--e", "1e-300"], "got e = 1e-300"),
        (["local-solve", "--a-max", "1e100"], "to a-max 1e+100"),
        (["local-solve", "--a-min=-1e100"], "a-min -1e+100 to"),
        (["local-solve", "--a-min", "1e-120", "--a-max", "1e-100"],
         "a-min 1e-120 to a-max 1e-100"),
        # subnormal residual terms failed the residual check (exit 1); an
        # overflowing 4 m**2 / e**2 named only A
        (["local-solve", "--a-min", "1e-80", "--a-max", "1e-79", "--a-count", "3"],
         "equation at A = 1e-80 "),
        (["local-solve", "--e", "1e-160"], "e = 1e-160, m = 1.0"),
        # a span that overflows: numpy warned and a NaN grid point was named
        (["local-solve", "--a-min=-1e308", "--a-max", "1e308"],
         "span a-max - a-min must be finite, got inf"),
        (["local-solve", "--a-min=-1.7e308", "--a-max", "1.7e308", "--a-count", "3"],
         "span a-max - a-min must be finite, got inf"),
        # a subnormal wave number: the radius overflowed, solve-bohr wrote
        # "R": Infinity (exit 1) and lattice-verify ran on it (exit 0)
        (["solve-bohr", "--f=-1e-310"], "radius n/(m*v*gamma) at e*f = -1e-310"),
        (["lattice-verify", "--f=-1e-310"], "radius n/(m*v*gamma) at e*f = -1e-310"),
        # a subnormal (2*spacing)**2: FloatingPointError from the photon
        # residual (exit 4)
        (["lattice-verify", "--extent", "6", "--spacings", "0.1", "1e-155"],
         "1/(2*spacing)**2 at spacing 1e-155"),
    ])
    def test_out_of_range_input_named_exit_3(self, tmp_path, capsys, argv, named):
        rc = main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        (line,) = err.splitlines()
        assert line.startswith("domain error: ") and named in line

    @pytest.mark.parametrize("e", ["1e-160", "1e-300"])
    def test_local_solve_coupling_error_names_no_a_range(self, tmp_path, capsys,
                                                         e):
        # e alone is at fault: the A range used to be appended to its error
        assert main(["local-solve", "--e", e, "--out", str(tmp_path)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert f"e = {e}" in line and "a-min" not in line

    def test_other_exception_exit_4_with_traceback(self, tmp_path, capsys,
                                                   monkeypatch):
        # a ValueError that is no DomainError used to exit 3 as a domain error
        def broken(state):
            raise ValueError("a bug, not an input")

        monkeypatch.setattr(cli, "mass_shell_residual", broken)
        rc = main(["solve-bohr", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "Traceback" in err and "ValueError: a bug, not an input" in err
        assert "domain error" not in err
        assert err.rstrip().splitlines()[-1].startswith("internal error:")
        report = failed_report(tmp_path, "solve-bohr", 4, "ValueError")
        assert report["error"]["message"] == "a bug, not an input"

    def test_internal_error_in_a_subcommand_reported(self, tmp_path, capsys,
                                                     monkeypatch):
        # the tiling raises past every check: no artifact, only the report
        def broken(*args, **kwargs):
            raise RuntimeError("a bug in the tiling")

        monkeypatch.setattr(cli, "tile", broken)
        assert main(["tile", "--out", str(tmp_path)]) == 4
        assert "RuntimeError: a bug in the tiling" in capsys.readouterr().err
        report = failed_report(tmp_path, "tile", 4, "RuntimeError")
        assert report["error"]["message"] == "a bug in the tiling"
        assert [p.name for p in tmp_path.iterdir()] == ["tile_report.json"]

    @pytest.mark.parametrize("allocate", [
        _no_room,
        # numpy's own error: 568 PiB is past every 64-bit address space, so
        # the request fails at once and no memory is touched
        lambda *args: np.empty((10**4,) * 4 + (4,), complex),
    ], ids=["MemoryError", "numpy"])
    def test_out_of_memory_exit_5_with_report(self, tmp_path, capsys, monkeypatch,
                                              allocate):
        # a size that fits np.intp but not memory used to exit 4 with a traceback
        with pytest.raises(MemoryError) as info:
            allocate()
        error_type, message = type(info.value).__name__, str(info.value)
        monkeypatch.setattr(cli, "_field", allocate)
        assert main(["lattice-verify", "--extent", "4", "--spacings", "0.2",
                     "--out", str(tmp_path)]) == 5
        assert capsys.readouterr().err == f"out of memory: {error_type}: {message}\n"
        report = failed_report(tmp_path, "lattice-verify", 5, error_type)
        assert report["error"]["message"] == message

    def test_module_runs_the_command_line(self):
        # ``python -m bohrqed`` used to fail: no module bohrqed.__main__
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "bohrqed", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: bohrqed")

    def test_domain_error_subclasses_named(self, tmp_path, capsys):
        assert main(["solve-bohr", "--out", str(tmp_path), "--m", "-1"]) == 3
        assert capsys.readouterr().err == (
            "domain error: NonPositiveMass: m must be positive, got -1.0\n")
        assert main(["solve-bohr", "--out", str(tmp_path), "--e", "0"]) == 3
        assert capsys.readouterr().err == (
            "domain error: coupling e*f must be nonzero, got -0.0\n")


# ---------------------------------------------------------------------------
# The columnar CSV writer against the per-value writer it replaced
# ---------------------------------------------------------------------------

def _write_csv_per_value(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1e-300,
                     -1e-300, 1.7976931348623157e308]),
    st.floats(min_value=1e-310, max_value=1e-300),
    st.floats(),
)
COLUMNS = {"float": EDGE_FLOATS, "int": st.integers(-2**63, 2**63 - 1),
           "str": st.text(max_size=8)}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), max_size=6))
    count = draw(st.integers(0, 12))
    return kinds, [draw(st.lists(COLUMNS[kind], min_size=count, max_size=count))
                   for kind in kinds]


def _check_per_value(tmp, table, as_arrays):
    kinds, columns = table
    header = [f"c{i}" for i in range(len(columns))]
    rows = [list(row) for row in zip(*columns)]
    if as_arrays:  # numeric columns as arrays, as the tiling passes them
        columns = [col if kind == "str" else np.array(col, dtype=kind)
                   for kind, col in zip(kinds, columns)]
    write_csv(tmp / "new.csv", header, columns)
    _write_csv_per_value(tmp / "old.csv", header, rows)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


class TestColumnarCsv:
    @given(table=tables(), as_arrays=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_per_value_writer(self, tmp_path_factory, table,
                                          as_arrays):
        _check_per_value(tmp_path_factory.mktemp("csv"), table, as_arrays)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @given(table=tables(), as_arrays=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_blocks_match_per_value_writer(self, tmp_path_factory, rows, table,
                                           as_arrays):
        # tables of up to 12 rows written a few rows at a time
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CSV_ROWS", rows)
            _check_per_value(tmp_path_factory.mktemp("csv"), table, as_arrays)

    def test_unequal_columns_raise_before_the_file(self, tmp_path):
        with pytest.raises(ValueError, match="equal lengths"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], np.ones(3)])
        assert not (tmp_path / "t.csv").exists()

    def test_failed_row_leaves_no_file(self, tmp_path):
        # the header used to stay behind as if it were the whole table
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], [[1.5, "x"]])
        assert not (tmp_path / "t.csv").exists()

    def test_failed_later_block_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_ROWS", 1)
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], [[1.5, 2.5, "x"]])
        assert not (tmp_path / "t.csv").exists()

    def test_failed_write_keeps_the_previous_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_ROWS", 1)
        write_csv(tmp_path / "t.csv", ["a"], [[0.5]])
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], [[1.5, 2.5, "x"]])
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert (tmp_path / "t.csv").read_bytes() == b"a\n0.5\n"

    def test_empty_table_is_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["owner", "region", "x1"],
                  [np.empty(0, dtype=int), [], np.empty(0)])
        assert (tmp_path / "t.csv").read_bytes() == b"owner,region,x1\n"

    def test_peak_memory(self, tmp_path):
        # a table shaped like local-solve's: one block's text in memory at a
        # time, not the whole table's (4.7 times the file)
        grid = np.linspace(-2.0, 2.0, 20001)
        rng = np.random.default_rng(3)
        branch = np.full(grid.size, "degenerate", dtype=object)
        branch[grid > 0], branch[grid < 0] = "positive-root", "negative-root"
        columns = [grid.tolist(), *rng.normal(size=(4, grid.size)), branch]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["A", "rho", "R", "f", "residual",
                                           "branch"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (tmp_path / "t.csv").stat().st_size
