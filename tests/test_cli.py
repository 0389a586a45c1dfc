"""Command-line interface: output formats, config layering, exit codes."""
import argparse
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbound import cli, errors, solver
from kgbound.coulomb import energy_level
from kgbound.core import PhysicalParams


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestSpectrum:
    def test_three_rows_up_to_n2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-max", "2")
        assert code == 0 and err == ""
        meta, header, rows = parse_csv(out)
        assert meta["command"] == "spectrum"
        assert [(r["n"], r["l"]) for r in rows] == [("1", "0"), ("2", "0"), ("2", "1")]
        assert float(rows[0]["e_total_ratio"]) == pytest.approx(
            0.99997337255022472, rel=1e-11)
        assert float(rows[0]["sigma_l"]) == pytest.approx(
            5.3254190529478261e-5, rel=1e-11)

    def test_explicit_state_list(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--states", "3,1; 1,0",
                               "--alpha", "0.1")
        assert code == 0
        _, _, rows = parse_csv(out)
        # sorted by (n, l) regardless of request order
        assert [(r["n"], r["l"]) for r in rows] == [("1", "0"), ("3", "1")]
        ref = energy_level(PhysicalParams(alpha=0.1), 3, 1)
        assert float(rows[1]["e_prime_ratio"]) == pytest.approx(
            ref.e_prime, rel=1e-11)

    def test_csv_floats_are_11_digit_scientific(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--n-max", "1")
        _, _, rows = parse_csv(out)
        cell = rows[0]["e_total_ratio"]
        mantissa, _, exp = cell.partition("e")
        assert len(mantissa.split(".")[1]) == 11
        assert exp != ""

    def test_supercritical_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--alpha", "0.6")
        assert code == 3
        assert "SupercriticalCoupling" in err


class TestOutputPlumbing:
    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "spectrum"
        assert len(doc["rows"]) == 3
        ref = energy_level(PhysicalParams(), 1, 0)
        # 17 significant digits: bit-exact after parsing
        assert doc["rows"][0]["e_total_ratio"] == ref.e_total

    def test_render_bytes_per_cell_type(self):
        # every cell type a command emits, pinned byte for byte in both formats
        meta = {"command": "solve", "z": 1.0, "grid_n": 400, "n_max": np.int32(3),
                "tol": np.float32(0.1), "lambda": np.float64(0.2),
                "rmax": None, "energies": 'E\' "binding" \\ sector'}
        rows = [
            {"n": 1, "e_prime": None, "converged": True, "iterations": np.int64(4),
             "residual": 1.0 / 3.0, "e_mass": np.float64(-2.5e-300), "status": "ok"},
            {"n": 2, "e_prime": -0.1, "converged": False, "iterations": np.int64(-7),
             "residual": 1e300, "e_mass": np.float64(0.0), "status": "tab\there"},
        ]
        assert cli._render_csv(meta, rows) == (
            "# command = solve\n"
            "# z = 1.00000000000e+00\n"
            "# grid_n = 400\n"
            "# n_max = 3\n"
            "# tol = 1.00000001490e-01\n"
            "# lambda = 2.00000000000e-01\n"
            "# rmax = \n"
            "# energies = E' \"binding\" \\ sector\n"
            "n,e_prime,converged,iterations,residual,e_mass,status\n"
            "1,,true,4,3.33333333333e-01,-2.50000000000e-300,ok\n"
            "2,-1.00000000000e-01,false,-7,1.00000000000e+300,0.00000000000e+00,tab\there\n"
        )
        assert cli._render_json(meta, rows) == (
            '{"meta": {"command": "solve", "z": 1.0000000000000000e+00, "grid_n": 400, '
            '"n_max": 3, "tol": 1.0000000149011612e-01, '
            '"lambda": 2.0000000000000001e-01, "rmax": null, '
            '"energies": "E\' \\"binding\\" \\\\ sector"}, '
            '"rows": [{"n": 1, "e_prime": null, "converged": true, "iterations": 4, '
            '"residual": 3.3333333333333331e-01, "e_mass": -2.5000000000000000e-300, '
            '"status": "ok"}, '
            '{"n": 2, "e_prime": -1.0000000000000001e-01, "converged": false, '
            '"iterations": -7, "residual": 1.0000000000000001e+300, '
            '"e_mass": 0.0000000000000000e+00, "status": "tab\\there"}]}\n'
        )

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--n-max", "3")
        _, out2, _ = run_cli(capsys, "spectrum", "--n-max", "3")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "1",
                               "--out", str(target))
        assert code == 0 and out == ""
        meta, _, rows = parse_csv(target.read_text())
        assert meta["command"] == "spectrum" and len(rows) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("kgbound ")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["twiddle"])
        assert exc.value.code == 2


class TestBadValuesExit2:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--alpha", "nan"),
        ("spectrum", "--z", "0"),
        ("solve", "--rest-mass", "inf"),
        ("wavefunction", "--rmax", "-5"),
        ("solve", "--potential", "hulthen", "--lambda", "-1"),
        ("solve", "--tol", "nan"),
        ("solve", "--tol", "inf"),
        ("solve", "--tol", "0"),
        ("convergence", "--tol", "-1"),
        ("spectrum", "--n-max", "0"),
        ("convergence", "--sizes", "1,2,3"),
        ("convergence", "--sizes", "100,100,200"),
        ("wavefunction", "--samples", "2"),
        ("lorentz", "--e", "nan"),
        ("spectrum", "--states", "1,0; 1,0"),
        ("solve", "--states", "2,1; 1,0; 2, 1", "--grid-n", "400"),
    ], ids=" ".join)
    def test_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("kgbound: config error:")


    @pytest.mark.parametrize("command, section, key, value", [
        ("spectrum", "common", "z", "0"),
        ("spectrum", "spectrum", "n_max", "0"),
        ("wavefunction", "wavefunction", "samples", "2"),
        ("convergence", "convergence", "sizes", "100,100,200"),
        ("lorentz", "lorentz", "e", "nan"),
        # every section's values are checked, not only the ones applied
        ("spectrum", "solve", "tol", "-1"),
        ("spectrum", "solve", "grid_n", "3"),
    ], ids=lambda v: v)
    def test_config_file_value(self, capsys, tmp_path, command, section, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("kgbound: config error:") and err.count("\n") == 1
        assert f"for key {key!r}: {key} must be" in err

    def test_config_value_overridden_by_flag(self, capsys, tmp_path):
        # each value is checked where it is read, not only the merged one
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\ntol = -1\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg),
                                 "--tol", "1e-10", "--grid-n", "400")
        assert code == 2 and out == ""
        assert "for key 'tol': tol must be finite and positive" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--n", "1"),  # would abbreviate --n-max
        ("spectrum", "--c", "2"),  # would abbreviate --config
        ("solve", "--grid", "400"),
        ("--vers",),  # would abbreviate --version
    ], ids=" ".join)
    def test_abbreviated_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "kgbound: error:" in captured.err


class TestConfigFile:
    def test_layering_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[common]\nalpha = 0.1\n\n[spectrum]\nn_max = 3\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 6  # n <= 3
        ref = energy_level(PhysicalParams(alpha=0.1), 1, 0)
        assert float(rows[0]["e_total_ratio"]) == pytest.approx(
            ref.e_total, rel=1e-11)
        # explicit flag wins over the file value
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--n-max", "1")
        _, _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_other_command_sections_allowed(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[spectrum]\nn_max = 1\n\n[solve]\ngrid_n = 500\n")
        code, _, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[spectrum]\nmax_n = 2\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2 and "max_n" in err

    def test_wavefunction_has_no_grid_key(self, capsys, tmp_path):
        # wavefunction tabulates the closed form; no solver grid to size
        cfg = tmp_path / "run.ini"
        cfg.write_text("[wavefunction]\ngrid_n = 10\n")
        code, out, err = run_cli(capsys, "wavefunction", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "unknown key 'grid_n' in section [wavefunction]" in err

    def test_unknown_section_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[spectral]\nn_max = 2\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_unreadable_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[spectrum]\nn_max = often\n")
        code, _, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_lambda_alias(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\nlambda = 0.5\npotential = hulthen\ngrid_n = 2000\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg),
                               "--alpha", "0.3")
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert rows[0]["status"] == "ok"
        assert float(meta["lambda"]) == 0.5


class TestSolve:
    def test_ground_state_row(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--alpha", "0.3",
                               "--grid-n", "2000")
        assert code == 0
        meta, header, rows = parse_csv(out)
        row = rows[0]
        assert row["status"] == "ok"
        assert row["mode"] == "kg-vector" and row["potential"] == "coulomb"
        assert int(row["node_count"]) == 0
        assert int(row["iterations"]) <= 30
        assert float(row["e_prime"]) < 0
        assert float(row["residual"]) < 1e-12

    def test_supercritical_reported_per_row(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--alpha", "0.6",
                               "--grid-n", "1000")
        assert code == 0  # the failure is data, not a crash
        _, _, rows = parse_csv(out)
        assert rows[0]["status"] == "SupercriticalCoupling"
        assert rows[0]["e_prime"] == ""

    def test_equal_mode_screened(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--alpha", "0.3", "--mode", "kg-equal",
            "--potential", "equal-hulthen", "--lambda", "0.2",
            "--grid-n", "2000")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["status"] == "ok"
        assert int(rows[0]["iterations"]) <= 20

    def test_invalid_state_reported_per_row(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--states", "0,0; 1,0",
                                 "--grid-n", "400")
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["InvalidQuantumNumbers", "ok"]

    def test_bad_mode_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--mode", "kg-tensor")
        assert code == 2

    # the exit code of every error, written out so that none moves unseen
    @pytest.mark.parametrize("error", [
        errors.NoConvergence, OverflowError,
    ], ids=lambda e: e.__name__)
    def test_numerical_failure_exits_4(self, capsys, monkeypatch, error):
        def explode(cfg):
            raise error("stalled")
        monkeypatch.setattr(cli, "cmd_solve", explode)
        code, _, err = run_cli(capsys, "solve")
        assert code == 4 and err == f"kgbound: {error.__name__}: stalled\n"

    @pytest.mark.parametrize("error", [
        errors.SupercriticalCoupling, errors.InvalidQuantumNumbers,
        errors.StateNotFound, errors.UnsupportedCombination, errors.SuperluminalBoost,
    ], ids=lambda e: e.__name__)
    def test_physics_failure_exits_3(self, capsys, monkeypatch, error):
        def explode(cfg):
            raise error("no such level")
        monkeypatch.setattr(cli, "cmd_solve", explode)
        code, _, err = run_cli(capsys, "solve")
        assert code == 3 and err == f"kgbound: {error.__name__}: no such level\n"

    def test_every_error_has_one_kind(self):
        bases = {errors.KGBoundError, errors.PhysicsError, errors.NumericalError,
                 errors.ConfigError}
        kinds = (errors.PhysicsError, errors.NumericalError)
        for name in errors.__all__:
            error = getattr(errors, name)
            if error not in bases:
                assert sum(issubclass(error, k) for k in kinds) == 1, name


class TestOverflowExits:
    """Finite inputs whose arithmetic overflows, underflows to zero, divides
    by zero or defeats LAPACK: solve reports the error per row and exits 0,
    the other commands exit 4."""

    @pytest.mark.parametrize("argv, statuses", [
        (("solve", "--rest-mass", "1e-300", "--grid-n", "400"), ["OverflowError"]),
        (("solve", "--rest-mass", "1e300", "--grid-n", "400"), ["ZeroDivisionError"]),
        (("solve", "--alpha", "1e-300", "--grid-n", "400"), ["OverflowError"]),
        # operator entries near 1e305 make LAPACK's stebz fail
        (("solve", "--rest-mass", "1e-300", "--grid-n", "16", "--rmax", "0.05"),
         ["NoConvergence"]),
        # the centrifugal term overflows to inf in the operator
        (("solve", "--rest-mass", "1e-300", "--n", "3", "--l", "2", "--grid-n", "400",
          "--rmax", "0.05"), ["NoConvergence"]),
        (("solve", "--rest-mass", "1e-300", "--l", "0", "--states", "3,0; 3,2",
          "--lambda", "0.05", "--grid-n", "400", "--rmax", "0.05"),
         ["NoConvergence", "NoConvergence"]),
        # N^s overflows in the stencil correction (s ~ l + 1)
        (("solve", "--n", "80", "--l", "79"), ["NoConvergence"]),
        (("solve", "--n", "151", "--l", "150", "--grid-n", "400"), ["NoConvergence"]),
        # LAPACK's dstein returns a NaN eigenvector: its arithmetic leaves the float range
        (("solve", "--rest-mass", "1e150"), ["NoConvergence"]),
        # no grid: the step r_max/(N+1) rounds to 0, or 1/lambda makes r_max inf
        (("solve", "--rmax", "1e-320"), ["OverflowError"]),
        (("solve", "--potential", "hulthen", "--lambda", "1e-320"), ["OverflowError"]),
        # no grid: the box 15 n^2 a0 / Z, or 120 n / lambda, underflows to 0
        (("solve", "--alpha", "1e200", "--rest-mass", "1e200", "--grid-n", "100"),
         ["OverflowError"]),
        (("solve", "--potential", "hulthen", "--lambda", "1e300", "--rest-mass", "1e100",
          "--grid-n", "100"), ["OverflowError"]),
        # the kinetic coefficient A/h^2 underflows, which would drop the kinetic term
        (("solve", "--mode", "schrodinger", "--rest-mass", "1e150", "--rmax", "1e150",
          "--grid-n", "16"), ["OverflowError"]),
        (("solve", "--mode", "kg-vector", "--rest-mass", "1e150", "--rmax", "1e150",
          "--grid-n", "16"), ["OverflowError"]),
        (("solve", "--mode", "kg-equal", "--potential", "equal-coulomb", "--rest-mass", "1e150",
          "--rmax", "1e150", "--grid-n", "16"), ["OverflowError"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "-".join(v))
    def test_solve_reports_per_row(self, capsys, argv, statuses):
        solver._stencil_terms.cache_clear()  # a cached correction is not recomputed
        # pytest keeps warnings off stderr, so they are recorded here instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == statuses
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, error", [
        (("compare", "--rest-mass", "1e300", "--grid-n", "400", "--n-max", "1"),
         "ZeroDivisionError"),
        (("convergence", "--sizes", "16,32,64", "--rmax", "1e-300"), "ZeroDivisionError"),
        (("lorentz", "--e", "1e200", "--px", "1e200", "--beta", "0.5"), "OverflowError"),
        (("lorentz", "--e", "1e308", "--beta", "0.9999"), "OverflowError"),
        (("convergence", "--rest-mass", "1e-300", "--sizes", "16,32,64", "--rmax", "0.05"),
         "NoConvergence"),
        # LAPACK's dstein returns a NaN eigenvector
        (("compare", "--rest-mass", "1e150", "--n-max", "2"),
         "NoConvergence: eigenvector 0 has no significant entry"),
        (("convergence", "--rest-mass", "1e150"),
         "NoConvergence: eigenvector 0 has no significant entry"),
        # rho_scale**3 underflows, so the amplitude comes out 0
        (("wavefunction", "--rest-mass", "1e-300", "--samples", "3"), "OverflowError"),
        (("wavefunction", "--rest-mass", "1e-120", "--samples", "3"), "OverflowError"),
        # r^2 overflows to inf where R underflows to 0, so the density is nan
        (("wavefunction", "--rmax", "1e300", "--samples", "5"), "OverflowError"),
        # u passes 1e308 on the tail probe before exp(-rho/2) damps it
        (("wavefunction", "--n", "75", "--l", "0"), "OverflowError"),
        # no grid: the step r_max/(N+1) rounds to 0
        (("convergence", "--rmax", "1e-320"), "OverflowError"),
        (("wavefunction", "--rmax", "5e-324", "--samples", "3"), "OverflowError"),
        # the squared grid step overflows, or underflows to 0, in the operator
        (("compare", "--n-max", "1", "--grid-n", "16", "--rest-mass", "1e-300"),
         "OverflowError: grid step"),
        (("convergence", "--potential", "hulthen", "--lambda", "1e300", "--sizes", "16,32,64"),
         "ZeroDivisionError: grid step"),
        # no grid: the box 120 n / lambda underflows to 0
        (("convergence", "--potential", "hulthen", "--lambda", "1e300", "--rest-mass", "1e100",
          "--sizes", "16,32,64"), "OverflowError: the box for (n=1, l=0) underflows to 0.0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_exit_4(self, capsys, argv, error):
        # pytest keeps warnings off stderr, so they are recorded here instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        name, _, detail = error.partition(": ")
        assert err.startswith(f"kgbound: {name}: {detail}") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_subcritical_box_underflow(self, capsys, tmp_path):
        # Z alpha is physical, but a0 = hbar^2 / (m0 e_s^2) underflows to 0, so
        # the box 15 n^2 a0 / Z does too
        cfg = tmp_path / "run.ini"
        cfg.write_text("[common]\nhbar = 1e-200\nrest_mass = 1e200\n")
        code, out, err = run_cli(capsys, "solve", "--grid-n", "100", "--config", str(cfg))
        assert code == 0 and err == ""
        assert [r["status"] for r in parse_csv(out)[2]] == ["OverflowError"]
        for argv in (("compare", "--grid-n", "100"), ("convergence", "--sizes", "16,32,64")):
            code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
            assert code == 4 and out == ""
            assert err == "kgbound: OverflowError: the box for (n=1, l=0) underflows to 0.0\n"

    @pytest.mark.parametrize("n, l", [(100, 99), (75, 54)])
    def test_laguerre_overflow_names_the_state(self, capsys, n, l):
        # Gamma(k+a+1) in the amplitude overflows from n + l = 171; the
        # normalization amplitude / (|c_top| k!) underflows from n + l = 121
        code, out, err = run_cli(capsys, "wavefunction", "--n", str(n), "--l", str(l))
        assert code == 4 and out == ""
        assert err.startswith("kgbound: OverflowError: the amplitude or the normalization ")
        assert err.endswith(f" for (n={n}, l={l})\n") and err.count("\n") == 1


class TestWavefunctionCommand:
    @pytest.mark.parametrize("n, l", [(17, 0), (35, 34), (40, 0), (50, 49), (57, 56), (75, 37)])
    def test_large_states_build(self, capsys, n, l):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "wavefunction", "--n", str(n), "--l", str(l),
                                     "--samples", "50")
        assert code == 0 and err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        meta, _, _ = parse_csv(out)
        assert int(meta["node_count"]) == n - l - 1

    def test_samples_and_u_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--alpha", "0.3",
                               "--n", "2", "--l", "1", "--samples", "50")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert len(rows) == 50
        assert int(meta["node_count"]) == 0
        for row in rows[5:45:10]:
            r, big_r, u = float(row["r"]), float(row["R"]), float(row["u"])
            assert u == pytest.approx(r * big_r, rel=1e-9, abs=1e-300)
            assert float(row["density"]) == pytest.approx(
                (r * big_r) ** 2, rel=1e-9, abs=1e-300)


class TestCompare:
    def test_deltas_small(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n-max", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 3
        p = PhysicalParams()
        for row in rows:
            n = int(row["n"])
            # columns hold the binding sector; the agreement tolerance lives
            # on the full energy scale, matching the closed-form comparison
            assert abs(float(row["delta_closed_numeric"])) < 1e-6 * p.rest_energy
            assert float(row["e_schrodinger"]) == pytest.approx(
                -p.z_alpha ** 2 * p.rest_energy / (2.0 * n ** 2), rel=1e-11)
            assert float(row["e_kg_numeric"]) < 0

    def test_pair_across_the_origin_fallback_is_one_discretization(self, capsys):
        # (11, 0) at Zalpha = 0.3 puts |a1| h at 0.50 and 0.25 on the 4000
        # and 8000-point grids; both take the same continuous correction
        # (1.02e-5; 1.03e-3 with r^s alone, 3.0e-2 with a switch between)
        code, out, _ = run_cli(capsys, "compare", "--alpha", "0.3", "--states", "11,0")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["delta_closed_numeric"]) < 1.1e-5

    def test_coarse_grids_solve(self, capsys):
        # 16 points put |a1| h near 14 at (4, 0); the clipped correction
        # keeps every state's nodes where they belong (exit 3 unclipped)
        code, out, _ = run_cli(capsys, "compare", "--n-max", "4", "--grid-n", "16")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 10


class TestLorentzCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "lorentz", "--e", "1.1", "--px", "0.3",
                               "--beta", "0.6")
        assert code == 0
        meta, _, rows = parse_csv(out)
        frames = {r["frame"]: r for r in rows}
        assert float(frames["K_prime"]["px"]) == pytest.approx(-0.45, rel=1e-10)
        assert float(frames["K_prime"]["e_total"]) == pytest.approx(1.15, rel=1e-10)
        assert float(frames["K"]["invariant"]) == pytest.approx(1.12, rel=1e-10)
        assert float(frames["K_prime"]["invariant"]) == pytest.approx(1.12, rel=1e-10)
        assert float(meta["gamma"]) == pytest.approx(1.25, rel=1e-10)
        assert abs(float(meta["invariant_drift"])) < 1e-14
        assert abs(float(meta["roundtrip_error"])) < 1e-14

    def test_superluminal_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "lorentz", "--beta", "1.0")
        assert code == 3 and "SuperluminalBoost" in err


class TestConvergenceCommand:
    def test_order_column(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--alpha", "0.1",
                               "--sizes", "500,1000,2000")
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert len(rows) == 3
        assert rows[0]["observed_order"] == ""
        assert rows[1]["observed_order"] == ""
        assert 1.5 < float(rows[2]["observed_order"]) < 2.5
        assert float(meta["r_max"]) > 0

    def test_solves_on_the_given_box(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--alpha", "0.3", "--rmax", "100",
                               "--sizes", "500,1000,2000", "--format", "json")
        assert code == 0
        assert '"r_max": 1.0000000000000000e+02' in out

    def test_invalid_state_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "convergence", "--n", "0",
                                 "--sizes", "16,32,64")
        assert code == 3 and out == ""
        assert "InvalidQuantumNumbers" in err


# argv fuzz vocabulary: each run gives some flags small valid values and at
# most one flag a bad value, so most runs get past the config layer
_BAD = ("nan", "inf", "-1", "0", "1e400", "1e300", "1e-300", "abc", "")
_SMALL_FLOATS = ("0.05", "0.3", "0.6", "1", "2")
# valid but far from 1: the float range is reached through the arithmetic
_MAGNITUDES = _SMALL_FLOATS + ("1e-200", "1e-30", "1e-6", "1e3", "1e30", "1e150", "1e200")
_FUZZ_VALUES = {
    **dict.fromkeys(("--z", "--alpha", "--rest-mass", "--lambda", "--rmax"), _MAGNITUDES),
    "--n": ("1", "2", "3"),
    "--l": ("0", "1", "2"),
    "--states": ("1,0", "2,1; 1,0", "3,0; 3,2", "0,0", "2,2", "1", "a,b", "1,0; 1,0"),
    "--mode": ("schrodinger", "kg-vector", "kg-scalar-vector", "kg-equal"),
    "--potential": ("coulomb", "hulthen", "equal-coulomb", "equal-hulthen", "free"),
    "--format": ("csv", "json"),
    # flags that size the work, capped and always given, so that no run
    # falls back to the large defaults (8000 grid points, 2000 samples)
    "--grid-n": ("16", "100", "400"),
    "--samples": ("2", "3", "50", "200"),
    "--n-max": ("1", "2", "4"),
    "--sizes": ("16,32,64", "100,200,400", "400,100,200", "100,100,200", "16,32"),
}
_FUZZ_SIZES = ("--grid-n", "--samples", "--n-max", "--sizes")
_FUZZ_FLAGS = {
    "spectrum": ("--n-max", "--states"),
    "wavefunction": ("--n", "--l", "--samples", "--rmax"),
    "solve": ("--n", "--l", "--states", "--mode", "--potential", "--lambda",
              "--grid-n", "--rmax", "--tol"),
    "compare": ("--n-max", "--states", "--grid-n", "--tol"),
    "lorentz": ("--e", "--px", "--py", "--pz", "--u", "--u-prime", "--beta"),
    "convergence": ("--n", "--l", "--mode", "--potential", "--lambda", "--sizes",
                    "--rmax", "--tol"),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = [
        flag
        for flag in ("--z", "--alpha", "--rest-mass", "--format") + _FUZZ_FLAGS[command]
        if flag in _FUZZ_SIZES or draw(st.booleans())
    ]
    bad = draw(st.sampled_from(flags)) if flags and draw(st.booleans()) else None
    argv = [command]
    for flag in flags:
        values = _BAD if flag == bad else _FUZZ_VALUES.get(flag, _SMALL_FLOATS)
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=100, deadline=None)
@given(fuzz_argv())
@example(["solve", "--rest-mass", "1e-300", "--grid-n", "16", "--rmax", "0.05"])
@example(["solve", "--rest-mass", "1e-300", "--l", "0", "--states", "3,0; 3,2",
          "--lambda", "0.05", "--grid-n", "400", "--rmax", "0.05"])
@example(["wavefunction", "--rest-mass", "1e-300", "--samples", "3"])
@example(["wavefunction", "--n", "75", "--l", "0", "--samples", "3"])
@example(["wavefunction", "--n", "50", "--l", "49", "--samples", "3"])
@example(["solve", "--rmax", "1e-320"])
@example(["convergence", "--rmax", "1e-320"])
@example(["wavefunction", "--rmax", "5e-324", "--samples", "3"])
@example(["solve", "--potential", "hulthen", "--lambda", "1e-320"])
@example(["solve", "--rest-mass", "1e150"])
@example(["solve", "--alpha", "1e200", "--rest-mass", "1e200", "--grid-n", "100"])
@example(["solve", "--potential", "hulthen", "--lambda", "1e300", "--rest-mass", "1e100",
          "--grid-n", "100"])
@example(["convergence", "--potential", "hulthen", "--lambda", "1e300", "--rest-mass", "1e100",
          "--sizes", "16,32,64"])
def test_argv_fuzz_exits_with_a_documented_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())


def _run_main(argv):
    """Exit code and stdout of one in-process run; argparse exits count too."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
def test_config_section_matches_flags(argv):
    # the same flag/value pairs as key = value lines in the command's section
    command, pairs = argv[0], argv[1:]
    lines = [f"[{command}]"] + [
        f"{flag[2:].replace('-', '_')} = {value}"
        for flag, value in zip(pairs[::2], pairs[1::2])
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        from_file = _run_main([command, "--config", path])
    assert from_file == _run_main(argv), argv


# Settable flags in --help order, written out so that no setting is added,
# dropped or moved unseen.
_COMMON_FLAGS = ("--z", "--alpha", "--rest-mass", "--out", "--format")
_FLAGS = {
    "spectrum": _COMMON_FLAGS + ("--n-max", "--states"),
    "wavefunction": _COMMON_FLAGS + ("--n", "--l", "--samples", "--rmax"),
    "solve": _COMMON_FLAGS + ("--n", "--l", "--states", "--mode", "--potential", "--lambda",
                              "--grid-n", "--rmax", "--tol"),
    "compare": _COMMON_FLAGS + ("--n-max", "--states", "--grid-n", "--tol"),
    "lorentz": _COMMON_FLAGS + ("--e", "--px", "--py", "--pz", "--u", "--u-prime", "--beta"),
    "convergence": _COMMON_FLAGS + ("--n", "--l", "--mode", "--potential", "--lambda",
                                    "--sizes", "--rmax", "--tol"),
}
# c and hbar are config-only: every section takes them, no command has a flag
_CONFIG_KEYS = {
    "common": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format"},
    "spectrum": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format", "n_max", "states"},
    "wavefunction": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format",
                     "n", "l", "samples", "rmax"},
    "solve": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format", "n", "l", "states",
              "mode", "potential", "lambda", "grid_n", "rmax", "tol"},
    "compare": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format",
                "n_max", "states", "grid_n", "tol"},
    "lorentz": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format",
                "e", "px", "py", "pz", "u", "u_prime", "beta"},
    "convergence": {"z", "alpha", "rest_mass", "c", "hbar", "out", "format", "n", "l",
                    "mode", "potential", "lambda", "sizes", "rmax", "tol"},
}


class TestSettableKeys:
    def test_flags_per_command(self):
        top = cli._build_arg_parser()
        sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            cmd: tuple(o for o in sp._option_string_actions if o not in ("-h", "--help", "--config"))
            for cmd, sp in sub.choices.items()
        }
        assert got == _FLAGS

    def test_config_keys_per_section(self):
        got = {section: set(cli._section_settings(section)) for section in _CONFIG_KEYS}
        assert got == _CONFIG_KEYS

    def test_c_and_hbar_are_config_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[common]\nc = 2\nhbar = 1\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--n-max", "1")
        meta, _, _ = parse_csv(out)
        assert code == 0 and float(meta["c"]) == 2.0
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--hbar", "1"])
        assert exc.value.code == 2
