"""Command-line interface: file outputs, determinism, error handling."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qadvdiff import cli
from qadvdiff.cli import main
from qadvdiff.config import load_config
from qadvdiff.splitting import (
    initial_scalar_field,
    run_scenario,
    x_coordinates,
    y_coordinates,
)

PULSE_CFG = """\
n_x = 5
profile = uniform
U = 1.0
D = 0.08
t_final = 1.0
steps = 1
"""

SHEAR_CFG = """\
n_x = 4
n_y = 3
profile = couette
U = 1.0
D = 0.01
t_final = 1.0
steps = 2
splitting = strang
bc_y = neumann
"""

# small speeds and diffusivity leave values far below 1e-4 next to the
# initial basis state, so the fields hold zeros and exponent-form values
BASIS_CFG = """\
n_x = 2
n_y = 2
profile = couette
U = 0.01
D = 0.0001
t_final = 0.5
steps = 2
splitting = strang
bc_y = dirichlet
initial = basis:5
reference = none
"""


@pytest.fixture
def pulse_cfg(tmp_path):
    path = tmp_path / "pulse.cfg"
    path.write_text(PULSE_CFG)
    return str(path)


@pytest.fixture
def shear_cfg(tmp_path):
    path = tmp_path / "shear.cfg"
    path.write_text(SHEAR_CFG)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRun:
    def test_writes_summary_and_fields(self, pulse_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", pulse_cfg, "--out-dir", str(out)]) == 0
        header, row = read_csv(out / "summary.csv")
        record = dict(zip(header, row))
        assert_allclose(float(record["pe"]), 12.5)
        assert_allclose(float(record["fo"]), 0.08)
        assert 0.2 < float(record["success_prob"]) < 0.3
        assert float(record["err_analytic"]) < 1e-10
        assert float(record["err_oracle"]) < 1e-12
        fields = read_csv(out / "field_1.csv")
        assert fields[0] == ["x", "y", "value"]
        assert len(fields) == 33
        assert (out / "field_0.csv").exists()

    def test_floats_round_trip_bit_exactly(self, pulse_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", pulse_cfg, "--out-dir", str(out)])
        rows = read_csv(out / "field_1.csv")[1:]
        values = np.array([float(r[2]) for r in rows])
        rewritten = ["%.17g" % v for v in values]
        assert rewritten == [r[2] for r in rows]

    @pytest.mark.parametrize("text", [PULSE_CFG, BASIS_CFG], ids=["1d", "basis"])
    def test_field_files_are_the_csv_writer_bytes(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
        settings = load_config(str(path))
        config = settings.scenario
        result = run_scenario(config, initial_scalar_field(config, settings.initial))
        x, y = x_coordinates(config), y_coordinates(config)
        rows = []
        for step, vector in result.checkpoint_states:
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(("x", "y", "value"))
            for flat, amp in enumerate(vector):
                jx, jy = flat % config.nx_points, flat // config.nx_points
                row = ["%.17g" % float(v)
                       for v in (x[jx], 0.0 if y is None else y[jy], amp.real)]
                writer.writerow(row)
                rows.append(row)
            assert (out / f"field_{step}.csv").read_bytes() == (
                buffer.getvalue().encode())
        if y is None:
            assert {row[1] for row in rows} == {"0"}
        else:
            values = [row[2] for row in rows]
            assert "0" in values and any("e-" in v for v in values)

    def test_two_dimensional_run_gets_fd_reference(self, shear_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", shear_cfg, "--out-dir", str(out)]) == 0
        header, row = read_csv(out / "summary.csv")
        record = dict(zip(header, row))
        assert "err_fd10" in record and "err_oracle" in record
        assert float(record["err_oracle"]) < 1e-12

    def test_fine_wall_grid_gives_finite_fd_error(self, tmp_path):
        # once exited 0 with err_fd10 = nan: n_y > n_x made FD10 unstable
        path = tmp_path / "fine_walls.cfg"
        path.write_text("n_x = 3\nn_y = 6\nprofile = couette\nU = 1.0\nD = 0.05\n"
                        "t_final = 1.0\nsteps = 4\nsplitting = strang\n"
                        "reference = auto\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
        header, row = read_csv(out / "summary.csv")
        assert "err_fd10" in header
        assert all(np.isfinite(float(value)) for value in row)

    def test_splitting_override_changes_the_result(self, shear_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", shear_cfg, "--out-dir", str(out_a)])
        main(["run", "--config", shear_cfg, "--out-dir", str(out_b),
              "--splitting", "trotter"])
        val_a = read_csv(out_a / "field_2.csv")[9][2]
        val_b = read_csv(out_b / "field_2.csv")[9][2]
        assert val_a != val_b

    def test_runs_are_deterministic(self, shear_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", shear_cfg, "--out-dir", str(out_a)])
        main(["run", "--config", shear_cfg, "--out-dir", str(out_b)])
        assert (out_a / "summary.csv").read_text() == (
            out_b / "summary.csv").read_text()

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_config_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_x = 5\nprofile = uniform\nD = 0.08\n"
                        "t_final = 1.0\nwhat = 7\n")
        rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 5" in err and "what" in err


    def test_non_finite_value_fails_before_writing(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text("n_x = 5\nprofile = uniform\nD = nan\n"
                        "t_final = 1.0\nreference = none\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out-dir", str(out)])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err
        assert not list(tmp_path.rglob("field_*.csv"))

    @pytest.mark.parametrize("index", ["xyz", "99"])
    def test_bad_basis_index_fails_before_writing(self, tmp_path, capsys, index):
        path = tmp_path / "basis.cfg"
        path.write_text("n_x = 2\nn_y = 2\nprofile = uniform\nD = 0.08\n"
                        f"initial = basis:{index}\nt_final = 1.0\nreference = none\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 5" in err and "basis.cfg" in err and "basis index" in err
        assert not list(tmp_path.rglob("field_*.csv"))


class TestConverge:
    def test_grid_sweep_writes_slope_footer(self, pulse_cfg, tmp_path):
        out = tmp_path / "conv"
        rc = main(["converge", "--config", pulse_cfg, "--out-dir", str(out),
                   "--grid-sizes", "8", "16", "32"])
        assert rc == 0
        rows = read_csv(out / "converge.csv")
        assert rows[0] == ["N", "trotter_error", "strang_error"]
        assert rows[-1][0] == "slope"
        assert len(rows) == 5

    def test_step_sweep_slopes_match_splitting_orders(self, shear_cfg,
                                                      tmp_path):
        out = tmp_path / "conv"
        rc = main(["converge", "--config", shear_cfg, "--out-dir", str(out),
                   "--step-counts", "1", "2", "4", "8"])
        assert rc == 0
        rows = read_csv(out / "converge.csv")
        slope = rows[-1]
        assert slope[0] == "slope"
        assert 0.7 < float(slope[1]) < 1.3
        assert 1.6 < float(slope[2]) < 2.4

    def test_step_sweep_against_fd10(self, shear_cfg, tmp_path):
        out = tmp_path / "conv"
        rc = main(["converge", "--config", shear_cfg, "--out-dir", str(out),
                   "--step-counts", "1", "2", "4", "--reference", "fd10"])
        assert rc == 0
        rows = read_csv(out / "converge.csv")
        assert rows[0] == ["N_t", "trotter_error", "strang_error"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "4", "slope"]
        assert all(np.isfinite(float(v)) for r in rows[1:] for v in r[1:])

    def test_single_entry_has_no_footer(self, shear_cfg, tmp_path):
        out = tmp_path / "conv"
        main(["converge", "--config", shear_cfg, "--out-dir", str(out),
              "--step-counts", "4"])
        rows = read_csv(out / "converge.csv")
        assert len(rows) == 2
        assert rows[1][0] == "4"

    def test_grid_sweep_requires_one_dimensional_scenario(self, shear_cfg,
                                                          tmp_path, capsys):
        rc = main(["converge", "--config", shear_cfg,
                   "--out-dir", str(tmp_path), "--grid-sizes", "8", "16"])
        assert rc == 1
        assert "1D" in capsys.readouterr().err

    def test_non_power_of_two_grid_rejected(self, pulse_cfg, tmp_path,
                                            capsys):
        rc = main(["converge", "--config", pulse_cfg,
                   "--out-dir", str(tmp_path), "--grid-sizes", "12"])
        assert rc == 1
        assert "power of two" in capsys.readouterr().err

    def test_zero_grid_size_names_the_grid_size(self, pulse_cfg, tmp_path,
                                                capsys):
        rc = main(["converge", "--config", pulse_cfg,
                   "--out-dir", str(tmp_path), "--grid-sizes", "0"])
        assert rc == 1
        assert ("grid size must be a power of two >= 4, got 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("reference", ["self", "fd10"])
    def test_step_counts_checked_before_any_run(self, shear_cfg, tmp_path,
                                                monkeypatch, capsys, reference):
        def unexpected(*args, **kwargs):
            raise AssertionError("run_scenario called before validation")

        monkeypatch.setattr(cli, "run_scenario", unexpected)
        monkeypatch.setattr(cli, "fd10_reference", unexpected)
        rc = main(["converge", "--config", shear_cfg, "--out-dir", str(tmp_path),
                   "--step-counts", "4", "0", "--reference", reference])
        assert rc == 1
        assert "step counts must be >= 1, got 0" in capsys.readouterr().err


class TestGatecount:
    def test_couette_counts_and_exponent(self, tmp_path):
        out = tmp_path / "gates"
        rc = main(["gatecount", "--profile", "couette", "--n-min", "3",
                   "--n-max", "6", "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "gatecount.csv")
        assert rows[0] == ["n", "controlled", "two_qubit", "qft_controlled",
                           "qft_two_qubit"]
        assert rows[1] == ["3", "9", "9", "3", "6"]
        footer = rows[-1]
        assert footer[0] == "fit_exponent"
        assert 1.8 < float(footer[1]) < 2.2

    def test_uniform_profile_has_no_controlled_gates(self, tmp_path):
        out = tmp_path / "gates"
        main(["gatecount", "--profile", "uniform", "--n-min", "3",
              "--n-max", "5", "--out-dir", str(out)])
        rows = read_csv(out / "gatecount.csv")
        assert all(row[1] == "0" and row[2] == "0" for row in rows[1:])
        assert all(row[0] != "fit_exponent" for row in rows)


class TestHardwareDemo:
    def test_writes_listing_and_reconstruction(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["hardware-demo", "--n", "3", "--shots", "2000",
                   "--seed", "7", "--out-dir", str(out)])
        assert rc == 0
        listing = (out / "demo_circuit.txt").read_text()
        assert listing.startswith("QUBITS 9\nANCILLAS 3 4 5 6 7 8\n")
        rows = read_csv(out / "demo_reconstruction.csv")
        assert rows[0] == ["index", "ideal_amp", "sampled_amp", "lo_3sigma",
                           "hi_3sigma"]
        assert len(rows) == 9

    def test_same_seed_same_files(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(["hardware-demo", "--n", "3", "--shots", "1000",
                  "--seed", "3", "--out-dir", str(out)])
        assert (out_a / "demo_reconstruction.csv").read_text() == (
            out_b / "demo_reconstruction.csv").read_text()


    @pytest.mark.parametrize("flag, value, message", [
        ("--beta", "nan", "must not be NaN"),
        ("--alpha", "nan", "must not be NaN"),
        ("--alpha", "inf", "phase angle must be finite"),
    ])
    def test_non_finite_parameters_fail_before_writing(self, tmp_path, capsys,
                                                       flag, value, message):
        # numpy's multinomial once failed on NaN probabilities instead
        rc = main(["hardware-demo", "--n", "3", flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("demo_*"))

    def test_infinite_beta_is_full_damping(self, tmp_path):
        rc = main(["hardware-demo", "--n", "3", "--beta", "inf",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "demo_reconstruction.csv").exists()


class TestSample:
    def test_reconstruction_schema_and_determinism(self, pulse_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["sample", "--config", pulse_cfg, "--shots", "5000",
                       "--seed", "3", "--out-dir", str(out)])
            assert rc == 0
        rows = read_csv(out_a / "sample.csv")
        assert rows[0] == ["index", "ideal_amp", "sampled_amp", "lo_3sigma",
                           "hi_3sigma"]
        assert len(rows) == 33
        assert (out_a / "sample.csv").read_text() == (
            out_b / "sample.csv").read_text()

    def test_zero_shots_rejected(self, pulse_cfg, tmp_path, capsys):
        rc = main(["sample", "--config", pulse_cfg, "--shots", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "shots" in capsys.readouterr().err


def test_importing_the_package_leaves_scipy_unloaded():
    # only the wall stage and the oracles need scipy, and they load it when
    # they first run; a demo or a gate count never pays for it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qadvdiff, qadvdiff.cli, qadvdiff.demo\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
