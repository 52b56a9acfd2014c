"""Scenario config parsing: happy paths, defaults, line-precise errors."""

import textwrap

import pytest

from qadvdiff.config import ConfigError, load_config, parse_config
from qadvdiff.transforms import BoundaryKind

FULL = textwrap.dedent(
    """
    # exercised keys, one of each
    n_x = 5
    n_y = 4
    profile = [0.0, 1.0]
    U = 2.0
    D = 0.01
    L = 2.0
    t_final = 0.5
    steps = 4
    splitting = strang
    bc_x = periodic
    bc_y = dirichlet
    checkpoints = 4
    initial = uniform
    reference = oracle
    merge_strang = false
    """
)


class TestParsing:
    def test_every_key_lands_in_the_scenario(self):
        settings = parse_config(FULL)
        config = settings.scenario
        assert config.n_x == 5 and config.n_y == 4
        assert config.profile.coefficients == (0.0, 1.0)
        assert config.velocity_scale == 2.0
        assert config.diffusivity == 0.01
        assert config.length == 2.0
        assert config.t_final == 0.5
        assert config.n_steps == 4
        assert config.splitting == "strang"
        assert config.bc_y is BoundaryKind.DIRICHLET
        assert config.checkpoints == 4
        assert config.merge_strang is False
        assert settings.initial == "uniform"
        assert settings.reference == "oracle"

    def test_defaults(self):
        settings = parse_config("n_x = 3\nprofile = uniform\nD = 0.1\n"
                                "t_final = 1.0\n")
        config = settings.scenario
        assert config.n_y == 0
        assert config.n_steps == 1
        assert config.length == 1.0
        assert config.velocity_scale == 1.0
        assert config.splitting == "trotter"
        assert config.bc_y is BoundaryKind.NEUMANN
        assert config.checkpoints == 10
        assert config.merge_strang is False
        assert settings.initial == "gaussian"
        assert settings.reference == "auto"

    def test_named_profile(self):
        settings = parse_config("n_x = 3\nn_y = 2\nprofile = poiseuille\n"
                                "D = 0.1\nt_final = 1.0\n")
        assert settings.scenario.profile.label == "poiseuille"

    def test_comments_and_blank_lines_ignored(self):
        settings = parse_config("\n# header\nn_x = 3\n\nprofile = uniform\n"
                                "D = 0.1\nt_final = 1.0\n# trailing\n")
        assert settings.scenario.n_x == 3

    def test_boolean_spellings(self):
        text = ("n_x = 3\nn_y = 2\nprofile = couette\nD = 0.1\n"
                "t_final = 1.0\nsplitting = strang\nmerge_strang = {}\n"
                "checkpoints = 1\n")
        assert parse_config(text.format("true")).scenario.merge_strang
        assert not parse_config(text.format("false")).scenario.merge_strang


class TestErrors:
    def expect(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    def test_missing_required_key_is_named(self):
        self.expect("n_x = 3\nprofile = uniform\nD = 0.1\n", "t_final")

    def test_unknown_key_reports_line(self):
        self.expect("nx = 3\n", r"line 1: unknown key 'nx'")

    def test_duplicate_key_points_at_first_use(self):
        self.expect("n_x = 3\nn_x = 4\n", r"line 2: duplicate key.*line 1")

    def test_missing_equals(self):
        self.expect("n_x 3\n", "key = value")

    def test_empty_value(self):
        self.expect("n_x =\n", "no value")

    def test_type_errors_name_the_key(self):
        self.expect("n_x = few\n", "n_x expects an integer")
        self.expect("n_x = 3\nD = soup\n", "D expects a number")

    def test_bad_enums(self):
        prefix = "n_x = 3\nprofile = uniform\nD = 0.1\nt_final = 1.0\n"
        self.expect(prefix + "splitting = euler\n", "splitting")
        self.expect(prefix + "bc_y = open\n", "bc_y")
        self.expect(prefix + "reference = guess\n", "reference")
        self.expect(prefix + "initial = noise\n", "initial")

    def test_streamwise_boundary_must_be_periodic(self):
        prefix = "n_x = 3\nprofile = uniform\nD = 0.1\nt_final = 1.0\n"
        self.expect(prefix + "bc_x = neumann\n", r"line 5: bc_x must be periodic")

    @pytest.mark.parametrize(
        "line",
        ["D = nan", "t_final = inf", "L = nan", "U = -inf", "profile = [0.0, nan]"],
    )
    def test_non_finite_numbers_report_line(self, line):
        self.expect(f"n_x = 3\n{line}\n", r"line 2: .*finite")

    @pytest.mark.parametrize("index, needle", [
        ("xyz", "must be an integer, got 'xyz'"),
        ("-1", "must be an integer, got '-1'"),
        ("2.0", "must be an integer"),
        ("8", "8 outside grid of 8"),
        ("99", "99 outside grid of 8"),
    ], ids=["letters", "negative", "decimal", "one_past_end", "far_outside"])
    def test_basis_index_checked_with_line(self, index, needle):
        prefix = "n_x = 3\nprofile = uniform\nD = 0.1\nt_final = 1.0\n"
        self.expect(prefix + f"initial = basis:{index}\n",
                    rf"line 5: basis index.*{needle}")

    def test_basis_index_on_the_grid_accepted(self):
        text = "n_x = 2\nn_y = 1\nprofile = uniform\nD = 0.1\nt_final = 1.0\n"
        assert parse_config(text + "initial = basis:7\n").initial == "basis:7"

    def test_unknown_profile_name(self):
        self.expect("n_x = 3\nprofile = vortex\nD = 0.1\nt_final = 1.0\n",
                    "vortex")

    def test_malformed_profile_list(self):
        self.expect("n_x = 3\nprofile = [0.0, wide]\nD = 0.1\nt_final = 1\n",
                    "coefficient list")

    def test_scenario_validation_is_surfaced(self):
        # consistent syntax, inconsistent physics: shear without a y register
        self.expect("n_x = 3\nprofile = couette\nD = 0.1\nt_final = 1.0\n",
                    "wall-normal")


class TestLoadConfig:
    def test_reads_from_disk_with_filename_context(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_x = 3\nprofile = uniform\nD = 0.1\nbad_key = 1\n"
                        "t_final = 1.0\n")
        with pytest.raises(ConfigError, match="run.cfg"):
            load_config(path)

    def test_merged_strang_with_checkpoints_refused_on_load(self, tmp_path):
        # the default checkpoints = 10 asks for intermediate states, which a
        # merged run does not have, so the file is refused before any run
        path = tmp_path / "merged.cfg"
        path.write_text("n_x = 3\nn_y = 2\nprofile = couette\nD = 0.1\n"
                        "t_final = 1.0\nsteps = 4\nsplitting = strang\n"
                        "merge_strang = true\n")
        with pytest.raises(ConfigError, match=r"merged\.cfg: .*merge_strang"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(FULL)
        assert load_config(path).scenario.n_x == 5
