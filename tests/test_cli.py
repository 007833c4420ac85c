"""Tests for the command line runner: configuration parsing, deterministic
serialization, exit codes, report schema, and tolerance-name checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from ambrose import cli
from ambrose.errors import ConfigError, NumericalFailure
from ambrose.homogeneity import KMAX_CAP, TOLERANCES, make_report

REPORT_KEYS = {
    "scenario", "fixture", "params", "points", "residuals",
    "stabilizer_dims", "singer_k", "pass", "tolerances", "flags",
}


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config(["--scenario", "singer", "--fixture", "round_sphere2"])
        assert cfg.points == 8
        assert cfg.seed == 42
        assert cfg.kmax is None
        assert cfg.out is None
        assert cfg.params == {}
        assert cfg.tols == {}

    def test_param_value_coercion(self):
        cfg = cli.parse_config([
            "--scenario", "check-lh-triple", "--fixture", "hopf_monopole",
            "--param", "charge=2", "--param", "radius=1.5",
            "--param", "perturb=bump",
        ])
        assert cfg.params == {"charge": 2, "radius": 1.5, "perturb": "bump"}
        assert isinstance(cfg.params["charge"], int)

    def test_param_requires_key_value(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "selftest", "--param", "charge"])
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "selftest", "--param", "=3"])

    def test_tol_must_be_numeric(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "selftest", "--tol", "default=loose"])

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--fixture", "round_sphere2"])

    def test_fixture_required_and_known(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "singer"])
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "singer", "--fixture", "torus"])

    def test_selftest_needs_no_fixture(self):
        cfg = cli.parse_config(["--scenario", "selftest"])
        assert cfg.fixture == ""

    def test_points_and_kmax_validated(self):
        with pytest.raises(ConfigError):
            cli.parse_config(
                ["--scenario", "selftest", "--points", "0"]
            )
        with pytest.raises(ConfigError):
            cli.parse_config(
                ["--scenario", "selftest", "--kmax", "0"]
            )

    def test_bad_flag_value_is_config_error(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--scenario", "selftest", "--points", "three"])

    def test_config_file_merge_and_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "scenario": "singer",
            "fixture": "round_sphere2",
            "points": 3,
            "seed": 7,
            "params": {"radius": 2.0},
            "tols": {"nesting_angle": 1e-5},
        }))
        cfg = cli.parse_config(["--config", str(path)])
        assert cfg.scenario == "singer"
        assert cfg.fixture == "round_sphere2"
        assert cfg.points == 3
        assert cfg.seed == 7
        assert cfg.params == {"radius": 2.0}
        assert cfg.tols == {"nesting_angle": 1e-5}
        over = cli.parse_config([
            "--config", str(path), "--points", "5", "--param", "radius=1.5",
            "--tol", "nesting_angle=1e-4",
        ])
        assert over.points == 5
        assert over.params == {"radius": 1.5}
        assert over.tols == {"nesting_angle": 1e-4}

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_config(["--config", str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.parse_config(["--config", str(bad)])
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            cli.parse_config(["--config", str(arr)])
        for tols in ({"default": "loose"}, [1]):
            path = tmp_path / "tols.json"
            path.write_text(json.dumps({"scenario": "selftest", "tols": tols}))
            with pytest.raises(ConfigError):
                cli.parse_config(["--config", str(path)])

    def test_config_file_seed_type_checked(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "scenario": "selftest", "seed": 1.5,
        }))
        with pytest.raises(ConfigError):
            cli.parse_config(["--config", str(path)])

    @pytest.mark.parametrize("entry", [
        {"params": [1]},
        {"points": True},
        {"seed": True},
        {"kmax": True},
    ], ids=["params-list", "points-bool", "seed-bool", "kmax-bool"])
    def test_config_file_types_fail_closed(self, entry, tmp_path, capsys):
        """params must be an object and points/seed/kmax ints, not bools."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "selftest", **entry}))
        assert cli.main(["--config", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "config error" in out.err


class TestSerialization:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.0, "1.0"),
            (0.5, "0.5"),
            (-2.0, "-2.0"),
            (1e-12, "1e-12"),
            (1 / 3, "0.333333333333"),
            (float("nan"), '"nan"'),
            (float("inf"), '"inf"'),
            (float("-inf"), '"-inf"'),
        ],
    )
    def test_float_formatting(self, value, expected):
        assert cli._format_float(value) == expected

    def test_dict_keys_sorted(self):
        assert cli._encode({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_numpy_scalars_and_arrays(self):
        obj = {
            "arr": np.array([1.0, 0.25]),
            "flag": np.bool_(True),
            "count": np.int64(3),
            "value": np.float64(0.5),
            "nothing": None,
        }
        text = cli._encode(obj)
        assert text == (
            '{"arr":[1.0,0.25],"count":3,"flag":true,'
            '"nothing":null,"value":0.5}'
        )

    def test_unserializable_rejected(self):
        with pytest.raises(ConfigError):
            cli._encode({"bad": {1, 2}})

    def test_report_ends_with_newline(self):
        assert cli.dumps_report({"a": 1}).endswith("\n")

    def test_output_is_valid_json(self):
        report = {"x": 1 / 3, "y": [float("nan"), 2], "z": {"k": True}}
        parsed = json.loads(cli.dumps_report(report))
        assert parsed["y"][0] == "nan"
        assert parsed["z"]["k"] is True


class TestMainExitCodes:
    def test_passing_scenario_exits_zero(self, capsys):
        code = cli.main([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--points", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert set(data) == REPORT_KEYS
        assert data["pass"] is True
        assert data["stabilizer_dims"] == [1]
        assert data["singer_k"] == 0
        assert data["flags"] == []
        assert len(data["points"]) == 2

    def test_failing_scenario_exits_one(self, capsys):
        code = cli.main([
            "--scenario", "check-lh-triple", "--fixture", "hopf_monopole",
            "--param", "perturb=bump",
        ])
        out = capsys.readouterr().out
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert data["residuals"]["nabla_alpha"] > 1e-2

    def test_tolerance_override_flips_verdict(self, capsys):
        code = cli.main([
            "--scenario", "check-lh-triple", "--fixture", "hopf_monopole",
            "--points", "1", "--tol", "nabla_R=1e-20",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["pass"] is False
        assert data["tolerances"]["nabla_R"] == 1e-20

    def test_unknown_tolerance_name_exits_two(self, capsys):
        args = [
            "--scenario", "check-lh-triple", "--fixture", "hopf_monopole",
            "--points", "1", "--tol",
        ]
        assert cli.main(args + ["defualt=1e-30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "defualt" in captured.err
        # a known name is still applied
        assert cli.main(args + ["nabla_R=1e-30"]) == 1
        assert json.loads(capsys.readouterr().out)["tolerances"]["nabla_R"] == 1e-30

    def test_selftest_tolerance_names_drop_scenario_prefix(self, capsys):
        assert cli.main(["--scenario", "selftest", "--tol", "nabla_F0=1e-30"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["tolerances"]["check-ls-triple.nabla_F0"] == 1e-30
        # default applies to every sub-report once, and the named key wins
        assert cli.main([
            "--scenario", "selftest", "--tol", "default=1", "--tol", "nabla_F0=1e-30",
        ]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["tolerances"]["check-ls-triple.nabla_F0"] == 1e-30
        assert data["tolerances"]["singer.subalgebra"] == 1.0
        assert cli.main([
            "--scenario", "selftest", "--tol", "check-ls-triple.nabla_F0=1e-30",
        ]) == 2

    def test_default_tolerance_applies_to_singer(self, capsys):
        code = cli.main([
            "--scenario", "singer", "--fixture", "berger_sphere",
            "--param", "connection=metric", "--points", "1",
            "--tol", "default=1e-30",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["tolerances"] == {"nesting_angle": 1e-30, "subalgebra": 1e-30}

    def test_tolerance_names_checked_before_work(self, monkeypatch, capsys, tmp_path):
        def never(cfg):
            raise AssertionError("scenario ran")

        monkeypatch.setitem(cli.RUNNERS, "adapt", never)
        args = ["--scenario", "adapt", "--fixture", "berger_sphere"]
        assert cli.main(args + ["--tol", "defualt=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "defualt" in captured.err
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tols": {"nabla_bta": 1.0}}))
        assert cli.main(args + ["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nabla_bta" in captured.err

    def test_kmax_above_cap_exits_two_before_work(self, monkeypatch, capsys):
        def never(cfg):
            raise AssertionError("scenario ran")

        monkeypatch.setitem(cli.RUNNERS, "singer", never)
        code = cli.main([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--kmax", str(KMAX_CAP + 1),
        ])
        assert code == 2
        assert "kmax" in capsys.readouterr().err
        assert cli.parse_config([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--kmax", str(KMAX_CAP),
        ]).kmax == KMAX_CAP

    def test_config_error_exits_two(self, capsys):
        assert cli.main(["--scenario", "nonsense"]) == 2
        assert "config error" in capsys.readouterr().err
        # A run-time configuration problem takes the same path.
        assert cli.main([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--param", "connection=canonical",
        ]) == 2

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalFailure("solver diverged")

        monkeypatch.setitem(cli.RUNNERS, "identities", boom)
        code = cli.main([
            "--scenario", "identities", "--fixture", "euclidean",
        ])
        out = capsys.readouterr().out
        assert code == 3
        data = json.loads(out)
        assert set(data) == REPORT_KEYS
        assert data["pass"] is False
        assert data["residuals"] == {}
        assert data["flags"][0] == "numerical-failure"
        assert "solver diverged" in data["flags"][1]

    def test_selftest_passes(self, capsys):
        code = cli.main(["--scenario", "selftest"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["pass"] is True
        assert any(k.startswith("identities.") for k in data["residuals"])
        assert any(k.startswith("singer.") for k in data["residuals"])


class TestToleranceTable:
    # the cheapest run of each scenario; adapt's chain stabilizes at k=0,
    # so kmax=1 reaches it
    RUNS = {
        "singer": ["--fixture", "round_sphere2"],
        "check-lh-triple": ["--fixture", "trivial_bundle_flat"],
        "check-ls-triple": ["--fixture", "trivial_bundle_flat"],
        "adapt": ["--fixture", "berger_sphere", "--kmax", "1"],
        "total-space": ["--fixture", "trivial_bundle_flat"],
        "identities": ["--fixture", "euclidean"],
        "selftest": [],
    }

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_report_keys_match_table(self, scenario, capsys):
        cli.main(["--scenario", scenario, "--points", "1", *self.RUNS[scenario]])
        keys = set(json.loads(capsys.readouterr().out)["tolerances"])
        if scenario == "selftest":
            assert keys == {f"{s}.{k}" for s, _, _ in cli.SELFTEST_BATTERY
                            for k in TOLERANCES[s]}
        else:
            assert keys == set(TOLERANCES[scenario])

    @pytest.mark.parametrize("scenario", [s for s in cli.SCENARIOS if s != "selftest"])
    def test_default_sets_every_key_and_a_named_key_wins(self, scenario):
        table = TOLERANCES[scenario]
        first = min(table)
        rep = make_report(scenario, "", np.zeros((1, 2)),
                          {k: 0.5 * t for k, t in table.items()})
        assert rep.passed
        assert rep.tolerances == table
        tight = cli._retolerance(rep, {"default": 1e-30})
        assert tight.tolerances == dict.fromkeys(table, 1e-30)
        assert not tight.passed
        mixed = cli._retolerance(rep, {"default": 1e-30, first: 1.0})
        assert mixed.tolerances == {**dict.fromkeys(table, 1e-30), first: 1.0}
        loose = cli._retolerance(rep, {"default": 1.0})
        assert loose.passed


class TestDeterminism:
    ARGS = [
        "--scenario", "identities", "--fixture", "euclidean",
        "--param", "n=2", "--points", "3",
    ]

    def test_repeat_runs_byte_identical(self, capsys):
        assert cli.main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert cli.main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second


class TestReadmeExample:
    COMMAND = "ambrose --scenario singer --fixture round_sphere2 --points 2"

    def test_readme_report_matches_run(self, capsys):
        """The README's quick-start report is what the command prints."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split(self.COMMAND + "\n```\n", 1)[1]
        assert after.startswith("\n```json\n")
        expected = after[len("\n```json\n"):].split("```", 1)[0]
        assert cli.main(self.COMMAND.split()[1:]) == 0
        assert capsys.readouterr().out == expected


class TestOutputFile:
    def test_out_writes_file_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--points", "1", "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        text = target.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert set(data) == REPORT_KEYS
