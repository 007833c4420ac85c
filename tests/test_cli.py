"""Tests for the command line runner: configuration parsing, deterministic
serialization, exit codes, report schema, and tolerance-name checks."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ambrose import cli
from ambrose.cli import TOLERANCES
from ambrose.errors import ConfigError, NumericalFailure
from ambrose.fixtures import fixture_names
from ambrose.homogeneity import KMAX_CAP

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

    def test_config_file_unknown_key_fails_closed(self, tmp_path, capsys):
        """A misspelt key (tol for tols) is a config error naming the known
        keys, not a run at the default tolerances that exits 0."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "singer", "fixture": "round_sphere2",
                                    "tol": {"nesting_angle": 1e-30}}))
        assert cli.main(["--config", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "tol;" in out.err
        assert "known: scenario, fixture, params, points, seed, tols, kmax, out" in out.err

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
        {"seed": -5},
        {"kmax": True},
        {"out": 2},
        {"out": ["x"]},
        {"tols": {"default": True}},
    ], ids=["params-list", "points-bool", "seed-bool", "seed-negative", "kmax-bool", "out-int",
            "out-list", "tols-bool"])
    def test_config_file_types_fail_closed(self, entry, tmp_path, capsys):
        """params must be an object, points/seed/kmax ints, not bools, the
        seed not negative, tolerances numbers, not bools (a JSON true would
        be the tolerance 1.0), and out a string: an int out would name a
        file descriptor."""
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

    @pytest.mark.parametrize("scenario", ["check-lh-triple", "check-ls-triple", "total-space",
                                          "identities"])
    def test_kmax_where_no_tower_is_built_exits_two_before_work(self, scenario, monkeypatch,
                                                                 capsys, tmp_path):
        """A scenario that builds no tower refuses --kmax, by the flag or
        the config file, before any work, where it ignored it."""
        def never(cfg):
            raise AssertionError("scenario ran")

        monkeypatch.setitem(cli.RUNNERS, scenario, never)
        args = ["--scenario", scenario, "--fixture", "hopf_monopole"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"kmax": 1}))
        for extra in (["--kmax", "1"], ["--config", str(path)]):
            assert cli.main(args + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "kmax" in captured.err and scenario in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario", ["singer", "adapt"])
    def test_tower_overflow_names_its_level(self, scenario, capsys):
        """At radius 1e-100 the curvature's squared norm overflows at level
        0: with warnings as errors the run still ends with exit 3, and the
        flag names the level."""
        code = cli.main(["--scenario", scenario, "--fixture", "round_sphere2",
                         "--param", "radius=1e-100"])
        data = json.loads(capsys.readouterr().out)
        assert code == 3
        assert data["flags"] == ["numerical-failure", "error: tower level 0: its entries or "
                                 "the running sum of their squares are not finite"]

    def test_points_above_cap_exits_two_before_work(self, monkeypatch, capsys, tmp_path):
        """A sample count above POINTS_CAP, by the flag or the config file,
        is a config error before the sampler allocates anything."""
        def never(*args):
            raise AssertionError("sampler ran")

        monkeypatch.setattr(cli, "sample_interior", never)
        args = ["--scenario", "singer", "--fixture", "berger_sphere"]
        assert cli.main([*args, "--points", "100000000"]) == 2
        assert "points" in capsys.readouterr().err
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"points": cli.POINTS_CAP + 1}))
        assert cli.main([*args, "--config", str(path)]) == 2
        assert "points" in capsys.readouterr().err
        assert cli.parse_config([*args, "--points", str(cli.POINTS_CAP)]).points == cli.POINTS_CAP

    def test_config_error_exits_two(self, capsys):
        assert cli.main(["--scenario", "nonsense"]) == 2
        assert "config error" in capsys.readouterr().err
        # A run-time configuration problem takes the same path.
        assert cli.main([
            "--scenario", "singer", "--fixture", "round_sphere2",
            "--param", "connection=canonical",
        ]) == 2

    @pytest.mark.parametrize("scenario,fixture,param", [
        ("singer", "berger_sphere", "lam=abc"),
        ("singer", "berger_sphere", "lam=inf"),
        ("total-space", "hopf_monopole", "charge=x"),
        ("identities", "euclidean", "n=2.5"),
        ("singer", "round_sphere2", "radius=abc"),
        ("singer", "round_sphere2", "radius=inf"),
        ("identities", "trivial_bundle_flat", "algebra=5"),
        ("identities", "trivial_bundle_flat", "algebra=su(2)+su(2)+su(2)"),
    ])
    def test_bad_fixture_parameter_exits_two(self, scenario, fixture, param, capsys):
        """A fixture parameter that is not a finite number, or not a whole
        one where the fixture needs an integer, is a configuration error;
        so is an algebra that is not a name, or a sum past
        fixtures.MAX_ALGEBRA_DIM."""
        code = cli.main(["--scenario", scenario, "--fixture", fixture,
                         "--param", param, "--points", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error" in captured.err

    def test_negative_seed_exits_two(self, capsys):
        """A negative seed is a configuration error, not a traceback from
        the sampler."""
        code = cli.main(["--scenario", "identities", "--fixture", "euclidean",
                         "--points", "1", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error" in captured.err

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

    def test_non_finite_metric_is_named(self, capsys):
        """radius=1e300 overflows r^2 to inf and radius=1e-300 underflows it
        to 0: each is an out-of-range parameter, a configuration error that
        names the radius, with no warning. test_batches' SPOILED_VALUES
        names the non-finite metric values a run meets."""
        for radius in ("1e300", "1e-300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["--scenario", "singer", "--fixture", "round_sphere2",
                                 "--param", f"radius={radius}"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "config error" in captured.err
            assert f"sphere radius {float(radius)!r}" in captured.err

    def test_selftest_passes(self, capsys):
        code = cli.main(["--scenario", "selftest"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["pass"] is True
        assert any(k.startswith("identities.") for k in data["residuals"])
        assert any(k.startswith("singer.") for k in data["residuals"])

    def test_selftest_carries_sub_report_flags(self, monkeypatch, capsys):
        """A flagged sub-report fails selftest and its flags are the
        report's, sorted and once each: the residuals alone pass."""
        singer = cli.RUNNERS["singer"]

        def flagged(cfg):
            return {**singer(cfg), "flags": ["truncated", "ambiguous", "truncated"],
                    "pass": False}

        monkeypatch.setitem(cli.RUNNERS, "singer", flagged)
        code = cli.main(["--scenario", "selftest"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["pass"] is False
        assert data["flags"] == ["ambiguous", "truncated"]
        assert all(data["residuals"][k] <= 1e-8 * data["tolerances"][k] for k in data["residuals"])

    @pytest.mark.parametrize("scenario,param", [
        ("singer", "perturb=bump"),
        ("check-lh-triple", "alpha=bump"),
        ("check-ls-triple", "connection=metric"),
        ("total-space", "perturb=bump"),
        ("adapt", "connection=metric"),
        ("identities", "alpha=bump"),
        ("selftest", "perturb=none"),
    ])
    def test_parameter_the_scenario_does_not_read_exits_two(self, scenario, param,
                                                            monkeypatch, capsys):
        """Another scenario's parameter is rejected before work, never
        silently ignored by a run that may pass."""
        def never(cfg):
            raise AssertionError("scenario ran")

        monkeypatch.setitem(cli.RUNNERS, scenario, never)
        fixture = "berger_sphere" if scenario == "adapt" else "hopf_monopole"
        code = cli.main(["--scenario", scenario, "--fixture", fixture, "--param", param])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert param.partition("=")[0] in captured.err and scenario in captured.err

    @pytest.mark.parametrize("argv,config,option", [
        (["--param", "n=3", "--param", "lam=9"], {}, "--param"),
        (["--fixture", "berger_sphere"], {}, "--fixture"),
        ([], {"params": {"n": 3}}, "--param"),
        ([], {"fixture": "berger_sphere"}, "--fixture"),
    ], ids=["param", "fixture", "config-params", "config-fixture"])
    def test_selftest_rejects_fixture_and_params(self, argv, config, option, tmp_path,
                                                 monkeypatch, capsys):
        """selftest runs its own battery of fixtures and parameters, so a
        fixture or a parameter, on the command line or in a config file,
        would be silently ignored: it is a config error before any work."""
        def never(cfg):
            raise AssertionError("scenario ran")

        monkeypatch.setitem(cli.RUNNERS, "selftest", never)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "selftest", **config}))
        code = cli.main(["--config", str(path), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert option in captured.err and "selftest" in captured.err

    def test_selftest_takes_its_run_options(self, capsys):
        """--tol, --points, --seed and --kmax still reach the battery."""
        argv = ["--scenario", "selftest", "--tol", "default=1", "--points", "2", "--seed", "3",
                "--kmax", "2"]
        cfg = cli.parse_config(argv)
        assert (cfg.tols, cfg.points, cfg.seed, cfg.kmax) == ({"default": 1.0}, 2, 3, 2)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_one_dimensional_chart_is_config_error_for_singer(self, capsys):
        for connection in ([], ["--param", "connection=metric"]):
            code = cli.main(["--scenario", "singer", "--fixture", "euclidean",
                             "--param", "n=1", "--points", "2", *connection])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "dimension 2 or more, got 1" in captured.err
        assert cli.main(["--scenario", "identities", "--fixture", "euclidean",
                         "--param", "n=1", "--points", "2"]) == 0

    def test_one_dimensional_chart_is_config_error_for_adapt(self, capsys):
        """adapt refuses a one-dimensional chart before so(1) is built."""
        code = cli.main(["--scenario", "adapt", "--fixture", "euclidean",
                         "--param", "n=1", "--points", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension 2 or more, got 1" in captured.err

    @pytest.mark.parametrize("fixture", ["hopf_monopole", "trivial_bundle_flat"])
    def test_adapt_refuses_a_bundle_fixture(self, fixture, capsys):
        """adapt builds the adapted connection of the base alone; on a
        fixture with a bundle form it would ignore the form, so it is a
        config error."""
        code = cli.main(["--scenario", "adapt", "--fixture", fixture, "--points", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bundle form" in captured.err


# each fixture's parameter variants besides its defaults, and each
# scenario's own parameter with its values
FIXTURE_VARIANTS = {
    "euclidean": [{"n": 1}, {"n": 6}],
    "hopf_monopole": [{"charge": 0}, {"charge": 2}],
    "berger_sphere": [{"lam": 0.5}],
    "trivial_bundle_flat": [{"algebra": "u(1)"}, {"algebra": "so(3)+u(1)"}],
}
SHIFTS = ("none", "parallel", "bump")
OWN_PARAMS = {
    "singer": [{"connection": c} for c in ("metric", "canonical")],
    "check-lh-triple": [{"perturb": v} for v in SHIFTS],
    "check-ls-triple": [{"perturb": v} for v in SHIFTS],
    "total-space": [{"alpha": v} for v in SHIFTS],
}
CATALOG_RUNS = [
    (scenario, fixture, {**variant, **own})
    for scenario in cli.SCENARIOS if scenario != "selftest"
    for fixture in fixture_names()
    for variant in [{}, *FIXTURE_VARIANTS.get(fixture, [])]
    for own in [{}, *OWN_PARAMS.get(scenario, [])]
]


@pytest.mark.parametrize("scenario,fixture,params", CATALOG_RUNS, ids=[
    "-".join([s, f, *(f"{k}={v}" for k, v in p.items())]) for s, f, p in CATALOG_RUNS])
def test_every_catalog_run_ends_with_an_exit_code(scenario, fixture, params, capsys):
    """Every scenario on every catalog fixture, with its parameter variants,
    ends with an exit code and raises nothing; a config error prints no
    report."""
    argv = ["--scenario", scenario, "--fixture", fixture, "--points", "2"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""


class TestToleranceTable:
    # the cheapest run of each scenario; adapt's chain stabilizes at k=0,
    # and its towers reach k + 2 at kmax=2
    RUNS = {
        "singer": ["--fixture", "round_sphere2"],
        "check-lh-triple": ["--fixture", "trivial_bundle_flat"],
        "check-ls-triple": ["--fixture", "trivial_bundle_flat"],
        "adapt": ["--fixture", "berger_sphere", "--kmax", "2"],
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
        residuals = {k: 0.5 * t for k, t in table.items()}

        def report(tols):
            cfg = cli.RunConfig(scenario=scenario, fixture="", params={}, points=1, seed=0,
                                tols=tols, kmax=None, out=None)
            return cli.make_report(cfg, np.zeros((1, 2)), residuals)

        rep = report({})
        assert rep["pass"]
        assert rep["tolerances"] == table
        tight = report({"default": 1e-30})
        assert tight["tolerances"] == dict.fromkeys(table, 1e-30)
        assert not tight["pass"]
        mixed = report({"default": 1e-30, first: 1.0})
        assert mixed["tolerances"] == {**dict.fromkeys(table, 1e-30), first: 1.0}
        loose = report({"default": 1.0})
        assert loose["pass"]


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


QUICK_START = "ambrose --scenario singer --fixture round_sphere2 --points 2"


def quick_start_report() -> str:
    """The report the README shows for the QUICK_START command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split(QUICK_START + "\n```\n", 1)[1]
    assert after.startswith("\n```json\n")
    return after[len("\n```json\n"):].split("```", 1)[0]


class TestReadmeExample:
    def test_readme_report_matches_run(self, capsys):
        """The README's quick-start report is what the command prints."""
        assert cli.main(QUICK_START.split()[1:]) == 0
        assert capsys.readouterr().out == quick_start_report()


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this ambrose."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, BlockScipy())
"""


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        """The CLI imports numpy.random eagerly, so the first sample does not
        pay for it, and no scipy module."""
        done = run_python(
            "import sys, ambrose.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.random' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "True"]

    def test_quick_start_runs_without_scipy(self):
        blocked = run_python(BLOCK_SCIPY + "import scipy\n")
        assert "scipy is blocked" in blocked.stderr
        done = run_python(BLOCK_SCIPY + (
            "import runpy\n"
            f"sys.argv = ['ambrose', *{QUICK_START.split()[1:]!r}]\n"
            "runpy.run_module('ambrose', run_name='__main__')\n"))
        assert done.returncode == 0, done.stderr
        assert done.stdout == quick_start_report()


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
