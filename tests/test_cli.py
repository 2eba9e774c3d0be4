import json
import warnings

import numpy as np
import pytest

from gonosim import cli, random_stochastic
from gonosim.algebra import AlgebraSpec
from gonosim.cli import main
from gonosim.scenarios import type11_spec


@pytest.fixture
def good_algebra(tmp_path):
    path = tmp_path / "algebra.json"
    type11_spec(0.5).save(path)
    return str(path)


@pytest.fixture
def bad_algebra(tmp_path):
    path = tmp_path / "bad.json"
    AlgebraSpec(1, 1, [[[0.5]]], [[[0.4]]]).save(path)
    return str(path)


class TestValidate:
    def test_valid_file(self, good_algebra, capsys):
        assert main(["validate", good_algebra]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_gonosomal"] and payload["is_stochastic"]

    def test_constraint_violation(self, bad_algebra, capsys):
        assert main(["validate", bad_algebra]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"]

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


class TestNonFinite:
    def test_validate_nan_algebra(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(
            {"n": 1, "nu": 1, "gamma": [[[float("nan")]]], "gamma_tilde": [[[0.5]]]}))
        assert main(["validate", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["is_gonosomal"] and not payload["is_stochastic"]
        assert [v["kind"] for v in payload["violations"]] == ["nonfinite_entry"]

    def test_simulate_nan_algebra(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]).save(path)
        argv = ["simulate", "--algebra", str(path), "--init", "1,1",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert "non-finite structure constant" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_nan_initial_state(self, command, tmp_path, capsys):
        argv = [command, "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "nan,1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err


class TestSimulate:
    def test_csv_output(self, good_algebra, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        code = main(
            [
                "simulate",
                "--algebra",
                good_algebra,
                "--init",
                "2,2",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,x1,y1,omega"
        assert "converged" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        out = str(tmp_path / "traj.json")
        code = main(
            [
                "simulate",
                "--scenario",
                "lr_lethal",
                "--gamma",
                "0.5",
                "--init",
                "1,1",
                "--format",
                "json",
                "--out",
                out,
            ]
        )
        assert code == 0
        data = json.loads(open(out).read())
        assert data["operator"] == "W"

    def test_absorbing_start_for_v(self, good_algebra, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--algebra",
                good_algebra,
                "--operator",
                "V",
                "--init",
                "1,0",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "absorbing" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, good_algebra, tmp_path):
        code = main(
            [
                "simulate",
                "--algebra",
                good_algebra,
                "--scenario",
                "lr_lethal",
                "--gamma",
                "0.5",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2
        assert main(["simulate", "--out", str(tmp_path / "t.csv")]) == 2

    def test_wrong_init_length(self, good_algebra, tmp_path):
        code = main(
            [
                "simulate",
                "--algebra",
                good_algebra,
                "--init",
                "1,2,3",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_random_source(self, tmp_path):
        code = main(
            [
                "simulate",
                "--random",
                "2,2",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "option, value, field",
        [
            ("--steps", "-1", "max_steps"),
            ("--tol", "nan", "conv_tol"),
            ("--tol", "-1", "conv_tol"),
            ("--tol", "inf", "conv_tol"),
            ("--max-period", "0", "max_period"),
        ],
    )
    @pytest.mark.parametrize("operator", ["W", "V"])
    def test_bad_iteration_option(self, option, value, field, operator, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["simulate", "--random", "2,2", "--operator", operator, option, value, "--out", str(out)]
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestFixedPoints:
    def test_scenario_cross_check_passes(self, tmp_path):
        out = str(tmp_path / "fp.json")
        code = main(
            [
                "fixed-points",
                "--scenario",
                "lr_lethal",
                "--gamma",
                "0.5",
                "--out",
                out,
            ]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["cross_check"]["pass"]
        assert payload["cross_check"]["max_mismatch"] <= 1e-6
        assert len(payload["closed_form"]) == 2

    def test_algebra_source_numeric_only(self, good_algebra, capsys):
        assert main(["fixed-points", "--algebra", good_algebra]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "closed_form" not in payload
        assert payload["records"]

    def test_v_operator(self, tmp_path):
        out = str(tmp_path / "fp.json")
        code = main(
            [
                "fixed-points",
                "--scenario",
                "lr_lethal",
                "--gamma",
                "0.3",
                "--operator",
                "V",
                "--out",
                out,
            ]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        pts = [r["point"] for r in payload["records"]]
        assert any(np.allclose(p, [0.3, 0.7], atol=1e-6) for p in pts)


class TestParserReuse:
    def test_calls_share_one_parser_and_no_state(self, good_algebra, tmp_path):
        short = ["simulate", "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "1,1",
                 "--steps", "3", "--format", "json", "--out", str(tmp_path / "a.json")]
        v_points = ["fixed-points", "--algebra", good_algebra, "--operator", "V",
                    "--out", str(tmp_path / "b.json")]
        default = ["simulate", "--algebra", good_algebra, "--init", "2,2",
                   "--out", str(tmp_path / "c.csv")]
        assert main(short) == 0 and main(v_points) == 0 and main(default) == 0
        assert cli._parser() is cli._parser()
        for argv in (short, v_points, default):
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert len(json.loads(open(tmp_path / "a.json").read())["states"]) == 4
        assert json.loads(open(tmp_path / "b.json").read())["records"][0]["operator"] == "V"
        # no --steps, --scenario or --operator left over from the calls before
        assert open(tmp_path / "c.csv").read().splitlines()[-1].startswith("# outcome=converged")


class TestIdentities:
    def test_report(self, good_algebra, capsys):
        assert main(["identities", good_algebra, "--samples", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["associativity"]["verdict"] == "violated"
        assert payload["flexibility"]["verdict"] == "holds_on_samples"

    def test_missing_file(self, tmp_path):
        assert main(["identities", str(tmp_path / "nope.json")]) == 2

    def test_candidates_reported(self, good_algebra, capsys):
        assert main(["identities", good_algebra, "--samples", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["candidates"] >= 1 for entry in payload.values())

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_algebra(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"n": 1, "nu": 1, "gamma": [[[{bad}]]], "gamma_tilde": [[[0.5]]]}}'
        )
        assert main(["identities", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_overflowing_algebra(self, tmp_path, capsys):
        # finite constants whose products overflow: no Infinity in the output
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "nu": 1, "gamma": [[[1e200]]], "gamma_tilde": [[[1e200]]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["identities", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err


class TestPredict:
    def test_lr_agreement(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "lr_lethal",
                "--gamma",
                "0.5",
                "--init",
                "1,1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] is True
        assert payload["prediction"]["w_limit"] == "zero"

    def test_type21_alternating_convergence_agreement(self, capsys):
        # a negative smaller eigenvalue: the V orbit converges from alternating sides
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0.1",
                "--gamma2",
                "0.5",
                "--delta1",
                "0.4",
                "--delta2",
                "0.1",
                "--init",
                "0.2,0.3,0.5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["kind"] == "distinct_eigenvalues"
        assert payload["agreement"] is True

    def test_type21_limit_agreement(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0.2",
                "--gamma2",
                "0.2",
                "--delta1",
                "0.2",
                "--delta2",
                "0.2",
                "--init",
                "0.3,0.3,0.4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eset"]["kind"] == "finite"
        assert payload["agreement"] is True

    def test_type21_cycle_agreement(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0",
                "--gamma2",
                "0.3",
                "--delta1",
                "0.4",
                "--delta2",
                "0",
                "--init",
                "0,0.6,0.4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["kind"] == "alternating_tail"
        assert payload["agreement"] is True

    def test_hemophilia_extinction(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "hemophilia",
                "--mu",
                "1",
                "--eta",
                "1",
                "--init",
                "0.25,0.25,0.25,0.25",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["extinction_step"] == 2
        assert payload["agreement"] is True

    HEMOPHILIA_ETA1 = ["predict", "--scenario", "hemophilia", "--mu", "0.4", "--eta", "1"]

    @pytest.mark.parametrize(
        "init, w_limit, w_outcome",
        [("1,1,1,1", "zero", "converged"), ("2,2,2,2", "infinity", "divergent")],
    )
    def test_hemophilia_w_limit_checked(self, init, w_limit, w_outcome, capsys):
        # u(1) = 1.30 and 20.8 against the threshold 13/6; "converged" is to zero
        assert main(self.HEMOPHILIA_ETA1 + ["--init", init]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["w_limit"] == w_limit
        assert payload["verification"]["w_outcome"] == w_outcome
        assert payload["agreement"] is True

    def test_hemophilia_wrong_w_limit_disagrees(self, monkeypatch, capsys):
        real = cli.scmod.hemophilia_degenerate_limits

        def tampered(z0, mu, eta):
            pred = real(z0, mu, eta)
            pred.w_limit = "infinity" if pred.w_limit == "zero" else "zero"
            return pred

        monkeypatch.setattr(cli.scmod, "hemophilia_degenerate_limits", tampered)
        assert main(self.HEMOPHILIA_ETA1 + ["--init", "1,1,1,1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["w_limit"] == "infinity"
        assert payload["agreement"] is False

    def test_unsupported_scenario(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "x_inactivation",
                "--gamma1",
                "0.2",
                "--gamma2",
                "0.2",
                "--delta1",
                "0.2",
                "--delta2",
                "0.2",
            ]
        )
        assert code == 2

    def test_degenerate_prediction_fails_cleanly(self, capsys):
        # equal-modulus eigenvalues: no root can be selected
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0",
                "--gamma2",
                "0.3",
                "--delta1",
                "0.4",
                "--delta2",
                "0",
                "--init",
                "0.3,0.3,0.4",
            ]
        )
        assert code == 1


class TestScenarioList:
    def test_lists_all(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lr_lethal", "lr_mutation", "recessive_lethal", "hemophilia", "x_inactivation"):
            assert name in out
