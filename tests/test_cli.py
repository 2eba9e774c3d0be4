import json
import runpy
import sys
import warnings

import numpy as np
import pytest

from test_acceptance import TYPE21_CASE_INSTANCES

from gonosim import (
    Element,
    IterationOptions,
    cli,
    closed_form_fixed_points_hemophilia,
    iterate,
    random_stochastic,
    swap_map,
)
from gonosim.algebra import AlgebraSpec
from gonosim.cli import main
from gonosim.scenarios import SCENARIOS, type11_spec, type21_spec


def _not_json(token):
    raise AssertionError(f"{token} is not JSON")


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

    @pytest.mark.parametrize("source", ["--algebra", "--scenario"])
    def test_empty_source_name(self, source, tmp_path):
        assert main(["simulate", source, "", "--init", "1,1", "--out", str(tmp_path / "t.csv")]) == 2

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

    def test_simulate_V_on_a_nan_algebra(self, tmp_path, capsys):
        # the same rejection as W: bad input, before anything is written
        path = tmp_path / "nan.json"
        AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]).save(path)
        out = tmp_path / "out.csv"
        argv = ["simulate", "--algebra", str(path), "--init", "1,1", "--operator", "V", "--out", str(out)]
        assert main(argv) == 2
        assert "non-finite structure constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("operator", ["W", "V"])
    def test_fixed_points_nan_algebra(self, operator, tmp_path, capsys):
        path = tmp_path / "nan.json"
        AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]).save(path)
        assert main(["fixed-points", "--algebra", str(path), "--operator", operator]) == 2
        captured = capsys.readouterr()
        assert "bad input: algebra has a non-finite structure constant" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad, field", [("NaN", "value"), ("Infinity", "sum")])
    def test_validate_writes_null_for_non_finite(self, bad, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 1, "nu": 1, "gamma": [[[{bad}]]], "gamma_tilde": [[[0.5]]]}}')
        assert main(["validate", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=_not_json)
        assert [v[field] for v in payload["violations"] if field in v] == [None]

    def test_simulate_writes_null_for_overflow(self, tmp_path):
        out = tmp_path / "big.json"
        argv = ["simulate", "--scenario", "lr_lethal", "--gamma", "0.5",
                "--init", "1e200,1e200", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        data = json.loads(out.read_text(), parse_constant=_not_json)
        assert data["outcome"]["kind"] == "divergent"
        assert data["states"][-1] == [None, None] and data["omegas"][-1] is None
        # the CSV keeps the infinities
        assert main(argv[:-4] + ["--out", str(tmp_path / "big.csv")]) == 0
        assert "\n1,inf,inf,inf\n" in (tmp_path / "big.csv").read_text()

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_nan_initial_state(self, command, tmp_path, capsys):
        argv = [command, "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "nan,1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_initial_state_of_another_type(self, command, tmp_path, capsys):
        # the start is admitted against the algebra by the library's own rule
        argv = [command, "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "1,2,3",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "does not conform to type (1, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
        assert not (tmp_path / "t.csv").exists()

    def test_absorbing_start_with_no_steps_exports_the_start(self, good_algebra, tmp_path):
        # --steps 0 takes no V step, so the start is never found absorbing
        out = tmp_path / "t.json"
        argv = ["simulate", "--algebra", good_algebra, "--operator", "V", "--init", "1,0",
                "--steps", "0", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        data = json.loads(out.read_text())
        assert data["states"] == [[1.0, 0.0]]
        assert (data["outcome"]["kind"], data["outcome"]["step"]) == ("max_iterations", 0)

    def test_absorption_after_the_start_exports_the_orbit(self, tmp_path, capsys):
        # every product is female: V sends (0.5, 0.5) to (1, 0), where W vanishes
        path = tmp_path / "female.json"
        AlgebraSpec(1, 1, [[[1.0]]], [[[0.0]]]).save(path)
        out = tmp_path / "t.json"
        argv = ["simulate", "--algebra", str(path), "--operator", "V", "--init", "0.5,0.5",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        data = json.loads(out.read_text())
        assert data["states"] == [[0.5, 0.5], [1.0, 0.0]]
        assert (data["outcome"]["kind"], data["outcome"]["step"]) == ("absorbed", 1)
        assert "absorbed" in capsys.readouterr().out

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

    def test_near_repeated_point_lists_every_closed_form_point(self, capsys):
        # |g1 - d2| = 1.6e-10: the exact search keeps both roots 1e-7 apart
        params = (0.40033, 0, 0.00496, 0.40032999984)
        code, payload = _run(["fixed-points", "--scenario", "recessive_lethal", *_type21_flags(params)], capsys)
        assert code == 0 and payload["cross_check"]["pass"] is True
        assert len(payload["records"]) == len(payload["closed_form"]) == 3
        assert {r["diagnostics"]["method"] for r in payload["records"]} == {"eigen"}

    @pytest.mark.parametrize(
        "params, point",
        [((0.0, 0.0, 0.1, 0.1), [5 / 9, 5 / 9, 10.0]), ((0.3, 0.2, 0.25, 0.25), [10 / 9, 8 / 9, 2.0])],
    )
    def test_type21_closed_form_holds_every_numeric_root(self, params, point, capsys):
        code, payload = _run(["fixed-points", "--scenario", "recessive_lethal", *_type21_flags(params)], capsys)
        assert code == 0 and payload["cross_check"]["pass"] is True
        closed = [np.array(r["point"]) for r in payload["closed_form"]]
        assert any(np.abs(c - point).sum() < 1e-12 for c in closed)
        for rec in payload["records"]:
            assert min(np.abs(c - rec["point"]).sum() for c in closed) < 1e-6

    @pytest.mark.parametrize(
        "flags",
        [
            ["hemophilia", "--mu", "0.9999999999999", "--eta", "1"],
            ["recessive_lethal", "--gamma1", "0.9134505113200432", "--gamma2", "0.07425925925687675",
             "--delta1", "0.4067692544101395", "--delta2", "0.5872865428123342"],
        ],
    )
    def test_closed_form_points_the_numeric_search_misses_pass(self, flags, capsys):
        # the exact search of the hemophilia fixed support finds the origin
        # only: the eigenpair of the non-zero closed-form point (a y2 of 2e13)
        # has |q.v| below PARAM_TOL |v|_1 and gives no root; the exact search
        # of type (2,1) finds every closed-form point
        code, payload = _run(["fixed-points", "--scenario", *flags], capsys)
        assert code == 0 and payload["cross_check"]["pass"] is True
        records, closed = payload["records"], payload["closed_form"]
        if flags[0] == "hemophilia":
            assert len(records) == 1 < len(closed)
            assert payload["cross_check"]["max_mismatch"] == 0.0
        else:
            assert len(records) == len(closed) == 3
            for rec, cf in zip(records, closed):
                np.testing.assert_allclose(rec["point"], cf["point"], rtol=1e-12, atol=0.0)
                assert (rec["stability_w"], rec["stability_v"]) == (cf["stability_w"], cf["stability_v"])

    @pytest.mark.parametrize("tamper", ["shifted", "extra", "missing"])
    @pytest.mark.parametrize(
        "flags",
        [["lr_lethal", "--gamma", "0.3"],
         ["recessive_lethal", "--gamma1", "0.3", "--gamma2", "0.2", "--delta1", "0.25", "--delta2", "0.25"]],
    )
    def test_tampered_closed_form_fails(self, tamper, flags, monkeypatch, capsys):
        entry = SCENARIOS[flags[0]]

        def closed_form(s, spec):
            points, line = entry.closed_form(s, spec)
            wrong = [c + 0.01 for c in points[-1]]
            return {"shifted": points[:-1] + [wrong], "extra": points + [wrong], "missing": points[:-1]}[tamper], line

        monkeypatch.setitem(SCENARIOS, flags[0], entry._replace(closed_form=closed_form))
        code = main(["fixed-points", "--scenario", *flags])
        captured = capsys.readouterr()
        assert code == 1 and json.loads(captured.out)["cross_check"]["pass"] is False
        reason = "numeric root outside the closed form" if tamper == "missing" else "a closed-form point is not fixed"
        assert reason in captured.err

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_algebra_built_once(self, name, monkeypatch, capsys):
        # the closed-form records are made on the algebra the command built
        calls = []

        def counted(real):
            return lambda *p: calls.append(p) or real(*p)

        for builder in ("type11_spec", "type21_spec", "hemophilia_spec"):
            wrapper = counted(getattr(cli.scmod, builder))
            for module in (cli.scmod, cli.fpmod):
                monkeypatch.setattr(module, builder, wrapper)
        code, payload = _run(["fixed-points", "--scenario", name, *SCENARIO_EXAMPLES[name][0]], capsys)
        assert code == 0 and payload["closed_form"]
        assert len(calls) == 1

    def test_malformed_random_source(self, capsys):
        assert main(["fixed-points", "--random", "2,x"]) == 2
        assert "bad input" in capsys.readouterr().err

    def test_oversized_newton_grid_exits_2(self, monkeypatch, capsys):
        # the default W grid at (6,6) is 3^12 starts; the bound refuses it before any is made
        import gonosim.fixed_points as fp

        def made(*args):
            raise AssertionError("the start set was made")

        monkeypatch.setattr(fp, "_starts", made)
        assert main(["fixed-points", "--random", "6,6"]) == 2
        assert "bad input: the Newton search needs 531450 starts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["hemophilia", "--mu", "0.5", "--eta", "0.5"], ["lr_lethal", "--gamma", "0"]]
    )
    def test_scenario_without_a_closed_form(self, flags, capsys):
        # no closed form at these parameters: the numeric records only
        code, payload = _run(["fixed-points", "--scenario", *flags], capsys)
        assert code == 0 and payload["records"]
        assert "closed_form" not in payload and "cross_check" not in payload

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


def _reuse_argvs(good_algebra, tmp_path):
    short = ["simulate", "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "1,1",
             "--steps", "3", "--format", "json", "--out", str(tmp_path / "a.json")]
    v_points = ["fixed-points", "--algebra", good_algebra, "--operator", "V",
                "--out", str(tmp_path / "b.json")]
    default = ["simulate", "--algebra", good_algebra, "--init", "2,2",
               "--out", str(tmp_path / "c.csv")]
    return short, v_points, default


# argvs the top-level parser answers, and argvs of a known command it would reject
FALLBACK_ARGVS = [
    [], ["--help"], ["bogus"], ["simulate", "--bogus", "1"], ["simulate", "--operator"],
    ["predict", "--scenario", "lr_lethal", "--gamma", "0.5", "--steps", "5"],
]


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserReuse:
    def test_calls_share_one_parser_and_no_state(self, good_algebra, tmp_path):
        short, v_points, default = _reuse_argvs(good_algebra, tmp_path)
        assert main(short) == 0 and main(v_points) == 0 and main(default) == 0
        assert cli._parser() is cli._parser()
        for argv in (short, v_points, default):
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert len(json.loads(open(tmp_path / "a.json").read())["states"]) == 4
        assert json.loads(open(tmp_path / "b.json").read())["records"][0]["operator"] == "V"
        # no --steps, --scenario or --operator left over from the calls before
        assert open(tmp_path / "c.csv").read().splitlines()[-1].startswith("# outcome=converged")

    def test_one_parse_per_command(self, good_algebra, tmp_path, monkeypatch):
        argvs = [*_reuse_argvs(good_algebra, tmp_path), *([c, *flags] for c, flags in KEPT_FLAGS.items())]
        for argv in argvs:
            assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

        def top_level_pass(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a known command")

        # a known command word goes to its own parser; only leftovers reach the top-level error()
        monkeypatch.setattr(cli._parser(), "parse_known_args", top_level_pass)
        for argv in _reuse_argvs(good_algebra, tmp_path):
            assert main(argv) == 0
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", FALLBACK_ARGVS)
    def test_exits_match_the_full_parse(self, argv, capsys):
        assert _exit(main, argv, capsys) == _exit(cli.build_parser().parse_args, argv, capsys)


# every flag each command reads, with a value that parses
KEPT_FLAGS = {
    "simulate": ["--algebra", "a.json", "--random", "1,1", "--scenario", "lr_lethal", "--gamma", "0.5",
                 "--out", "o", "--seed", "1", "--operator", "V", "--init", "1,1", "--format", "json",
                 "--steps", "5", "--tol", "1e-6", "--max-period", "3"],
    "fixed-points": ["--algebra", "a.json", "--random", "1,1", "--scenario", "lr_lethal", "--gamma", "0.5",
                     "--out", "o", "--seed", "1", "--operator", "V"],
    "predict": ["--scenario", "recessive_lethal", "--gamma1", "0.2", "--gamma2", "0.2", "--delta1", "0.3",
                "--delta2", "0.3", "--mu", "0.5", "--eta", "1", "--gamma", "0.5", "--out", "o", "--seed", "1",
                "--init", "0.3,0.3,0.4"],
}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
    def test_every_kept_flag_parses(self, command):
        args = cli.build_parser().parse_args([command, *KEPT_FLAGS[command]])
        flags = KEPT_FLAGS[command][::2]
        assert [getattr(args, f[2:].replace("-", "_")) is not None for f in flags] == [True] * len(flags)

    def test_simulate_defaults_are_the_iteration_defaults(self):
        args = cli.build_parser().parse_args(["simulate"])
        opts = IterationOptions()
        assert (args.steps, args.tol, args.max_period) == (opts.max_steps, opts.conv_tol, opts.max_period)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("fixed-points", "--format", "json"), ("fixed-points", "--steps", "5"),
         ("fixed-points", "--tol", "1e-6"), ("fixed-points", "--max-period", "3"),
         ("predict", "--format", "json"), ("predict", "--steps", "5"), ("predict", "--tol", "1e-6"),
         ("predict", "--max-period", "3"), ("predict", "--algebra", "a.json"), ("predict", "--random", "1,1")],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "lr_lethal", "--gamma", "0.5", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestIdentities:
    def test_report(self, good_algebra, capsys):
        assert main(["identities", good_algebra, "--samples", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["associativity"]["verdict"] == "violated"
        assert payload["flexibility"]["verdict"] == "holds_on_samples"

    def test_missing_file(self, tmp_path):
        assert main(["identities", str(tmp_path / "nope.json")]) == 2

    def test_no_samples(self, good_algebra, capsys):
        assert main(["identities", good_algebra, "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "samples" in captured.err

    def test_candidates_reported(self, good_algebra, capsys):
        assert main(["identities", good_algebra, "--samples", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # flexibility holds by commutativity and is not searched
        assert payload.pop("flexibility")["candidates"] == 0
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

    def test_type21_zero_delta1_agreement(self, capsys):
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0.224",
                "--gamma2",
                "0.638",
                "--delta1",
                "0",
                "--delta2",
                "0.487",
                "--init",
                "0.3,0.3,0.4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] is True
        assert payload["prediction"]["v_limit"] == pytest.approx([0.0, 0.487, 0.513], abs=1e-12)

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

    @pytest.mark.parametrize(
        "mu, eta, init, code, kind",
        [
            ("1", "0.5", "0,0.5,0,0.5", 0, "extinction"),  # exactly zero at step 2
            ("0.9999999999999", "1", "0.25,0.25,0.25,0.25", 0, "trichotomy"),
            ("0.9999999999999", "0.5", "0.25,0.25,0.25,0.25", 1, None),  # no closed form
        ],
    )
    def test_hemophilia_extinction_from_the_support_orbit(self, mu, eta, init, code, kind, capsys):
        assert main(["predict", "--scenario", "hemophilia", "--mu", mu, "--eta", eta, "--init", init]) == code
        captured = capsys.readouterr()
        if kind is None:
            assert "prediction failed: no closed form" in captured.err
        else:
            payload = json.loads(captured.out)
            assert payload["prediction"]["kind"] == kind and payload["agreement"] is True
            assert payload["prediction"]["extinction_step"] == (2 if kind == "extinction" else None)

    @pytest.mark.parametrize(
        "scenario, flags, init",
        [
            ("recessive_lethal", ["--gamma1", "0.2", "--gamma2", "0.2", "--delta1", "0.3", "--delta2", "0.3"],
             "-0.2,0.6,0.6"),
            ("x_inactivation", ["--gamma1", "0.2", "--gamma2", "0.2", "--delta1", "0.3", "--delta2", "0.3"],
             "0.6,-0.2,0.6"),
            ("hemophilia", ["--mu", "0.4", "--eta", "1"], "0.5,0.5,-0.1,0.5"),
        ],
    )
    def test_negative_state_is_bad_input(self, scenario, flags, init, capsys):
        assert main(["predict", "--scenario", scenario, *flags, f"--init={init}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad input" in captured.err

    @pytest.mark.parametrize(
        "command, params, extra, code, message",
        [
            ("fixed-points", (-0.1, 0, 0.3, 0.3), [], 2, "bad input: gamma1 = -0.1 is negative"),
            ("predict", (0, 1e-13, 0.5, 0), ["--init", "1,0,1"], 1, "prediction failed: period-2 thresholds need"),
        ],
    )
    def test_type21_parameter_errors(self, command, params, extra, code, message, capsys):
        assert main([command, "--scenario", "recessive_lethal", *_type21_flags(params), *extra]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_near_repeated_eigenvalues_are_distinct(self, tmp_path, capsys):
        # sqrt(disc) = 1e-7: the eigenvalues are split as the fixed-point table splits
        # them; lambda1 / lambda2 = 1 - 3.3e-7, so 500 V steps are far from the limit
        out = tmp_path / "near.json"
        argv = ["predict", "--scenario", "recessive_lethal", *_type21_flags((0.3, 0, 0.3, 0.3000001)),
                "--init", "0.3,0.3,0.4", "--out", str(out)]
        assert main(argv) == 1
        payload = json.loads(out.read_text())
        assert payload["prediction"]["kind"] == "distinct_eigenvalues"
        assert payload["prediction"]["lambda1"] == pytest.approx(0.3, abs=1e-12)
        assert payload["verification"]["v_outcome"] == "max_iterations" and payload["agreement"] is False

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

        def tampered(z0, mu, eta, spec=None):
            pred = real(z0, mu, eta, spec=spec)
            pred.w_limit = "infinity" if pred.w_limit == "zero" else "zero"
            return pred

        monkeypatch.setattr(cli.scmod, "hemophilia_degenerate_limits", tampered)
        assert main(self.HEMOPHILIA_ETA1 + ["--init", "1,1,1,1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["w_limit"] == "infinity"
        assert payload["agreement"] is False

    def test_hemophilia_start_on_the_fixed_point(self, capsys):
        # u(1) sits on the threshold 13/6: W stays at the closed-form point,
        # which the prediction names and the W orbit is checked against
        point = closed_form_fixed_points_hemophilia(0.4, 1.0)[1].point.vector.tolist()
        code, payload = _run(self.HEMOPHILIA_ETA1 + ["--init", ",".join(map(repr, point))], capsys)
        assert code == 0 and payload["agreement"] is True
        pred = payload["prediction"]
        assert pred["w_limit"] == "nonzero" and pred["boundary"] is True
        assert pred["fixed_point"] == point
        assert payload["verification"]["w_outcome"] == "converged"

    def test_hemophilia_tampered_fixed_point_disagrees(self, monkeypatch, capsys):
        real = cli.scmod.hemophilia_degenerate_limits

        def tampered(z0, mu, eta, spec=None):
            pred = real(z0, mu, eta, spec=spec)
            pred.fixed_point = tuple(c + 0.01 for c in pred.fixed_point)
            return pred

        monkeypatch.setattr(cli.scmod, "hemophilia_degenerate_limits", tampered)
        point = closed_form_fixed_points_hemophilia(0.4, 1.0)[1].point.vector.tolist()
        code, payload = _run(self.HEMOPHILIA_ETA1 + ["--init", ",".join(map(repr, point))], capsys)
        assert code == 1 and payload["agreement"] is False
        assert payload["verification"]["w_outcome"] == "converged"

    @pytest.mark.parametrize(
        "flags, init",
        [(["--scenario", "lr_lethal", "--gamma", "0.5"], "1,4"),
         (["--scenario", "recessive_lethal", "--gamma1", "0.5", "--gamma2", "0", "--delta1", "0.3",
           "--delta2", "0.4"], "2,0,2")],
    )
    def test_boundary_prediction_is_iterated(self, flags, init, capsys):
        # x y = 4 on the threshold 1/(gamma (1 - gamma)) = 4: the W orbit sits on
        # the fixed point (2, 2), or (2, 0, 2), from step 1
        code, payload = _run(["predict", *flags, "--init", init], capsys)
        assert code == 0 and payload["agreement"] is True
        assert payload["prediction"]["boundary"] is True and payload["prediction"]["w_limit"] == "nonzero"
        assert payload["verification"]["w_outcome"] == "converged"
        assert payload["verification"]["v_outcome"] == (None if init == "1,4" else "converged")

    def test_type21_tampered_v_limit_disagrees(self, monkeypatch, capsys):
        real = cli.scmod.predict_limit_type21

        def tampered(z0, s, cls=None, spec=None):
            pred = real(z0, s, cls, spec)
            pred.v_limit = (0.3, 0.3, 0.4)
            return pred

        monkeypatch.setattr(cli.scmod, "predict_limit_type21", tampered)
        code, payload = _run(["predict", "--scenario", "recessive_lethal", *SCENARIO_EXAMPLES["recessive_lethal"][0],
                              "--init", "0.3,0.3,0.4"], capsys)
        assert code == 1 and payload["agreement"] is False
        assert payload["verification"]["v_outcome"] == "converged"
        assert payload["verification"]["v_distance"] > 0.1

    def test_male_share_rounding_residue_is_zero(self, capsys):
        # 1 - g1 - g2 rounds to -5.55e-17 here; read as 0, x1 has no male
        # offspring and the males die out at step 1
        flags = _type21_flags((0.8730834737037929, 0.12691652629620714, 1.0, 0.0))
        assert main(["predict", "--scenario", "recessive_lethal", *flags, "--init", "0.5,0,0.5"]) == 1
        assert "prediction failed: male coordinate vanished at step 1" in capsys.readouterr().err

    def test_type21_algebra_built_once(self, monkeypatch, capsys):
        calls = []
        real = cli.scmod.type21_spec
        monkeypatch.setattr(cli.scmod, "type21_spec", lambda *p: calls.append(p) or real(*p))
        flags, init = SCENARIO_EXAMPLES["recessive_lethal"]
        assert main(["predict", "--scenario", "recessive_lethal", *flags, "--init", init]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mu, eta", [("0.4", "1"), ("1", "0.8")])
    def test_hemophilia_algebra_built_once(self, mu, eta, monkeypatch, capsys):
        calls = []
        real = cli.scmod.hemophilia_spec
        monkeypatch.setattr(cli.scmod, "hemophilia_spec", lambda *p: calls.append(p) or real(*p))
        init = "0.25,0.25,0.25,0.25"
        assert main(["predict", "--scenario", "hemophilia", "--mu", mu, "--eta", eta, "--init", init]) == 0
        assert len(calls) == 1

    def test_criterion_4_grid(self, capsys):
        # every W limit a prediction states is the one iteration reaches, and
        # every claim holds except at two points whose V orbits converge too
        # slowly for the default step budget
        stated, agree = 0, []
        for params, v in _criterion_4_grid(400):
            code, payload = _run(["predict", "--scenario", "recessive_lethal", *_type21_flags(params),
                                  "--init", ",".join(repr(float(c)) for c in v)], capsys)
            agree.append(payload["agreement"])
            w_limit = payload["prediction"]["w_limit"]
            if w_limit is None:
                assert payload["eset"]["kind"] == "finite" and v.sum() >= 4.0
                continue
            stated += 1
            out = iterate(Element.from_vector(v, 2), type21_spec(*params), "W").outcome
            if out.kind == "converged":
                reached = "zero" if np.abs(out.point.vector).sum() < 1e-6 else "nonzero"
            else:
                reached = {"extinct": "zero", "numerically_extinct": "zero", "divergent": "infinity"}[out.kind]
            assert w_limit == reached, (params, v)
        assert stated == 136
        assert (agree.count(True), agree.count(False)) == (398, 2)

    def test_unsupported_scenario(self, capsys):
        code = main(["predict", "--scenario", "nonsense", "--gamma", "0.2"])
        assert code == 2
        assert "unknown scenario 'nonsense'" in capsys.readouterr().err

    def test_type21_equal_modulus_agreement(self, capsys):
        # g1 = d2 = 0 with a finite E-set: lambda1 = -lambda2 and the V orbit
        # is a period-2 cycle from step 1
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
                "0.2",
                "--delta2",
                "0",
                "--init",
                "0.3,0.3,0.4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prediction"]["kind"] == "opposite_eigenvalues"
        odd, even = payload["prediction"]["v_period2"]
        assert odd == pytest.approx([0.1, 0.15, 0.75], abs=1e-15)
        assert even == pytest.approx([0.12, 0.12, 0.76], abs=1e-15)
        assert payload["agreement"] is True

    def test_degenerate_prediction_fails_cleanly(self, capsys):
        # gamma2 = 1 leaves no male offspring of x1, so the support orbit
        # loses the male coordinate and no branch applies
        code = main(
            [
                "predict",
                "--scenario",
                "recessive_lethal",
                "--gamma1",
                "0",
                "--gamma2",
                "1",
                "--delta1",
                "0.4",
                "--delta2",
                "0",
                "--init",
                "0,0.6,0.4",
            ]
        )
        assert code == 1
        assert "prediction failed: male coordinate vanished" in capsys.readouterr().err


UNWRITABLE_COMMANDS = {
    "validate": lambda alg: ["validate", alg],
    "simulate_csv": lambda alg: ["simulate", "--random", "1,1", "--format", "csv"],
    "simulate_json": lambda alg: ["simulate", "--random", "1,1", "--format", "json"],
    "fixed_points": lambda alg: ["fixed-points", "--algebra", alg],
    "identities": lambda alg: ["identities", alg, "--samples", "1"],
    "predict": lambda alg: ["predict", "--scenario", "lr_lethal", "--gamma", "0.5", "--init", "1,1"],
}


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", sorted(UNWRITABLE_COMMANDS))
    def test_exits_2_with_message(self, command, target, good_algebra, tmp_path, capsys):
        out = tmp_path / "no" / "x.out" if target == "missing_dir" else tmp_path
        reason = "No such file or directory" if target == "missing_dir" else "Is a directory"
        assert main(UNWRITABLE_COMMANDS[command](good_algebra) + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""


class TestScenarioList:
    def test_lists_all(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lr_lethal", "lr_mutation", "recessive_lethal", "hemophilia", "x_inactivation"):
            assert name in out

    def test_python_m_gonosim(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["gonosim", "scenario", "list"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("gonosim", run_name="__main__")
        assert exc.value.code == 0
        assert "hemophilia" in capsys.readouterr().out


TYPE21_FLAGS = ("--gamma1", "--gamma2", "--delta1", "--delta2")

# parameter flags and an initial state for every scenario in the table
SCENARIO_EXAMPLES = {
    "lr_lethal": (["--gamma", "0.5"], "1,1"),
    "lr_mutation": (["--mu", "0.3", "--eta", "0.2"], "1,1"),
    "recessive_lethal": (["--gamma1", "0.2", "--gamma2", "0.2", "--delta1", "0.3", "--delta2", "0.3"],
                         "0.3,0.3,0.4"),
    "hemophilia": (["--mu", "0.4", "--eta", "1"], "1,1,1,1"),
    "x_inactivation": (["--gamma1", "0.2", "--gamma2", "0.2", "--delta1", "0.3", "--delta2", "0.3"],
                       "0.4,0.3,0.3"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_is_served(name, capsys):
    flags, init = SCENARIO_EXAMPLES[name]
    assert main(["scenario", "list"]) == 0
    assert any(line.startswith(f"{name}: ") for line in capsys.readouterr().out.splitlines())
    assert main(["predict", "--scenario", name, *flags, "--init", init]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == name and payload["agreement"] is True
    assert main(["fixed-points", "--scenario", name, *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form"] and payload["cross_check"]["pass"] is True


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _type21_flags(params):
    return [v for flag, p in zip(TYPE21_FLAGS, params) for v in (flag, repr(float(p)))]


def _criterion_4_grid(points):
    """Parameters and states in the four parameter modes and three start modes
    of acceptance criterion 4, scaled to both sides of the W thresholds."""
    rng = np.random.default_rng(7)
    for i in range(points):
        mode = i % 4
        if mode == 0:
            g1, g2 = rng.dirichlet(np.ones(3))[:2]
            d1, d2 = rng.dirichlet(np.ones(3))[:2]
        elif mode == 1:
            g1, g2 = float(rng.uniform(0.05, 0.9)), 0.0
            d1, d2 = rng.dirichlet(np.ones(3))[:2]
        elif mode == 2:
            g1, d2 = 0.0, 0.0
            g2, d1 = float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9))
        else:
            g1, g2 = rng.dirichlet(np.ones(3))[:2]
            d1, d2 = 0.0, float(rng.uniform(0.05, 0.9))
        v = rng.dirichlet(np.ones(3))
        start_mode = (i // 4) % 3
        if start_mode == 1:
            v = np.array([0.0, v[1], v[2]]) / (v[1] + v[2])
        elif start_mode == 2:
            v = np.array([v[0], 0.0, v[2]]) / (v[0] + v[2])
        yield (g1, g2, d1, d2), v * rng.uniform(0.5, 20.0)


class TestXInactivation:
    """x_inactivation is recessive_lethal carried through phi = swap_map(...)."""

    def _inputs(self):
        rng = np.random.default_rng(3)
        for params, _, _ in TYPE21_CASE_INSTANCES:
            for _ in range(3):
                yield params, rng.dirichlet(np.ones(3)) * rng.uniform(0.5, 4.0)
        yield from _criterion_4_grid(240)

    def test_predict_is_the_mapped_recessive_lethal_prediction(self, capsys):
        compared = 0
        for params, v in self._inputs():
            phi = swap_map(type21_spec(*params))
            flags = _type21_flags(params)
            code, rl = _run(["predict", "--scenario", "recessive_lethal", *flags,
                             "--init", ",".join(repr(float(c)) for c in v)], capsys)
            xi_code, xi = _run(["predict", "--scenario", "x_inactivation", *flags,
                                "--init", ",".join(repr(float(c)) for c in phi @ v)], capsys)
            assert xi_code == code, (params, v)
            assert (xi is None) == (rl is None)
            if rl is None:
                continue
            compared += 1
            assert xi["agreement"] == rl["agreement"] and xi["eset"] == rl["eset"]
            a, b = rl["prediction"], xi["prediction"]
            assert b["w_limit"] == a["w_limit"]
            assert b["v_limit"] == (None if a["v_limit"] is None else (phi @ a["v_limit"]).tolist())
            expected = None if a["v_period2"] is None else [(phi @ w).tolist() for w in a["v_period2"]]
            assert b["v_period2"] == expected
        assert compared >= 200

    def test_closed_form_records_are_the_mapped_points(self, capsys):
        for params, _, has_family in TYPE21_CASE_INSTANCES:
            phi = swap_map(type21_spec(*params))
            flags = _type21_flags(params)
            code, rl = _run(["fixed-points", "--scenario", "recessive_lethal", *flags], capsys)
            xi_code, xi = _run(["fixed-points", "--scenario", "x_inactivation", *flags], capsys)
            assert code == xi_code == 0 and xi["cross_check"]["pass"] is True
            assert len(xi["closed_form"]) == len(rl["closed_form"])
            for a, b in zip(rl["closed_form"], xi["closed_form"]):
                assert b["point"] == (phi @ a["point"]).tolist()
                assert (b["stability_w"], b["stability_v"]) == (a["stability_w"], a["stability_v"])
                assert b["residual"] < 1e-10
                if a["family"] is None:
                    assert b["family"] is None
                else:
                    for key in ("base_point", "direction"):
                        assert b["family"][key] == (phi @ a["family"][key]).tolist()
            assert any(r["family"] for r in xi["closed_form"]) == has_family
