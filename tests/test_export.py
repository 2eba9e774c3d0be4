"""The JSON and CSV writers, checked against the writers they replaced.

``reference_json`` and ``reference_csv`` are those writers: ``json.dumps``
with ``indent=2`` and a per-value ``.17g`` loop.  The new ones must give the
same parsed values in the same key order, every float equal bit for bit,
the same CSV bytes, and one trailing newline.  ``old_write`` is the
``open(path, "w")`` body every export had before ``write_text`` wrote in
place; each export must leave the same bytes and file metadata as it did.
"""

import builtins
import io
import json
import os
import stat

import numpy as np
import pytest

from gonosim import AlgebraSpec, Element, cli, dynamics, iterate, random_stochastic
from gonosim.algebra import json_line
from gonosim.cli import main
from gonosim.dynamics import Outcome, Trajectory
from gonosim.scenarios import type11_spec

TYPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (4, 4), (8, 8)]
# -0.0, the smallest subnormal, a mid-range subnormal and huge magnitudes
SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, 1 / 3]


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2)


def reference_csv(traj) -> str:
    n, nu = traj.states[0].x.shape[0], traj.states[0].y.shape[0]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(nu)]
    lines = [",".join(header + ["omega"])]
    for t, (s, om) in enumerate(zip(traj.states, traj.omegas)):
        lines.append(",".join([str(t)] + [f"{v:.17g}" for v in s.vector] + [f"{om:.17g}"]))
    lines.append(f"# {traj.outcome.describe()}")
    return "\n".join(lines) + "\n"


def _no_constant(token):
    raise AssertionError(f"{token} is not JSON")


def bits(text: str):
    """Parse strict JSON with objects as key-value pair lists and floats as hex."""

    def conv(obj):
        if isinstance(obj, float):
            return ("float", obj.hex())
        if isinstance(obj, (list, tuple)):
            return [conv(v) for v in obj]
        return obj

    return conv(json.loads(text, object_pairs_hook=list, parse_constant=_no_constant))


def assert_same_json(text: str, obj) -> None:
    assert text.endswith("\n") and text.count("\n") == 1
    assert bits(text) == bits(reference_json(obj))


def _trajectory(n, nu, operator):
    spec = random_stochastic(n, nu, 10 * n + nu)
    z0 = Element.from_vector(np.random.default_rng(n * nu).dirichlet(np.ones(n + nu)), n)
    return iterate(z0, spec, operator=operator)


def _special_trajectory():
    states = [Element.from_vector(np.roll(SPECIAL, k)[:4], 2) for k in range(len(SPECIAL))]
    outcome = Outcome("converged", step=7, point=states[-1], final_step_l1=5e-324)
    return Trajectory(states, list(SPECIAL), outcome, "V")


TRAJECTORIES = [(n, nu, op) for n, nu in TYPES for op in ("W", "V")]


class TestTrajectory:
    @pytest.mark.parametrize("n, nu, operator", TRAJECTORIES)
    def test_json_matches_reference(self, n, nu, operator, tmp_path):
        traj = _trajectory(n, nu, operator)
        traj.to_json(tmp_path / "t.json")
        assert_same_json((tmp_path / "t.json").read_text(), traj.to_dict())

    @pytest.mark.parametrize("n, nu, operator", TRAJECTORIES)
    def test_csv_matches_reference(self, n, nu, operator, tmp_path):
        traj = _trajectory(n, nu, operator)
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(traj).encode()

    def test_special_values(self, tmp_path):
        traj = _special_trajectory()
        traj.to_json(tmp_path / "t.json")
        traj.to_csv(tmp_path / "t.csv")
        text = (tmp_path / "t.json").read_text()
        assert_same_json(text, traj.to_dict())
        assert json.loads(text)["states"][0][0].hex() == "-0x0.0p+0"
        csv = (tmp_path / "t.csv").read_text()
        assert csv == reference_csv(traj)
        assert csv.endswith("# outcome=converged,step=7\n") and not csv.endswith("\n\n")

    def test_non_finite_states(self, tmp_path):
        # JSON writes null where the CSV keeps inf and nan
        states = [Element.from_vector([1e200, 1e200], 1),
                  Element.from_vector([np.inf, np.nan], 1)]
        traj = Trajectory(states, [2e200, np.nan], Outcome("divergent", step=1), "W")
        traj.to_json(tmp_path / "t.json")
        traj.to_csv(tmp_path / "t.csv")
        data = json.loads((tmp_path / "t.json").read_text(), parse_constant=_no_constant)
        assert data["states"] == [[1e200, 1e200], [None, None]]
        assert data["omegas"] == [2e200, None]
        assert (tmp_path / "t.csv").read_text() == reference_csv(traj)
        assert "1,inf,nan,nan\n" in reference_csv(traj)


class TestAlgebraSpec:
    @pytest.mark.parametrize("n, nu", TYPES)
    def test_save_load_bit_exact(self, n, nu, tmp_path):
        spec = random_stochastic(n, nu, n * nu)
        spec.save(tmp_path / "a.json")
        text = (tmp_path / "a.json").read_text()
        assert_same_json(text, spec.to_dict())
        assert AlgebraSpec.load(tmp_path / "a.json").kernel.tobytes() == spec.kernel.tobytes()

    def test_special_values_round_trip(self, tmp_path):
        spec = AlgebraSpec(2, 1, np.reshape(SPECIAL[:4], (2, 1, 2)), np.reshape(SPECIAL[4:6], (2, 1, 1)))
        spec.save(tmp_path / "a.json")
        assert_same_json((tmp_path / "a.json").read_text(), spec.to_dict())
        assert AlgebraSpec.load(tmp_path / "a.json").kernel.tobytes() == spec.kernel.tobytes()


def test_json_line_nulls_only_non_finite_floats():
    obj = {"a": [1.5, float("nan"), {"b": (float("inf"), -float("inf"))}], "c": 3, "d": None}
    assert json_line(obj) == '{"a": [1.5, null, {"b": [null, null]}], "c": 3, "d": null}\n'


TYPE21 = ["--scenario", "recessive_lethal", "--gamma1", "0.1", "--gamma2", "0.5",
          "--delta1", "0.4", "--delta2", "0.1"]
HEMOPHILIA = ["--scenario", "hemophilia", "--mu", "0.4", "--eta", "1"]
LR = ["--scenario", "lr_lethal", "--gamma", "0.5"]


@pytest.fixture
def algebra(tmp_path):
    """Paths of a valid algebra file and of one that breaks a row sum."""
    paths = {"good": str(tmp_path / "good.json"), "bad": str(tmp_path / "bad.json")}
    type11_spec(0.5).save(paths["good"])
    AlgebraSpec(1, 1, [[[0.5]]], [[[0.4]]]).save(paths["bad"])
    return paths


@pytest.fixture
def payloads(monkeypatch):
    """Every object the CLI hands to the JSON writer, in call order."""
    seen = []

    def spy(obj):
        seen.append(obj)
        return json_line(obj)

    monkeypatch.setattr(cli, "json_line", spy)
    monkeypatch.setattr(dynamics, "json_line", spy)
    return seen


COMMANDS = {
    "validate": lambda alg: ["validate", alg["good"]],
    "validate_violation": lambda alg: ["validate", alg["bad"]],
    "simulate_json": lambda alg: ["simulate", *LR, "--init", "1,1", "--format", "json"],
    "simulate_v_json": lambda alg: ["simulate", "--random", "2,2", "--seed", "7",
                                    "--operator", "V", "--format", "json"],
    "fixed_points_type11": lambda alg: ["fixed-points", *LR],
    "fixed_points_type21": lambda alg: ["fixed-points", *TYPE21],
    "fixed_points_hemophilia": lambda alg: ["fixed-points", *HEMOPHILIA],
    "fixed_points_v": lambda alg: ["fixed-points", "--algebra", alg["good"], "--operator", "V"],
    "identities": lambda alg: ["identities", alg["good"], "--samples", "3"],
    "predict_type11": lambda alg: ["predict", *LR, "--init", "1,1"],
    "predict_type21": lambda alg: ["predict", *TYPE21, "--init", "0.2,0.3,0.5"],
    "predict_hemophilia": lambda alg: ["predict", *HEMOPHILIA, "--init", "1,1,1,1"],
}


class TestCliPayloads:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_file_matches_reference(self, command, algebra, payloads, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(COMMANDS[command](algebra) + ["--out", str(out)]) in (0, 1)
        assert len(payloads) == 1
        assert_same_json(out.read_text(), payloads[0])

    @pytest.mark.parametrize(
        "command", sorted(c for c in COMMANDS if not c.startswith("simulate"))
    )
    def test_stdout_matches_reference(self, command, algebra, payloads, capsys):
        assert main(COMMANDS[command](algebra)) in (0, 1)
        assert len(payloads) == 1
        assert_same_json(capsys.readouterr().out, payloads[0])

    @pytest.mark.parametrize("source", [LR + ["--init", "1,1"], ["--random", "3,2", "--seed", "4"]])
    def test_csv_matches_reference(self, source, tmp_path, monkeypatch):
        written = []
        to_csv = Trajectory.to_csv

        def spy(self, path):
            written.append(self)
            to_csv(self, path)

        monkeypatch.setattr(Trajectory, "to_csv", spy)
        out = tmp_path / "out.csv"
        assert main(["simulate", *source, "--out", str(out)]) == 0
        assert out.read_bytes() == reference_csv(written[0]).encode()


def old_write(path, text: str) -> None:
    """The body every export had before writing in place."""
    with open(path, "w") as fh:
        fh.write(text)


def _exports():
    """(name, write(path), the text it must leave) for each of the four exports."""
    spec = random_stochastic(2, 2, 5)
    traj = _trajectory(2, 2, "V")
    payload = {"records": [{"point": [0.1, 1 / 3], "stable": True}], "pass": None}
    return [
        ("save", spec.save, json_line(spec.to_dict())),
        ("to_csv", traj.to_csv, reference_csv(traj)),
        ("to_json", traj.to_json, json_line(traj.to_dict())),
        ("emit", lambda path: cli._emit(payload, str(path)), json_line(payload)),
    ]


EXPORTS = _exports()


@pytest.fixture(params=EXPORTS, ids=[name for name, _, _ in EXPORTS])
def export(request):
    return request.param[1:]


class TestWriteInPlace:
    @pytest.mark.parametrize("before", [None, "longer", "shorter"])
    def test_same_bytes_as_the_old_writer(self, export, before, tmp_path):
        write, text = export
        old, new = tmp_path / "old", tmp_path / "new"
        if before is not None:
            filler = "x" * (len(text) + 500) if before == "longer" else "y\n"
            old.write_text(filler)
            new.write_text(filler)
        old_write(old, text)
        write(new)
        assert new.read_bytes() == old.read_bytes() == text.encode()

    def test_rewrite_keeps_the_inode(self, export, tmp_path):
        write, text = export
        path = tmp_path / "out"
        path.write_text("z" * 4096)
        inode = path.stat().st_ino
        write(path)
        assert path.stat().st_ino == inode and path.read_text() == text

    def test_symlink_is_followed(self, export, tmp_path):
        write, text = export
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("z" * 4096)
        link.symlink_to(target)
        write(link)
        assert link.is_symlink() and target.read_text() == text

    def test_hard_link_sees_the_bytes(self, export, tmp_path):
        write, text = export
        path, other = tmp_path / "out", tmp_path / "other"
        path.write_text("z" * 4096)
        os.link(path, other)
        write(path)
        assert other.read_text() == text and other.stat().st_nlink == 2

    def test_mode_is_kept(self, export, tmp_path):
        write, text = export
        path = tmp_path / "out"
        path.write_text("z" * 4096)
        path.chmod(0o600)
        write(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600 and path.read_text() == text

    def test_new_file_mode_follows_umask(self, export, tmp_path):
        write, _ = export
        old, new = tmp_path / "old", tmp_path / "new"
        mask = os.umask(0o027)
        try:
            old_write(old, "")
            write(new)
        finally:
            os.umask(mask)
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(old.stat().st_mode) == 0o640

    def test_non_regular_target_is_not_cut(self, export):
        write, _ = export
        write(os.devnull)

    @pytest.mark.parametrize("argv", [
        ["validate", "ALG"],
        ["simulate", *LR, "--init", "1,1"],
        ["simulate", *LR, "--init", "1,1", "--format", "json"],
    ])
    def test_cli_out_dev_null(self, argv, algebra, capsys):
        argv = [algebra["good"] if a == "ALG" else a for a in argv]
        assert main(argv + ["--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""


def _is_write_mode(mode) -> bool:
    return any(c in mode for c in "wax+")


class TestNoTruncatingWriter:
    """No export opens its path with open(): that would bring back the truncate."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """(file, mode) of every open()/io.open() call while the test runs."""
        seen = []
        real = io.open

        def spy(file, mode="r", *args, **kwargs):
            seen.append((file, mode))
            return real(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        return seen

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_cli_json_exports(self, command, algebra, opened, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(COMMANDS[command](algebra) + ["--out", str(out)]) in (0, 1)
        assert out.stat().st_size > 0
        assert [(f, m) for f, m in opened if _is_write_mode(m)] == []

    def test_cli_csv_export_and_save(self, algebra, opened, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--algebra", algebra["good"], "--init", "1,1", "--out", str(out)]) == 0
        random_stochastic(2, 2, 1).save(tmp_path / "a.json")
        assert out.stat().st_size > 0 and (tmp_path / "a.json").stat().st_size > 0
        # the spy sees the algebra file being read, so it is in place
        assert (algebra["good"], "r") in opened
        assert [(f, m) for f, m in opened if _is_write_mode(m)] == []
