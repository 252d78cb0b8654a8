import hashlib
import json
import math

import numpy as np
import pytest

from symkoop import cli, scenarios
from symkoop.scenarios import CheckResult


def run(argv):
    return cli.main(argv)


def test_simulate_writes_expected_rows(tmp_path, capsys):
    code = run(["simulate", "--system", "lorenz", "--x0", "1,1,1", "--steps", "2",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "lorenz_traj00.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 4  # header + 3 states


def test_simulate_hamiltonian_equilibrium_stays_put(tmp_path):
    code = run(["simulate", "--system", "hamiltonian", "--x0", "3,0",
                "--steps", "100", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "hamiltonian_traj00.csv").read_text().splitlines()[1:]
    for row in rows:
        _, q, p = row.split(",")
        assert float(q) == 3.0
        assert float(p) == 0.0


def test_simulate_is_deterministic_bytewise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--system", "toggle_switch", "--random-starts", "2",
                    "--seed", "11", "--steps", "50", "--out", str(out)]) == 0
    for name in ("toggle_switch_traj00.csv", "toggle_switch_traj01.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_divergence_exit_code(tmp_path, capsys):
    code = run(["simulate", "--system", "lorenz", "--x0", "2e6,2e6,2e6",
                "--dt", "1.0", "--steps", "50", "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGENCE
    assert "step" in capsys.readouterr().err


# sha256 of `symkoop simulate` output. They pin the integrator's bits and
# the writer's bytes; both fields use only + - *, so the digests do not
# depend on the platform's libm.
@pytest.mark.parametrize("argv, name, digest", [
    (["--system", "hamiltonian", "--x0", "2.8,0.4", "--steps", "2000"],
     "hamiltonian_traj00.csv",
     "ed9f56d32d5f83794ffa0f33f4a4b7e8c7b3ab451ccdebe778fa4f2242fb4b0f"),
    (["--system", "lorenz", "--x0", "1,1,1.05", "--steps", "2000"],
     "lorenz_traj00.csv",
     "cc811e367f4ae8bf726b39053fd7df8ebe12cf6e2eba5edf0e903e74c27c6c6c"),
    (["--system", "hamiltonian", "--emit-phase-portrait", "portrait.csv"],
     "portrait.csv",
     "c7da0ccd22b3d4b1dfe7f7f9eb2ea4d6ee2aad29f7cbe68d634476f386c9b370"),
], ids=["hamiltonian", "lorenz", "hamiltonian-portrait"])
def test_simulate_output_matches_golden_digest(tmp_path, monkeypatch, argv, name, digest):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", *argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_simulate_bad_config_exit_code(tmp_path, capsys):
    assert run(["simulate", "--system", "lorenz", "--x0", "1,2",
                "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert run(["simulate", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "lorenz", "steps": 3, "out": str(tmp_path)}))
    code = run(["simulate", "--config", str(cfg), "--x0", "1,1,1", "--steps", "2"])
    assert code == 0
    lines = (tmp_path / "lorenz_traj00.csv").read_text().splitlines()
    assert len(lines) == 4  # flag steps=2 overrides config steps=3


def write_linear_fixture(path, A, x0, n):
    """Trajectory CSV following x_{k+1} = A x_k (a known linear map)."""
    states = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        states.append(A @ states[-1])
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i+1}" for i in range(len(x0))) + "\n")
        for k, x in enumerate(states):
            fh.write(",".join(repr(float(v)) for v in (0.1 * k, *x)) + "\n")


def test_fit_recovers_linear_fixture(tmp_path, capsys):
    A = np.array([[0.9, 0.1], [-0.2, 0.8]])
    traj_csv = tmp_path / "linear.csv"
    write_linear_fixture(traj_csv, A, [1.0, 0.3], 30)
    out = tmp_path / "op.json"
    code = run(["fit", "--traj", str(traj_csv), "--out", str(out),
                "--set-label", "fixture"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert np.max(np.abs(np.array(payload["K"]) - A)) <= 1e-10
    assert payload["set_label"] == "fixture"
    assert "eigenvalues" in capsys.readouterr().out


def test_fit_is_reproducible_bytewise(tmp_path):
    A = np.array([[0.9, 0.1], [-0.2, 0.8]])
    traj_csv = tmp_path / "linear.csv"
    write_linear_fixture(traj_csv, A, [1.0, 0.3], 30)
    out1, out2 = tmp_path / "op1.json", tmp_path / "op2.json"
    run(["fit", "--traj", str(traj_csv), "--out", str(out1)])
    run(["fit", "--traj", str(traj_csv), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_rejects_short_and_malformed_csv(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,x1\n0.0,1.0\n")
    assert run(["fit", "--traj", str(short), "--out", str(tmp_path / "x.json")]) \
        == cli.EXIT_CONFIG

    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0.0,1.0\n0.1,oops\n")
    assert run(["fit", "--traj", str(bad), "--out", str(tmp_path / "y.json")]) \
        == cli.EXIT_CONFIG
    assert ":3" in capsys.readouterr().err

    assert run(["fit", "--traj", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "z.json")]) == cli.EXIT_CONFIG


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("rows, where", [
    ("0.0,1.0,2.0\n0.1,nan,2.0\n0.2,1.0,2.0\n", ":3"),
    ("0.0,1e308,-1e308\n0.1,1.5e308,1e308\n0.2,-1e308,1.7e308\n"
     "0.3,1.2e308,-1.1e308\n", ""),
    ("0.0,1.0,2.0\n0.1,0.9,2.0\n0.25,0.8,2.0\n0.3,0.7,2.0\n", ":4"),
], ids=["nan", "near-overflow", "non-uniform-time"])
def test_fit_rejects_bad_data_with_one_line_error(tmp_path, capsys, rows, where):
    csv = tmp_path / "traj.csv"
    csv.write_text("t,x1,x2\n" + rows)
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(csv), "--out", str(out)]) == cli.EXIT_CONFIG
    assert where in one_line_error(capsys)
    assert not out.exists()


def test_fit_rejects_lift_overflow_in_a_later_chunk(tmp_path, capsys):
    # degree-6 monomials overflow at one state near 1e60, in the third
    # chunk of columns of the fit
    from symkoop import save_trajectory
    from symkoop.dynamics import Trajectory
    from symkoop.koopman import _FIT_CHUNK

    states = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4000, 2))
    states[2 * _FIT_CHUNK + 10, 0] = 1e60
    csv = tmp_path / "traj.csv"
    save_trajectory(Trajectory(dim=2, dt=0.1, states=states), csv)
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(csv), "--out", str(out), "--dictionary",
                '{"kind": "monomial", "max_degree": 6}']) == cli.EXIT_CONFIG
    assert "lifted snapshot data contains NaN or Inf" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("traj, message", [
    ("bad.csv", "rank_tol must be a finite number"),
    ("missing.csv", "does not exist or is not a file"),
], ids=["bad-csv", "missing-csv"])
def test_fit_checks_the_csv_path_then_rank_tol_then_the_csv(tmp_path, capsys, traj,
                                                             message):
    (tmp_path / "bad.csv").write_text("t,x1\n0.0,1.0\n0.1,oops\n")
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(tmp_path / traj), "--rank-tol", "nan",
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in one_line_error(capsys)
    assert not out.exists()


def test_fit_records_the_normalised_traj_path(tmp_path, monkeypatch):
    write_linear_fixture(tmp_path / "traj.csv", np.array([[0.9, 0.1], [-0.2, 0.8]]),
                         [1.0, 0.3], 10)
    monkeypatch.chdir(tmp_path)
    assert run(["fit", "--traj", "./traj.csv", "--out", "op.json"]) == 0
    assert json.loads((tmp_path / "op.json").read_text())["config"]["traj"] == "traj.csv"


@pytest.mark.parametrize("rank_tol", ["nan", "inf", "2", "0", "-1"])
def test_fit_rejects_unusable_rank_tol(tmp_path, capsys, rank_tol):
    # nan, inf and 2 used to keep rank 0 and write an all-zero operator
    csv = tmp_path / "traj.csv"
    csv.write_text("t,x1,x2\n0.0,1.0,2.0\n0.1,0.9,2.1\n0.2,0.7,2.3\n")
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(csv), "--rank-tol", rank_tol,
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert "rank_tol" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dt", "nan"],
    ["--dt", "inf"],
    ["--x0", "nan,0.5"],
    ["--params", '{"alpha1": NaN}'],
    ["--params", '{"alpha1": "x"}'],
], ids=["dt-nan", "dt-inf", "x0-nan", "param-nan", "param-text"])
def test_simulate_rejects_non_finite_input(tmp_path, capsys, flags):
    # bad input, not a numerical divergence (exit 3)
    x0 = [] if "--x0" in flags else ["--x0", "1,1"]
    code = run(["simulate", "--system", "toggle_switch", "--steps", "5",
                *x0, *flags, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    one_line_error(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, config", [
    (["--params", "[1]"], None),
    ([], {"params": [1]}),
    ([], {"params": "[1]"}),
], ids=["flag", "config-list", "config-text"])
def test_simulate_params_that_are_not_an_object_are_one_error(tmp_path, capsys, flags,
                                                               config):
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "out"
    assert run(["simulate", "--system", "lorenz", "--x0", "1,1,1", "--steps", "2",
                *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "params for system 'lorenz' must be a JSON object, got [1]" \
        in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_params_that_are_no_json_name_their_flag_or_config_key(tmp_path, capsys, source):
    cfg = tmp_path / "run.json"
    if source == "flag":
        flags, where = ["--params", "{rho"], "--params"
    else:
        cfg.write_text(json.dumps({"params": "{rho"}))
        flags, where = ["--config", str(cfg)], f"config key 'params' in {cfg}"
    out = tmp_path / "out"
    assert run(["simulate", "--system", "lorenz", "--x0", "1,1,1", "--steps", "2",
                *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys).startswith(f"error: invalid JSON for {where}: ")
    assert not out.exists()


def test_config_params_may_be_an_object(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"params": {"rho": 10.0}}))
    for config, out in ((["--config", str(tmp_path / "run.json")], "a"),
                        (["--params", '{"rho": 10.0}'], "b")):
        assert run(["simulate", "--system", "lorenz", "--x0", "1,1,1", "--steps", "20",
                    *config, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / "lorenz_traj00.csv").read_bytes() \
        == (tmp_path / "b" / "lorenz_traj00.csv").read_bytes()


def test_main_calls_in_a_row_share_no_state(tmp_path):
    """The parser is built once per process; each call still parses into a
    new namespace, so repeated flags of one call do not reach the next."""
    assert cli._parser() is cli._parser()
    assert run(["simulate", "--system", "hamiltonian", "--x0", "3,0.2", "--x0", "0.2,3",
                "--steps", "5", "--out", str(tmp_path / "two")]) == 0
    assert run(["fit", "--traj", str(tmp_path / "two" / "hamiltonian_traj00.csv"),
                "--out", str(tmp_path / "op.json")]) == 0
    assert run(["simulate", "--system", "hamiltonian", "--x0", "3,0.2", "--steps", "5",
                "--out", str(tmp_path / "one")]) == 0
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) \
        == ["hamiltonian_traj00.csv", "hamiltonian_traj01.csv"]
    assert [p.name for p in (tmp_path / "one").iterdir()] == ["hamiltonian_traj00.csv"]
    assert (tmp_path / "one" / "hamiltonian_traj00.csv").read_bytes() \
        == (tmp_path / "two" / "hamiltonian_traj00.csv").read_bytes()
    config = json.loads((tmp_path / "op.json").read_text())["config"]
    assert config["set_label"] == "fit" and "x0" not in config


def make_group_file(tmp_path, name="toggle_switch"):
    from symkoop import builtin_group, save_group

    path = tmp_path / f"{name}_group.json"
    save_group(builtin_group(name), path)
    return path


def fit_toggle_operator(tmp_path, dictionary=None):
    from symkoop import make_system, save_trajectory, simulate

    traj = simulate(make_system("toggle_switch"), [3.5, 1.2], 0.05, 100)
    csv = tmp_path / "right.csv"
    save_trajectory(traj, csv)
    out = tmp_path / "right_op.json"
    argv = ["fit", "--traj", str(csv), "--out", str(out), "--set-label", "right"]
    if dictionary:
        argv += ["--dictionary", dictionary]
    assert run(argv) == 0
    return out


def test_transport_swap_permutes_entries_exactly(tmp_path):
    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    out = tmp_path / "left_op.json"
    code = run(["transport", "--operator", str(op_path), "--group", str(group_path),
                "--element", "swap", "--target-label", "left", "--out", str(out)])
    assert code == 0
    K_right = np.array(json.loads(op_path.read_text())["K"])
    payload = json.loads(out.read_text())
    K_left = np.array(payload["K"])
    assert K_left[0, 0] == K_right[1, 1]
    assert K_left[1, 1] == K_right[0, 0]
    assert K_left[0, 1] == K_right[1, 0]
    assert K_left[1, 0] == K_right[0, 1]
    assert payload["provenance"]["transported"] is True
    assert payload["set_label"] == "left"


def test_transport_identity_element_is_bytewise_noop(tmp_path):
    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    out = tmp_path / "same.json"
    assert run(["transport", "--operator", str(op_path), "--group", str(group_path),
                "--element", "e", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["K"] == json.loads(op_path.read_text())["K"]
    assert payload["provenance"]["element"] == "e"


def test_transport_unknown_element(tmp_path, capsys):
    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    assert run(["transport", "--operator", str(op_path), "--group", str(group_path),
                "--element", "mirror", "--out", str(tmp_path / "o.json")]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, flags, config, key", [
    ("simulate", ["--random-starts", "-3"], {}, "random_starts"),
    ("simulate", ["--seed", "-1", "--random-starts", "2"], {}, "seed"),
    ("simulate", ["--steps", "0"], {}, "steps"),
    ("simulate", [], {"steps": "x"}, "steps"),
    ("simulate", [], {"dt": "fast"}, "dt"),
    ("simulate", [], {"dt": float("nan")}, "dt"),
    ("simulate", [], {"steps": None}, "steps"),
    ("simulate", [], {"steps": 2.7}, "steps"),
    ("simulate", [], {"steps": True}, "steps"),
    ("simulate", [], {"discard": -1}, "discard"),
    ("simulate", ["--random-starts", "1"], {"seed": "7"}, "seed"),
    ("simulate", [], {"random_starts": 2.5}, "random_starts"),
    ("simulate", [], {"random_starts": 10**400}, "random_starts"),
    ("fit", [], {"rank_tol": "x"}, "rank_tol"),
    ("fit", [], {"rank_tol": [1e-10]}, "rank_tol"),
    ("simulate", [], {"seed": -1}, "seed"),
    ("simulate", [], {"discard": 0.5}, "discard"),
    ("fit", [], {"rank_tol": None}, "rank_tol"),
    ("fit", [], {"rank_tol": float("inf")}, "rank_tol"),
    ("simulate", ["--steps", "x"], {}, "steps"),
    ("simulate", ["--steps", "3.0"], {}, "steps"),
    ("simulate", ["--dt", "fast"], {}, "dt"),
    ("simulate", ["--dt", "inf"], {}, "dt"),
    ("simulate", ["--discard", "1.5"], {}, "discard"),
    ("simulate", ["--seed", "x", "--random-starts", "2"], {}, "seed"),
    ("simulate", ["--random-starts", "two"], {}, "random_starts"),
    ("fit", ["--rank-tol", "tiny"], {}, "rank_tol"),
    ("simulate", ["--seed", "1.5"], {}, "seed"),
    ("simulate", ["--discard", "x"], {}, "discard"),
])
def test_bad_numeric_option_is_one_config_error_naming_the_key(
        tmp_path, capsys, command, flags, config, key):
    fit_toggle_operator(tmp_path)
    inputs = {
        "simulate": ["--system", "toggle_switch", "--x0", "1,1"],
        "fit": ["--traj", str(tmp_path / "right.csv")],
    }[command]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, *flags, "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_CONFIG
    error = one_line_error(capsys)
    if any(isinstance(v, float) and not math.isfinite(v) for v in config.values()):
        # NaN and Infinity are no JSON numbers: the file is refused as it is read
        assert f"error: {cfg}: " in error and "is not a JSON number" in error
    else:
        assert f"error: {key} must be " in error
    assert not out.exists()


@pytest.mark.parametrize("command, flags, key, value", [
    ("fit", ["--traj"], "out", True),
    ("fit", ["--traj"], "out", 2),
    ("fit", ["--traj"], "out", None),
    ("fit", [], "traj", 5),
    ("fit", ["--traj"], "set_label", 5),
    ("simulate", ["--x0", "1,1"], "system", 3),
    ("spectrum", [], "operator", 5),
    ("transport", ["--group", "--element", "swap"], "operator", 5),
    ("transport", ["--operator", "--element", "swap"], "group", ["toggle.json"]),
    ("transport", ["--operator", "--group"], "element", 1),
    ("transport", ["--operator", "--group", "--element", "swap"], "target_label", 7),
    ("assemble", ["--base-operator", "--group"], "registry", {"labels": []}),
    ("assemble", ["--registry", "--group"], "base_operator", False),
    ("group", ["check", "--group"], "out", 1),
    ("verify", [], "checks", 5),
])
def test_config_text_option_of_another_json_type_is_one_error_naming_the_key(
        tmp_path, capsys, command, flags, key, value):
    # each file flag is followed by its file; --out is passed unless "out"
    # is the key under test
    op_path, group_path = fit_toggle_operator(tmp_path), make_group_file(tmp_path)
    registry = tmp_path / "registry.json"
    registry.write_text('{"labels": ["right", "left"], "base": "right", '
                        '"mapping": {"left": "swap"}}')
    files = {"--traj": tmp_path / "right.csv", "--operator": op_path,
             "--group": group_path, "--base-operator": op_path, "--registry": registry}
    argv = [command]
    for flag in flags:
        argv += [flag, str(files[flag])] if flag in files else [flag]
    if command == "simulate":
        argv += ["--steps", "2"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out.json"
    if key != "out":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run([*argv, "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == (
        f"error: config key {key!r} in {cfg} must be a string, got {value!r}\n")
    assert not out.exists()


def test_whole_floats_and_ints_are_accepted_numeric_options(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 3.0, "dt": 1, "seed": 2.0}))
    assert run(["simulate", "--system", "hamiltonian", "--x0", "3,0",
                "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "hamiltonian_traj00.csv").read_text().splitlines()
    assert rows[1:] == ["0.0,3.0,0.0", "1.0,3.0,0.0", "2.0,3.0,0.0", "3.0,3.0,0.0"]


def test_numeric_flags_are_read_as_numbers(tmp_path):
    assert run(["simulate", "--system", "hamiltonian", "--x0", "3,0", "--steps", "3",
                "--dt", "1e-3", "--discard", "1", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "hamiltonian_traj00.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.0", "0.001", "0.002", "0.003"]


def test_assemble_toggle_registry(tmp_path, capsys):
    from symkoop import save_registry
    from symkoop.scenarios import builtin_registry

    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    reg_path = tmp_path / "registry.json"
    save_registry(builtin_registry("toggle_switch"), reg_path)
    out = tmp_path / "global.json"
    code = run(["assemble", "--registry", str(reg_path), "--base-operator",
                str(op_path), "--group", str(group_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["labels"] == ["right", "left"]
    assert payload["total_size"] == 4
    assert sorted(payload["config"]) == ["base_operator", "group", "registry"]
    table = capsys.readouterr().out
    assert "fitted" in table and "transported" in table


@pytest.mark.parametrize("command", ["transport", "assemble"])
def test_transport_and_assemble_take_no_seed(tmp_path, capsys, command):
    # every dictionary the CLI loads has an exact representation, so there
    # is no probe cloud to seed
    with pytest.raises(SystemExit) as info:
        run([command, "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_transport_under_a_rotation_is_exact_and_records_no_seed(tmp_path):
    from symkoop import GroupElement, generate_group, save_group

    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    group_path = tmp_path / "c3.json"
    save_group(generate_group([GroupElement("rot", np.array([[c, -s], [s, c]]))]),
               group_path)
    op_path = fit_toggle_operator(tmp_path, '{"kind": "monomial", "max_degree": 3}')
    out = tmp_path / "rotated.json"
    assert run(["transport", "--operator", str(op_path), "--group", str(group_path),
                "--element", "rot", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["provenance"] == {"transported": True, "method": "conjugation",
                                     "base_label": "right", "element": "rot"}
    assert sorted(payload["config"]) == ["element", "group", "operator"]


def test_fit_with_a_non_orthogonal_transformed_dictionary_is_one_error(tmp_path, capsys):
    fit_toggle_operator(tmp_path)
    out = tmp_path / "op.json"
    spec = {"kind": "transformed", "base": {"kind": "identity"},
            "matrix": [[2.0, 0.0], [0.0, 1.0]]}
    assert run(["fit", "--traj", str(tmp_path / "right.csv"), "--dictionary",
                json.dumps(spec), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "element 'g' is not orthogonal" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"kind": "monomial", "max_degree": True}, "'max_degree' must be an integer, got True"),
    ({"kind": "monomial", "max_degree": 2.0}, "'max_degree' must be an integer, got 2.0"),
    ({"kind": "monomial", "include_constant": "false"},
     "'include_constant' must be true or false, got 'false'"),
    ({"kind": "identity", "dim": True}, "'dim' must be an integer, got True"),
    ({"kind": "transformed", "base": {"kind": "identity"}, "dim": "2",
      "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "'dim' must be an integer, got '2'"),
    ({"kind": "transformed", "base": {"kind": "identity"}, "element_label": 5,
      "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "'element_label' must be a string, got 5"),
    ({"kind": "transformed", "base": {"kind": "identity"},
      "matrix": [[False, True], [True, False]]}, "matrix entries must be numbers, got False"),
    ({"kind": "transformed", "base": {"kind": "identity"},
      "matrix": [["0", "1"], ["1", "0"]]}, "matrix entries must be numbers, got '0'"),
], ids=["bool-degree", "float-degree", "string-constant", "bool-dim", "string-dim",
        "number-label", "bool-matrix", "string-matrix"])
def test_fit_rejects_a_dictionary_value_of_the_wrong_json_type(tmp_path, capsys, spec,
                                                                 message):
    fit_toggle_operator(tmp_path)
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(tmp_path / "right.csv"), "--dictionary",
                json.dumps(spec), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[1]", "dictionary spec must be a JSON object, got [1]"),
    ('"monomial"', "dictionary spec must be a JSON object, got 'monomial'"),
    ('{"kind": "transformed", "base": {"kind": "identity"}}',
     "transformed dictionary spec needs 'matrix'"),
    ('{"kind": "transformed", "matrix": [[1.0, 0.0], [0.0, 1.0]]}',
     "transformed dictionary spec needs 'base'"),
    ('{"kind": "transformed", "base": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]}',
     "dictionary spec must be a JSON object, got 2"),
], ids=["list", "string", "transformed-no-matrix", "transformed-no-base",
        "transformed-number-base"])
def test_fit_rejects_a_dictionary_spec_that_is_no_object_or_lacks_a_key(
        tmp_path, capsys, text, message):
    fit_toggle_operator(tmp_path)
    out = tmp_path / "op.json"
    assert run(["fit", "--traj", str(tmp_path / "right.csv"), "--dictionary", text,
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[]", "dictionary spec must be a JSON object, got []"),
    ("0", "dictionary spec must be a JSON object, got 0"),
    ('""', "dictionary spec must be a JSON object, got ''"),
    ("false", "dictionary spec must be a JSON object, got False"),
    ("{}", "unknown dictionary kind None"),
], ids=["list", "zero", "string", "false", "object"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_fit_refuses_a_falsy_dictionary_spec(tmp_path, capsys, text, message, source):
    # only a missing flag and config key mean the identity dictionary
    fit_toggle_operator(tmp_path)
    out = tmp_path / "op.json"
    argv = ["fit", "--traj", str(tmp_path / "right.csv"), "--out", str(out)]
    if source == "flag":
        argv += ["--dictionary", text]
    else:
        # a config's string value is JSON text, so "" is text that is no JSON
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dictionary": json.loads(text)}))
        argv += ["--config", str(cfg)]
        if text == '""':
            message = (f"invalid JSON for config key 'dictionary' in {cfg}: "
                       "Expecting value: line 1 column 1 (char 0)")
    assert run(argv) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()


def test_fit_without_a_dictionary_fits_the_identity(tmp_path):
    config = json.loads(fit_toggle_operator(tmp_path).read_text())["config"]
    assert config["dictionary"] == {"kind": "identity", "dim": 2}


def test_assemble_hamiltonian_four_sets(tmp_path):
    from symkoop import make_system, save_registry, save_trajectory, simulate
    from symkoop.scenarios import builtin_registry

    traj = simulate(make_system("hamiltonian"), [3.2, 0.3], 0.001, 200)
    csv = tmp_path / "is1.csv"
    save_trajectory(traj, csv)
    op_path = tmp_path / "is1_op.json"
    assert run(["fit", "--traj", str(csv), "--out", str(op_path),
                "--set-label", "IS-1"]) == 0
    group_path = make_group_file(tmp_path, "hamiltonian")
    reg_path = tmp_path / "registry.json"
    save_registry(builtin_registry("hamiltonian"), reg_path)
    out = tmp_path / "global.json"
    assert run(["assemble", "--registry", str(reg_path), "--base-operator",
                str(op_path), "--group", str(group_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["total_size"] == 8
    assert [b["label"] for b in payload["blocks"]] == ["IS-1", "IS-2", "IS-3", "IS-4"]
    for block, element in zip(payload["blocks"][1:], ["swap", "negate", "swap*negate"]):
        assert block["provenance"] == {"transported": True, "method": "conjugation",
                                       "base_label": "IS-1", "element": element}


def test_assemble_registry_with_unknown_element(tmp_path):
    from symkoop import save_registry
    from symkoop.equivariant import InvariantSetRegistry

    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    reg_path = tmp_path / "registry.json"
    save_registry(
        InvariantSetRegistry(labels=("right", "left"), base_label="right",
                             mapping={"left": "reflector"}),
        reg_path,
    )
    assert run(["assemble", "--registry", str(reg_path), "--base-operator",
                str(op_path), "--group", str(group_path),
                "--out", str(tmp_path / "g.json")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("labels, mapping, message", [
    (("right", "left", "left-again"), {"left": "swap", "left-again": "swap"},
     "registry.json: registry maps 'left' and 'left-again' "
     "through the same element 'swap'"),
    (("right", "left"), {"left": "e"}, "through the identity"),
], ids=["shared-element", "non-base-identity"])
def test_assemble_rejects_registry_with_duplicate_set(tmp_path, capsys, labels,
                                                      mapping, message):
    op_path = fit_toggle_operator(tmp_path)
    group_path = make_group_file(tmp_path)
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"labels": labels, "base": "right", "mapping": mapping}))
    capsys.readouterr()
    out = tmp_path / "g.json"
    assert run(["assemble", "--registry", str(reg_path), "--base-operator",
                str(op_path), "--group", str(group_path),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_assemble_refuses_registry_samples_too_large_to_match(tmp_path, capsys):
    # the overflowing norm made every element stabilize the base samples, so
    # the registry was refused for naming one set twice
    (tmp_path / "op.json").write_text(json.dumps({
        "set_label": "base", "K": np.eye(3).tolist(),
        "dictionary": {"kind": "identity", "dim": 3}, "fit_residual": 0.0,
        "rank_used": 3}))
    (tmp_path / "registry.json").write_text(json.dumps({
        "labels": ["base", "m"], "mapping": {"m": "rot_pi_z"},
        "samples": {"base": [[1e308, 1e308, 1e308]]}}))
    out = tmp_path / "g.json"
    assert run(["assemble", "--registry", str(tmp_path / "registry.json"),
                "--base-operator", str(tmp_path / "op.json"),
                "--group", str(make_group_file(tmp_path, "lorenz")),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == ("error: sample cloud holds a coordinate above 1e+150 "
                                      "in magnitude, too large to match\n")
    assert not out.exists()


@pytest.mark.parametrize("provenance", ["x", [], 5, True])
def test_assemble_refuses_a_base_operator_whose_provenance_is_no_object(
        tmp_path, capsys, provenance):
    op_path = fit_toggle_operator(tmp_path)
    payload = json.loads(op_path.read_text())
    op_path.write_text(json.dumps(dict(payload, provenance=provenance)))
    group_path = make_group_file(tmp_path)
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"labels": ["right", "left"], "mapping": {"left": "swap"}}))
    capsys.readouterr()
    out = tmp_path / "g.json"
    argv = ["assemble", "--registry", str(reg_path), "--base-operator", str(op_path),
            "--group", str(group_path), "--out", str(out)]
    assert run(argv) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == (
        f"error: {op_path}: provenance must be a JSON object, got {provenance!r}\n")
    assert not out.exists()
    # null is an operator fitted from data, as with no provenance at all
    op_path.write_text(json.dumps(dict(payload, provenance=None)))
    assert run(argv) == 0
    assert "right           2 fitted" in capsys.readouterr().out


def test_assemble_refuses_a_base_provenance_too_deep_to_write(tmp_path, capsys):
    # 900 levels parse within the default recursion limit of 1000; copied
    # into global.json, they are too deep for the writer, which spends two
    # frames a level on CPython 3.10 and 3.11
    provenance = {"notes": json.loads("[" * 900 + "]" * 900)}
    op, group, registry = (tmp_path / f"{name}.json" for name in ("op", "group", "reg"))
    op.write_text(json.dumps(dict(OPERATOR, provenance=provenance)))
    group.write_text(json.dumps(SWAP_GROUP))
    registry.write_text(json.dumps({"labels": ["right", "left"], "mapping": {"left": "swap"}}))
    out = tmp_path / "global.json"
    assert run(["assemble", "--registry", str(registry), "--base-operator", str(op),
                "--group", str(group), "--out", str(out)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys).startswith(
        f"error: {out}: cannot write JSON: maximum recursion depth exceeded")
    assert not out.exists()


def test_spectrum_command(tmp_path, capsys):
    op_path = fit_toggle_operator(tmp_path)
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--operator", str(op_path), "--out", str(out)]) == 0
    assert "lambda_0" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert len(payload["eigenvalues"]) == 2


def test_spectrum_rejects_nan_operator(tmp_path, capsys):
    op_path = fit_toggle_operator(tmp_path)
    payload = json.loads(op_path.read_text())
    payload["K"][0][0] = float("nan")
    op_path.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--operator", str(op_path), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    one_line_error(capsys)
    assert not out.exists()


def test_spectrum_eigensolver_failure_is_one_line_error(tmp_path, capsys, monkeypatch):
    op_path = fit_toggle_operator(tmp_path)

    def failing_spectrum(op):
        raise np.linalg.LinAlgError("left eigenpair 0 defect 1.0e+00 exceeds 1e-8 * ||K||")

    monkeypatch.setattr(cli.koopman, "spectrum", failing_spectrum)
    capsys.readouterr()
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--operator", str(op_path), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    assert "eigenpair" in one_line_error(capsys)
    assert not out.exists()


def test_simulate_block_divergence_names_start_and_step(tmp_path, capsys):
    code = run(["simulate", "--system", "lorenz", "--x0", "1,1,1.05",
                "--x0", "2e6,2e6,2e6", "--dt", "1.0", "--steps", "50",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: numerical divergence (start 1, step 2): ")
    assert not list(tmp_path.iterdir())


def test_simulate_several_starts_match_single_runs(tmp_path):
    starts = ["3.2,0.3", "-1,2.5", "0.1,0.1"]
    both = tmp_path / "both"
    argv = ["simulate", "--system", "hamiltonian", "--steps", "40", "--discard", "3"]
    assert run(argv + [f"--x0={x}" for x in starts] + ["--out", str(both)]) == 0
    for i, x in enumerate(starts):
        alone = tmp_path / f"alone{i}"
        assert run(argv + [f"--x0={x}", "--out", str(alone)]) == 0
        assert (both / f"hamiltonian_traj{i:02d}.csv").read_bytes() == \
            (alone / "hamiltonian_traj00.csv").read_bytes()


def test_group_check_command(tmp_path, capsys):
    group_path = make_group_file(tmp_path, "hamiltonian")
    assert run(["group", "check", "--group", str(group_path)]) == 0
    assert "order 4" in capsys.readouterr().out

    bad = tmp_path / "bad_group.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "generators": [{"label": "shear", "matrix": [[1.0, 1.0], [0.0, 1.0]]}],
    }))
    assert run(["group", "check", "--group", str(bad)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("name", ["hamiltonian", "lorenz"])
def test_group_check_runs_check_axioms_once_and_reports_its_result(tmp_path, capsys,
                                                                   monkeypatch, name):
    """The check inside load_group is the only one; stdout and the --out
    bytes are those of its report."""
    from symkoop import groups
    from symkoop.errors import write_json

    group_path, out = make_group_file(tmp_path, name), tmp_path / "report.json"
    check, checked = groups.check_axioms, []
    monkeypatch.setattr(groups, "check_axioms",
                        lambda group: checked.append(group) or check(group))
    assert run(["group", "check", "--group", str(group_path), "--out", str(out)]) == 0
    assert len(checked) == 1
    report = check(checked[0])
    assert capsys.readouterr().out == f"order {report['order']}: closure=ok, " \
        f"identity=ok, inverses=ok, associativity=ok\nwrote {out}\n"
    write_json(tmp_path / "expected.json", report)
    assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_group_check_reads_the_max_order_of_the_group_file(tmp_path, capsys):
    from symkoop import GroupElement, generate_group, save_group

    c, s = np.cos(2 * np.pi / 65), np.sin(2 * np.pi / 65)
    path = tmp_path / "c65.json"
    save_group(generate_group([GroupElement("r", np.array([[c, -s], [s, c]]))],
                              max_order=65), path)
    assert run(["group", "check", "--group", str(path)]) == 0
    assert capsys.readouterr().out.startswith("order 65: closure=ok")

    path.write_text(json.dumps(dict(json.loads(path.read_text()), max_order=64.5)))
    assert run(["group", "check", "--group", str(path)]) == cli.EXIT_CONFIG
    assert one_line_error(capsys) == \
        f"error: {path}: max_order must be a positive integer, got 64.5\n"


OPERATOR = {"set_label": "right", "K": [[1.0, 0.0], [0.0, 1.0]],
            "dictionary": {"kind": "identity", "dim": 2},
            "fit_residual": 0.0, "rank_used": 2}
SWAP_GROUP = {"dim": 2, "generators": [{"label": "swap",
                                        "matrix": [[0.0, 1.0], [1.0, 0.0]]}]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, text, message", [
    ("group", json.dumps({"dim": 2, "generators": [{"matrix": [[0.0, 1.0]] * 2}]}),
     "missing key 'label'"),
    ("group", json.dumps({"dim": 2, "generators": [{"label": "swap",
                                                    "matrix": [[0.0, 1.0], [1.0]]}]}),
     "matrix must be a list of equal-length lists, got [[0.0, 1.0], [1.0]]"),
    ("group", '{"dim": 2, "generators": [{"label": "g", '
              '"matrix": [[NaN, 0.0], [0.0, 1.0]]}]}', "NaN is not a JSON number"),
    ("group", json.dumps(SWAP_GROUP["generators"]), "expected a JSON object, got list"),
    ("group", "{", "Expecting property name"),
    ("group", json.dumps(dict(SWAP_GROUP, dim=3)), "generator 'swap' is 2 x 2, but dim is 3"),
    ("group", json.dumps({"dim": 0, "generators": []}), "dim must be a positive integer, got 0"),
    ("group", json.dumps(dict(SWAP_GROUP, dim=2.0)), "dim must be a positive integer, got 2.0"),
    ("group", json.dumps({"dim": 2, "generators": {"a": 1}}),
     "generators must be a list of objects, got {'a': 1}"),
    ("group", json.dumps({"dim": 2, "generators": ["swap"]}),
     "generators must be a list of objects, got ['swap']"),
    ("group", json.dumps({"dim": 2, "generators": [{"label": 5, "matrix": [[0.0, 1.0]] * 2}]}),
     "generator label must be a string, got 5"),
    ("group", json.dumps({"dim": 2, "generators": [
        {"label": "a", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        {"label": "a", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}]}),
     "label 'a' names more than one group element"),
    ("group", json.dumps({"dim": 2, "generators": [
        {"label": "a", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
        {"label": "a*a", "matrix": [[1.0, 0.0], [0.0, -1.0]]}]}),
     "label 'a*a' names more than one group element"),
    ("spectrum", json.dumps({k: v for k, v in OPERATOR.items() if k != "K"}),
     "missing key 'K'"),
    ("spectrum", json.dumps(dict(OPERATOR, K=[[1.0, 0.0], [0.0]])),
     "K must be a list of equal-length lists, got [[1.0, 0.0], [0.0]]"),
    ("spectrum", json.dumps(dict(OPERATOR, fit_residual="nan")), "fit_residual"),
    ("spectrum", json.dumps(dict(OPERATOR, fit_residual="0.5")),
     "fit_residual must be a number, got '0.5'"),
    ("spectrum", json.dumps(dict(OPERATOR, fit_residual=True)),
     "fit_residual must be a number, got True"),
    ("spectrum", json.dumps(dict(OPERATOR, K=[[10 ** 400, 0.0], [0.0, 1.0]])),
     "int too large to convert to float"),
    ("spectrum", json.dumps(dict(OPERATOR, dictionary={
        "kind": "monomial", "dim": 2, "max_degree": True, "include_constant": False})),
     "'max_degree' must be an integer, got True"),
    ("spectrum", json.dumps(dict(OPERATOR, dictionary={
        "kind": "monomial", "dim": 2, "max_degree": 1, "include_constant": "false"})),
     "'include_constant' must be true or false, got 'false'"),
    ("spectrum", json.dumps(dict(OPERATOR, dictionary={"kind": "identity", "dim": True})),
     "'dim' must be an integer, got True"),
    ("spectrum", "[]", "expected a JSON object, got list"),
    ("transport", json.dumps(dict(OPERATOR, fit_residual=float("nan"))),
     "NaN is not a JSON number"),
    ("assemble", json.dumps({"labels": ["right", "left"], "base": "right"}),
     "missing key 'mapping'"),
    ("assemble", json.dumps({"labels": ["right", "left"], "mapping": {"left": "swap"},
                             "samples": {"right": [[float("inf"), 0.0]]}}),
     "Infinity is not a JSON number"),
    ("fit", "t,x1\n0,1\ninf,2\n3,4\n", ":3: non-finite value"),
    ("fit", "t,x1\n0,1\n1e308,2\n-1e308,3\n", ":4: time -1e+308 is off"),
    ("assemble", json.dumps({"labels": "rl", "mapping": {"l": "swap"}}),
     "labels must be a list of strings, got 'rl'"),
    ("assemble", json.dumps({"labels": ["right", "left"], "base": 0,
                             "mapping": {"left": "swap"}}), "base must be a string"),
    ("assemble", json.dumps({"labels": ["right", "left"], "mapping": {"left": 1}}),
     "mapping must map strings to strings"),
    ("spectrum", json.dumps(dict(OPERATOR, rank_used=2.7)),
     "rank_used must be an integer, got 2.7"),
    ("assemble-operator", json.dumps(dict(OPERATOR, rank_used=2.7)),
     "rank_used must be an integer, got 2.7"),
    ("spectrum", json.dumps(dict(OPERATOR, set_label=["right"])),
     "set_label must be a string"),
    ("spectrum", json.dumps(dict(OPERATOR, dictionary={
        "kind": "transformed", "base": {"kind": "identity", "dim": 2},
        "matrix": [[2.0, 0.0], [0.0, 1.0]]})), "element 'g' is not orthogonal"),
    ("spectrum", json.dumps(dict(OPERATOR, K=[[True, False], [False, True]])),
     "K entries must be numbers, got True"),
    ("spectrum", json.dumps(dict(OPERATOR, K=[["1", "0"], ["0", "1"]])),
     "K entries must be numbers, got '1'"),
    ("group", json.dumps({"dim": 2, "generators": [{"label": "swap",
                                                    "matrix": [[False, True], [True, False]]}]}),
     "matrix entries must be numbers, got False"),
    ("spectrum", json.dumps(dict(OPERATOR, dictionary={
        "kind": "transformed", "base": {"kind": "identity", "dim": 2},
        "matrix": [["0", "1"], ["1", "0"]]})), "matrix entries must be numbers, got '0'"),
    ("assemble", json.dumps({"labels": ["right", "left"], "mapping": {"left": "swap"},
                             "samples": {"right": [["3.0", "0.1"]]}}),
     "samples 'right' entries must be numbers, got '3.0'"),
    ("assemble", json.dumps({"labels": ["right", "left"], "mapping": {"left": "swap"},
                             "samples": {"right": [3.0, 0.1]}}),
     "samples 'right' must be a list of equal-length lists, got [3.0, 0.1]"),
    ("assemble-operator", json.dumps(dict(OPERATOR, provenance={"transported": "no"})),
     "provenance transported must be true or false, got 'no'"),
    ("spectrum", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["group-no-label", "group-ragged", "group-nan", "group-list", "group-truncated",
        "group-dim-mismatch", "group-dim-zero", "group-dim-float",
        "group-generators-object", "group-generators-strings", "group-number-label",
        "group-repeated-label", "group-product-label",
        "operator-no-K", "operator-ragged", "operator-nan-residual-string",
        "operator-string-residual", "operator-bool-residual", "operator-huge-int",
        "operator-bool-degree", "operator-string-constant", "operator-bool-dim",
        "operator-list", "transport-nan-residual", "registry-no-mapping",
        "registry-inf-sample", "fit-inf-time", "fit-huge-times", "registry-string-labels",
        "registry-number-base", "registry-number-element", "operator-fractional-rank",
        "base-operator-fractional-rank", "operator-list-label",
        "operator-non-orthogonal-transformed", "operator-bool-K", "operator-string-K",
        "group-bool-matrix", "operator-string-transformed-matrix",
        "registry-string-sample", "registry-flat-sample", "operator-string-transported",
        "operator-deep-nesting"])
def test_malformed_input_is_one_config_error_naming_the_file(
        tmp_path, capsys, command, text, message):
    bad = tmp_path / ("bad.csv" if command == "fit" else "bad.json")
    bad.write_text(text)
    op, group, registry = (tmp_path / f"{name}.json" for name in ("op", "group", "reg"))
    op.write_text(json.dumps(OPERATOR))
    group.write_text(json.dumps(SWAP_GROUP))
    registry.write_text(json.dumps({"labels": ["right", "left"],
                                    "mapping": {"left": "swap"}}))
    out = tmp_path / "out.json"
    argv = {
        "group": ["group", "check", "--group", str(bad)],
        "spectrum": ["spectrum", "--operator", str(bad)],
        "transport": ["transport", "--operator", str(bad), "--group", str(group),
                      "--element", "swap"],
        "assemble": ["assemble", "--registry", str(bad), "--base-operator", str(op),
                     "--group", str(group)],
        "assemble-operator": ["assemble", "--registry", str(registry),
                              "--base-operator", str(bad), "--group", str(group)],
        "fit": ["fit", "--traj", str(bad)],
    }[command]
    assert run(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = one_line_error(capsys)
    assert err.startswith(f"error: {bad}") and message in err, err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_an_output_holding_infinity_is_one_error_and_no_file(tmp_path, capsys):
    # the eigenvalues +-1.5e308 * sqrt(2) overflow to +-inf, which JSON cannot hold
    op = tmp_path / "op.json"
    op.write_text(json.dumps(dict(OPERATOR, K=[[1.5e308, 1.5e308], [1.5e308, -1.5e308]])))
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--operator", str(op), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {out}: cannot write JSON" in one_line_error(capsys)
    assert not out.exists()


def test_verify_list_and_single_check(capsys):
    assert run(["verify", "--list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert "group_axioms:lorenz" in names
    assert run(["verify", "--checks", "group_axioms:lorenz"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] group_axioms:lorenz" in out


def test_check_names_are_pinned():
    assert scenarios.check_names() == [
        "group_axioms:lorenz",
        "group_axioms:toggle_switch",
        "group_axioms:hamiltonian",
        "equivariance:lorenz",
        "equivariance:toggle_switch",
        "equivariance:hamiltonian",
        "conjugation_exact:lorenz",
        "conjugation_exact:toggle_switch",
        "conjugation_exact:hamiltonian",
        "conjugation_statistical:toggle_switch",
        "conjugation_statistical:hamiltonian",
        "spectrum_invariance:lorenz",
        "spectrum_invariance:toggle_switch",
        "spectrum_invariance:hamiltonian",
        "commutation_symmetric:toggle_switch",
        "invariant_set_image:toggle_switch",
        "invariant_set_image:hamiltonian",
    ]


def test_verify_empty_check_list_warns(capsys):
    assert run(["verify", "--checks", ""]) == 0
    assert "no checks run" in capsys.readouterr().out


def test_verify_unknown_check(capsys):
    assert run(["verify", "--checks", "nonsense"]) == cli.EXIT_CONFIG


def test_verify_reports_failure_with_exit_one(tmp_path, capsys, monkeypatch):
    broken = CheckResult(name="alwaysfail", passed=False, metrics={}, detail="forced")
    monkeypatch.setattr(
        scenarios, "ALL_CHECKS",
        [("alwaysfail", lambda: broken)] + scenarios.ALL_CHECKS[:1],
    )
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out)]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "[FAIL] alwaysfail" in captured.out
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is False


def test_phase_portrait_emission(tmp_path):
    out = tmp_path / "portrait.csv"
    assert run(["simulate", "--system", "toggle_switch",
                "--emit-phase-portrait", str(out), "--out", str(tmp_path)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "traj_id,t,x1,x2"
