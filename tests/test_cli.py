"""Command-line interface: exit codes, output contracts, determinism."""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from npdshare.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# check / rank


def test_check_three_firms_exits_zero(spec3_file, capsys):
    code, out, err = run_cli(["check", "--spec", spec3_file], capsys)
    assert code == 0
    assert "a1_concealing_dominant: true" in out
    assert "km_preconditions" in out
    assert "hold" in err


def test_check_two_firms_km_fails(spec2_file, capsys):
    code, out, err = run_cli(
        ["check", "--spec", spec2_file, "--theorem", "km"], capsys
    )
    assert code == 1
    assert "more than two firms" in out


def test_check_two_firms_flm_passes(spec2_file, capsys):
    code, out, _ = run_cli(
        ["check", "--spec", spec2_file, "--theorem", "flm"], capsys
    )
    assert code == 0


def test_check_missing_spec_file(capsys):
    code, _, err = run_cli(["check", "--spec", "/nonexistent.json"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_check_malformed_spec(spec_file, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_firms": 2,')
    code, _, err = run_cli(["check", "--spec", str(bad)], capsys)
    assert code == 2
    assert "JSON syntax error" in err


def test_rank_exits_zero(spec2_file, capsys):
    code, out, _ = run_cli(["rank", "--spec", spec2_file], capsys)
    assert code == 0
    assert "individual_full_rank" in out
    assert "pairwise_full_rank" in out


# ---------------------------------------------------------------------------
# decompose


def test_decompose_symmetric_direction(spec2_file, capsys):
    code, out, err = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,1"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["signal_index", "gamma_bar_1", "gamma_bar_2"]
    table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert table[1][0] == pytest.approx(1.25, abs=1e-9)
    assert table[2][0] == pytest.approx(-1.25, abs=1e-9)
    assert "k*=4.0" in err


def test_decompose_infeasible_exits_one(spec2_file, capsys):
    code, _, err = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,0"], capsys
    )
    assert code == 1
    assert "infeasible" in err


def test_decompose_general_mode_coordinate_direction(spec2_file, capsys):
    code, out, _ = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,0", "--mode", "general"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    # the direction component never exceeds zero on any signal
    assert all(float(r[1]) <= 1e-9 for r in rows[1:])


def test_decompose_bad_lambda_exits_two(spec2_file, capsys):
    code, _, err = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,x"], capsys
    )
    assert code == 2
    assert "comma-separated" in err


def test_decompose_wrong_arity_exits_two(spec2_file, capsys):
    code, _, _ = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,1,1"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("lam", ["inf,1", "nan,1"])
def test_decompose_non_finite_lambda_exits_two(spec2_file, lam):
    # A subprocess with a timeout: an infinite direction used to spin in
    # LAPACK instead of returning.
    proc = subprocess.run(
        [sys.executable, "-m", "npdshare.cli", "decompose", "--spec", spec2_file,
         f"--lambda={lam}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "--lambda must be finite numbers" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "extra", [["--direction", "nan,1"], ["--v0", "1,nan"]], ids=["direction", "v0"]
)
def test_simulate_non_finite_vectors_exit_two(spec2_file, capsys, extra):
    code, out, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "promise", "--T", "5",
         *extra],
        capsys,
    )
    assert code == 2
    assert "must be finite numbers" in err
    assert out == ""


# ---------------------------------------------------------------------------
# payoffset


def test_payoffset_vertices_near_square(spec2_file, capsys):
    code, out, err = run_cli(
        ["payoffset", "--spec", spec2_file, "--directions", "360"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["v_1", "v_2"]
    verts = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.min(np.linalg.norm(verts - np.array([2.0, 2.0]), axis=1)) < 0.05
    assert "vertices" in err


def test_payoffset_writes_halfspaces_file(spec2_file, capsys, tmp_path):
    hs = tmp_path / "halfspaces.csv"
    code, _, _ = run_cli(
        ["payoffset", "--spec", spec2_file, "--directions", "16",
         "--halfspaces", str(hs)],
        capsys,
    )
    assert code == 0
    rows = parse_csv(hs.read_text())
    assert rows[0] == ["lambda_1", "lambda_2", "k", "best_action"]
    assert len(rows) == 17


def test_payoffset_three_firms_emits_halfspaces(spec3_file, capsys):
    code, out, _ = run_cli(
        ["payoffset", "--spec", spec3_file, "--directions", "16"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][:3] == ["lambda_1", "lambda_2", "lambda_3"]


def test_payoffset_determinism_byte_identical(spec2_file, capsys):
    _, out1, _ = run_cli(
        ["payoffset", "--spec", spec2_file, "--directions", "64"], capsys
    )
    _, out2, _ = run_cli(
        ["payoffset", "--spec", spec2_file, "--directions", "64"], capsys
    )
    assert out1 == out2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_single_trace(spec2_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "always_disclose",
         "--T", "5", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert out.startswith("# mode=public")
    rows = parse_csv(out)
    assert rows[0][0] == "period"
    assert len(rows) == 6
    assert "discounted average" in err


def test_simulate_trace_csv_round_trips(spec2_file, capsys, tmp_path):
    from npdshare import read_trace_csv

    path = tmp_path / "t.csv"
    code, _, _ = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "signal_trigger:2",
         "--T", "30", "--seed", "3", "--out", str(path)],
        capsys,
    )
    assert code == 0
    trace = read_trace_csv(path)
    assert trace.horizon == 30 and trace.seed == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--strategy", "promise", "--T", "300", "--seed", "6"],
        ["--strategy", "signal_trigger:3", "--mode", "private", "--T", "40",
         "--seed", "5"],
    ],
)
def test_simulate_trace_stdout_matches_out_file(spec_file, capsys, tmp_path, extra):
    spec = spec_file({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0},
                      "L": 1.0, "alpha": 0.9, "epsilon": 0.1, "delta": 0.999})
    argv = ["simulate", "--spec", spec, "--replicas", "1"] + extra
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / "t.csv"
    code, out_file, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 0 and out_file == ""
    assert out.encode() == path.read_bytes()


def test_simulate_seed_env_fallback(spec2_file, capsys, monkeypatch):
    monkeypatch.setenv("NPDSHARE_SEED", "9")
    _, out_env, _ = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "always_disclose",
         "--T", "3"],
        capsys,
    )
    assert "seed=9" in out_env
    # explicit flag wins over the environment
    _, out_flag, _ = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "always_disclose",
         "--T", "3", "--seed", "4"],
        capsys,
    )
    assert "seed=4" in out_flag


def test_simulate_spec_seed_beats_env(spec_file, capsys, monkeypatch):
    path = spec_file(
        {
            "n_firms": 2,
            "gain": {"kind": "linear", "G": 3.0},
            "L": 1.0,
            "alpha": 0.9,
            "epsilon": 0.1,
            "delta": 0.9,
            "seed": 7,
        }
    )
    monkeypatch.setenv("NPDSHARE_SEED", "9")
    _, out, _ = run_cli(
        ["simulate", "--spec", path, "--strategy", "always_conceal", "--T", "2"],
        capsys,
    )
    assert "seed=7" in out


def test_simulate_replicas_summary(spec2_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "always_disclose",
         "--T", "20", "--replicas", "5", "--seed", "1"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["replica", "payoff_1", "payoff_2"]
    assert len(rows) == 6
    assert "MC over 5 replicas" in err


def test_simulate_promise_halting_exits_one(spec2_file, capsys):
    code, _, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "promise",
         "--T", "2000", "--seed", "11"],
        capsys,
    )
    assert code == 1
    assert "discount too small" in err


def test_simulate_promise_monte_carlo(spec2_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "promise",
         "--T", "100", "--replicas", "4", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["replica", "payoff_1", "payoff_2", "halt_period"]
    assert len(rows) == 5


def test_simulate_unknown_strategy_exits_two(spec2_file, capsys):
    code, _, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", "bogus", "--T", "5"],
        capsys,
    )
    assert code == 2
    assert "always_disclose" in err  # lists what is available


def test_simulate_private_mode(spec3_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "--spec", spec3_file, "--strategy", "signal_trigger:5",
         "--T", "8", "--mode", "private", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert "b_1_2" in rows[0] and "message_3" in rows[0]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_shape_and_monotonicity(capsys):
    code, out, _ = run_cli(
        ["sweep", "--alpha-grid", "0.6:0.95:10", "--epsilon-grid",
         "0.05:0.4:10", "--L", "1.0"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["alpha", "epsilon", "gamma_bar_1_10"]
    assert len(rows) == 101
    grid = {}
    for a, e, v in rows[1:]:
        grid[(float(a), float(e))] = float(v)
    alphas = sorted({k[0] for k in grid})
    epsilons = sorted({k[1] for k in grid})
    for e in epsilons:  # sharper monitor (alpha up) shrinks the reward
        col = [grid[(a, e)] for a in alphas]
        assert all(x > y for x, y in zip(col, col[1:]))
    for a in alphas:  # noisier disclosure reading (epsilon up) inflates it
        row = [grid[(a, e)] for e in epsilons]
        assert all(x < y for x, y in zip(row, row[1:]))


def test_sweep_spot_value(capsys):
    code, out, _ = run_cli(
        ["sweep", "--alpha-grid", "0.9:0.9:1", "--epsilon-grid", "0.1:0.1:1"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[1][2]) == pytest.approx(1.25, abs=1e-12)


def test_sweep_rejects_out_of_range_grid(capsys):
    code, _, err = run_cli(
        ["sweep", "--alpha-grid", "0.4:0.9:3", "--epsilon-grid", "0.1:0.2:2"],
        capsys,
    )
    assert code == 2
    assert "alpha-grid" in err


def test_sweep_rejects_malformed_grid(capsys):
    code, _, err = run_cli(
        ["sweep", "--alpha-grid", "0.6-0.9-3", "--epsilon-grid", "0.1:0.2:2"],
        capsys,
    )
    assert code == 2


def test_sweep_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    _, out, _ = run_cli(
        ["sweep", "--alpha-grid", "0.6:0.9:4", "--epsilon-grid", "0.1:0.3:4"],
        capsys,
    )
    code, empty_out, _ = run_cli(
        ["sweep", "--alpha-grid", "0.6:0.9:4", "--epsilon-grid", "0.1:0.3:4",
         "--out", str(path)],
        capsys,
    )
    assert code == 0 and empty_out == ""
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# machine output and flags shared by the subcommands


@pytest.mark.parametrize(
    "spec_fixture, argv",
    [
        ("spec2_file", ["check"]),
        ("spec3_file", ["rank"]),
        ("spec2_file", ["decompose", "--lambda", "1,1"]),
        ("spec2_file", ["payoffset", "--directions", "16"]),
        ("spec3_file", ["payoffset", "--directions", "16"]),
        ("spec3_file", ["simulate", "--strategy", "signal_trigger:2", "--T", "20",
                        "--replicas", "2", "--seed", "3"]),
        ("spec2_file", ["simulate", "--strategy", "promise", "--T", "50",
                        "--replicas", "2", "--seed", "3"]),
        (None, ["sweep", "--alpha-grid", "0.6:0.9:3", "--epsilon-grid", "0.1:0.3:3"]),
    ],
    ids=["check", "rank", "decompose", "payoffset-polygon", "payoffset-halfspaces",
         "simulate-mc", "simulate-promise-mc", "sweep"],
)
def test_out_file_is_byte_identical_to_stdout(
    request, capsys, tmp_path, spec_fixture, argv
):
    if spec_fixture is not None:
        argv = argv + ["--spec", request.getfixturevalue(spec_fixture)]
    code, out, _ = run_cli(argv, capsys)
    assert out
    path = tmp_path / "out.txt"
    code_file, out_file, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code_file == code and out_file == ""
    assert path.read_bytes() == out.encode()


def test_decompose_infeasible_writes_no_out_file(spec2_file, capsys, tmp_path):
    path = tmp_path / "gamma.csv"
    code, out, err = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,0", "--out", str(path)],
        capsys,
    )
    assert code == 1 and out == ""
    assert "infeasible" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [["check"], ["rank"], ["decompose", "--lambda", "1,1"], ["payoffset"]],
    ids=lambda argv: argv[0],
)
def test_seed_is_rejected_outside_simulate(spec2_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", spec2_file, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "npdshare.cli", "sweep", "--alpha-grid",
         "0.9:0.9:1", "--epsilon-grid", "0.1:0.1:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1.2499999999999998" in proc.stdout
    assert proc.stdout.endswith("\n")
    assert "\r" not in proc.stdout
