"""Command-line interface: exit codes, output contracts, determinism."""

import csv
import hashlib
import importlib
import io
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from npdshare import SignalTrigger, load_game_spec, run_episode, write_trace_csv
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


@pytest.mark.parametrize("field, value, message", [
    ("gain", {"kind": "linear", "G": -1}, "linear gain G must be a finite number > 0, got -1.0"),
    ("gain", {"kind": "concave", "G": 3.0, "f": [0.0, 1.0, 0.5]},
     "concave gain table decreases at indices [2]"),
    ("L", -1, "loss must be a finite number > 0, got -1.0"),
    ("L", "x", "field 'L' must be a number, got 'x'"),
    ("n_firms", 2.5, "n_firms must be an integer >= 2, got 2.5"),
    ("n_firms", True, "n_firms must be an integer >= 2, got True"),
    ("n_firms", "2", "n_firms must be an integer >= 2, got '2'"),
    ("L", 10**400, "field 'L' must be a number within the float range"),
    ("gain", {"kind": "concave", "G": 3.0, "f": [0, 1, -10**400]},
     "field 'gain.f[2]' must be a number within the float range"),
])
def test_spec_file_errors_name_the_file_once(spec_file, capsys, field, value, message):
    obj = {"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
           "alpha": 0.9, "epsilon": 0.1, "delta": 0.9, field: value}
    path = spec_file(obj, name="g.json")
    code, out, err = run_cli(["check", "--spec", path], capsys)
    assert code == 2 and out == ""
    assert err == f"npdshare check: {path}: {message}\n"


@pytest.mark.parametrize("literal, message", [
    ("1e400", "field 'L' must be a number within the float range"),
    ("1" * 5000, "a JSON number has too many digits to read"),
])
def test_spec_file_numbers_past_the_float_range_exit_two(tmp_path, capsys, literal, message):
    # json reads 1e400 as inf, and refuses an integer past Python's digit
    # limit with a bare ValueError.
    path = tmp_path / "g.json"
    path.write_text('{"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": ' + literal
                    + ', "alpha": 0.9, "epsilon": 0.1, "delta": 0.9}')
    code, out, err = run_cli(["check", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"npdshare check: {path}: {message}\n"


def test_rank_exits_zero(spec2_file, capsys):
    code, out, _ = run_cli(["rank", "--spec", spec2_file], capsys)
    assert code == 0
    assert "individual_full_rank" in out
    assert "pairwise_full_rank" in out


# Exit codes, stdout lengths and digests of check --theorem both and rank,
# with numpy 2.4 and scipy 1.17.  The N = 2..5 entries were recorded from the
# LP-based extreme-profile test and the marginal-based C1-C3 checks that
# preceded the exact ones; linear6 and concave7 from the exact checks run one
# (profile, pair) at a time, before C2, C3 and pairwise rank became one array
# pass; concave8, the largest N at which C1-C3 run, from that array pass,
# before C1-C3 read the private kernel's gap.  concave7 exits 1 because its
# assumption A2' fails.
CHECK_RANK_GOLDEN = {
    "linear2": (
        {"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
         "alpha": 0.9, "epsilon": 0.1, "delta": 0.9},
        (1, 1581, "20e1e1d1a0e30f7c1cd89055c311da6151443ba34ae5bb2deb770985925390bf"),
        (0, 707, "84a36e66400403e3859f1cb50b51584ba1cad7dd2e96ef305af937067e93d317"),
    ),
    "concave3": (
        {"n_firms": 3, "gain": {"kind": "concave", "G": 3.0, "f": [0.0, 1.0, 1.8, 2.4]},
         "L": 1.0, "alpha": 0.8, "epsilon": 0.15, "delta": 0.9,
         "monitor_alpha": 0.85, "monitor_epsilon": 0.2},
        (0, 18105, "5fbe06dd8816eaaf1ff5306334478afe8d14c986e2145aac85afbb15d39a09d1"),
        (0, 3284, "2e5621018d4b23e88f76982e534fbdada287ab67a3296830ffc9305fbafc89ad"),
    ),
    "ties4": (
        {"n_firms": 4, "gain": {"kind": "concave", "G": 2.0, "f": [0.0, 1.0, 1.0, 1.0]},
         "L": 1.0, "alpha": 0.9, "epsilon": 0.1, "delta": 0.9},
        (1, 46666, "80f55d80156bdb17e7b99441c6fac750fb14b0f1cc2e0b02a47733c7bf26bc86"),
        (0, 8737, "ea3392d812cca4922d70cf77d2d1f6a987cdf7598cbd2b9ee951cee4a238990b"),
    ),
    "linear5": (
        {"n_firms": 5, "gain": {"kind": "linear", "G": 3.3}, "L": 1.2,
         "alpha": 0.87, "epsilon": 0.11, "delta": 0.95,
         "monitor_alpha": 0.8, "monitor_epsilon": 0.2},
        (0, 215928, "cbc88c52a9c3c715a26a5ed6531ac29a7040cfc0c02c465077312a063e84ca85"),
        (0, 41584, "d88dd3587522cfa57ab037aedf10f1e3f4199231c50b8711bdbb4607244c0c5b"),
    ),
    "linear6": (
        {"n_firms": 6, "gain": {"kind": "linear", "G": 2.6}, "L": 0.9,
         "alpha": 0.85, "epsilon": 0.12, "delta": 0.95},
        (0, 647618, "56d09147eab821864ada5a04b141412ef26a41ecff89ba2da62f23153b4cee40"),
        (0, 126527, "491d80825a73bcee226ee44db318d1f31ce25257b639d61d1f05c5eca36613e8"),
    ),
    "concave7": (
        {"n_firms": 7, "gain": {"kind": "concave", "G": 3.0,
                                "f": [0.0, 1.0, 1.5, 1.75, 1.875, 1.9375, 1.96875, 1.984375]},
         "L": 1.1, "alpha": 0.82, "epsilon": 0.13, "delta": 0.9,
         "monitor_alpha": 0.78, "monitor_epsilon": 0.18},
        (1, 1821037, "8a1e9f0a2ed62e47ad698f4fb034c1f21cef4973796f95ce7a7f847106e17e9b"),
        (0, 358294, "fdd65b05fb6cde060bd53978bafcae834cd1d204b0e8926269bbd1d17035a0e6"),
    ),
    "concave8": (
        {"n_firms": 8, "gain": {"kind": "concave", "G": 2.8,
                                "f": [0.0, 1.0, 1.6, 2.0, 2.3, 2.5, 2.65, 2.75, 2.8]},
         "L": 1.05, "alpha": 0.84, "epsilon": 0.14, "delta": 0.92,
         "monitor_alpha": 0.79, "monitor_epsilon": 0.17},
        (0, 4943041, "234a430f98d095fea831bf0ba7e7e69a1e744b3fc9f9970f6ff6235155093eff"),
        (0, 983087, "1803552175206a864eda6b16655ae10cfd95812cd3bd07788b36098526811bdd"),
    ),
}


@pytest.mark.parametrize("name", sorted(CHECK_RANK_GOLDEN))
def test_check_and_rank_stdout_match_recorded_digests(spec_file, capsys, name):
    spec, check, rank = CHECK_RANK_GOLDEN[name]
    path = spec_file(spec)
    for argv, want in ((["check", "--spec", path, "--theorem", "both"], check),
                       (["rank", "--spec", path], rank)):
        code, out, _ = run_cli(argv, capsys)
        assert (code, len(out), hashlib.sha256(out.encode()).hexdigest()) == want, argv[0]


def test_check_and_rank_leave_scipy_unloaded(spec_file, spec2_file, spec3_file):
    # No subcommand runs an LP, so none imports scipy: check, rank and
    # payoffset decide in closed form, decompose's orthogonal mode falls back
    # to the per-bit map (the (0, 1) command, where the minimum-norm map
    # misses), general mode on a coordinate direction is the own-bit map,
    # and simulate and sweep solve nothing.
    coarse = spec_file({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                        "alpha": 0.6, "epsilon": 0.3, "delta": 0.9}, name="coarse.json")
    code = (
        "import sys\n"
        "import npdshare.cli\n"
        "two, three, coarse = sys.argv[1:]\n"
        "for argv in (['check', '--spec', three, '--theorem', 'both'],\n"
        "             ['rank', '--spec', three],\n"
        "             ['payoffset', '--spec', two, '--directions', '36'],\n"
        "             ['payoffset', '--spec', three, '--directions', '16'],\n"
        "             ['decompose', '--spec', two, '--lambda', '1,1'],\n"
        "             ['decompose', '--spec', two, '--lambda', '1,1', '--mode', 'general'],\n"
        "             ['decompose', '--spec', two, '--lambda', '1,0', '--mode', 'general'],\n"
        "             ['decompose', '--spec', three, '--lambda', '0,-1,0', '--mode', 'general'],\n"
        "             ['decompose', '--spec', coarse, '--lambda', '0.5,2', '--action', '0,1'],\n"
        "             ['simulate', '--spec', two, '--strategy', 'promise', '--T', '50',\n"
        "              '--replicas', '8'],\n"
        "             ['sweep', '--alpha-grid', '0.6:0.9:3', '--epsilon-grid', '0.1:0.3:3',\n"
        "              '--L', '1.0']):\n"
        "    assert npdshare.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, spec2_file, spec3_file, coarse],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mode=per_bit, binding=[False, True]" in proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    code, out, err = run_cli(
        ["decompose", "--spec", spec2_file, "--lambda", "1,0", "--mode", "general"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    # the direction component never exceeds zero on any signal
    assert all(float(r[1]) <= 1e-9 for r in rows[1:])
    # k*'s level 2 - 1 * 0.1 / 0.8, printed as a Python float
    assert err.startswith("decompose: k*=1.875 at action=(1, 1), mode=own_bit, ")


def test_decompose_refuses_nine_firms(spec_file, capsys):
    path = spec_file({"n_firms": 9, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                      "alpha": 0.9, "epsilon": 0.1, "delta": 0.9})
    code, out, err = run_cli(
        ["decompose", "--spec", path, "--lambda", ",".join(["1"] * 9)], capsys
    )
    assert code == 1
    assert out == ""
    assert "capped at N <= 8" in err


_NINE_FIRMS = {"n_firms": 9, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
               "alpha": 0.9, "epsilon": 0.1, "delta": 0.9}


@pytest.mark.parametrize(
    "argv",
    [["check"], ["rank"], ["payoffset", "--directions", "16"],
     ["simulate", "--strategy", "promise", "--T", "5"]],
    ids=["check", "rank", "payoffset", "simulate-promise"],
)
def test_profile_listing_cap_exits_one_at_nine_firms(spec_file, capsys, argv):
    # A CapacityError exits 1 with nothing on stdout.
    path = spec_file(_NINE_FIRMS)
    code, out, err = run_cli([argv[0], "--spec", path, *argv[1:]], capsys)
    assert code == 1
    assert out == ""
    assert "capped at N <= 8" in err


def test_simulate_has_no_cap_at_nine_firms(spec_file, capsys):
    path = spec_file(_NINE_FIRMS)
    code, out, _ = run_cli(
        ["simulate", "--spec", path, "--strategy", "always_disclose", "--T", "5"], capsys
    )
    assert code == 0
    assert len(parse_csv(out)) == 6


def _linear_firms(n):
    return {"n_firms": n, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
            "alpha": 0.9, "epsilon": 0.1, "delta": 0.95}


@pytest.mark.parametrize("extra", [[], ["--replicas", "2"]], ids=["trace", "mc"])
def test_simulate_public_play_is_capped_at_63_firms(spec_file, capsys, extra):
    # A 64-bit signal index does not fit the trace's int64 column: public
    # play refuses N = 64 with CapacityError (exit 1, nothing on stdout).
    code, out, err = run_cli(
        ["simulate", "--spec", spec_file(_linear_firms(64)), "--strategy",
         "always_disclose", "--T", "3", "--seed", "3", *extra], capsys
    )
    assert code == 1
    assert out == ""
    assert "capped at N <= 63" in err


@pytest.mark.parametrize("extra", [[], ["--replicas", "2"]], ids=["trace", "mc"])
def test_simulate_trigger_table_cap_exits_one(spec2_file, capsys, extra):
    # 2**18 states by 3 counts is over the count table cap: CapacityError.
    code, out, err = run_cli(
        ["simulate", "--spec", spec2_file, "--strategy", f"signal_trigger:{2**18}",
         "--T", "3", *extra], capsys
    )
    assert code == 1
    assert out == ""
    assert "count table" in err and "math.inf never fires" in err


def test_simulate_public_index_is_exact_at_63_firms(spec_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "--spec", spec_file(_linear_firms(63)), "--strategy",
         "always_disclose", "--T", "3", "--seed", "3"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    column = rows[0].index("signal_index")
    indices = [int(row[column]) for row in rows[1:]]
    assert all(0 <= x < 2**63 for x in indices)
    assert any(x >> 62 for x in indices)


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


def test_decompose_general_level_is_clamped_to_its_bound(spec_file, capsys):
    # README's spec.  lambda . u(0, 0) = 0 bounds every map's level.  The
    # zero rule drops the 1e-16 component, firm 1 gains nothing by
    # deviating, so general mode is the orthogonal map at that bound (an LP
    # once returned its optimum 0 as -1.4e-16 and printed k* > 0).
    path = spec_file({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                      "alpha": 0.9, "epsilon": 0.1, "delta": 0.99,
                      "monitor_alpha": 0.9, "monitor_epsilon": 0.1, "seed": 7})
    code, _, err = run_cli(
        ["decompose", "--spec", path, "--lambda=1,-1.2246467991473532e-16",
         "--action", "0,0", "--mode", "general"],
        capsys,
    )
    assert code == 0
    assert err.startswith("decompose: k*=0.0 at action=(0, 0), mode=equality")


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
    assert "--lambda must be finite, got" in proc.stderr
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
    assert f"{extra[0]} must be finite, got" in err
    assert out == ""


@pytest.mark.parametrize("replicas", ["1", "2"])
def test_simulate_promise_direction_defaults_to_ones(spec3_file, capsys, replicas):
    # At N = 3 an omitted --direction is (1, 1, 1), not a two-firm default.
    argv = ["simulate", "--spec", spec3_file, "--strategy", "promise", "--T", "50",
            "--replicas", replicas, "--seed", "4"]
    default = run_cli(argv, capsys)
    assert default[0] == 0
    assert default == run_cli(argv + ["--direction", "1,1,1"], capsys)


def test_simulate_promise_default_direction_keeps_two_firm_bytes(spec_file, capsys):
    path = spec_file({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                      "alpha": 0.9, "epsilon": 0.1, "delta": 0.99})
    argv = ["simulate", "--spec", path, "--strategy", "promise", "--T", "200",
            "--seed", "5"]
    default = run_cli(argv, capsys)
    assert default[0] == 0 and len(parse_csv(default[1])) == 201
    assert default == run_cli(argv + ["--direction", "1,1"], capsys)


@pytest.mark.parametrize("strategy", ["always_disclose", "signal_trigger:3"])
@pytest.mark.parametrize(
    "extra", [["--direction", "5"], ["--v0", "1,1,1"], ["--replicas", "2", "--v0", "1,1,1"]],
    ids=["direction", "v0", "v0-mc"],
)
def test_simulate_refuses_promise_flags_for_other_strategies(
    spec3_file, capsys, strategy, extra
):
    code, out, err = run_cli(
        ["simulate", "--spec", spec3_file, "--strategy", strategy, "--T", "5", *extra],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "only to the promise strategy" in err


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


# Digests of payoffset stdout recorded from the exhaustive k* search (every
# profile solved on every direction), with numpy 2.4 and scipy 1.17.
PAYOFFSET_GOLDEN = {
    "linear2": (
        {"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
         "alpha": 0.9, "epsilon": 0.1, "delta": 0.9},
        360,
        "1a61db37c980a208f8c6798ce3057fcb577bca9e26d9b4a09c29320a1352c5ac",
    ),
    "concave3": (
        {"n_firms": 3, "gain": {"kind": "concave", "G": 3.0, "f": [0.0, 1.0, 1.8, 2.4]},
         "L": 1.0, "alpha": 0.8, "epsilon": 0.15, "delta": 0.9,
         "monitor_alpha": 0.85, "monitor_epsilon": 0.2},
        32,
        "51fd1495457e6f196343ca040078e8bcac9c3112dafdf736d6f406a977cd9458",
    ),
}


@pytest.mark.parametrize("name", sorted(PAYOFFSET_GOLDEN))
def test_payoffset_stdout_matches_recorded_digest(spec_file, capsys, name):
    spec, directions, digest = PAYOFFSET_GOLDEN[name]
    code, out, _ = run_cli(
        ["payoffset", "--spec", spec_file(spec), "--directions", str(directions)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# simulate


_SIMULATE_SPECS = {
    "linear2": {"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                "alpha": 0.9, "epsilon": 0.1, "delta": 0.9},
    "patient2": {"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                 "alpha": 0.9, "epsilon": 0.1, "delta": 0.999},
    "concave3": {"n_firms": 3, "gain": {"kind": "concave", "G": 3.0, "f": [0.0, 1.0, 1.8, 2.4]},
                 "L": 1.0, "alpha": 0.8, "epsilon": 0.15, "delta": 0.9,
                 "monitor_alpha": 0.85, "monitor_epsilon": 0.2},
    "linear4": {"n_firms": 4, "gain": {"kind": "linear", "G": 2.5}, "L": 1.2,
                "alpha": 0.85, "epsilon": 0.12, "delta": 0.95,
                "monitor_alpha": 0.8, "monitor_epsilon": 0.2},
}

# Exit codes, stdout lengths and digests of simulate runs (single-episode
# trace CSVs and Monte Carlo summaries, public and private, N = 2..4, the
# promise trace, and 1100-period runs that cross a draw block), recorded
# with numpy 2.4 from the engine that selected each period's bits and summed
# its payoffs with numpy calls.  A Monte Carlo run also pins the digest of
# its stderr summary (mean, stderr and truncation bias bound), recorded from
# the per-replica loop; the promise Monte Carlo runs (per-replica rows and
# halt periods, some replicas halting and some not) were recorded from the
# kernel that tested the region every period on float64 uniforms.  Every
# digest was re-recorded when a stream's period t moved to word t % 4 of
# the Philox block at counter t // 4 (``rng``).
SIMULATE_GOLDEN = {
    "disclose-n2-public": (
        "linear2", "always_disclose --mode public --T 40 --seed 3",
        (0, 789, "2672880dcf5e228b3a69e8a413721723be4530b46ad26ef22a69feb750ee1c32"),
    ),
    "conceal-n2-private": (
        "linear2", "always_conceal --mode private --T 30 --seed 2",
        (0, 817, "deb3823a0f3b7427b5eb89ec1a8d124e49f8230544643a6f4ba6246a648603c7"),
    ),
    "conceal-n3-public": (
        "concave3", "always_conceal --mode public --T 50 --seed 4",
        (0, 1277, "f94268ac03fe61d38f2783554e530ee379b48eb99b7372ad5e72ae07b0e97afb"),
    ),
    "trigger-n3-private": (
        "concave3", "signal_trigger:5 --mode private --T 60 --seed 11",
        (0, 2696, "f81261c01391d81e8bc9a0e18ddc89ed1846cb7c7e00c688cbb679482bff7d3f"),
    ),
    "trigger-n4-public": (
        "linear4", "signal_trigger:7 --mode public --T 80 --seed 5",
        (0, 2481, "1e191cb634f429bf5c74b0aefe3f84dced99c2ee76aec97c9468223504a51c32"),
    ),
    "disclose-n4-private": (
        "linear4", "always_disclose --mode private --T 25 --seed 9",
        (0, 1909, "ad27cf91332e9e15736045dbe01bd6c99d230a2c1769940975c3e98b859a4ddb"),
    ),
    "mc-disclose-n2-public": (
        "linear2", "always_disclose --mode public --replicas 4 --T 30 --seed 8",
        (0, 186, "ee2ae50de97e481104cc7e3aa31c281aa0f20b2b75a72d1fcb79f942883f95aa",
         "e7d0c5ebe5aa334e522f5ccbcbebaa01130e2e20c5a5daefcae2b44a06800984"),
    ),
    "mc-trigger-n2-private": (
        "linear2", "signal_trigger:3 --mode private --replicas 3 --T 40 --seed 12",
        (0, 146, "5470baf3610f7eebed71dfded6852e03a3c7ebfa2d77103d975e9266bd625fec",
         "f6fe48e0916eade1606c0af827ccd227726e3b6b6a62f4b6049fefab6fe54605"),
    ),
    "mc-trigger-n3-public": (
        "concave3", "signal_trigger:4 --mode public --replicas 5 --T 40 --seed 7",
        (0, 315, "1fea38cb049fe702a01193d90f4ec25b1d8a03371f3ccfc1100107241ab06f9f",
         "b019c021906d8f405a63a311e2986238ff48bbd2d130f26063f2f69828c0f1d0"),
    ),
    "mc-trigger-n4-private": (
        "linear4", "signal_trigger:6 --mode private --replicas 3 --T 20 --seed 1",
        (0, 274, "0e7584fb1b456c66b246dd3f39a71ad19f252f04ea8ac188b2238d1bba54443e",
         "6b5905ec21bb034d17262f1d0b411d0653fa6280559b9a0e7874cd828cc3d0e5"),
    ),
    "mc-promise-n2": (
        "linear2", "promise --replicas 60 --T 30 --seed 5",
        (0, 2618, "d15b5a976405980d0bb0b2e456f62eaf9e0a637b8a7aba984f42f0ae43475a98",
         "a5a3cb7b183160afdf028ee8fc53de1cd79c423fade5573778cab5fea447f4fa"),
    ),
    "mc-promise-n3": (
        "concave3", "promise --replicas 60 --T 40 --seed 5",
        (0, 3661, "75faecc8c8ba71d71717c231256db605d191f1e9bc6c33bd69e521c85dbe6b5f",
         "719e03b02f4fc33b15f55f2e07150e7676d6811353c9dac0cd73e5625cc0a204"),
    ),
    "promise-n2-trace": (
        "patient2", "promise --T 1000 --direction=1.0,1.0 --seed 6",
        (0, 55229, "6e57416cab163015c5fde0abe45f22c3c428d2e42dc73e7811ac5810a34520f5"),
    ),
    "long-trigger-n3-public": (
        "concave3", "signal_trigger:inf --mode public --T 1100 --seed 13",
        (0, 26528, "cbd607264a0b38ed0bd91c2e84ae331056cf4343d2c19d1af534bd618b8b9865"),
    ),
    "long-disclose-n2-private": (
        "linear2", "always_disclose --mode private --T 1100 --seed 14",
        (0, 26528, "ae2370f924b479fefffa8a7b3204eb50af4d587cbd9370a9a42609bb9b3af553"),
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_stdout_matches_recorded_digests(spec_file, capsys, name):
    spec, args, want = SIMULATE_GOLDEN[name]
    code, out, err = run_cli(
        ["simulate", "--spec", spec_file(_SIMULATE_SPECS[spec]), "--strategy", *args.split()],
        capsys,
    )
    got = (code, len(out), hashlib.sha256(out.encode()).hexdigest())
    if len(want) == 4:
        got += (hashlib.sha256(err.encode()).hexdigest(),)
    assert got == want


def test_simulate_promise_at_a_tiny_delta_prints_no_warning(spec_file, capsys):
    # At delta = 1e-50 every replica leaves at period 1 and the kernel's
    # later steps in its block overflow; stderr carries the summary alone.
    spec = dict(_SIMULATE_SPECS["linear2"], delta=1e-50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["simulate", "--spec", spec_file(spec), "--strategy", "promise",
             "--replicas", "5", "--T", "20"],
            capsys,
        )
    assert code == 0 and not caught
    assert [row[-1] for row in parse_csv(out)[1:]] == ["1"] * 5
    assert err.count("\n") == 1 and err.startswith("simulate: promise MC over 5 replicas")


def test_mc_csv_formats_each_float_as_its_repr():
    # Distinct totals are formatted once, keyed by their bits: 0.0 and -0.0
    # (equal as floats) and NaNs of either sign keep their own repr, and
    # repeated values print the same text.
    from npdshare import cli
    from npdshare.engine import MonteCarloResult

    nan = float("nan")
    col = [1.5, -0.0, 0.0, 1.5, nan, -nan, 0.1 + 0.2, -0.0, float("inf"), 5e-324]
    per = np.array([col, col[::-1]]).T
    mc = MonteCarloResult(
        mean=np.zeros(2), stderr=np.zeros(2), per_replica=per, replicas=len(col),
        horizon=1, base_seed=0, truncation_bias_bound=0.0, backend="numpy",
        halt_periods=np.arange(len(col)) - 1,
    )
    fh = io.StringIO()
    cli._write_mc(fh, mc)
    want = ["replica,payoff_1,payoff_2,halt_period"] + [
        f"{r},{a!r},{b!r},{r - 1}" for r, (a, b) in enumerate(zip(col, col[::-1]))
    ]
    assert fh.getvalue() == "\n".join(want) + "\n"
    assert "-0.0" in fh.getvalue() and ",0.0," in fh.getvalue()


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


def test_simulate_promise_raise_without_a_suggested_delta_exits_one(spec_file, capsys):
    # From v0 = (0, 4) no replayed delta keeps the walk inside, so the
    # message gives the period and no "replaying" hint.
    path = spec_file({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                      "alpha": 0.9, "epsilon": 0.1, "delta": 0.99})
    code, out, err = run_cli(
        ["simulate", "--spec", path, "--strategy", "promise", "--v0", "0,4",
         "--T", "100", "--seed", "0"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == (
        "npdshare simulate: discount too small: promise update at period 3 leaves the "
        "admissible region at delta=0.99\n"
    )


_SIMULATE = ["simulate", "--strategy", "always_disclose", "--T", "5"]
_SWEEP = ["sweep", "--alpha-grid", "0.6:0.9:3", "--epsilon-grid", "0.1:0.2:2"]


@pytest.mark.parametrize("argv, seed_env, named", [
    pytest.param(["decompose", "--lambda", "1,1", "--action", "1,2"], None, "--action",
                 id="action-not-a-bit"),
    pytest.param(_SWEEP + ["--alpha-grid", "0.6:0.9"], None, "--alpha-grid", id="grid-two-parts"),
    pytest.param(_SWEEP + ["--alpha-grid", "0.6:x:3"], None, "--alpha-grid", id="grid-not-a-number"),
    pytest.param(_SWEEP + ["--alpha-grid", "0.6:0.9:0"], None, "--alpha-grid", id="grid-no-steps"),
    pytest.param(_SWEEP + ["--epsilon-grid", "0.2:0.1:2"], None, "--epsilon-grid",
                 id="grid-max-below-min"),
    pytest.param(_SWEEP + ["--epsilon-grid", "0.1:0.6:3"], None, "--epsilon-grid",
                 id="epsilon-grid-outside"),
    pytest.param(_SWEEP + ["--alpha-grid", "0.5:0.9:3"], None, "--alpha-grid",
                 id="alpha-grid-outside"),
    pytest.param(_SWEEP + ["--L", "0"], None, "--L", id="loss-0"),
    pytest.param(_SWEEP + ["--L", "nan"], None, "--L", id="loss-nan"),
    pytest.param(_SIMULATE, "x", "NPDSHARE_SEED", id="env-seed-not-an-integer"),
    pytest.param(_SIMULATE, "-5", "NPDSHARE_SEED", id="env-seed-negative"),
    pytest.param(_SIMULATE + ["--seed=-1"], None, "--seed", id="seed-negative"),
    pytest.param(_SIMULATE + ["--seed", str(2**64)], None, "--seed", id="seed-2-64"),
    pytest.param(["payoffset", "--directions", "7"], None, "--directions", id="directions-7"),
    pytest.param(_SIMULATE + ["--strategy", "signal_trigger:x"], None, "signal_trigger",
                 id="trigger-not-a-number"),
    pytest.param(_SIMULATE + ["--T", "0"], None, "--T", id="horizon-0"),
    pytest.param(_SIMULATE + ["--replicas", "0"], None, "--replicas", id="replicas-0"),
    pytest.param(_SIMULATE + ["--strategy", "promise", "--mode", "private"], None, "promise",
                 id="promise-private"),
    pytest.param(_SIMULATE + ["--strategy", "promise", "--v0", "1,1,1"], None, "--v0",
                 id="v0-length"),
    pytest.param(_SIMULATE + ["--strategy", "promise", "--direction", "1"], None, "--direction",
                 id="direction-length"),
])
def test_usage_errors_exit_two_and_name_the_flag(spec2_file, capsys, monkeypatch, argv,
                                                 seed_env, named):
    if seed_env is None:
        monkeypatch.delenv("NPDSHARE_SEED", raising=False)
    else:
        monkeypatch.setenv("NPDSHARE_SEED", seed_env)
    spec = [] if argv[0] == "sweep" else ["--spec", spec2_file]
    code, out, err = run_cli(argv + spec, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"npdshare {argv[0]}: ") and named in err


@pytest.mark.parametrize("source", ["--seed", "NPDSHARE_SEED"])
def test_an_out_of_range_seed_names_only_its_source(spec2_file, capsys, monkeypatch, source):
    # The spec has no seed field, so the environment variable is read when
    # the flag is absent; a spec file's seed is refused with the file's name.
    other = "NPDSHARE_SEED" if source == "--seed" else "--seed"
    monkeypatch.setenv("NPDSHARE_SEED", "-5" if source == "NPDSHARE_SEED" else "1")
    flag = ["--seed=-5"] if source == "--seed" else []
    code, out, err = run_cli(_SIMULATE + flag + ["--spec", spec2_file], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"npdshare simulate: {source} must lie in [0, ")
    assert err.endswith("got -5\n") and other not in err


def test_simulate_at_the_last_seed_prints_its_episode(spec2_file, capsys, tmp_path):
    last = 2**64 - 1
    code, out, _ = run_cli(["simulate", "--spec", spec2_file, "--strategy", "signal_trigger:2",
                            "--T", "20", "--seed", str(last)], capsys)
    assert code == 0
    path = tmp_path / "trace.csv"
    write_trace_csv(run_episode(load_game_spec(spec2_file).spec,
                                [SignalTrigger(2), SignalTrigger(2)], 20, last), path)
    assert out == path.read_text()
    assert out.startswith(f"# mode=public delta=0.9 seed={last} replica=0 ")


def _readme_quote(start: str) -> str:
    """The backquoted text in README that begins with ``start``, its line
    breaks read as spaces."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.findall(r"`([^`]*)`", readme)
    found = [q for q in quoted if q.startswith(start)]
    assert len(found) == 1, f"README quotes {len(found)} messages starting {start!r}"
    return found[0]


@pytest.mark.parametrize("argv, seed_env, start", [
    pytest.param(["simulate", "--strategy", "promise", "--v0", "1,nan"], None, "--v0 must",
                 id="v0-nan"),
    pytest.param(_SIMULATE[:3] + ["--T", "0"], None, "--T must", id="horizon-0"),
    pytest.param(["sweep", "--alpha-grid", "0.6:1.5:2", "--epsilon-grid", "0.1:0.2:2"], None,
                 "--alpha-grid max must", id="alpha-grid-max-1.5"),
    pytest.param(_SIMULATE, "-5", "NPDSHARE_SEED must", id="env-seed-negative"),
])
def test_readme_refusal_examples_are_what_the_cli_prints(spec2_file, capsys, monkeypatch, argv,
                                                         seed_env, start):
    # README's exit-code paragraph quotes these messages word for word.
    if seed_env is None:
        monkeypatch.delenv("NPDSHARE_SEED", raising=False)
    else:
        monkeypatch.setenv("NPDSHARE_SEED", seed_env)
    spec = [] if argv[0] == "sweep" else ["--spec", spec2_file]
    code, out, err = run_cli(argv + spec, capsys)
    assert code == 2 and out == ""
    assert err == f"npdshare {argv[0]}: {_readme_quote(start)}\n"


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


@pytest.mark.parametrize(
    "extra",
    [
        ["--L", "nan"],
        ["--L", "inf"],
        ["--epsilon-grid", "0.1:inf:2"],
        ["--epsilon-grid", "nan:0.2:2"],
        ["--alpha-grid", "0.6:nan:2"],
    ],
    ids=["L-nan", "L-inf", "grid-max-inf", "grid-min-nan", "grid-max-nan"],
)
def test_sweep_rejects_non_finite_input(capsys, extra):
    argv = ["sweep", "--alpha-grid", "0.6:0.9:3", "--epsilon-grid", "0.1:0.2:2"]
    code, out, err = run_cli(argv + extra, capsys)
    assert code == 2
    assert "finite" in err
    assert out == ""


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


# One successful command line per subcommand and output shape, with the
# fixture naming its spec file (None for sweep, which reads no spec).
_OUTPUT_CASES = pytest.mark.parametrize(
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


@_OUTPUT_CASES
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


@_OUTPUT_CASES
def test_unwritable_out_path_exits_two(request, capsys, tmp_path, spec_fixture, argv):
    if spec_fixture is not None:
        argv = argv + ["--spec", request.getfixturevalue(spec_fixture)]
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"npdshare {argv[0]}: cannot write {path}"), err
    assert not path.parent.exists()


def test_unwritable_halfspaces_path_exits_two(spec3_file, capsys, tmp_path):
    path = tmp_path / "missing" / "hs.csv"
    code, out, err = run_cli(
        ["payoffset", "--spec", spec3_file, "--directions", "16",
         "--halfspaces", str(path)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"npdshare payoffset: cannot write {path}"), err


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


def test_main_builds_its_parser_once(spec2_file, capsys):
    from npdshare import cli

    cli._build_parser.cache_clear()
    runs = [
        (["check", "--spec", spec2_file, "--theorem", "flm"], 0),
        (["decompose", "--spec", spec2_file, "--lambda", "1,0"], 1),
        (["decompose", "--spec", spec2_file, "--lambda", "1,0", "--mode", "general"], 0),
        (["decompose", "--spec", spec2_file, "--lambda", "1,x"], 2),
    ]
    for argv, want in runs:
        assert run_cli(argv, capsys)[0] == want, argv
    with pytest.raises(SystemExit) as exc:
        main(["payoffset", "--spec", spec2_file, "--seed", "1"])
    assert exc.value.code == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(runs))


# ---------------------------------------------------------------------------
# entry point


def test_installed_entry_point_runs(capsys, monkeypatch):
    argv = ["sweep", "--alpha-grid", "0.9:0.9:1", "--epsilon-grid", "0.1:0.1:1"]
    proc = subprocess.run(
        [sys.executable, "-m", "npdshare.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1.2499999999999998" in proc.stdout
    assert proc.stdout.endswith("\n")
    assert "\r" not in proc.stdout
    # README's command lines run the console script that [project.scripts]
    # installs: resolve its "module:function" entry as an installer does and
    # call it as the script does, with the command line in sys.argv.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["npdshare"]
    module, _, function = entry.partition(":")
    script = getattr(importlib.import_module(module), function)
    monkeypatch.setattr(sys, "argv", ["npdshare", *argv])
    assert script() == 0
    assert capsys.readouterr().out == proc.stdout
