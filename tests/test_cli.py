"""Command-line interface: exit codes, output contracts, determinism."""

import csv
import hashlib
import importlib
import io
import subprocess
import sys
from pathlib import Path

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
# its payoffs with numpy calls.
SIMULATE_GOLDEN = {
    "disclose-n2-public": (
        "linear2", "always_disclose --mode public --T 40 --seed 3",
        (0, 789, "65fa26e48c4d006082ad2575c7cd9c2e57b74ecc6eb36da1f26d0cc999073baa"),
    ),
    "conceal-n2-private": (
        "linear2", "always_conceal --mode private --T 30 --seed 2",
        (0, 817, "f42cd0be6b625f72771e4a040dec7631bd61d40771f0ac69c03164aeae278ec8"),
    ),
    "conceal-n3-public": (
        "concave3", "always_conceal --mode public --T 50 --seed 4",
        (0, 1277, "c0906d5314d6e0a373f8ffcd86a68dea8974e5bc087661819ca2a80ded39a8b7"),
    ),
    "trigger-n3-private": (
        "concave3", "signal_trigger:5 --mode private --T 60 --seed 11",
        (0, 2696, "23b55fdd607e79a0926e35bf10298d4ab9738951b96b51ef8ac03c5ab9019908"),
    ),
    "trigger-n4-public": (
        "linear4", "signal_trigger:7 --mode public --T 80 --seed 5",
        (0, 2472, "e65fc1ed4dc829bf705c76b425b9a515ee0a656e2fe8998104d67a02bb9b45ff"),
    ),
    "disclose-n4-private": (
        "linear4", "always_disclose --mode private --T 25 --seed 9",
        (0, 1909, "ad6a1564fd446f5d550fd777955e3909478fb7901f737f2cdacfbd4f03572e39"),
    ),
    "mc-disclose-n2-public": (
        "linear2", "always_disclose --mode public --replicas 4 --T 30 --seed 8",
        (0, 186, "ee2ae50de97e481104cc7e3aa31c281aa0f20b2b75a72d1fcb79f942883f95aa"),
    ),
    "mc-trigger-n2-private": (
        "linear2", "signal_trigger:3 --mode private --replicas 3 --T 40 --seed 12",
        (0, 144, "626819e1e44a028c091874733be35375da8bcaf69e8c7d462a03303fecdc6254"),
    ),
    "mc-trigger-n3-public": (
        "concave3", "signal_trigger:4 --mode public --replicas 5 --T 40 --seed 7",
        (0, 318, "fcd2542f03d47a1dee20e6d313d92b1f904f2aaf934b0ac3ccddda3132515ffb"),
    ),
    "mc-trigger-n4-private": (
        "linear4", "signal_trigger:6 --mode private --replicas 3 --T 20 --seed 1",
        (0, 270, "7f88ca5dc46cc0760e5be9477460fdfee4edf2131efa3e638cef3a833bd1d395"),
    ),
    "promise-n2-trace": (
        "patient2", "promise --T 1000 --direction=1.0,1.0 --seed 6",
        (0, 55238, "f7f3ecf41a3f3b544cb55608b53226e2ce6377f7ae052cf97d05ba0f7d0e389f"),
    ),
    "long-trigger-n3-public": (
        "concave3", "signal_trigger:inf --mode public --T 1100 --seed 13",
        (0, 26528, "19e5ee8f48d95df609f26933868dc2d294e196143d3ec82d9c0209aeef3d3479"),
    ),
    "long-disclose-n2-private": (
        "linear2", "always_disclose --mode private --T 1100 --seed 14",
        (0, 26528, "22aadf6506bb96d30b5682df0892315e4971693fcccbc6261ccba8577d40a13f"),
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_stdout_matches_recorded_digests(spec_file, capsys, name):
    spec, args, want = SIMULATE_GOLDEN[name]
    code, out, _ = run_cli(
        ["simulate", "--spec", spec_file(_SIMULATE_SPECS[spec]), "--strategy", *args.split()],
        capsys,
    )
    assert (code, len(out), hashlib.sha256(out.encode()).hexdigest()) == want


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
