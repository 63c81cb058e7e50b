"""Command-line harness tests: parsing, reports, exit codes, determinism."""

import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from tritshare import fidelity, parse_secret, run_command, xi_state
from tritshare.cli import _parse_secret_checked
from tritshare.errors import NotNormalized, ParseError
from tritshare.reporting import REPORT_SCHEMA, decode_state, validate_report

import jsonschema


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def strip_timing(text):
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


# ---------------------------------------------------------------------------
# parse_secret


def test_parse_secret_basis_ket():
    s = parse_secret("1,0;0,0;0,0")
    assert np.array_equal(s.amplitudes, np.array([1, 0, 0], dtype=complex))


def test_parse_secret_uniform_decimals():
    s = parse_secret("0.57735,0;0.57735,0;0.57735,0")
    assert fidelity(s, xi_state(0)) > 1 - 1e-5


def test_parse_secret_two_components_fails():
    with pytest.raises(ParseError):
        parse_secret("1,0;1,0")


def test_parse_secret_bad_number():
    with pytest.raises(ParseError):
        parse_secret("1,0;0,zero;0,0")


def test_parse_secret_gross_norm_rejected():
    with pytest.raises(NotNormalized):
        parse_secret("0.6,0;0,0.8;0.1,0")  # squared norm 1.01 > 1e-3 drift


def test_parse_secret_small_drift_renormalizes_with_warning():
    # 3 * 0.5774^2 = 1.00017: inside the renormalize-with-warning band
    state, warning = _parse_secret_checked("0.5774,0;0.5774,0;0.5774,0", None)
    assert warning is not None and "renormalized" in warning
    assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0, abs=1e-15)


def test_parse_secret_random_needs_rng():
    with pytest.raises(ParseError):
        parse_secret("random")
    s = parse_secret("random", np.random.default_rng(3))
    assert s.num_qutrits == 1


# ---------------------------------------------------------------------------
# share


def test_share_reports_perfect_fidelity():
    code, out, err = run_cli(["share", "--agents", "2", "--designate", "2", "--secret", "random", "--seed", "7"])
    assert code == 0, err
    report = json.loads(out)
    validate_report(report)
    assert report["command"] == "share"
    assert report["config"]["seed"] == 7
    assert report["results"]["transcript"]["fidelity_to_secret"] == pytest.approx(1.0, abs=1e-10)
    kinds = [a["kind"] for a in report["results"]["transcript"]["announcements"]]
    assert kinds[0] == "bell_result" and kinds[1] == "designation"


def test_share_secret_roundtrips_losslessly():
    code, out, _ = run_cli(["share", "--secret", "random", "--seed", "11"])
    assert code == 0
    report = json.loads(out)
    rebuilt = decode_state(report["config"]["secret"], 1)
    recon = decode_state(report["results"]["transcript"]["reconstructed"], 1)
    assert fidelity(rebuilt, recon) == pytest.approx(1.0, abs=1e-10)
    # dict -> text -> dict is exact
    assert json.loads(json.dumps(report)) == report


def test_share_literal_secret_with_warning():
    code, out, _ = run_cli(["share", "--secret", "0.5774,0;0.5774,0;0.5774,0", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert len(report["warnings"]) == 1


def test_share_rejects_bad_designate():
    code, _, err = run_cli(["share", "--designate", "5", "--seed", "1"])
    assert code == 2
    assert "error" in err


def test_share_rejects_gross_secret():
    code, _, err = run_cli(["share", "--secret", "0.6,0;0,0.8;0.1,0", "--seed", "1"])
    assert code == 2


# ---------------------------------------------------------------------------
# check-channel


def test_check_channel_honest_exits_zero():
    code, out, _ = run_cli(["check-channel", "--rounds", "300", "--basis", "random", "--seed", "5"])
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    verdict = report["results"]["verdict"]
    assert not verdict["disturbed"]
    assert verdict["failures_computational"] == 0 and verdict["failures_fourier"] == 0


def test_check_channel_with_eve_exits_four():
    code, out, _ = run_cli(
        ["check-channel", "--rounds", "300", "--basis", "random", "--eve", "intercept-computational", "--seed", "3"]
    )
    assert code == 4
    report = json.loads(out)
    validate_report(report)
    assert report["results"]["verdict"]["disturbed"]
    assert report["results"]["verdict"]["failure_rate_fourier"] > 0.5


# ---------------------------------------------------------------------------
# attack


def test_attack_inside_exact_via_cli():
    code, out, _ = run_cli(["attack", "--model", "inside", "--trials", "2000", "--seed", "1", "--comparison", "exact"])
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["results"]["stats"]["success_rate"] == pytest.approx(0.5, abs=0.03)


def test_attack_inside_forced_designation():
    code, out, _ = run_cli(
        ["attack", "--model", "inside", "--trials", "200", "--seed", "2", "--designate", "1"]
    )
    assert code == 0
    stats = json.loads(out)["results"]["stats"]
    assert stats["success_rate"] == 1.0 and stats["detection_rate"] == 0.0


def test_attack_inside_genuine_fake_is_noop():
    code, out, _ = run_cli(["attack", "--model", "inside", "--trials", "200", "--seed", "2", "--fake", "genuine"])
    assert code == 0
    assert json.loads(out)["results"]["stats"]["detections"] == 0


def test_attack_outside_via_cli():
    code, out, _ = run_cli(
        ["attack", "--model", "outside", "--trials", "1500", "--eve", "intercept-computational", "--basis", "random", "--seed", "4"]
    )
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["results"]["stats"]["detection_rate"] == pytest.approx(1 / 3, abs=0.04)


def test_attack_csv_single_row():
    code, out, _ = run_cli(["attack", "--model", "inside", "--trials", "100", "--seed", "9", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header == ["command", "model", "trials", "attacker_successes", "detections", "success_rate", "detection_rate", "seed"]
    row = lines[1].split(",")
    assert row[0] == "attack" and row[1] == "inside" and row[2] == "100"


def test_csv_unsupported_for_share():
    code, _, err = run_cli(["share", "--seed", "1", "--format", "csv"])
    assert code == 2
    assert "CSV" in err or "csv" in err


# ---------------------------------------------------------------------------
# cross-cutting CLI behavior


def test_reports_are_byte_identical_excluding_timing():
    for argv in (
        ["share", "--agents", "3", "--secret", "random", "--seed", "21"],
        ["check-channel", "--rounds", "50", "--basis", "random", "--seed", "21"],
        ["attack", "--model", "inside", "--trials", "60", "--seed", "21"],
        ["attack", "--model", "outside", "--trials", "60", "--seed", "21"],
    ):
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert strip_timing(first) == strip_timing(second), argv


def test_default_seed_comes_from_entropy_and_is_echoed():
    _, first, _ = run_cli(["share"])
    _, second, _ = run_cli(["share"])
    assert json.loads(first)["config"]["seed"] != json.loads(second)["config"]["seed"]


def test_out_file_writing(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["share", "--seed", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    validate_report(report)


def test_unknown_arguments_exit_two():
    code, _, _ = run_cli(["share", "--bogus"])
    assert code == 2
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["share", "--agents", "0", "--seed", "1"],
        ["share", "--seed", "1", "--out", "{missing_dir}/x.json"],
        ["share", "--secret", "1,0;0,0;nan,0", "--seed", "1"],
        ["attack", "--model", "inside", "--trials", "10", "--fake", "1,0;0,0;nan,0", "--seed", "1"],
        ["attack", "--model", "inside", "--trials", "10", "--fake", "inf,0;0,0;0,0", "--seed", "1"],
        ["share", "--seed", str(2**128)],
    ],
    ids=["agents-zero", "out-missing-dir", "secret-nan", "fake-nan", "fake-inf", "share-seed-2**128"],
)
def test_bad_input_exits_two_without_traceback(argv, tmp_path):
    argv = [arg.format(missing_dir=tmp_path / "missing") for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "tritshare", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("fake", ["0,0;0,0;0,0", "1,0;1,0;0,0", "1,0;0,0", "1,0;0,x;0,0"])
def test_fake_errors_name_the_fake_state(fake):
    code, out, err = run_cli(["attack", "--model", "inside", "--trials", "10", "--fake", fake, "--seed", "1"])
    assert code == 2
    assert err.startswith("error: fake state")
    assert "secret" not in err
    assert out == ""


@pytest.mark.parametrize("command", [["share"], ["check-channel"], ["attack", "--model", "inside", "--trials", "5"]])
def test_every_command_takes_seeds_below_two_to_the_128(command):
    code, out, err = run_cli([*command, "--seed", str(2**128 - 1)])
    assert code in (0, 4), err
    assert json.loads(out)["config"]["seed"] == 2**128 - 1
    code, out, err = run_cli([*command, "--seed", str(2**128)])
    assert code == 2
    assert err == "error: seed must be a non-negative integer below 2**128\n"
    assert out == ""


def test_outside_trial_count_errors_name_the_trials():
    code, out, err = run_cli(["attack", "--model", "outside", "--trials", "-5", "--seed", "1"])
    assert code == 2
    assert err == "error: at least one trial is required\n"
    assert out == ""


def test_encoded_results_keep_the_schema_key_order():
    _, out, _ = run_cli(["attack", "--model", "outside", "--trials", "50", "--seed", "3"])
    stats = REPORT_SCHEMA["allOf"][2]["then"]["properties"]["results"]["properties"]["stats"]
    assert list(json.loads(out)["results"]["stats"]) == stats["required"]
    _, out, _ = run_cli(["check-channel", "--rounds", "50", "--seed", "3"])
    verdict = REPORT_SCHEMA["allOf"][1]["then"]["properties"]["results"]["properties"]["verdict"]
    assert list(json.loads(out)["results"]["verdict"]) == verdict["required"]


def test_parse_secret_non_finite_rejected():
    for text in ("1,0;0,0;nan,0", "1,0;0,inf;0,0", "-inf,0;0,0;0,0"):
        with pytest.raises(ParseError):
            parse_secret(text)


def test_internal_failure_exits_three(monkeypatch):
    import tritshare.cli as cli
    from tritshare.errors import ZeroProbabilityBranchSampled

    def boom(args):
        raise ZeroProbabilityBranchSampled("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "share", boom)
    code, _, err = run_cli(["share", "--seed", "1"])
    assert code == 3
    assert "internal" in err


def test_schema_rejects_malformed_report():
    bad = {"schema_version": 1, "command": "share", "config": {}, "results": {}, "warnings": [], "wall_time_ms": 0}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tritshare", "share", "--seed", "12", "--agents", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["transcript"]["fidelity_to_secret"] == pytest.approx(1.0, abs=1e-10)
