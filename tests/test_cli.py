"""Command-line harness tests: parsing, reports, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritshare import (
    AttackStats,
    OutsideAttack,
    fidelity,
    parse_secret,
    run_check_rounds,
    run_command,
    verify_correlations,
    xi_state,
)
from tritshare.cli import _EVE_CHOICES, _EVE_POLICIES, MAX_TRIALS, _parse_secret_checked
from tritshare.errors import ConfigInvalid, NotNormalized, ParseError, ReportInvalid
from tritshare import reporting
from tritshare.reporting import REPORT_SCHEMA, decode_state, validate_report

import jsonschema
from golden import CLI_COMMANDS, first_difference


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


def test_share_refuses_a_component_that_is_not_a_pair():
    code, out, err = run_cli(["share", "--secret", "1;0;0", "--seed", "1"])
    assert code == 2 and out == ""
    assert "is not 're,im'" in err


def test_a_fake_with_a_small_drift_is_renormalized_with_a_warning():
    code, out, _ = run_cli(["attack", "--model", "inside", "--trials", "10", "--fake", "1.0001,0;0,0;0,0", "--seed", "1"])
    assert code == 0
    (warning,) = json.loads(out)["warnings"]
    assert warning.startswith("fake state renormalized")


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


@pytest.mark.parametrize("basis", ["computational", "fourier", "random"])
@pytest.mark.parametrize("eve", _EVE_CHOICES)
def test_check_channel_verdict_is_that_of_the_recorded_rounds(eve, basis):
    """The command tallies its blocks' flags; the verdict is the one ``verify_correlations`` gives
    the records ``run_check_rounds`` keeps for the same rounds, over two blocks."""
    code, out, _ = run_cli(["check-channel", "--rounds", "2305", "--basis", basis, "--eve", eve, "--seed", "12"])
    attack = None if eve == "none" else OutsideAttack((2,), _EVE_POLICIES[eve])
    verdict = verify_correlations(run_check_rounds(2305, attack, basis, seed=12))
    assert json.loads(out)["results"]["verdict"] == dataclasses.asdict(verdict)
    assert code == (4 if verdict.disturbed else 0)


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
    columns = ["command", "model", *(field.name for field in dataclasses.fields(AttackStats))]
    for model in ("inside", "outside"):
        # 300 trials: rates such as 151/300 need all 17 significant digits to round-trip.
        argv = ["attack", "--model", model, "--trials", "300", "--seed", "9"]
        code, out, _ = run_cli(argv + ["--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        header, row = (line.split(",") for line in lines)
        assert header == columns
        assert row[:2] == ["attack", model]
        stats = json.loads(run_cli(argv)[1])["results"]["stats"]
        assert list(stats) == header[2:]
        for text, value in zip(row[2:], stats.values()):
            assert type(value)(text) == value, (model, text, value)


def test_csv_unsupported_for_share():
    code, _, err = run_cli(["share", "--seed", "1", "--format", "csv"])
    assert code == 2
    assert "CSV" in err or "csv" in err


def test_render_csv_refuses_a_non_attack_report():
    for argv in (["share", "--seed", "1"], ["check-channel", "--rounds", "10", "--seed", "1"]):
        report = json.loads(run_cli(argv)[1])
        validate_report(report)
        with pytest.raises(ConfigInvalid, match="only attack reports have a CSV form"):
            reporting.render_csv(report)


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


#: ``share`` forms whose wide reductions OpenBLAS splits across its threads (rows of 3^8 or more
#: amplitudes), so their last float bits may depend on the thread count.
WIDE_SHARES = [
    ["share", "--agents", str(n), *rest]
    for n in (8, 9, 10)
    for rest in (["--designate", str(n), "--seed", "7"], ["--secret", "random", "--seed", "11"])
]


def _reports(argvs, blas_threads):
    """Each command's exit code and report, ``wall_time_ms`` masked, from one child process at
    ``blas_threads`` OpenBLAS threads."""
    code = (
        "import io, json, sys, tritshare\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    outs.append((tritshare.run_command(argv, stdout=out), out.getvalue()))\n"
        "print(json.dumps(outs))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [(exit_code, strip_timing(out)) for exit_code, out in json.loads(proc.stdout)]


def test_wide_shares_agree_across_blas_thread_counts():
    """Seeded reports are byte-identical only at one BLAS thread count. Across counts, every
    announcement, string and integer is equal, and every float agrees within 1e-15."""
    for argv, (code_one, one), (code_two, two) in zip(WIDE_SHARES, _reports(WIDE_SHARES, 1), _reports(WIDE_SHARES, 2)):
        assert code_one == code_two == 0, argv
        assert first_difference(json.loads(one), json.loads(two), tol=1e-15) is None, argv


#: Check-kernel forms of four three-party blocks each: Eve intercepts, and every round draws from
#: its (register, basis) pair's cumulative sums.
CHECK_FORMS = [
    ["check-channel", "--rounds", "3000", "--eve", "intercept-random", "--seed", "9"],
    ["attack", "--model", "outside", "--trials", "3000", "--seed", "9"],
]


def test_check_reports_are_byte_identical_across_blas_thread_counts():
    one, two = _reports(CHECK_FORMS, 1), _reports(CHECK_FORMS, 2)
    assert [code for code, _ in one] == [4, 0]
    assert one == two


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
        # finite components whose squared norm overflows to NaN
        ["share", "--secret", "1e308,1e308;0,0;0,0", "--seed", "1"],
        ["attack", "--model", "inside", "--trials", "10", "--fake", "1e308,1e308;0,0;0,0", "--seed", "1"],
    ],
    ids=[
        "agents-zero",
        "out-missing-dir",
        "secret-nan",
        "fake-nan",
        "fake-inf",
        "share-seed-2**128",
        "secret-overflow",
        "fake-overflow",
    ],
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
    for seed in (2**128, -1):
        code, out, err = run_cli([*command, "--seed", str(seed)])
        assert code == 2
        assert err == "error: seed must be a non-negative integer below 2**128\n"
        assert out == ""


@pytest.mark.parametrize(
    "command, flag",
    [(["check-channel"], "--rounds"), (["attack", "--model", "inside"], "--trials"), (["attack", "--model", "outside"], "--trials")],
)
@pytest.mark.parametrize("count", [MAX_TRIALS + 1, 2**128])
def test_counts_above_the_bound_exit_two(command, flag, count):
    assert MAX_TRIALS == 10**6
    code, out, err = run_cli([*command, flag, str(count), "--seed", "1"])
    assert code == 2
    assert err == f"error: {flag} must be at most {MAX_TRIALS}, got {count}\n"
    assert out == ""


def test_outside_trial_count_errors_name_the_trials():
    code, out, err = run_cli(["attack", "--model", "outside", "--trials", "-5", "--seed", "1"])
    assert code == 2
    assert err == "error: at least one trial is required\n"
    assert out == ""


COUNTS = st.integers(-1, 30) | st.sampled_from([MAX_TRIALS + 1, 2**128])
SEEDS = st.integers(0, 1000) | st.sampled_from([-1, 2**128 - 1, 2**128])
STATES = st.text(max_size=16) | st.sampled_from(
    [
        "random",
        "zero",
        "genuine",
        "1,0;0,0;0,0",
        "1,0;0,0;nan,0",
        "1e308,1e308;0,0;0,0",
        "0,0;0,0;0,0",
        "1,0;0,0",
        "1,0;0,0;0,0;0,0",
    ]
)
DESIGNATIONS = st.text(max_size=8) | st.sampled_from(["random", "1", "2", "3"])
BASES = st.sampled_from(["computational", "fourier", "random"])
EVES = st.sampled_from(["none", "intercept-computational", "intercept-fourier", "intercept-random"])
FORMATS = st.sampled_from(["json", "csv"])


def _argv(command, required, optional):
    """``command`` with every required option and a subset of the optional ones, values drawn."""
    options = st.fixed_dictionaries(required, optional=optional)
    return options.map(lambda chosen: [*command, *(text for item in chosen.items() for text in map(str, item))])


ARGVS = st.one_of(
    _argv(
        ["share"],
        {"--seed": SEEDS},
        {"--agents": COUNTS, "--designate": DESIGNATIONS, "--secret": STATES, "--format": FORMATS},
    ),
    _argv(["check-channel"], {"--rounds": COUNTS, "--seed": SEEDS}, {"--basis": BASES, "--eve": EVES, "--format": FORMATS}),
    _argv(
        ["attack"],
        {"--model": st.sampled_from(["inside", "outside"]), "--trials": COUNTS, "--seed": SEEDS},
        {
            "--comparison": st.sampled_from(["exact", "single-copy"]),
            "--fake": STATES,
            "--designate": DESIGNATIONS,
            "--eve": EVES,
            "--basis": BASES,
            "--format": FORMATS,
        },
    ),
    st.lists(st.text(max_size=12), max_size=4),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(ARGVS)
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):  # argparse writes to sys.std*
        code = run_command(argv, stdout=out, stderr=err)
    assert code in (0, 2, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()


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


def test_report_schema_is_a_valid_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_result_fields_need_a_schema_rule():
    @dataclasses.dataclass
    class Labelled:
        label: str

    with pytest.raises(TypeError, match="Labelled.label"):
        reporting._result_schema(Labelled)


def test_report_schema_matches_the_published_version():
    published = json.loads((Path(__file__).parent / "data" / "report_schema_v1.json").read_text(encoding="utf-8"))
    assert json.dumps(REPORT_SCHEMA) == json.dumps(published), (
        "REPORT_SCHEMA differs from the published schema 1 (key order included): "
        "bump SCHEMA_VERSION and add a snapshot for the new version"
    )


def _corrupted_reports():
    """(path, report) pairs: a valid report with the value at ``path`` replaced, added or dropped."""
    share = json.loads(run_cli(["share", "--seed", "4"])[1])
    attack = json.loads(run_cli(["attack", "--model", "inside", "--trials", "20", "--seed", "4"])[1])
    check = json.loads(run_cli(["check-channel", "--rounds", "20", "--seed", "4"])[1])
    for report, path, value in [
        (share, ("results", "transcript", "bell_probability"), 1.5),
        (share, ("results", "transcript", "announcements", 0, "payload"), {"n": 3, "m": 0}),
        (share, ("results", "transcript", "reconstructed", 0), [0.5]),
        (share, ("wall_time_ms",), -1),
        (attack, ("results", "stats", "detections"), "none"),
        (attack, ("results", "stats", "seed"), -4),
        (attack, ("command",), "replay"),
        (check, ("results", "verdict", "disturbed"), 0.0),
        (check, ("results", "verdict"), {}),
        (check, ("schema_version",), 2),
    ]:
        bad = json.loads(json.dumps(report))
        *parents, key = path
        target = bad
        for step in parents:
            target = target[step]
        target[key] = value
        yield path, bad
    yield ("extra",), {**share, "extra": 1}
    yield ("warnings",), {key: value for key, value in attack.items() if key != "warnings"}


def _raises(validate, exception, report):
    try:
        validate(report)
    except exception:
        return True
    return False


def test_validate_report_raises_exactly_when_jsonschema_validate_does():
    valid = [(None, json.loads(text)) for text in _valid_report_texts()]
    for path, report in [*_corrupted_reports(), *valid]:
        ours = _raises(validate_report, ReportInvalid, report)
        assert ours is _raises(lambda r: jsonschema.validate(r, REPORT_SCHEMA), jsonschema.ValidationError, report)
        assert ours is (path is not None)


def test_a_refused_report_is_named_at_its_corrupted_value():
    """The first failure lies on the path to the value that was corrupted, and the message names it."""
    for path, bad in _corrupted_reports():
        where, keyword = reporting._violation(bad, REPORT_SCHEMA)
        assert path[: len(where)] == where, (path, where, keyword)
        pointer = "/" + "/".join(map(str, where)) if where else "the top level"
        with pytest.raises(ReportInvalid, match=f"^report violates schema: '{keyword}' fails at {pointer}$"):
            validate_report(bad)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tritshare", "share", "--seed", "12", "--agents", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["transcript"]["fidelity_to_secret"] == pytest.approx(1.0, abs=1e-10)


def test_library_import_leaves_the_command_line_unloaded():
    code = (
        "import io, sys, tritshare\n"
        "assert 'jsonschema' not in sys.modules and 'tritshare.cli' not in sys.modules\n"
        "from tritshare import run_command\n"
        "assert run_command(['share', '--seed', '3']) == 0\n"
        "for argv in [\n"
        "    ['check-channel', '--rounds', '50', '--seed', '3'],\n"
        "    ['check-channel', '--rounds', '50', '--eve', 'intercept-fourier', '--seed', '3'],\n"
        "    *(['attack', '--model', m, '--trials', '50', '--seed', '3', '--format', f]\n"
        "      for m in ('inside', 'outside') for f in ('json', 'csv')),\n"
        "]:\n"
        "    assert run_command(argv, stdout=io.StringIO()) in (0, 4), argv\n"
        "# a valid report never needs jsonschema\n"
        "assert 'jsonschema' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "share"


# ---------------------------------------------------------------------------
# the conformance check, the one validator of a report, against jsonschema as an oracle

#: The command forms that ``.github/console-script-forms.sh`` runs, apart from the CSV ``share`` refusal.
CI_COMMANDS = (
    "share --agents 3 --seed 7",
    "share --secret 1,0;0,0;0,0 --seed 3",
    "check-channel --rounds 10 --seed 1",
    "check-channel --rounds 1000 --basis random --eve intercept-computational --seed 3",
    "attack --model inside --trials 200 --seed 5",
    "attack --model outside --trials 200 --format csv --seed 5",
    "attack --model inside --trials 200 --format csv --seed 5",
    "attack --model inside --trials 200 --designate 1 --seed 5",
    "attack --model inside --trials 200 --designate 2 --fake genuine --seed 5",
    "attack --model inside --trials 200 --fake random --comparison single-copy --seed 5",
    "check-channel --rounds 200 --eve intercept-random --seed 5",
    "check-channel --rounds 200 --basis fourier --seed 5",
    "check-channel --rounds 200 --basis computational --eve intercept-fourier --seed 5",
    "attack --model inside --trials 50 --seed 1",
)


def _fast_check(report):
    """The conformance check's verdict: True if the report conforms."""
    return reporting._violation(report, REPORT_SCHEMA) is None


def _schema_keywords(schema):
    """Every keyword that ``schema`` and its subschemas use."""
    if isinstance(schema, bool):
        return set()
    found = set(schema)
    for keyword, value in schema.items():
        if keyword == "properties":
            subschemas = list(value.values())
        elif keyword in ("prefixItems", "oneOf", "allOf"):
            subschemas = value
        elif keyword in ("additionalProperties", "items", "if", "then"):
            subschemas = [value]
        else:
            continue
        for sub in subschemas:
            found |= _schema_keywords(sub)
    return found


def test_report_schema_uses_only_keywords_the_check_implements():
    implemented = {
        "$schema", "title", "type", "const", "enum", "required", "properties", "additionalProperties",
        "items", "prefixItems", "minItems", "minimum", "maximum", "oneOf", "allOf", "if", "then",
    }  # fmt: skip
    assert _schema_keywords(REPORT_SCHEMA) <= implemented


@pytest.mark.parametrize(
    "instance, schema",
    [
        ({}, {"patternProperties": {"x": True}}),
        (1, {"if": True, "then": True, "else": False}),
        (1, {"type": ["integer", "null"]}),
        (1, {"type": "null"}),
    ],
    ids=["unknown-keyword", "else", "type-list", "type-null"],
)
def test_conformance_check_raises_on_a_keyword_it_does_not_handle(instance, schema):
    with pytest.raises(NotImplementedError):
        reporting._violation(instance, schema)


@pytest.mark.parametrize(
    "instance, schema, keyword",
    [
        (np.int64(1), {"type": "integer"}, "type"),
        ((1, 2), {"type": "array"}, "type"),
        (np.int64(1), {"minimum": 0}, "minimum"),
        ((1, 2), {"items": True}, "items"),
    ],
    ids=["numpy-integer", "tuple", "numpy-integer-bounded", "tuple-items"],
)
def test_conformance_check_refuses_a_value_that_is_not_json(instance, schema, keyword):
    """Whatever keyword looks at such a value fails, even one that would pass any JSON value of its kind."""
    assert reporting._violation(instance, schema) == ((), keyword)
    report = json.loads(_valid_report_texts()[3])
    report["results"]["stats"]["attacker_successes"] = instance
    with pytest.raises(ReportInvalid, match="'type' fails at /results/stats/attacker_successes$"):
        validate_report(report)


@pytest.mark.parametrize(
    "instance, schema, verdict",
    [
        # 2020-12 equality and types: a bool is neither a number nor equal to one
        (True, {"const": 1}, False),
        (1, {"enum": [True, False]}, False),
        (1.0, {"enum": [0, 1, 2]}, True),
        (True, {"type": "integer"}, False),
        (False, {"type": "number"}, False),
        (3.0, {"type": "integer"}, True),
        (3.5, {"type": "integer"}, False),
        ([1, [2.0]], {"const": [1.0, [2]]}, True),
        ([1], {"const": [1, 2]}, False),
        ({"a": True}, {"const": {"a": 1}}, False),
        # one case per keyword that REPORT_SCHEMA uses
        ({"a": 1}, {"required": ["a", "b"]}, False),
        ({"a": "x"}, {"properties": {"a": {"type": "integer"}}}, False),
        ({"a": 1, "b": 2}, {"properties": {"a": True}, "additionalProperties": False}, False),
        ([1, "x"], {"prefixItems": [{"type": "number"}, {"type": "number"}]}, False),
        ([1, 2, 3], {"prefixItems": [True, True], "items": False}, False),
        ([1, 2], {"prefixItems": [True, True], "items": False}, True),
        ([1, "x"], {"items": {"type": "number"}}, False),
        ([1], {"minItems": 2}, False),
        (-0.5, {"minimum": 0}, False),
        (1.5, {"maximum": 1}, False),
        ("x", {"minimum": 0, "maximum": 1}, True),
        (1, {"oneOf": [{"type": "integer"}, {"type": "number"}]}, False),
        (1.5, {"oneOf": [{"type": "integer"}, {"type": "number"}]}, True),
        (1, {"allOf": [{"type": "integer"}, {"minimum": 2}]}, False),
        (1, {"if": {"type": "integer"}, "then": {"minimum": 2}}, False),
        (1.5, {"if": {"type": "integer"}, "then": {"minimum": 2}}, True),
    ],
)
def test_conformance_check_matches_jsonschema_keyword_by_keyword(instance, schema, verdict):
    assert (reporting._violation(instance, schema) is None) is verdict
    assert jsonschema.Draft202012Validator(schema).is_valid(instance) is verdict


def test_conformance_check_accepts_every_report_the_command_line_emits(monkeypatch):
    build_report, built = reporting.build_report, []

    def recording_build_report(*args):
        built.append(build_report(*args))
        return built[-1]

    monkeypatch.setattr(reporting, "build_report", recording_build_report)
    forms = [line.split() for line in CI_COMMANDS] + [list(argv) for argv in CLI_COMMANDS]
    for argv in forms:
        code, _, err = run_cli(argv)
        assert code in (0, 4), (argv, err)
    assert len(built) == len(forms)
    for argv, report in zip(forms, built):
        assert _fast_check(report), argv


def test_conformance_check_refuses_every_corrupted_report():
    for _, bad in _corrupted_reports():
        assert not _fast_check(bad)


@lru_cache(maxsize=None)
def _valid_report_texts():
    return tuple(
        run_cli(argv)[1]
        for argv in (
            ["share", "--agents", "3", "--seed", "6"],
            ["check-channel", "--rounds", "30", "--seed", "6"],
            ["check-channel", "--rounds", "30", "--eve", "intercept-random", "--seed", "6"],
            ["attack", "--model", "inside", "--trials", "30", "--seed", "6"],
            ["attack", "--model", "outside", "--trials", "30", "--seed", "6"],
        )
    )


def _members(node, path=()):
    """(path, value) of ``node`` and of everything inside it, except inside ``config``, which
    the schema requires only to be an object."""
    yield path, node
    if isinstance(node, (dict, list)) and path != ("config",):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _members(value, (*path, key))


REPLACEMENTS = st.sampled_from([None, True, False, 0, 1, 1.0, 2.0, -1, 1.5, "x", "attack", "share", [], {}])


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.data())
def test_conformance_check_agrees_with_jsonschema_on_mutated_reports(data):
    report = json.loads(data.draw(st.sampled_from(_valid_report_texts())))
    for _ in range(data.draw(st.integers(1, 3))):
        path, node = data.draw(st.sampled_from(list(_members(report))))
        action = data.draw(st.sampled_from(["swap", "drop", "add"]))
        if action == "swap" and path:
            *parents, key = path
            target = report
            for step in parents:
                target = target[step]
            target[key] = data.draw(REPLACEMENTS)
        elif action == "drop" and isinstance(node, (dict, list)) and node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            del node[key]
        elif action == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(["extra", "n", "l", "kind"]))] = data.draw(REPLACEMENTS)
        elif action == "add" and isinstance(node, list):
            node.append(data.draw(REPLACEMENTS))
    # Sound: the check never accepts a report that jsonschema rejects. On JSON values it
    # is also complete, so the two verdicts agree.
    assert _fast_check(report) == jsonschema.Draft202012Validator(REPORT_SCHEMA).is_valid(report)


def test_a_report_that_violates_the_schema_exits_three(monkeypatch):
    build_report = reporting.build_report

    def negative_timing(command, config, result, wall_time_ms, warnings):
        return build_report(command, config, result, -1, warnings)

    monkeypatch.setattr(reporting, "build_report", negative_timing)
    code, out, err = run_cli(["share", "--seed", "1"])
    assert code == 3
    assert err == "internal error: report violates schema: 'minimum' fails at /wall_time_ms\n"
    assert out == ""


def test_a_refused_report_is_judged_without_jsonschema():
    code = (
        "import io, sys\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        "from tritshare import reporting, run_command\n"
        "build_report = reporting.build_report\n"
        "reporting.build_report = lambda *args: {**build_report(*args), 'extra': 1}\n"
        "err = io.StringIO()\n"
        "assert run_command(['share', '--seed', '1'], stdout=io.StringIO(), stderr=err) == 3\n"
        "print(err.getvalue(), end='')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "internal error: report violates schema: 'additionalProperties' fails at /extra\n"
