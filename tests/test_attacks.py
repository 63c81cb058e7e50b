"""Attack models and their Monte Carlo experiments.

Frozen expected rates come from exact Born arithmetic done in the tests:
a computational intercept leaves computational checks untouched, fails
Fourier checks with probability 2/3, and the inside attacker wins only
the designation coin flip.
"""

import functools
import itertools
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tritshare.attacks as attacks
import tritshare.core as core
import tritshare.protocol as protocol
from tritshare import (
    BellOutcome,
    InsideAttack,
    MeasurementFamily,
    OutsideAttack,
    PureState,
    SessionConfig,
    apply_single,
    basis_state,
    bell_family,
    born_distribution,
    channel_check_round,
    fidelity,
    ghz_state,
    haar_random_state,
    inside_capture_and_fake,
    outside_intercept_resend,
    project_subsystem,
    reconstruct,
    recovery_operator,
    reduced_density,
    run_check_rounds,
    run_inside_attack_experiment,
    run_inside_trial,
    run_outside_attack_experiment,
    run_sharing_session,
    start_session,
    tensor,
    verify_correlations,
    xi_family,
    xi_state,
)
from tritshare.attacks import ALWAYS_COMPUTATIONAL, ALWAYS_FOURIER, EXACT, RANDOM_PER_QUTRIT, SINGLE_COPY
from tritshare.core import _measure, _sample, sample_indices
from tritshare.errors import ConfigInvalid, LabelOutOfRange, SelfCapture
from tritshare.operators import _XI_ROWS
from tritshare.protocol import COMPUTATIONAL, FOURIER
from test_core import assert_guide_counts_exactly

FAKE_ZERO = basis_state([0])
#: A fake off the computational axes, so that a wrong correction shows in the victim's fidelity.
FAKE_HAAR = haar_random_state(np.random.default_rng(5))


# ---------------------------------------------------------------------------
# intercept-resend primitive


def test_intercept_keeps_state_in_all_equal_subspace():
    # a computational intercept collapses GHZ to |ttt>; computational checks never fail
    rng = np.random.default_rng(60)
    comp_family = [basis_state([k]) for k in range(3)]
    for _ in range(30):
        tampered = outside_intercept_resend(ghz_state(3), 2, COMPUTATIONAL, rng)
        support = np.flatnonzero(np.abs(tampered.amplitudes) > 1e-12)
        assert len(support) == 1
        digits = np.base_repr(support[0], base=3).zfill(3)
        assert len(set(digits)) == 1
        probs = born_distribution(tampered, (1,), comp_family)
        assert np.max(probs) == pytest.approx(1.0, abs=1e-12)


def test_intercept_fourier_check_fails_two_thirds_exactly():
    # exact Born computation on each tampered state: chain the three parties'
    # Fourier measurements and sum the weight of trit-sums != 0 mod 3
    rng = np.random.default_rng(61)
    for _ in range(30):
        tampered = outside_intercept_resend(ghz_state(3), 2, COMPUTATIONAL, rng)
        fail = 0.0
        for l1 in range(3):
            p1 = born_distribution(tampered, (1,), xi_family())[l1]
            s1 = project_subsystem(tampered, (1,), xi_family(), l1).collapsed
            for l2 in range(3):
                p2 = born_distribution(s1, (1,), xi_family())[l2]
                if p2 < 1e-15:
                    continue
                s2 = project_subsystem(s1, (1,), xi_family(), l2).collapsed
                probs3 = born_distribution(s2, (1,), xi_family())
                for l3 in range(3):
                    if (l1 + l2 + l3) % 3 != 0:
                        fail += p1 * p2 * probs3[l3]
        assert fail == pytest.approx(2 / 3, abs=1e-10)


def test_intercept_on_product_eigenstate_is_invisible():
    rng = np.random.default_rng(62)
    product = tensor(basis_state([0]), basis_state([0]))
    tampered = outside_intercept_resend(product, 1, COMPUTATIONAL, rng)
    assert np.allclose(tampered.amplitudes, product.amplitudes, atol=1e-15)


def test_intercept_label_validation():
    rng = np.random.default_rng(63)
    with pytest.raises(LabelOutOfRange):
        outside_intercept_resend(ghz_state(3), 4, COMPUTATIONAL, rng)


def _members(basis):
    return [basis_state([k]) for k in range(3)] if basis == COMPUTATIONAL else xi_family()


@pytest.mark.parametrize("basis", [COMPUTATIONAL, FOURIER])
@pytest.mark.parametrize("num_qutrits", [2, 3, 4, 5])
def test_intercept_is_the_lueders_projection_on_every_label(num_qutrits, basis):
    # oracle: the dense projector I x .. x |m><m| x .. x I (np.kron) onto the member
    # that fired, applied to the state and renormalized
    rng = np.random.default_rng(64 + num_qutrits)
    for label in range(1, num_qutrits + 1):
        for _ in range(3):
            state = haar_random_state(rng, num_qutrits)
            tampered = outside_intercept_resend(state, label, basis, rng).amplitudes
            matches = 0
            for member in _members(basis):
                projector = np.kron(
                    np.kron(np.eye(3 ** (label - 1)), np.outer(member.amplitudes, member.amplitudes.conj())),
                    np.eye(3 ** (num_qutrits - label)),
                )
                projected = projector @ state.amplitudes
                matches += np.allclose(tampered, projected / np.linalg.norm(projected), atol=1e-12)
            assert matches == 1


@pytest.mark.parametrize("basis", [COMPUTATIONAL, FOURIER])
def test_intercept_on_one_qutrit_resends_a_family_member(basis):
    rng = np.random.default_rng(69)
    for _ in range(20):
        tampered = outside_intercept_resend(haar_random_state(rng), 1, basis, rng)
        overlaps = [fidelity(tampered, member) for member in _members(basis)]
        assert max(overlaps) == pytest.approx(1.0, abs=1e-12)


def test_outside_attack_validation():
    with pytest.raises(ConfigInvalid):
        OutsideAttack((), ALWAYS_COMPUTATIONAL)
    with pytest.raises(ConfigInvalid):
        OutsideAttack((2,), "sideways")
    with pytest.raises(LabelOutOfRange):
        run_check_rounds(5, OutsideAttack((1,), ALWAYS_COMPUTATIONAL), "random", seed=0)


_ATTACK_REFUSALS = {
    "duplicate-targets": (lambda: OutsideAttack((2, 2)), ConfigInvalid, "duplicate target"),
    "intercept-basis": (
        lambda: outside_intercept_resend(ghz_state(3), 2, "diagonal", np.random.default_rng(0)),
        ConfigInvalid,
        "basis must be one of",
    ),
    "check-policy": (lambda: run_check_rounds(5, None, "diagonal", seed=0), ConfigInvalid, "unknown check basis"),
    "capture-without-qutrit": (
        lambda: inside_capture_and_fake(start_session(FAKE_ZERO), InsideAttack(3, FAKE_ZERO), victim=1),
        ConfigInvalid,
        "must hold a channel qutrit",
    ),
    "two-qutrit-secret": (
        lambda: run_inside_trial(ghz_state(2), InsideAttack(1, FAKE_ZERO), 2, np.random.default_rng(0)),
        ConfigInvalid,
        "single-qutrit",
    ),
}


@pytest.mark.parametrize("case", list(_ATTACK_REFUSALS))
def test_malformed_attack_input_is_refused(case):
    call, error, reason = _ATTACK_REFUSALS[case]
    with pytest.raises(error, match=reason):
        call()


# ---------------------------------------------------------------------------
# outside experiments


def test_outside_honest_baseline_never_detects():
    stats = run_outside_attack_experiment(3000, None, "random", seed=64)
    assert stats.detections == 0
    assert stats.detection_rate == 0.0
    assert stats.success_rate == 0.0


def test_outside_computational_attack_random_checks_one_third():
    # exact per-basis rates 0 and 2/3, halved by the 50/50 basis choice
    stats = run_outside_attack_experiment(10_000, OutsideAttack((2,), ALWAYS_COMPUTATIONAL), "random", seed=65)
    assert stats.detection_rate == pytest.approx(1 / 3, abs=0.02)


def test_outside_matching_basis_is_undetectable():
    comp = run_outside_attack_experiment(2000, OutsideAttack((2,), ALWAYS_COMPUTATIONAL), "computational", seed=66)
    assert comp.detections == 0
    fourier = run_outside_attack_experiment(2000, OutsideAttack((2,), ALWAYS_FOURIER), "fourier", seed=67)
    assert fourier.detections == 0


def test_outside_per_basis_rates_via_records():
    records = run_check_rounds(6000, OutsideAttack((2,), ALWAYS_COMPUTATIONAL), "random", seed=68)
    verdict = verify_correlations(records)
    assert verdict.disturbed
    assert verdict.failure_rate_computational == 0.0
    assert verdict.failure_rate_fourier == pytest.approx(2 / 3, abs=0.03)


def test_outside_stats_reproducible_bitwise():
    attack = OutsideAttack((2, 3), "random_per_qutrit")
    a = run_outside_attack_experiment(500, attack, "random", seed=69)
    b = run_outside_attack_experiment(500, attack, "random", seed=69)
    assert a == b


@pytest.mark.parametrize(
    "attack,policy,num_parties",
    [
        (None, "random", 3),
        (OutsideAttack((2,), ALWAYS_COMPUTATIONAL), "random", 3),
        (OutsideAttack((3,), ALWAYS_FOURIER), COMPUTATIONAL, 3),
        (OutsideAttack((2, 3), "random_per_qutrit"), FOURIER, 3),
        (OutsideAttack((2, 4), "random_per_qutrit"), "random", 4),
    ],
)
def test_outside_detections_are_the_failed_check_rounds(attack, policy, num_parties):
    stats = run_outside_attack_experiment(300, attack, policy, seed=70, num_parties=num_parties)
    records = run_check_rounds(300, attack, policy, seed=70, num_parties=num_parties)
    assert stats.detections == sum(1 for record in records if not record.passed)


@pytest.mark.parametrize("num_parties", [2, 3, 4, 5, 6])
def test_computational_check_rounds_draw_no_fourier_digit(num_parties, monkeypatch):
    """A run of computational check rounds draws every joint outcome from computational rows: its
    tables hold one row per leaf, and on the digit-by-digit route no party's walk is Fourier's."""
    walk = protocol._walk

    def computational(num_parties, axes, state, members, fourier, draw):
        assert not np.any(fourier), "a computational round walked in the Fourier basis"
        return walk(num_parties, axes, state, members, fourier, draw)

    for attack in (None, OutsideAttack(tuple(range(2, num_parties + 1)), "random_per_qutrit")):
        ((_, config, tables),) = _handed(attack, COMPUTATIONAL, num_parties)
        leaves = 6 ** len(config[1])
        assert tables is None or tables[0].shape == (leaves, 3**num_parties) and tables[2].shape == (1, 3**num_parties)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_walk", computational)
            _digit_route(patch)
            records = run_check_rounds(300, attack, COMPUTATIONAL, seed=71, num_parties=num_parties)
        assert records == run_check_rounds(300, attack, COMPUTATIONAL, seed=71, num_parties=num_parties)
        assert {record.basis for record in records} == {COMPUTATIONAL}
        assert attack is not None or all(record.passed for record in records)


# ---------------------------------------------------------------------------
# inside capture


def test_capture_rewires_holdings():
    rng = np.random.default_rng(70)
    session = start_session(haar_random_state(rng))
    attack = InsideAttack(1, FAKE_ZERO)
    tampered = inside_capture_and_fake(session, attack, victim=2)
    assert tampered.state.num_qutrits == 5
    assert tampered.captured_label[1] == 4  # agent 2's original slot
    assert tampered.agent_label[2] == 5  # the appended fake
    assert tampered.agent_label[1] == 3
    # the fake is unentangled: victim marginal is exactly |0><0|
    rho = reduced_density(tampered.state, (5,))
    assert np.allclose(rho.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_capture_self_is_refused():
    rng = np.random.default_rng(71)
    session = start_session(haar_random_state(rng))
    with pytest.raises(SelfCapture):
        inside_capture_and_fake(session, InsideAttack(1, FAKE_ZERO), victim=1)


def test_noop_capture_leaves_session():
    rng = np.random.default_rng(72)
    session = start_session(haar_random_state(rng))
    assert inside_capture_and_fake(session, InsideAttack(1, None), victim=2) is session


# ---------------------------------------------------------------------------
# inside trials


def test_designated_attacker_reconstructs_perfectly():
    rng = np.random.default_rng(73)
    for _ in range(40):
        secret = haar_random_state(rng)
        outcome = run_inside_trial(secret, InsideAttack(1, FAKE_ZERO), designated=1, rng=rng)
        assert outcome.attacker_designated
        assert outcome.reconstruction_fidelity > 1.0 - 1e-10


def test_designated_victim_exposes_the_fake():
    rng = np.random.default_rng(74)
    below_one = 0
    for _ in range(40):
        secret = haar_random_state(rng)
        outcome = run_inside_trial(secret, InsideAttack(1, FAKE_ZERO), designated=2, rng=rng)
        assert not outcome.attacker_designated
        # fidelity of the fake path is |<secret|Z^b X^a|0>|^2 = |secret[(3-m) mod 3]|^2
        a = (3 - outcome.bell.m) % 3
        assert outcome.reconstruction_fidelity == pytest.approx(abs(secret.amplitudes[a]) ** 2, abs=1e-10)
        if outcome.reconstruction_fidelity < 1 - 1e-9:
            below_one += 1
    assert below_one == 40  # Haar secrets are never axis-aligned


def test_noop_attack_is_undetectable_both_ways():
    rng = np.random.default_rng(75)
    for designated in (1, 2):
        for _ in range(20):
            secret = haar_random_state(rng)
            outcome = run_inside_trial(secret, InsideAttack(1, None), designated, rng)
            assert outcome.reconstruction_fidelity > 1.0 - 1e-10


# ---------------------------------------------------------------------------
# inside experiments


def test_inside_exact_success_rate_is_half():
    stats = run_inside_attack_experiment(4000, InsideAttack(1, FAKE_ZERO), EXACT, seed=76)
    assert stats.success_rate == pytest.approx(0.5, abs=0.02)
    # every honest-designation trial is detected under exact comparison
    assert stats.attacker_successes + stats.detections == stats.trials


def test_inside_forced_designation_always_wins():
    stats = run_inside_attack_experiment(800, InsideAttack(1, FAKE_ZERO), EXACT, seed=77, force_designate=1)
    assert stats.success_rate == 1.0
    assert stats.detection_rate == 0.0


def test_inside_noop_baseline():
    stats = run_inside_attack_experiment(800, InsideAttack(1, None), EXACT, seed=78)
    assert stats.detections == 0


def test_inside_single_copy_detection_matches_mean_infidelity():
    # analytic oracle: fidelity of the fake path is |secret[a]|^2 with a uniform,
    # so E[1 - fidelity] = 2/3 on comparison trials and the per-trial rate is 1/3
    stats = run_inside_attack_experiment(10_000, InsideAttack(1, FAKE_ZERO), SINGLE_COPY, seed=79)
    assert stats.detection_rate == pytest.approx(1 / 3, abs=0.02)


def _within_4_sigma(hits, trials, exact):
    return abs(hits / trials - exact) <= 4 * np.sqrt(exact * (1 - exact) / trials)


@pytest.mark.parametrize("agent", [1, 2])
@pytest.mark.parametrize("fake", [FAKE_ZERO, FAKE_HAAR, xi_state(0)], ids=["zero", "haar", "xi0"])
def test_inside_rates_match_their_exact_values(fake, agent):
    """No branch weight depends on the Haar secret, and the victim's fidelity |<psi|R|fake>|^2 has
    Haar mean 1/3 for every correction R and fake. So a compared trial is caught with probability
    2/3 in single-copy comparison and always in exact comparison, and the coin-flip designation
    halves both: single-copy 1/3 (2/3 with the victim designated), exact 1/2, success 1/2."""
    attack, victim, trials = InsideAttack(agent, fake), 3 - agent, 50_000

    def run(mode, seed, force=None):
        return run_inside_attack_experiment(trials, attack, mode, seed, force_designate=force)

    single_copy, exact = run(SINGLE_COPY, 10 * agent), run(EXACT, 10 * agent + 1)
    assert _within_4_sigma(single_copy.detections, trials, 1 / 3)
    assert _within_4_sigma(exact.detections, trials, 1 / 2)
    for stats in (single_copy, exact):
        assert _within_4_sigma(stats.attacker_successes, trials, 1 / 2)

    assert _within_4_sigma(run(SINGLE_COPY, 10 * agent + 2, victim).detections, trials, 2 / 3)
    assert run(EXACT, 10 * agent + 3, victim).detection_rate == 1.0
    attacked = run(EXACT, 10 * agent + 4, agent)
    assert (attacked.success_rate, attacked.detection_rate) == (1.0, 0.0)


def test_inside_stats_reproducible_bitwise():
    attack = InsideAttack(2, FAKE_ZERO)
    a = run_inside_attack_experiment(400, attack, EXACT, seed=80)
    b = run_inside_attack_experiment(400, attack, EXACT, seed=80)
    assert a == b


def test_inside_experiment_validation():
    with pytest.raises(ConfigInvalid):
        run_inside_attack_experiment(0, InsideAttack(1, FAKE_ZERO), EXACT, seed=0)
    with pytest.raises(ConfigInvalid):
        run_inside_attack_experiment(10, InsideAttack(1, FAKE_ZERO), "eyeball", seed=0)
    with pytest.raises(ConfigInvalid):
        run_inside_attack_experiment(10, InsideAttack(1, ghz_state(2)), EXACT, seed=0)
    with pytest.raises(ConfigInvalid):
        run_inside_attack_experiment(10, InsideAttack(3, FAKE_ZERO), EXACT, seed=0)


def _session(num_agents=3, designated=1, seed=1):
    return run_sharing_session(SessionConfig(num_agents, designated, FAKE_ZERO, seed))


def _inside(trials=10, agent=1, seed=1):
    return run_inside_attack_experiment(trials, InsideAttack(agent, FAKE_ZERO), EXACT, seed)


# name -> (call taking the value, an integer it accepts, a non-integer it refuses, the error)
NON_INTEGER_INPUT = {
    "session-designated": (lambda v: _session(designated=v), 2, 1.5, ConfigInvalid),
    "session-num-agents": (lambda v: _session(num_agents=v), 2, 2.5, ConfigInvalid),
    "session-seed": (lambda v: _session(seed=v), 1, 1.7, ConfigInvalid),
    "outside-target": (lambda v: OutsideAttack((v,)), 2, 2.9, LabelOutOfRange),
    "inside-dishonest-agent": (lambda v: _inside(agent=v), 1, 1.0, ConfigInvalid),
    "inside-seed": (lambda v: _inside(seed=v), 1, 1.9, ConfigInvalid),
    "outside-seed": (lambda v: run_outside_attack_experiment(10, None, FOURIER, v), 1, 1.9, ConfigInvalid),
    "check-seed": (lambda v: run_check_rounds(10, None, FOURIER, v), 1, 1.9, ConfigInvalid),
    "inside-trials": (lambda v: _inside(trials=v), 2, 2.5, ConfigInvalid),
    "outside-trials": (lambda v: run_outside_attack_experiment(v, None, FOURIER, 1), 2, 2.5, ConfigInvalid),
    "check-rounds": (lambda v: run_check_rounds(v, None, FOURIER, 1), 2, 2.5, ConfigInvalid),
    "check-num-parties": (lambda v: run_check_rounds(10, None, "random", 1, num_parties=v), 3, 3.0, ConfigInvalid),
    "outside-num-parties": (
        lambda v: run_outside_attack_experiment(10, None, FOURIER, 1, num_parties=v), 3, 3.0, ConfigInvalid,
    ),
    "check-round-num-parties": (
        lambda v: channel_check_round(FOURIER, np.random.default_rng(0), num_parties=v), 3, 3.0, ConfigInvalid,
    ),
    "session-forced-helpers": (
        lambda v: run_sharing_session(SessionConfig(3, 1, FAKE_ZERO, 1), forced_helpers=(v, 2)), 1, 1.7, ConfigInvalid,
    ),
    "inside-trial-designated": (
        lambda v: run_inside_trial(FAKE_ZERO, InsideAttack(2, FAKE_ZERO), v, np.random.default_rng(0)), 1, 1.0,
        ConfigInvalid,
    ),
    "inside-forced-designation": (
        lambda v: run_inside_attack_experiment(10, InsideAttack(1, FAKE_ZERO), EXACT, 1, force_designate=v), 2, 2.0,
        ConfigInvalid,
    ),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_INPUT))
def test_non_integer_library_input_is_refused(case):
    """Floats are refused, and so are bools, Python's as numpy's: ``True`` would otherwise play one
    round or run seed 1."""
    call, accepted, refused, error = NON_INTEGER_INPUT[case]
    call(np.int64(accepted))  # numpy integers are integers
    for value in (refused, True, np.True_, False):
        with pytest.raises(error, match="is not an integer"):
            call(value)


@pytest.mark.parametrize("fake", ["zero", np.array([1, 0, 0]), ghz_state(2)], ids=["name", "array", "two-qutrit"])
def test_inside_attack_refuses_a_fake_that_is_not_a_single_qutrit_state(fake):
    with pytest.raises(ConfigInvalid, match="fake qutrit"):
        InsideAttack(1, fake)


def test_attack_stats_rates_consistent():
    stats = run_inside_attack_experiment(500, InsideAttack(1, FAKE_ZERO), EXACT, seed=81)
    assert stats.success_rate == stats.attacker_successes / stats.trials
    assert stats.detection_rate == stats.detections / stats.trials
    assert fidelity(FAKE_ZERO, FAKE_ZERO) == 1.0


# ---------------------------------------------------------------------------
# block engine


def _inside_configs():
    for fake, mode, attacker in itertools.product((FAKE_ZERO, None, FAKE_HAAR), (EXACT, SINGLE_COPY), (1, 2)):
        yield InsideAttack(attacker, fake), mode


@pytest.mark.parametrize("block", [1, 7, 64, 256, 1000])
def test_results_do_not_depend_on_block_size(monkeypatch, block):
    def run_all():
        inside = [run_inside_attack_experiment(150, attack, mode, seed=90) for attack, mode in _inside_configs()]
        forced = run_inside_attack_experiment(70, InsideAttack(2, FAKE_ZERO), SINGLE_COPY, seed=91, force_designate=1)
        checks = [
            run_check_rounds(150, None, "random", seed=92),
            run_check_rounds(150, OutsideAttack((2, 3), "random_per_qutrit"), "random", seed=93),
            run_check_rounds(150, OutsideAttack((3,), ALWAYS_FOURIER), COMPUTATIONAL, seed=94, num_parties=4),
            run_check_rounds(40, OutsideAttack((2, 5), "random_per_qutrit"), FOURIER, seed=95, num_parties=6),
            run_check_rounds(30, None, "random", seed=97, num_parties=9),
            run_check_rounds(150, OutsideAttack((4,), "random_per_qutrit"), "random", seed=98, num_parties=5),
        ]
        return inside, forced, checks

    def run_long():  # crosses two default inside blocks
        return run_inside_attack_experiment(5000, InsideAttack(1, FAKE_HAAR), SINGLE_COPY, seed=96)

    def run_wide():  # one default block of 12-party rounds drawn digit by digit; 16, 4 or 1 at the sizes it runs
        return run_check_rounds(1000, None, "random", seed=99, num_parties=12)

    reference = run_all()
    long_reference = run_long() if block == 1000 else None
    wide_reference = run_wide() if block >= 64 else None
    monkeypatch.setattr(attacks, "_BLOCK", block)
    assert run_all() == reference
    if block == 1000:
        assert run_long() == long_reference
    if block >= 64:
        assert run_wide() == wide_reference


# The check kernel as it ran before a block held distinct registers: every round gets its own
# register at Eve's first intercept, and the check step measures every round's register.


def _per_round_intercept(state, axis, rows, u):
    """Eve measures qutrit ``axis`` of register b (or of the one shared register) with ``u[b]`` in
    the basis whose conjugated members are ``rows[b]``, and resends the member she saw."""
    outcome, _, kept = _measure(state, (axis,), rows, u)
    member = rows[np.arange(len(u)), outcome].conj()
    resent = kept.reshape(len(u), 3**axis, 1, -1) * member[:, None, :, None]
    return resent.reshape((len(u),) + (3,) * (state.ndim - 1))


def _per_round_check_outcomes(state, fourier, u):
    """Every round's weights from its own register (or the shared one), its Fourier rounds turned."""
    n = state.ndim - 1
    flat = state.reshape(len(state), -1)
    probs = np.empty((len(u), flat.shape[1]))
    probs[:] = flat.real**2 + flat.imag**2
    if fourier.any():
        turned = flat if len(flat) == 1 else flat[fourier]
        for _ in range(n):
            turned = (turned.reshape(-1, 3) @ _XI_ROWS.T).reshape(len(turned), -1, 3).transpose(0, 2, 1)
            turned = turned.reshape(len(turned), -1)
        probs[fourier] = turned.real**2 + turned.imag**2
    joint = sample_indices(probs, u)
    trits = joint[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3
    return trits, np.where(fourier, trits.sum(axis=1) % 3 == 0, joint % ((3**n - 1) // 2) == 0)


def _per_round_flags(u, policy, random, fourier):
    """Each round's Fourier flag: a 50/50 draw under the ``random`` policy, else all ``fourier`` or none."""
    return u >= 0.5 if policy == random else np.full(len(u), policy == fourier)


def _per_round_check_block(u, attack, check_basis_policy, num_parties):
    fourier = _per_round_flags(u[:, 0], check_basis_policy, "random", FOURIER)
    state = ghz_state(num_parties).amplitudes.reshape((1,) + (3,) * num_parties)
    targets = attack.target_qutrits if attack is not None else ()
    for i, target in enumerate(targets):
        eve = _per_round_flags(u[:, 1 + 2 * i], attack.measure_basis_policy, RANDOM_PER_QUTRIT, ALWAYS_FOURIER)
        rows = np.where(eve[:, None, None], _XI_ROWS, np.eye(3))
        state = _per_round_intercept(state, target - 1, rows, u[:, 2 + 2 * i])
    trits, passed = _per_round_check_outcomes(state, fourier, u[:, 1 + 2 * len(targets)])
    return fourier, trits, passed


EVE_SETTINGS = (None, ALWAYS_COMPUTATIONAL, ALWAYS_FOURIER, RANDOM_PER_QUTRIT)
CHECK_POLICIES = (COMPUTATIONAL, FOURIER, "random")
#: No Eve, then every Eve policy on the first transit qutrit and on all of them.
OUTSIDE_SETTINGS = [(None, None)] + list(itertools.product(EVE_SETTINGS[1:], ("one target", "all targets")))


def _outside_attack(setting, num_parties):
    policy, reach = setting
    if policy is None:
        return None
    targets = {"one target": (2,), "last target": (num_parties,)}.get(reach, tuple(range(2, num_parties + 1)))
    return OutsideAttack(targets, policy)


#: A uniform past the rounded total of every row whose sums round below 1, so that its draw falls
#: to the row's last positive weight.
_NEAR_ONE = np.nextafter(1.0, 0.0)


def _handed(attack, policy, num_parties, rounds=1, seed=0):
    """What ``_check_blocks`` hands each block of a run, ``(uniforms, configuration, tables)``, the
    tables None on the digit-by-digit route; no block is played."""
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacks, "_check_block", lambda *args: handed.append(args))
        for _ in attacks._check_blocks(rounds, "rounds", "check round", attack, policy, seed, num_parties):
            pass
    return handed


def _digit_route(monkeypatch):
    """Hand every check block no tables, so that it draws each round digit by digit, as where a
    configuration's tables do not fit."""
    check_block = attacks._check_block
    monkeypatch.setattr(attacks, "_check_block", lambda u, config, tables: check_block(u, config, None))


@pytest.mark.parametrize("rounds", [1, 7, 256, 768, 1000])
@pytest.mark.parametrize("num_parties", [2, 3, 4, 5, 6])
def test_check_kernel_matches_the_per_round_oracle(num_parties, rounds):
    """Both routes of the check kernel, the configuration's tables where they fit and the digit by
    digit check step, which every configuration is also made to take here, draw what every
    round's own dense register draws. A third of the rounds take their joint outcome, and every
    other round Eve's outcomes, with a uniform just below 1."""
    configs = itertools.product(OUTSIDE_SETTINGS, CHECK_POLICIES)
    for seed, (setting, policy) in enumerate(configs, start=10 * num_parties):
        attack = _outside_attack(setting, num_parties)
        handed = _handed(attack, policy, num_parties, rounds, seed)
        u = np.concatenate([block for block, _, _ in handed])
        _, config, tables = handed[0]
        targets = len(attack.target_qutrits) if attack is not None else 0
        u[1::2, 2 : 2 + 2 * targets : 2] = _NEAR_ONE
        u[::3, 1 + 2 * targets] = _NEAR_ONE
        want = _per_round_check_block(u, attack, policy, num_parties)
        routes = {"tables": tables, "digit by digit": None} if tables is not None else {"digit by digit": None}
        for route, given in routes.items():
            fourier, joint, passed = attacks._check_block(u, config, given)
            got = fourier, protocol._trits(joint, num_parties), passed
            for name, a, b in zip(("bases", "trits", "verdicts"), got, want):
                assert np.array_equal(a, b), (route, name, attack, policy)


@pytest.mark.parametrize("num_parties, rounds", [(n, 1) for n in range(7, 13)] + [(7, 3), (9, 3), (12, 3)])
def test_check_kernel_matches_the_per_round_oracle_on_wide_registers(num_parties, rounds):
    """The same comparison on the widest registers, 3**7 to 3**12 amplitudes in the oracle, whose
    dense steps take most of the time; only honest runs up to nine parties and one-target runs at
    seven fit the tables."""
    test_check_kernel_matches_the_per_round_oracle(num_parties, rounds)


@pytest.mark.parametrize("policy", EVE_SETTINGS[1:])
def test_a_one_target_run_builds_its_tables_once_and_blocks_only_draw(monkeypatch, policy):
    """A three-party configuration under one intercept builds its tables once, for two runs of three
    2,304-round blocks: one walk over the 27 digit strings of each of its 3 * |Eve's bases| leaves
    in both check bases, whose sums become one guide table. No block walks, takes the digit-by-digit
    step or searches sums: blocks only draw, through the guides of the tables and of Eve's rows."""
    blocks, walked = [], []
    check_block, walk = attacks._check_block, attacks._walk

    def counting_check_block(u, *args):
        blocks.append(len(u))
        return check_block(u, *args)

    def counting_walk(*args):
        walked.append(len(blocks))
        return walk(*args)

    def refused(*args):
        raise AssertionError("a block drew digit by digit")

    monkeypatch.setattr(attacks, "_check_block", counting_check_block)
    monkeypatch.setattr(attacks, "_walk", counting_walk)
    monkeypatch.setattr(attacks, "_check_step", refused)
    monkeypatch.setattr(core, "_counts", refused)
    attacks._check_tables.cache_clear()
    attack = OutsideAttack((2,), policy)
    for run in range(2):
        run_check_rounds(3 * 2304, attack, "random", seed=72 + run)
        info = attacks._check_tables.cache_info()
        assert (info.misses, info.hits) == (1, run)
    bases = 2 if policy == RANDOM_PER_QUTRIT else 1
    assert blocks == [2304] * 6
    assert walked == [0]  # one walk, before the first block
    ((_, _, tables),) = _handed(attack, "random", 3)
    weights, guide, passes = tables
    assert weights.shape == (3 * bases * 2, 27)
    assert isinstance(guide, core._Guide) and guide.size in (1, 2, 4, 8, 16, 32)
    assert [array.shape for array in guide[1:]] == [(3 * bases * 2 * guide.size,)] * 3
    assert passes.shape == (2, 27)


def _table_configurations():
    """Every check configuration of 2-7 parties whose tables fit the budget: no Eve, and each Eve
    policy on the first, the last and all transit qutrits, under each check policy."""
    settings = OUTSIDE_SETTINGS + [(policy, "last target") for policy in EVE_SETTINGS[1:]]
    for num_parties, setting, policy in itertools.product(range(2, 8), settings, CHECK_POLICIES):
        attack = _outside_attack(setting, num_parties)
        if _handed(attack, policy, num_parties)[0][2] is not None:
            yield attack, policy, num_parties


def test_check_rounds_agree_from_cold_and_warm_tables_and_digit_by_digit(monkeypatch):
    """Every configuration whose tables fit records the same rounds over three blocks on its first
    run, which builds its tables, on a second, which finds them cached, in 64-round blocks under
    the budget they set, and with each block drawing digit by digit. The configurations run one
    after another on one cache, cleared once, so tables that one configuration took for another's
    would show. A run's draws thus depend neither on its blocks nor on what ran before it."""
    configurations = list(_table_configurations())
    assert len(configurations) > 100
    rounds = 2 * 2304 + 1
    attacks._check_tables.cache_clear()
    for seed, (attack, policy, num_parties) in enumerate(configurations):
        cold = run_check_rounds(rounds, attack, policy, seed, num_parties)
        assert run_check_rounds(rounds, attack, policy, seed, num_parties) == cold, (attack, policy, num_parties)
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "_BLOCK", 64)
            assert run_check_rounds(rounds, attack, policy, seed, num_parties) == cold, (attack, policy)
        with monkeypatch.context() as patch:
            _digit_route(patch)
            assert run_check_rounds(rounds, attack, policy, seed, num_parties) == cold, (attack, policy, num_parties)


#: Check runs of three blocks whose tables fit: every Eve policy, one and two targets, 3-5 parties.
_THREADED_CHECKS = [
    (2 * 2304 + 1, OutsideAttack((2,), ALWAYS_COMPUTATIONAL), "random", 61, 3),
    (2 * 2304 + 1, OutsideAttack((3,), ALWAYS_FOURIER), "random", 62, 3),
    (2 * 2304 + 1, OutsideAttack((2, 3), RANDOM_PER_QUTRIT), "random", 63, 3),
    (2 * 2304 + 1, OutsideAttack((4,), RANDOM_PER_QUTRIT), FOURIER, 64, 4),
    (2 * 2304 + 1, OutsideAttack((2, 5), RANDOM_PER_QUTRIT), "random", 65, 5),
    (2 * 2304 + 1, OutsideAttack((3, 4), ALWAYS_FOURIER), COMPUTATIONAL, 66, 4),
    (2 * 2304 + 1, None, "random", 67, 5),
    (2 * 2304 + 1, None, FOURIER, 68, 3),
]


def test_check_rounds_agree_across_threads_on_shared_tables(monkeypatch):
    """Threads build and share the cached tables and Eve's guide, read-only, and record what
    sequential runs do: every block of a configuration, in whichever thread, draws from the one
    cached tables object, whose arrays and guide arrays are all frozen."""
    sequential = [run_check_rounds(*run) for run in _THREADED_CHECKS * 5]
    attacks._check_tables.cache_clear()
    protocol._span_model.cache_clear()
    drawn_from = {}
    check_block = attacks._check_block

    def recording_check_block(u, config, tables):
        drawn_from.setdefault(config, set()).add(id(tables))
        return check_block(u, config, tables)

    monkeypatch.setattr(attacks, "_check_block", recording_check_block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, between numpy calls too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda run: run_check_rounds(*run), _THREADED_CHECKS * 5, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    assert threaded == sequential
    model = _arrays(protocol._span_model())
    assert isinstance(protocol._span_model().eve[1], core._Guide) and len(model) == 8  # 3 guide arrays among them
    assert len(drawn_from) == len(_THREADED_CHECKS)
    for _, attack, policy, _, num_parties in _THREADED_CHECKS:
        ((_, config, tables),) = _handed(attack, policy, num_parties)
        assert drawn_from[config] == {id(tables)}, config
        assert isinstance(tables[1], core._Guide)
        assert not any(array.flags.writeable for array in _arrays(tables) + model)


def _fitting_configurations(num_parties):
    """Every check configuration of ``num_parties`` whose complete tree fits ``_TABLE_WEIGHTS``: each
    set of target axes, each choice of Eve's bases and each choice of check bases."""
    for t in range(num_parties):
        for axes in itertools.combinations(range(1, num_parties), t):
            for eve in [(False,), (True,), (False, True)] if axes else [()]:
                if (3 * len(eve)) ** t * 3**num_parties <= attacks._TABLE_WEIGHTS:
                    for check in ((False,), (True,), (False, True)):
                        yield num_parties, axes, eve, check


def test_eves_guide_counts_what_the_binary_search_counts():
    weights, guide, _ = protocol._span_model().eve
    assert guide.size == 2
    assert_guide_counts_exactly(weights, guide)


@pytest.mark.parametrize("num_parties", range(2, 10))
def test_every_fitting_configuration_draws_through_an_exact_guide(num_parties):
    """Each configuration whose tree fits the budget keeps a guide table, never more than twice
    as many entries per row as joint outcomes, that counts what the binary search counts over its
    joint sums: at and one ulp around every sum, at every bucket edge, at 0, just below 1 and at
    10**4 random draws."""
    configurations = list(_fitting_configurations(num_parties))
    assert len(configurations) >= 3
    for seed, config in enumerate(configurations):
        weights, guide, _ = attacks._check_tables.__wrapped__(*config)
        assert isinstance(guide, core._Guide), config
        assert guide.size < 2 * 3**num_parties, config
        assert_guide_counts_exactly(weights, guide, seed)


def test_the_widest_configurations_keep_the_table_cache_within_its_cap():
    """At every party count and Eve policy, the configuration with the most targets that fits, under
    random checks, holds its weights, guide and pass flags within the per-configuration bound that
    ``_TABLES`` states, 1.31 MiB; a full cache of ``_TABLES`` such configurations stays below 21 MiB."""
    bound = 2 * attacks._TABLE_WEIGHTS * (8 + 2 * 12) + 2 * 3**9
    assert bound <= 1.31 * 2**20 and attacks._TABLES * bound <= 21 * 2**20
    widest = {}
    for num_parties in range(2, 10):
        for parties, axes, eve, check in _fitting_configurations(num_parties):
            if check == (False, True) and len(axes) >= len(widest.get((parties, eve), ((), ()))[0]):
                widest[parties, eve] = (axes, check)
    assert len(widest) == 8 + 3 * 6 + 2  # no Eve at 2-9 parties, every Eve at 2-7, a one-basis Eve at 8
    sizes = {key: sum(array.nbytes for array in _arrays(attacks._check_tables.__wrapped__(key[0], axes, key[1], check)))
             for key, (axes, check) in widest.items()}
    assert max(sizes.values()) <= bound, max(sizes.items(), key=lambda item: item[1])
    assert sizes[7, (False,)] > 2**20  # two computational targets at seven parties: 18 rows of 2,187 outcomes


#: (parties, targets, Eve's policy, rounds per block, whether the tables route is taken). Every
#: block holds 2,304 rounds. A run whose complete tree, (3 * |Eve's bases|)**t leaves of 3**n joint
#: outcomes, fits the budget of a block draws from tables; elsewhere a block draws digit by digit.
_BLOCK_PINS = [
    (parties, tuple(range(2, 2 + targets)), policy, 2304, True)
    for parties, targets in ((5, 3), (5, 4), (6, 2), (6, 3), (7, 2), (8, 1))
    for policy in (ALWAYS_COMPUTATIONAL, ALWAYS_FOURIER)
]
_BLOCK_PINS += [(3, (2, 3), RANDOM_PER_QUTRIT, 2304, True), (4, (2, 3, 4), RANDOM_PER_QUTRIT, 2304, True)]
_BLOCK_PINS += [(6, (2, 3), RANDOM_PER_QUTRIT, 2304, False), (5, (2, 3, 4), RANDOM_PER_QUTRIT, 2304, False)]
_BLOCK_PINS += [(7, (2, 3, 4), ALWAYS_FOURIER, 2304, False), (8, (2,), RANDOM_PER_QUTRIT, 2304, False)]
_BLOCK_PINS += [(parties, (parties,), policy, 2304, False) for parties in (9, 10, 12) for policy in EVE_SETTINGS[1:]]
_BLOCK_PINS += [(9, tuple(range(2, 10)), RANDOM_PER_QUTRIT, 2304, False)]
_BLOCK_PINS += [(parties, (), None, 2304, parties <= 9) for parties in range(2, 13)]


@pytest.mark.parametrize(
    "parties,targets,policy,step,tables",
    [pytest.param(*pin, id=f"{pin[0]}-{len(pin[1])}-{pin[2]}-{pin[3]}") for pin in _BLOCK_PINS],
)
def test_block_sizes_keep_one_amplitude_budget(parties, targets, policy, step, tables):
    """A run's configuration, route and block size are resolved once: every block gets the same
    configuration and the same tables."""
    attack = OutsideAttack(targets, policy) if targets else None
    handed = _handed(attack, "random", parties, 2 * step + 1)
    assert [len(u) for u, _, _ in handed] == [step, step, 1]
    _, config, table = handed[0]
    assert all(c is config and t is table for _, c, t in handed)
    assert (table is not None) == tables


def test_inside_blocks_hold_2304_trials(monkeypatch):
    sizes = []
    uniform_blocks = attacks._uniform_blocks

    def recorded(*args):
        for u in uniform_blocks(*args):
            sizes.append(len(u))
            yield u

    monkeypatch.setattr(attacks, "_uniform_blocks", recorded)
    run_inside_attack_experiment(2 * 2304 + 1, InsideAttack(1, FAKE_ZERO), EXACT, seed=1)
    assert sizes == [2304, 2304, 1]


#: A check run refused for its count, check policy, party count or target, with its error.
_CHECK_REFUSALS = [
    ((0, OutsideAttack((2,), RANDOM_PER_QUTRIT), "random", 1), ConfigInvalid, "at least one"),
    ((2.5, OutsideAttack((2,), RANDOM_PER_QUTRIT), "random", 1), ConfigInvalid, "is not an integer"),
    ((10, OutsideAttack((2,), RANDOM_PER_QUTRIT), "diagonal", 1), ConfigInvalid, "unknown check basis policy"),
    ((10, None, "random", 1, 13), ConfigInvalid, "needs 2..12 parties, got 13"),
    ((10, OutsideAttack((2, 4)), "random", 1, 3), LabelOutOfRange, "target 4 is not a transit qutrit"),
]


@pytest.mark.parametrize("run", [run_check_rounds, run_outside_attack_experiment])
def test_a_refused_check_run_builds_no_tables(run):
    attacks._check_tables.cache_clear()
    for args, error, reason in _CHECK_REFUSALS:
        with pytest.raises(error, match=reason):
            run(*args)
        info = attacks._check_tables.cache_info()
        assert (info.currsize, info.misses) == (0, 0), args


def _block_peak(attack, num_parties, seed):
    """Traced peak of one 2,304-round check block under random check bases, after a first run has
    built what it caches."""
    ((u, config, tables),) = _handed(attack, "random", num_parties, 2304, seed)
    attacks._check_block(u, config, tables)
    tracemalloc.start()
    try:
        attacks._check_block(u, config, tables)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_full_check_block_allocates_no_table_per_round():
    """One 2,304-round block keeps a few arrays per round. At three parties under two intercepts
    its peak stays below 512 KiB (a (2304, 27) table of weights alone takes 486 KiB); at nine
    parties with no Eve, below eight registers of 3**9 amplitudes, where one (2304, 3**9) table of
    weights would take 346 MiB."""
    assert _block_peak(OutsideAttack((2, 3), RANDOM_PER_QUTRIT), 3, seed=6) < 512 * 1024
    assert _block_peak(None, 9, seed=7) < 8 * 16 * 3**9


def test_a_full_twelve_party_check_block_allocates_no_register():
    """A 2,304-round 12-party block, honest or under a random intercept on every transit qutrit,
    draws its rounds digit by digit and stays below 1 MiB traced: one register of 3**12
    amplitudes would take 8.1 MiB."""
    assert _block_peak(None, 12, seed=8) < 2**20
    assert _block_peak(OutsideAttack(tuple(range(2, 13)), RANDOM_PER_QUTRIT), 12, seed=9) < 2**20


def test_inside_experiment_allocates_little():
    # A 1,000-trial experiment is one block. It holds each trial's register as three span
    # coefficients, and its widest arrays are the nine Bell weights per trial; a (1000, 9, 9)
    # coefficient array alone would be 1.2 MiB. The warm-up builds the kernel's tables, and the
    # second run's traced peak is 372 KiB (numpy 2.4): the uniforms, the secrets and a few (3, B)
    # and (9, B) arrays, written in place where a step allows it.
    attack = InsideAttack(1, FAKE_HAAR)
    run_inside_attack_experiment(1000, attack, SINGLE_COPY, seed=4)  # warms the caches it builds
    tracemalloc.start()
    try:
        run_inside_attack_experiment(1000, attack, SINGLE_COPY, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


#: Inside runs of more than one 2,304-trial block, so that a run holds blocks of two lengths: every
#: fake (none, |0>, Haar) under both comparisons, by each dishonest agent.
_THREADED_RUNS = [
    (2305 + 700 * i, InsideAttack(1 + i % 2, fake), mode, 40 + i)
    for i, (fake, mode) in enumerate(itertools.product((None, FAKE_ZERO, FAKE_HAAR), (EXACT, SINGLE_COPY)))
]


def test_inside_experiments_agree_across_threads():
    # Each thread writes its blocks into a workspace of its own. numpy releases the GIL inside its
    # products, so two threads sharing one would overwrite each other's blocks.
    sequential = [run_inside_attack_experiment(*run) for run in _THREADED_RUNS * 5]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, between numpy calls too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda run: run_inside_attack_experiment(*run), _THREADED_RUNS * 5, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential


def _arrays(value):
    """Every array in a nest of tuples, such as a guide table's (``core._Guide``)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


def test_inside_results_share_no_memory_with_their_inputs_or_tables():
    u = attacks._stream(6).random((500, attacks._INSIDE_UNIFORMS))
    secrets, designated = attacks._inside_inputs(u, None)
    constants = _arrays(tuple(attacks._span_tables())) + [protocol._recovery_table()]
    assert all(not table.flags.writeable for table in constants)
    for fake in (None, FAKE_ZERO, FAKE_HAAR):
        block = attacks._inside_block(secrets, designated, InsideAttack(1, fake), u)
        for i, a in enumerate(block):
            assert not any(np.shares_memory(a, b) for b in [secrets, designated, u] + constants)
            assert not any(np.shares_memory(a, b) for b in block[i + 1 :])

    secret = haar_random_state(np.random.default_rng(7))
    outcome = run_inside_trial(secret, InsideAttack(1, FAKE_HAAR), 2, np.random.default_rng(8))
    fields = (outcome.bell.n, outcome.bell.m, outcome.designated, outcome.reconstruction_fidelity)
    assert all(type(field) in (int, float) for field in fields)  # built-in numbers, not array views
    transcript = run_sharing_session(SessionConfig(2, 1, secret, 9))
    reconstructed = transcript.reconstructed.amplitudes.copy()
    for run in _THREADED_RUNS:
        run_inside_attack_experiment(*run)
    assert (outcome.bell.n, outcome.bell.m, outcome.designated, outcome.reconstruction_fidelity) == fields
    assert np.array_equal(transcript.reconstructed.amplitudes, reconstructed)


def _dense_inside_block(secrets, designated, attack, u):
    """The inside block by the dense sharing steps: ``protocol._deal`` and ``protocol._help`` on the
    (B, 3, 3) register, the fake drawn by ``sample_indices``, and each trial's fidelity computed
    from the correction table with ``np.vdot``."""
    bell, _, state = protocol._deal(secrets, 2, u[:, attacks._U_BELL])
    theft = designated == attack.dishonest_agent
    if attack.fake_state is None:
        theft[:] = False
    draw = np.where(theft, u[:, attacks._U_SECOND], u[:, attacks._U_FIRST])
    (outcome,), kept = protocol._help(state, draw[:, None])
    announced, captured = outcome.copy(), np.full(len(u), -1)
    if attack.fake_state is not None:
        fake = attack.fake_state.amplitudes
        weights = np.tile(np.abs(_XI_ROWS @ fake) ** 2, (len(u), 1))
        announced[theft] = sample_indices(weights, u[:, attacks._U_FIRST])[theft]
        captured[theft] = outcome[theft]
        kept[~theft] = fake
    table = protocol._recovery_table()
    fid = [
        min(1.0, abs(np.vdot(s, table[b // 3, b % 3, l] @ q)) ** 2)
        for s, b, l, q in zip(secrets, bell.tolist(), outcome.tolist(), kept)
    ]
    return bell, announced, captured, np.array(fid)


@pytest.mark.parametrize("seed", [61, 62, 63, 64, 65])
def test_inside_span_block_matches_the_dense_steps(seed):
    """The span kernel draws what the dense sharing steps draw, on full blocks, for every fake and
    both dishonest agents. Every fourth row's Bell, helper and fake-draw uniforms are the largest
    double below 1, which runs past each row's rounded total."""
    u = attacks._stream(seed).random((2304, attacks._INSIDE_UNIFORMS))
    u[::4, [attacks._U_BELL, attacks._U_FIRST, attacks._U_SECOND]] = np.nextafter(1.0, 0.0)
    secrets, designated = attacks._inside_inputs(u, None)
    for fake, agent in itertools.product((None, FAKE_ZERO, FAKE_HAAR), (1, 2)):
        attack = InsideAttack(agent, fake)
        block = attacks._inside_block(secrets, designated, attack, u)
        bell, announced, captured, fid = _dense_inside_block(secrets, designated, attack, u)
        assert np.array_equal(block.bell, bell)
        assert np.array_equal(block.announced, announced)
        assert np.array_equal(block.captured, captured)
        assert np.abs(block.fidelity - fid).max() < 1e-12


def test_span_bell_weights_are_the_dealers_forms_on_any_span_channel(monkeypatch):
    """On a random span channel sum_k c_k |kkk>, the Bell forms built from its coefficients c are
    the columns of the dense forms (``protocol._dealer_forms``) on the secret's moduli |s_i|^2, and
    give the dense forms' weights: the pairs ``s_i conj(s_j)``, i != j, weigh nothing there."""
    rng = np.random.default_rng(71)
    secrets = np.array([haar_random_state(rng).amplitudes for _ in range(200)])
    outer = secrets[:, :, None] * secrets.conj()[:, None, :]
    for _ in range(5):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        amplitudes = np.zeros(27, dtype=complex)
        amplitudes[[0, 13, 26]] = c
        monkeypatch.setattr(attacks, "ghz_state", {1: PureState(1, c)}.__getitem__)
        tables = attacks._span_tables.__wrapped__()
        forms = protocol._dealer_forms(amplitudes.reshape(3, 9))
        moduli = forms.reshape(3, 3, 2, 9)[[0, 1, 2], [0, 1, 2], 0].T  # at (k, i): the column of |s_i|^2
        assert np.abs(tables.bell_forms - moduli).max() < 1e-15
        dense = outer.reshape(-1, 9).view(np.float64) @ forms
        span = tables.bell_forms @ (secrets.real**2 + secrets.imag**2).T
        assert np.abs(span.T - dense).max() < 1e-15
        assert np.abs(dense - 1 / 9).max() > 0.01  # the channel's weights depend on the secret


#: Uniforms at and just below each boundary of three exact thirds, and the largest double below 1.
_THIRD_EDGES = np.array([0.0, np.nextafter(1 / 3, 0), 1 / 3, np.nextafter(2 / 3, 0), 2 / 3, np.nextafter(1, 0)])


@pytest.mark.parametrize("num_agents", [2, 3, 4, 5, 6])
def test_span_helpers_draw_thirds_and_keep_what_the_dense_helpers_keep(num_agents, monkeypatch):
    """On a span register sum_k a_k |k...k> each helper outcome weighs 1/3 in the dense step
    (``protocol._help``), whatever a is: the fact that ``attacks._span_help`` draws on. It draws
    what ``core._sample`` draws on exact thirds at and just below each boundary, and its unit
    phases leave the qutrit that the dense helpers leave, of norm 1."""
    assert _sample(np.full((6, 3), 1 / 3), _THIRD_EDGES)[0].tolist() == [0, 0, 1, 1, 2, 2]
    rng = np.random.default_rng(90 + num_agents)
    u = np.stack([rng.permutation(np.tile(_THIRD_EDGES, 8)) for _ in range(num_agents - 1)], axis=1)
    outcomes = np.stack([_sample(np.full((len(u), 3), 1 / 3), draw)[0] for draw in u.T], axis=1)
    a = rng.standard_normal((3, len(u))) + 1j * rng.standard_normal((3, len(u)))
    a /= np.linalg.norm(a, axis=0)
    register = np.zeros((len(u), 3**num_agents), dtype=complex)
    register[:, [0, (3**num_agents - 1) // 2, 3**num_agents - 1]] = a.T
    register = register.reshape((len(u),) + (3,) * num_agents)

    weights = []

    def recording(*args):
        result = _measure(*args)
        weights.append(result[1])
        return result

    monkeypatch.setattr(protocol, "_measure", recording)
    for shift in (1, 2, 0):  # every register meets every outcome at every helper
        _, kept = protocol._help(register, (outcomes + shift) % 3)
    assert len(weights) == 3 * (num_agents - 1)
    assert np.abs(np.array(weights) - 1 / 3).max() < 1e-15

    tables = attacks._span_tables()
    for draw, outcome in zip(u.T, outcomes.T):
        assert np.array_equal(attacks._span_help(tables, a, draw), outcome)
        assert np.abs(np.linalg.norm(a, axis=0) - 1).max() < 1e-15
    assert np.abs(a.T - kept).max() < 1e-15


def test_span_tables_are_monomial_gathers_built_on_first_use():
    code = "import tritshare.attacks as a; print(a._span_tables.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "0\n"
    with pytest.raises(ValueError, match="monomial"):
        attacks._monomial(_XI_ROWS[None])
    column, entry = attacks._monomial(protocol._recovery_table().reshape(27, 3, 3))
    x = np.arange(3) + 1j * np.arange(3, 6)
    for k, matrix in enumerate(protocol._recovery_table().reshape(27, 3, 3)):
        assert np.array_equal(entry[:, k] * x[column[:, k]], matrix @ x)


# ---------------------------------------------------------------------------
# exact outside detection rates, every branch enumerated on the one-register API


class _Uniform:
    """A generator whose every draw is ``value``: it forces the branch whose CDF interval holds it."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def _intercept_branches(state, targets, policy):
    """(probability, resent register) of every branch of Eve's intercepts on ``targets``, in order:
    her basis on each target, then her outcome in it."""
    if not targets:
        yield 1.0, state
        return
    label = targets[0]
    bases = {ALWAYS_COMPUTATIONAL: (COMPUTATIONAL,), ALWAYS_FOURIER: (FOURIER,)}.get(policy, (COMPUTATIONAL, FOURIER))
    for basis in bases:
        weights = born_distribution(state, (label,), _members(basis))
        edges = np.concatenate([[0.0], np.cumsum(weights)])
        for k in np.flatnonzero(weights > 1e-12):
            resent = outside_intercept_resend(state, label, basis, _Uniform((edges[k] + edges[k + 1]) / 2))
            assert born_distribution(resent, (label,), _members(basis))[k] == pytest.approx(1.0, abs=1e-12)
            for p, leaf in _intercept_branches(resent, targets[1:], policy):
                yield weights[k] * p / len(bases), leaf


@functools.lru_cache(maxsize=None)
def _product_family(basis, num_parties):
    products = itertools.product(_members(basis), repeat=num_parties)
    return MeasurementFamily(functools.reduce(tensor, members) for members in products)


@functools.lru_cache(maxsize=None)
def _exact_failure_rates(attack, num_parties):
    """Exact failure probability of a computational and of a Fourier check round under ``attack``."""
    targets = attack.target_qutrits if attack is not None else ()
    policy = attack.measure_basis_policy if attack is not None else None
    digits = np.array(list(itertools.product(range(3), repeat=num_parties)))
    fails = {
        COMPUTATIONAL: ~np.all(digits == digits[:, :1], axis=1),
        FOURIER: digits.sum(axis=1) % 3 != 0,
    }
    rates = dict.fromkeys(fails, 0.0)
    for p, leaf in _intercept_branches(ghz_state(num_parties), targets, policy):
        for basis, failing in fails.items():
            weights = born_distribution(leaf, tuple(range(1, num_parties + 1)), _product_family(basis, num_parties))
            rates[basis] += p * float(weights[failing].sum())
    return rates


def _exact_detection_rate(attack, check_policy, num_parties):
    rates = _exact_failure_rates(attack, num_parties)
    if check_policy == "random":
        return (rates[COMPUTATIONAL] + rates[FOURIER]) / 2
    return rates[check_policy]


#: Every setting at 2..5 parties, no Eve and every one-target setting at 6, and Eve on the last
#: transit qutrit alone at 3..6.
EXACT_CASES = (
    [(n, setting) for n in (2, 3, 4, 5) for setting in OUTSIDE_SETTINGS]
    + [(6, setting) for setting in OUTSIDE_SETTINGS if setting[1] != "all targets"]
    + [(n, (policy, "last target")) for n in (3, 4, 5, 6) for policy in EVE_SETTINGS[1:]]
)


@pytest.mark.parametrize("num_parties, setting", EXACT_CASES, ids=[f"{n}-{setting}" for n, setting in EXACT_CASES])
def test_outside_detection_rate_matches_its_exact_value(num_parties, setting):
    attack = _outside_attack(setting, num_parties)
    trials = 4000
    for seed, policy in enumerate(CHECK_POLICIES, start=73):
        exact = _exact_detection_rate(attack, policy, num_parties)
        estimate = run_outside_attack_experiment(trials, attack, policy, seed, num_parties).detection_rate
        assert abs(estimate - exact) <= 4 * np.sqrt(exact * (1 - exact) / trials) + 1e-12, (policy, exact, estimate)


def test_three_party_one_target_exact_rates():
    """Hillery-Buzek-Berthiaume's intercept-resend figures: a round fails with probability 2/3
    when Eve's basis differs from the check basis and never when it matches, so 1/3 under random checks."""
    for policy in EVE_SETTINGS:
        attack = None if policy is None else OutsideAttack((2,), policy)
        expected = 0 if policy is None else 1 / 3
        assert _exact_detection_rate(attack, "random", 3) == pytest.approx(expected, abs=1e-12)
    differ = {ALWAYS_COMPUTATIONAL: FOURIER, ALWAYS_FOURIER: COMPUTATIONAL}
    for policy, check in differ.items():
        assert _exact_detection_rate(OutsideAttack((2,), policy), check, 3) == pytest.approx(2 / 3, abs=1e-12)
        match = COMPUTATIONAL if check == FOURIER else FOURIER
        assert _exact_detection_rate(OutsideAttack((2,), policy), match, 3) == pytest.approx(0, abs=1e-12)
    for check in (COMPUTATIONAL, FOURIER):
        assert _exact_detection_rate(None, check, 3) == pytest.approx(0, abs=1e-12)


def test_any_trial_replays_from_its_counter():
    # trial t reads K uniforms at Philox counter t * K / 4
    k = attacks._INSIDE_UNIFORMS
    stream = attacks._stream(95).random((40, k))
    for t in (0, 1, 17, 39):
        rng = attacks._stream(95)
        rng.bit_generator.advance(t * k // 4)
        assert np.array_equal(rng.random((1, k)), stream[t : t + 1])


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
def test_a_stream_draws_the_uniforms_of_philox_keyed_by_the_seed(seed):
    want = np.random.Generator(np.random.Philox(key=seed)).random(4099)
    assert np.array_equal(attacks._stream(seed).random(4099), want)


@pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (4, np.uint32), (1, np.uint64), (4, np.uint64)])
def test_a_stream_key_hands_over_only_its_two_uint64_words(n_words, dtype):
    """``Philox`` asks a seed sequence for 2 uint64 words; the key refuses any other request, so a
    numpy that asked otherwise would fail loudly instead of keying every stream with other words."""
    key = attacks._key_type()(2**64 + 7)
    assert key.generate_state(2, np.uint64).tolist() == [7, 1]
    with pytest.raises(ValueError, match="2 words of uint64"):
        key.generate_state(n_words, dtype)


def test_streams_open_at_once_do_not_disturb_each_other():
    """Each call opens a stream of its own: streams of one seed and of two, drawn in turns in one
    thread or at once in two, each draw what a stream drawn alone does."""
    seeds = (5, 5, 2**100 + 3)
    alone = {seed: np.random.Generator(np.random.Philox(key=seed)).random((300, 8)) for seed in seeds}
    streams = [attacks._stream(seed) for seed in seeds]
    assert len({id(stream.bit_generator) for stream in streams}) == len(seeds)
    turns = np.array([[stream.random(8) for stream in streams] for _ in range(300)])
    for i, seed in enumerate(seeds):
        assert np.array_equal(turns[:, i], alone[seed]), i

    def drawn(seed):
        stream = attacks._stream(seed)
        return np.array([stream.random(8) for _ in range(300)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(drawn, seeds + seeds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for seed, got in zip(seeds + seeds, threaded):
        assert np.array_equal(got, alone[seed]), seed


def _drop(labels, measured):
    """Labels left after measuring one qutrit away: later labels shift down by one."""
    return {key: label - (label > measured) for key, label in labels.items() if label != measured}


def _replay_inside_trial(secret, attack, designated, bell, announced, captured):
    """The inside choreography on PureStates, with every sampled outcome forced."""
    attacker = attack.dishonest_agent
    victim = 3 - attacker
    session = inside_capture_and_fake(start_session(secret), attack, victim)
    state = project_subsystem(session.state, session.dealer_labels, bell_family(), bell).collapsed
    holds = {agent: label - 2 for agent, label in session.agent_label.items()}
    stolen = {agent: label - 2 for agent, label in session.captured_label.items()}
    outcome = BellOutcome.from_index(bell)
    if designated == attacker:
        state = project_subsystem(state, (holds[victim],), xi_family(), announced).collapsed
        holds, stolen = _drop(holds, holds[victim]), _drop(stolen, holds[victim])
        helper_sum = announced
        if attacker in stolen:
            state = project_subsystem(state, (stolen[attacker],), xi_family(), captured).collapsed
            helper_sum = captured
        return fidelity(reconstruct(state, outcome, helper_sum), secret)
    state = project_subsystem(state, (holds[attacker],), xi_family(), announced).collapsed
    holds = _drop(holds, holds[attacker])
    corrected = apply_single(recovery_operator(outcome, announced), holds[victim], state)
    if corrected.num_qutrits == 1:
        return fidelity(corrected, secret)
    rho = reduced_density(corrected, (holds[victim],))
    return float(np.vdot(secret.amplitudes, rho.entries @ secret.amplitudes).real)


@pytest.mark.parametrize("attack,mode", list(_inside_configs()))
def test_inside_kernel_matches_forced_branch_replay(attack, mode):
    trials, seed = 200, 96 + attack.dishonest_agent
    u = attacks._stream(seed).random((trials, attacks._INSIDE_UNIFORMS))
    secrets, designated = attacks._inside_inputs(u, None)
    block = attacks._inside_block(secrets, designated, attack, u)
    successes = detections = 0
    for t in range(trials):
        replayed = _replay_inside_trial(
            PureState(1, secrets[t]), attack, int(designated[t]), int(block.bell[t]),
            int(block.announced[t]), int(block.captured[t]),
        )
        assert abs(replayed - block.fidelity[t]) < 1e-12
        if designated[t] == attack.dishonest_agent:
            successes += 1
        elif mode == EXACT:
            detections += replayed < attacks.EXACT_COMPARISON_THRESHOLD
        else:
            detections += u[t, attacks._U_COMPARE] < 1.0 - replayed
    stats = run_inside_attack_experiment(trials, attack, mode, seed)
    assert (stats.attacker_successes, stats.detections) == (successes, detections)
