"""Session choreography and channel-verification tests.

The nine post-measurement branch states are hard-coded below exactly as
published (coefficient order alpha, beta, gamma with their phase
factors) and serve as the oracle for the collapse identities.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from tritshare import (
    Announcement,
    BellOutcome,
    HelperSum,
    PureState,
    SessionConfig,
    XiOutcome,
    basis_index,
    basis_state,
    bell_family,
    born_distribution,
    channel_check_round,
    fidelity,
    ghz_state,
    haar_random_state,
    make_state,
    project_subsystem,
    reconstruct,
    reduced_density,
    run_sharing_session,
    tensor,
    verify_correlations,
    xi_family,
    xi_state,
)
import tritshare.attacks as attacks
from tritshare.attacks import ALWAYS_COMPUTATIONAL, OutsideAttack, run_check_rounds, run_outside_attack_experiment
from tritshare.errors import ConfigInvalid, DimensionMismatch, EmptyInput, ZeroProbabilityBranchSampled
import tritshare.protocol as protocol
from tritshare.core import _block, _measure, _weights, sample_indices
from tritshare.protocol import (
    BELL_RESULT,
    COMPUTATIONAL,
    DESIGNATION,
    FOURIER,
    HELPER_RESULT,
    MAX_AGENTS,
    CheckRecord,
    _check_step,
    _deal,
    _help,
    _trits,
)
from tritshare.operators import _XI_ROWS

SQRT3 = np.sqrt(3.0)


def phase(k):
    """e^{-2 pi i k / 3}; the published branch phases written literally."""
    return np.exp(-2j * np.pi * k / 3)


# Post-measurement two-agent branch for each announcement (n, m):
# list of (ket digits, phase factor) attached to alpha, beta, gamma in order.
BRANCH_TABLE = {
    (0, 0): [("00", 1), ("11", 1), ("22", 1)],
    (0, 1): [("11", 1), ("22", 1), ("00", 1)],
    (0, 2): [("22", 1), ("00", 1), ("11", 1)],
    (1, 0): [("00", 1), ("11", phase(1)), ("22", phase(2))],
    (2, 0): [("00", 1), ("11", phase(2)), ("22", phase(4))],
    (1, 1): [("11", 1), ("22", phase(1)), ("00", phase(2))],
    (2, 1): [("11", 1), ("22", phase(2)), ("00", phase(4))],
    (1, 2): [("22", 1), ("00", phase(1)), ("11", phase(2))],
    (2, 2): [("22", 1), ("00", phase(2)), ("11", phase(4))],
}


def branch_oracle_state(secret_amps, n, m):
    vec = np.zeros(9, dtype=complex)
    for coeff, (digits, factor) in zip(secret_amps, BRANCH_TABLE[(n, m)]):
        vec[basis_index([int(d) for d in digits])] = coeff * factor
    return PureState(2, vec / np.linalg.norm(vec))


def random_secret(rng):
    return haar_random_state(rng)


# ---------------------------------------------------------------------------
# branch identities


def test_collapse_matches_published_branch_table():
    rng = np.random.default_rng(31)
    for _ in range(5):
        secret = random_secret(rng)
        joint = tensor(secret, ghz_state(3))
        for (n, m), _ in BRANCH_TABLE.items():
            record = project_subsystem(joint, (1, 2), bell_family(), BellOutcome(n, m).index)
            expected = branch_oracle_state(secret.amplitudes, n, m)
            assert fidelity(record.collapsed, expected) == pytest.approx(1.0, abs=1e-12)
            assert record.probability == pytest.approx(1 / 9, abs=1e-12)


# ---------------------------------------------------------------------------
# sharing sessions


def test_honest_session_reconstructs_exactly():
    rng = np.random.default_rng(32)
    for seed in range(6):
        cfg = SessionConfig(num_agents=2, designated=1 + seed % 2, secret=random_secret(rng), seed=seed)
        transcript = run_sharing_session(cfg)
        assert transcript.fidelity_to_secret > 1.0 - 1e-10


def test_forced_multi_party_session():
    rng = np.random.default_rng(33)
    secret = random_secret(rng)
    cfg = SessionConfig(num_agents=5, designated=3, secret=secret, seed=0)
    transcript = run_sharing_session(cfg, forced_bell=BellOutcome(0, 0), forced_helpers=(1, 0, 2, 1))
    helper_payloads = [a.payload for a in transcript.announcements if a.kind == HELPER_RESULT]
    assert helper_payloads == [XiOutcome(1), XiOutcome(0), XiOutcome(2), XiOutcome(1)]
    assert HelperSum.from_outcomes(helper_payloads) == HelperSum(1)
    assert transcript.fidelity_to_secret > 1.0 - 1e-10


def test_forced_identity_branch_needs_no_correction():
    rng = np.random.default_rng(34)
    secret = random_secret(rng)
    cfg = SessionConfig(num_agents=2, designated=2, secret=secret, seed=0)
    transcript = run_sharing_session(cfg, forced_bell=BellOutcome(0, 0), forced_helpers=(0,))
    assert transcript.fidelity_to_secret > 1.0 - 1e-10
    # that branch introduces no phases at all, so even the raw amplitudes agree
    assert np.allclose(transcript.reconstructed.amplitudes, secret.amplitudes, atol=1e-10)


def test_exhaustive_reconstruction_small():
    rng = np.random.default_rng(35)
    for num_agents in (2, 3, 4):
        secrets = [random_secret(rng) for _ in range(3)]
        for designated in range(1, num_agents + 1):
            for bell_index in range(9):
                for helpers in itertools.product(range(3), repeat=num_agents - 1):
                    for secret in secrets:
                        cfg = SessionConfig(num_agents, designated, secret, 0)
                        transcript = run_sharing_session(
                            cfg, forced_bell=BellOutcome.from_index(bell_index), forced_helpers=helpers
                        )
                        assert transcript.fidelity_to_secret > 1.0 - 1e-10


def test_reconstruct_undoes_single_phase_step():
    rng = np.random.default_rng(36)
    alpha, beta, gamma = random_secret(rng).amplitudes
    secret = PureState(1, np.array([alpha, beta, gamma]))
    collapsed = PureState(1, np.array([alpha, phase(1) * beta, phase(2) * gamma]))
    restored = reconstruct(collapsed, BellOutcome(0, 0), HelperSum(1))
    assert fidelity(restored, secret) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_identity_case():
    rng = np.random.default_rng(37)
    secret = random_secret(rng)
    assert fidelity(reconstruct(secret, BellOutcome(0, 0), HelperSum(0)), secret) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_from_simulated_collapse():
    # DERIVED: force branch (1,2) and helper outcome 2, then undo
    rng = np.random.default_rng(38)
    secret = random_secret(rng)
    joint = tensor(secret, ghz_state(3))
    agents = project_subsystem(joint, (1, 2), bell_family(), BellOutcome(1, 2).index).collapsed
    designated_state = project_subsystem(agents, (1,), xi_family(), 2).collapsed
    restored = reconstruct(designated_state, BellOutcome(1, 2), HelperSum(2))
    assert fidelity(restored, secret) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_requires_single_qutrit():
    with pytest.raises(DimensionMismatch):
        reconstruct(ghz_state(2), BellOutcome(0, 0), 0)


def test_session_config_validation():
    rng = np.random.default_rng(39)
    secret = random_secret(rng)
    with pytest.raises(ConfigInvalid):
        run_sharing_session(SessionConfig(1, 1, secret, 0))
    with pytest.raises(ConfigInvalid):
        run_sharing_session(SessionConfig(11, 1, secret, 0))
    with pytest.raises(ConfigInvalid):
        run_sharing_session(SessionConfig(2, 3, secret, 0))
    with pytest.raises(ConfigInvalid):
        run_sharing_session(SessionConfig(2, 1, ghz_state(2), 0))
    with pytest.raises(ConfigInvalid):
        run_sharing_session(SessionConfig(2, 1, secret, -1))


# ---------------------------------------------------------------------------
# outcome statistics and secrecy


def test_bell_probabilities_exactly_uniform():
    rng = np.random.default_rng(40)
    for _ in range(20):
        joint = tensor(random_secret(rng), ghz_state(3))
        probs = born_distribution(joint, (1, 2), bell_family())
        assert np.max(np.abs(probs - 1 / 9)) < 1e-12


def test_helper_probabilities_exactly_uniform_and_secret_independent():
    rng = np.random.default_rng(41)
    for _ in range(10):
        joint = tensor(random_secret(rng), ghz_state(3))
        for bell_index in range(9):
            agents = project_subsystem(joint, (1, 2), bell_family(), bell_index).collapsed
            probs = born_distribution(agents, (1,), xi_family())
            assert np.max(np.abs(probs - 1 / 3)) < 1e-12


def test_single_agent_average_is_maximally_mixed():
    rng = np.random.default_rng(42)
    for _ in range(10):
        joint = tensor(random_secret(rng), ghz_state(3))
        for agent_label in (1, 2):
            total = np.zeros((3, 3), dtype=complex)
            for bell_index in range(9):
                record = project_subsystem(joint, (1, 2), bell_family(), bell_index)
                total += record.probability * reduced_density(record.collapsed, (agent_label,)).entries
            assert np.max(np.abs(total - np.eye(3) / 3)) < 1e-12


def test_agent_subset_average_is_classical_ghz_mixture():
    rng = np.random.default_rng(43)
    num_agents = 3
    expected2 = np.zeros((9, 9), dtype=complex)
    for t in range(3):
        ket = np.zeros(9)
        ket[basis_index([t, t])] = 1.0
        expected2 += np.outer(ket, ket) / 3
    for _ in range(5):
        joint = tensor(random_secret(rng), ghz_state(num_agents + 1))
        for subset in [(1,), (2, 3), (1, 3)]:
            dim = 3 ** len(subset)
            total = np.zeros((dim, dim), dtype=complex)
            for bell_index in range(9):
                record = project_subsystem(joint, (1, 2), bell_family(), bell_index)
                total += record.probability * reduced_density(record.collapsed, subset).entries
            if len(subset) == 1:
                assert np.max(np.abs(total - np.eye(3) / 3)) < 1e-12
            else:
                assert np.max(np.abs(total - expected2)) < 1e-12


@pytest.mark.parametrize("num_agents", [2, 3])
def test_agent_marginal_given_the_bell_outcome_is_the_shifted_populations(num_agents):
    """Once the Bell outcome (n, m) is public, one agent's qutrit holds the secret's computational
    populations shifted by m and no coherence; only the average over the nine outcomes is I/3."""
    rng = np.random.default_rng(44 + num_agents)
    for _ in range(5):
        secret = random_secret(rng)
        populations = np.abs(secret.amplitudes) ** 2
        joint = tensor(secret, ghz_state(num_agents + 1))
        for agent_label in range(1, num_agents + 1):
            total = np.zeros((3, 3), dtype=complex)
            for bell_index in range(9):
                record = project_subsystem(joint, (1, 2), bell_family(), bell_index)
                marginal = reduced_density(record.collapsed, (agent_label,)).entries
                shift = BellOutcome.from_index(bell_index).m
                assert np.max(np.abs(marginal - np.diag(populations[(np.arange(3) - shift) % 3]))) < 1e-12
                total += record.probability * marginal
            assert np.max(np.abs(total - np.eye(3) / 3)) < 1e-12


def public_branches(secret, num_agents, designated):
    """Every branch of a session's public transcript, stage by stage, on the public API: stage 0
    follows the Bell announcement and stage k the k-th helper's. Yields ``(stage, m, weight, state,
    labels)``: the Bell outcome's m, the Born weight of the announcements so far, the register of
    the qutrits not yet measured and each of their holders' labels in it."""
    helpers = [a for a in range(1, num_agents + 1) if a != designated]

    def after(stage, m, weight, state, labels):
        yield stage, m, weight, state, labels
        if stage < len(helpers):
            measured = labels[helpers[stage]]
            left = {a: label - (label > measured) for a, label in labels.items() if label != measured}
            for l in range(3):
                record = project_subsystem(state, (measured,), xi_family(), l)
                yield from after(stage + 1, m, weight * record.probability, record.collapsed, left)

    joint = tensor(secret, ghz_state(num_agents + 1))
    for index in range(9):
        record = project_subsystem(joint, (1, 2), bell_family(), index)
        agents = {a: a for a in range(1, num_agents + 1)}
        yield from after(0, BellOutcome.from_index(index).m, record.probability, record.collapsed, agents)


def coalitions(holders):
    """Every non-empty set of the given agents, as sorted tuples."""
    return [c for k in range(1, len(holders) + 1) for c in itertools.combinations(sorted(holders), k)]


def ghz_diagonal(populations, size):
    """``sum_t populations[t] |t...t><t...t|`` on ``size`` qutrits."""
    rho = np.zeros((3**size, 3**size), dtype=complex)
    for t in range(3):
        index = basis_index([t] * size)
        rho[index, index] = populations[t]
    return rho


@pytest.mark.parametrize("num_agents", [2, 3, 4])
def test_coalition_average_over_the_public_outcomes_does_not_depend_on_the_secret(num_agents):
    """At every stage of the public transcript, the Born-weighted average over the announcements so
    far leaves every set of agents' unmeasured qutrits in the classical GHZ mixture, whatever the secret."""
    rng = np.random.default_rng(90 + num_agents)
    for secret in (basis_state([0]), xi_state(1), random_secret(rng), random_secret(rng)):
        for designated in range(1, num_agents + 1):
            totals = {}
            for stage, _, weight, state, labels in public_branches(secret, num_agents, designated):
                for coalition in coalitions(labels):
                    rho = reduced_density(state, [labels[a] for a in coalition]).entries
                    totals[stage, coalition] = totals.get((stage, coalition), 0) + weight * rho
            assert len(totals) == sum(2 ** (num_agents - k) - 1 for k in range(num_agents))
            for (_, coalition), total in totals.items():
                expected = ghz_diagonal(np.full(3, 1 / 3), len(coalition))
                assert np.max(np.abs(total - expected)) < 1e-12


@pytest.mark.parametrize("num_agents", [2, 3, 4])
def test_a_coalition_lacking_a_qutrit_holds_the_shifted_populations(num_agents):
    """Given the announcements so far, a set of agents that lacks some other unmeasured qutrit holds
    the secret's computational populations shifted by the announced m, with no coherence: only the
    holders of every qutrit left, with every helper's result, can restore the phases."""
    rng = np.random.default_rng(95 + num_agents)
    for secret in (xi_state(2), random_secret(rng), random_secret(rng)):
        populations = np.abs(secret.amplitudes) ** 2
        for designated in range(1, num_agents + 1):
            for _, m, _, state, labels in public_branches(secret, num_agents, designated):
                shifted = populations[(np.arange(3) - m) % 3]
                for coalition in coalitions(labels)[:-1]:  # all but the whole set, which comes last
                    rho = reduced_density(state, [labels[a] for a in coalition]).entries
                    expected = ghz_diagonal(shifted, len(coalition))
                    assert np.max(np.abs(rho - expected)) < 1e-12


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_announcement_order():
    rng = np.random.default_rng(44)
    cfg = SessionConfig(4, 2, random_secret(rng), seed=9)
    transcript = run_sharing_session(cfg)
    kinds = [a.kind for a in transcript.announcements]
    assert kinds == [BELL_RESULT, DESIGNATION] + [HELPER_RESULT] * 3
    senders = [a.sender for a in transcript.announcements if a.kind == HELPER_RESULT]
    assert senders == ["agent_1", "agent_3", "agent_4"]
    assert 0.0 <= transcript.fidelity_to_secret <= 1.0


def test_transcript_determinism_bitwise():
    rng = np.random.default_rng(45)
    secret = random_secret(rng)
    cfg = SessionConfig(3, 2, secret, seed=123)
    a = run_sharing_session(cfg)
    b = run_sharing_session(cfg)
    assert a.announcements == b.announcements
    assert a.bell_probability == b.bell_probability
    assert np.array_equal(a.reconstructed.amplitudes, b.reconstructed.amplitudes)
    assert a.fidelity_to_secret == b.fidelity_to_secret


@pytest.mark.parametrize("num_agents", [2, 3, 4, 5, 6])
def test_session_matches_pure_state_replay(num_agents):
    # Replay each transcript's announced outcomes on PureStates: tensor the
    # secret with the channel, project the dealer's pair away, then project
    # every helper's qutrit at its register label, which shifts down by one
    # past every measured qutrit. The session's block steps must agree.
    for designated in range(1, num_agents + 1):
        for seed in (5, 61, 977):
            secret = haar_random_state(np.random.default_rng([seed, designated]))
            transcript = run_sharing_session(SessionConfig(num_agents, designated, secret, seed))
            bell = transcript.announcements[0].payload
            record = project_subsystem(tensor(secret, ghz_state(num_agents + 1)), (1, 2), bell_family(), bell.index)
            state = record.collapsed
            labels = {agent: agent for agent in range(1, num_agents + 1)}
            helpers = transcript.announcements[2:]
            assert [a.sender for a in helpers] == [f"agent_{a}" for a in labels if a != designated]
            for announcement in helpers:
                measured = labels.pop(int(announcement.sender.removeprefix("agent_")))
                state = project_subsystem(state, (measured,), xi_family(), announcement.payload.l).collapsed
                labels = {agent: label - (label > measured) for agent, label in labels.items()}
            assert labels == {designated: 1}
            replayed = reconstruct(state, bell, HelperSum.from_outcomes(a.payload for a in helpers))
            assert abs(transcript.bell_probability - record.probability) < 1e-12
            assert np.max(np.abs(transcript.reconstructed.amplitudes - replayed.amplitudes)) < 1e-12


def _assert_deal_matches_the_product_register(channel, secrets, draws):
    """The dealer's step on ``channel`` never builds secret (x) channel; the reference does, and
    projects the dealer's pair onto the Bell member the step reports."""
    block = np.array([s.amplitudes for s in secrets])
    num_agents = channel.num_qutrits - 1
    for draw in draws:
        outcomes, weights, state = _deal(block, num_agents, draw)
        assert state.shape == (len(secrets),) + (3,) * num_agents
        for b, secret in enumerate(secrets):
            product = tensor(secret, channel)
            expected = draw[b]
            if draw.dtype.kind == "f":
                expected = sample_indices(born_distribution(product, (1, 2), bell_family())[None, :], draw[b : b + 1])[0]
            assert outcomes[b] == expected
            record = project_subsystem(product, (1, 2), bell_family(), int(expected))
            assert abs(weights[b] - record.probability) < 1e-12
            assert np.max(np.abs(state[b].reshape(-1) - record.collapsed.amplitudes)) < 1e-12


@pytest.mark.parametrize("num_agents", range(2, MAX_AGENTS + 1))
def test_dealer_step_matches_the_product_register(num_agents):
    rng = np.random.default_rng(70 + num_agents)
    secrets = [haar_random_state(rng) for _ in range(9)]
    draws = [np.arange(9), (4 * np.arange(9) + 7) % 9, rng.random(9)]  # every forced outcome, twice, then sampled
    _assert_deal_matches_the_product_register(ghz_state(num_agents + 1), secrets, draws)


@pytest.mark.parametrize("num_agents", [2, 4, 7, 9])
def test_dealer_step_matches_the_product_register_on_any_channel(num_agents, monkeypatch):
    # On the GHZ channel every Born weight is 1/9; a Haar channel's dealer qutrit has a reduced
    # density far from I/3, so the nine quadratic forms are exercised in full.
    rng = np.random.default_rng(80 + num_agents)
    channel = haar_random_state(rng, num_agents + 1)
    monkeypatch.setattr(protocol, "ghz_state", lambda k: channel)
    secrets = [haar_random_state(rng) for _ in range(5)]
    _assert_deal_matches_the_product_register(channel, secrets, [rng.random(5), rng.integers(9, size=5)])


@pytest.mark.parametrize("num_agents", [2, 7])
def test_forced_deal_refusal_keeps_its_tolerance(num_agents, monkeypatch):
    # On the channel |0...0> + b |10...0> the secret |0> finds weight b^2 / 3 at Bell members 1, 4
    # and 7 and none at 2, 5 and 8; the kept row's squared norm meets ZERO_PROB_TOL.
    secret = np.array([[1.0, 0.0, 0.0]], dtype=np.complex128)
    for b, refused in ((1e-11, False), (1e-13, True), (0.0, True)):
        amps = np.zeros(3 ** (num_agents + 1), dtype=np.complex128)
        amps[0], amps[3**num_agents] = 1.0, b
        channel = PureState(num_agents + 1, amps / np.linalg.norm(amps))
        monkeypatch.setattr(protocol, "ghz_state", lambda k: channel)
        for k in (1, 2, 4, 7):
            if refused or k == 2:
                with pytest.raises(ZeroProbabilityBranchSampled):
                    _deal(secret, num_agents, np.array([k]))
            else:
                _, weight, kept = _deal(secret, num_agents, np.array([k]))
                assert abs(weight[0] - b**2 / 3) < 1e-12 * b**2
                assert abs(kept.reshape(-1)[0] - 1) < 1e-12


def test_wide_session_allocates_little():
    # A session at N = 10 keeps no nine-row coefficient array of the 3^11-amplitude channel
    # (8.5 MiB): the dealer contracts only the drawn row, one 3^10-amplitude register (0.9 MiB).
    # The first helper's measurement of that register sets the peak, 2.11 MiB, with its kept
    # row normalized in place.
    cfg = SessionConfig(MAX_AGENTS, 4, haar_random_state(np.random.default_rng(3)), 11)
    run_sharing_session(cfg)  # builds and caches the channel
    tracemalloc.start()
    try:
        run_sharing_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("num_agents", range(2, MAX_AGENTS + 1))
def test_session_reconstruction_is_public_reconstruct(num_agents):
    # A session corrects its qutrit through the recovery table, not through reconstruct; replay
    # the session's own steps and draws and correct with the public function.
    for designated, seed in ((1, 3), (num_agents, 19)):
        secret = haar_random_state(np.random.default_rng([seed, num_agents]))
        transcript = run_sharing_session(SessionConfig(num_agents, designated, secret, seed))
        rng = np.random.default_rng(seed)
        bell_draw, helper_draws = rng.random(1), rng.random((1, num_agents - 1))
        _, _, dealt = _deal(secret.amplitudes[None, :], num_agents, bell_draw)
        outcomes, qutrit = _help(dealt, helper_draws)
        bell = transcript.announcements[0].payload
        expected = reconstruct(PureState(1, qutrit[0]), bell, HelperSum.from_outcomes(int(o[0]) for o in outcomes))
        got = transcript.reconstructed
        assert got.num_qutrits == 1 and not got.amplitudes.flags.writeable
        assert abs(np.vdot(got.amplitudes, got.amplitudes).real - 1.0) <= 1e-12
        assert np.max(np.abs(got.amplitudes - expected.amplitudes)) <= 1e-15


def _help_by_relabeling(state, held, designated, draws):
    """Reference helpers' step for one designation: each helper measures the axis it holds in
    place, the held axes above it move down, and the designated agent's axis then moves last."""
    outcomes = []
    for agent, draw in zip([a for a in range(1, len(held) + 1) if a != designated], draws.T):
        axis = held[agent - 1]
        outcome, _, state = _measure(state, (axis,), _XI_ROWS, draw)
        outcomes.append(outcome)
        held = [h - (h > axis) for h in held]
    return outcomes, np.moveaxis(state, held[designated - 1] + 1, -1)


def _dealt_blocks(num_agents, seed):
    """Dealt registers of nine Haar secrets: every forced Bell outcome once, then sampled outcomes."""
    rng = np.random.default_rng(seed)
    secrets = np.array([haar_random_state(rng).amplitudes for _ in range(9)])
    for draw in (np.arange(9), rng.random(9)):
        yield _deal(secrets, num_agents, draw)[2], rng.random((9, num_agents - 1))


def _is_symmetric(block):
    return all(
        np.array_equal(block, block.transpose((0,) + tuple(k + 1 for k in perm)))
        for perm in itertools.permutations(range(block.ndim - 1))
    )


@pytest.mark.parametrize("num_agents", [2, 3, 4, 5, 6])
def test_dealt_register_stays_symmetric_under_every_qutrit_permutation(num_agents):
    # the premise of _help: no helper needs to know which qutrit is theirs
    for state, draws in _dealt_blocks(num_agents, 80 + num_agents):
        assert _is_symmetric(state)
        for draw in draws.T:
            _, _, state = _measure(state, (0,), _XI_ROWS, draw)
            assert _is_symmetric(state)


@pytest.mark.parametrize("num_agents", [2, 3, 4, 5, 6])
def test_helpers_step_matches_each_agent_measuring_their_own_qutrit(num_agents):
    for state, draws in _dealt_blocks(num_agents, 90 + num_agents):
        outcomes, kept = _help(state, draws)
        assert kept.shape == (9, 3)
        for designated in range(1, num_agents + 1):
            ref_outcomes, ref_kept = _help_by_relabeling(state, list(range(num_agents)), designated, draws)
            for outcome, ref_outcome in zip(outcomes, ref_outcomes, strict=True):
                assert np.array_equal(outcome, ref_outcome)
            assert np.array_equal(kept, ref_kept)


# ---------------------------------------------------------------------------
# channel checks


def test_honest_computational_round_all_equal():
    rng = np.random.default_rng(46)
    for _ in range(50):
        record = channel_check_round(COMPUTATIONAL, rng)
        assert record.passed
        assert len(set(record.outcomes)) == 1


def test_honest_fourier_round_trit_sum_zero():
    # DERIVED oracle: <xi_l1 xi_l2 xi_l3 | GHZ> vanishes unless l1+l2+l3 = 0 mod 3
    ghz_vec = np.zeros(27, dtype=complex)
    ghz_vec[[0, 13, 26]] = 1 / SQRT3
    omega = np.exp(2j * np.pi / 3)
    xi = [np.array([1, omega**l, omega ** (2 * l)]) / SQRT3 for l in range(3)]
    for l1, l2, l3 in itertools.product(range(3), repeat=3):
        bra = np.kron(np.kron(xi[l1], xi[l2]), xi[l3]).conj()
        amp = bra @ ghz_vec
        if (l1 + l2 + l3) % 3 == 0:
            assert abs(amp) == pytest.approx(1 / 3, abs=1e-12)
        else:
            assert abs(amp) < 1e-12

    rng = np.random.default_rng(47)
    for _ in range(50):
        record = channel_check_round(FOURIER, rng)
        assert record.passed
        assert sum(record.outcomes) % 3 == 0


def test_intercept_fourier_failure_probability_two_thirds():
    """DERIVED: computational intercept collapses GHZ to |ttt>, whose Fourier
    outcomes are uniform over 27 combos; 9 of them pass, so 2/3 fail."""
    omega = np.exp(2j * np.pi / 3)
    xi = [np.array([1, omega**l, omega ** (2 * l)]) / SQRT3 for l in range(3)]
    for t in range(3):
        ket = np.zeros(27)
        ket[basis_index([t, t, t])] = 1.0
        fail = 0.0
        for l1, l2, l3 in itertools.product(range(3), repeat=3):
            bra = np.kron(np.kron(xi[l1], xi[l2]), xi[l3]).conj()
            p = abs(bra @ ket) ** 2
            if (l1 + l2 + l3) % 3 != 0:
                fail += p
        assert fail == pytest.approx(2 / 3, abs=1e-12)

    records = run_check_rounds(3000, OutsideAttack((2,), ALWAYS_COMPUTATIONAL), FOURIER, seed=48)
    fails = sum(1 for record in records if not record.passed)
    assert fails / 3000 == pytest.approx(2 / 3, abs=0.03)


@pytest.mark.parametrize("num_parties", [1, 13])
def test_check_rounds_refuse_party_counts_outside_the_ghz_range(num_parties):
    with pytest.raises(ConfigInvalid, match=r"needs 2\.\.12 parties"):
        channel_check_round(COMPUTATIONAL, np.random.default_rng(0), num_parties=num_parties)
    with pytest.raises(ConfigInvalid, match=r"needs 2\.\.12 parties"):
        run_check_rounds(5, None, "random", seed=0, num_parties=num_parties)
    with pytest.raises(ConfigInvalid, match=r"needs 2\.\.12 parties"):
        run_outside_attack_experiment(5, None, "random", seed=0, num_parties=num_parties)


def test_check_rounds_accept_the_largest_ghz_register():
    assert channel_check_round(COMPUTATIONAL, np.random.default_rng(0), num_parties=12).passed
    assert len(run_check_rounds(1, None, COMPUTATIONAL, seed=0, num_parties=12)[0].outcomes) == 12


def test_check_round_generalizes_to_more_parties():
    rng = np.random.default_rng(49)
    for _ in range(20):
        assert channel_check_round(COMPUTATIONAL, rng, num_parties=5).passed
        assert channel_check_round(FOURIER, rng, num_parties=5).passed


@pytest.mark.parametrize("basis", [COMPUTATIONAL, FOURIER])
@pytest.mark.parametrize("num_parties", [2, 3, 4, 5, 6])
def test_honest_round_keeps_the_ghz_correlation(num_parties, basis):
    rng = np.random.default_rng(54 + num_parties)
    seen = set()
    for _ in range(60):
        record = channel_check_round(basis, rng, num_parties=num_parties)
        assert record.passed
        assert record.basis == basis
        assert len(record.outcomes) == num_parties
        if basis == COMPUTATIONAL:
            assert len(set(record.outcomes)) == 1
        else:
            assert sum(record.outcomes) % 3 == 0
        seen.add(record.outcomes)
    # every party's outcome is uniform, so the rounds do not repeat one outcome
    assert len(seen) > 1


def _basis_rows(fourier):
    """Per-round measurement rows: the Fourier basis where flagged, else computational."""
    return np.where(fourier[:, None, None], _XI_ROWS, np.eye(3))


def _reference_check_outcomes(state, fourier, u):
    """The check step as every round's own basis rows applied on each party's axis of its own register."""
    rows = _basis_rows(fourier)
    for axis in range(state.ndim - 1):
        turned = np.einsum("bij,bj...->bi...", rows, np.moveaxis(state, axis + 1, 1))
        state = np.moveaxis(turned, 1, axis + 1)
    joint = sample_indices(_weights(state.reshape(len(state), -1, 1)), u)
    trits = np.stack(np.unravel_index(joint, state.shape[1:]), axis=1)
    return trits, np.where(fourier, trits.sum(axis=1) % 3 == 0, np.all(trits == trits[:, :1], axis=1))


def _intercepted(rng, num_parties, axes, rounds):
    """Each round's GHZ register after Eve's intercepts on ``axes``, in a basis drawn per round and
    target, as a dense register and as the check step's span state and member codes. The span
    state follows from the outcomes alone: a computational outcome j leaves e_j (state 3 + j), and
    a Fourier outcome l turns the phased state q into q - l and leaves e_j as it was."""
    registers = np.repeat(_block(ghz_state(num_parties)), rounds, axis=0)
    state, members = np.zeros(rounds, dtype=np.intp), np.empty((len(axes), rounds), dtype=np.intp)
    for i, axis in enumerate(axes):
        fourier = rng.random(rounds) < 0.5
        rows = _basis_rows(fourier)
        outcome, _, kept = _measure(registers, (axis,), rows, rng.random(rounds))
        member = rows[np.arange(rounds), outcome].conj()
        registers = (kept.reshape(rounds, 3**axis, 1, -1) * member[:, None, :, None]).reshape(registers.shape)
        state = np.where(fourier, np.where(state < 3, (state - outcome) % 3, state), 3 + outcome)
        members[i] = 3 * fourier + outcome
    return registers, state, members


@pytest.mark.parametrize("num_parties", [2, 3, 4, 5, 6])
def test_check_step_matches_per_round_basis_rows(num_parties):
    """The check step on each round's span state and members draws what every round's own dense
    register, measured with its own basis rows, draws: on the GHZ register, after one intercept,
    after two, and after one on every transit qutrit. Every fourth round's uniform is the largest
    double below 1."""
    rng = np.random.default_rng(60 + num_parties)
    rounds = 64
    last = tuple(range(1, num_parties))
    for axes in dict.fromkeys([(), (1,), (1, num_parties - 1) if num_parties > 2 else (1,), last]):
        registers, state, members = _intercepted(rng, num_parties, axes, rounds)
        for fourier in (rng.random(rounds) < 0.5, np.zeros(rounds, bool), np.ones(rounds, bool)):
            u = rng.random(rounds)
            u[::4] = np.nextafter(1.0, 0.0)
            digits, passed = _check_step(num_parties, axes, state, members, fourier, u)
            trits_ref, passed_ref = _reference_check_outcomes(registers, fourier, u)
            assert np.array_equal(digits.T, trits_ref), axes
            assert np.array_equal(passed, passed_ref), axes


@pytest.mark.parametrize("num_parties", range(2, 9))
def test_check_trits_and_verdicts_at_every_joint_index(num_parties):
    """Each joint index reads as its base-3 digits (``_trits``), and the tables of a configuration,
    honest or under an intercept, flag it by the all-equal rule in the computational basis and the
    sum-mod-3 rule in the Fourier one."""
    joint = np.arange(3**num_parties)
    digits = np.stack(np.unravel_index(joint, (3,) * num_parties), axis=1)
    assert np.array_equal(_trits(joint, num_parties), digits)
    agree = np.all(digits == digits[:, :1], axis=1)
    flags = np.stack([agree, digits.sum(axis=1) % 3 == 0])
    for axes, eve in (((), ()), ((num_parties - 1,), (False, True))):
        _, _, passes = attacks._check_tables(num_parties, axes, eve, (False, True))
        assert np.array_equal(passes, flags), axes
        _, _, passes = attacks._check_tables(num_parties, axes, eve, (True,))
        assert np.array_equal(passes, flags[1:]), axes


def test_check_round_party_count_is_keyword_only():
    rng = np.random.default_rng(53)
    with pytest.raises(TypeError):
        channel_check_round(COMPUTATIONAL, rng, lambda state, rng: state)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_clean_on_honest_rounds():
    rng = np.random.default_rng(50)
    records = [channel_check_round(COMPUTATIONAL if i % 2 else FOURIER, rng) for i in range(1000)]
    verdict = verify_correlations(records)
    assert not verdict.disturbed
    assert verdict.failure_rate_computational == 0.0
    assert verdict.failure_rate_fourier == 0.0


def test_verdict_single_failure_disturbs():
    good = CheckRecord(COMPUTATIONAL, (0, 0, 0), True)
    bad = CheckRecord(COMPUTATIONAL, (0, 1, 0), False)
    verdict = verify_correlations([good] * 99 + [bad])
    assert verdict.disturbed


def test_verdict_counts_per_basis():
    fourier = [CheckRecord(FOURIER, (0, 0, 0), i >= 300) for i in range(1000)]
    comp = [CheckRecord(COMPUTATIONAL, (1, 1, 1), True) for _ in range(100)]
    verdict = verify_correlations(fourier + comp)
    assert verdict.disturbed
    assert verdict.rounds_fourier == 1000
    assert verdict.failure_rate_fourier == pytest.approx(0.3)
    assert verdict.failure_rate_computational == 0.0


def test_a_record_in_neither_basis_counts_only_in_the_totals():
    odd = [CheckRecord("diagonal", (0, 1, 2), False), CheckRecord("diagonal", (0, 0, 0), True)]
    verdict = verify_correlations(odd + [CheckRecord(FOURIER, (0, 1, 2), True)])
    assert verdict.disturbed and verdict.total_rounds == 3
    assert (verdict.rounds_computational, verdict.failures_computational) == (0, 0)
    assert (verdict.rounds_fourier, verdict.failures_fourier, verdict.failure_rate_fourier) == (1, 0, 0.0)


def test_a_check_round_refuses_an_unknown_basis():
    with pytest.raises(ConfigInvalid, match="check basis must be one of"):
        channel_check_round("diagonal", np.random.default_rng(0))


@pytest.mark.parametrize("count", [1, 3])
def test_a_session_refuses_a_wrong_count_of_forced_helpers(count):
    cfg = SessionConfig(num_agents=3, designated=1, secret=basis_state([0]), seed=1)
    with pytest.raises(ConfigInvalid, match=f"expected 2 forced helper outcomes, got {count}"):
        run_sharing_session(cfg, forced_helpers=[0] * count)


def test_verdict_empty_input():
    with pytest.raises(EmptyInput):
        verify_correlations([])

