"""Bases, Pauli operators, and the recovery rule.

The recovery closed form is locked against a brute-force oracle: for
every announcement combination, simulate the collapse and search all
nine shift/clock products for the unique one that restores the secret.
"""

import itertools

import numpy as np
import pytest

from tritshare import (
    BellOutcome,
    HelperSum,
    XiOutcome,
    apply_single,
    basis_index,
    basis_state,
    bell_family,
    bell_state,
    computational_family,
    fidelity,
    ghz_state,
    haar_random_state,
    pauli_x,
    pauli_z,
    project_subsystem,
    recovery_operator,
    tensor,
    xi_family,
    xi_state,
)
from tritshare.core import _family_matrix
from tritshare.errors import LabelOutOfRange, SizeOutOfRange
from tritshare.operators import (
    _BELL_AMPLITUDES,
    _BELL_ROWS,
    _COMPUTATIONAL_ROWS,
    _XI_AMPLITUDES,
    _XI_ROWS,
)
from tritshare.protocol import _BELL_BLOCKS

OMEGA = np.exp(2j * np.pi / 3)
SQRT3 = np.sqrt(3.0)


def test_outcome_types_reduce_mod_three():
    assert BellOutcome(4, -1) == BellOutcome(1, 2)
    assert XiOutcome(5).l == 2
    assert HelperSum.from_outcomes([XiOutcome(2), 2, 2]).L == 0
    assert BellOutcome.from_index(5) == BellOutcome(1, 2)
    assert BellOutcome(1, 2).index == 5
    assert BellOutcome(np.int64(4), np.int8(-1)) == BellOutcome(1, 2)
    assert HelperSum.from_outcomes([np.int64(2), XiOutcome(np.uint8(1))]).L == 0
    assert np.array_equal(pauli_x(np.int64(1)).entries, pauli_x(4).entries)
    assert np.array_equal(pauli_z(np.int64(2)).entries, pauli_z(-1).entries)
    assert basis_index([np.int64(1), np.uint8(0)]) == 3
    # The numpy integers above are accepted; an equal float must still be refused.
    not_integers = [
        lambda: BellOutcome(1.7, 2.2),
        lambda: BellOutcome(1, 2.0),
        lambda: BellOutcome.from_index(5.5),
        lambda: XiOutcome(2.9),
        lambda: HelperSum(1.5),
        lambda: HelperSum.from_outcomes([XiOutcome(1), 1.0]),
        lambda: xi_state(1.9),
        lambda: recovery_operator(BellOutcome(0, 0), 1.9),
        lambda: pauli_x(1.0),
        lambda: pauli_z(2.0),
        lambda: basis_index([1.5, 0]),
        lambda: basis_index(["1"]),
        lambda: basis_index([np.float64(2.0)]),
        lambda: basis_state([2.7]),
    ]
    for build in not_integers:
        with pytest.raises(LabelOutOfRange, match="is not an integer"):
            build()


# ---------------------------------------------------------------------------
# GHZ


def test_ghz_three_qutrits():
    s = ghz_state(3)
    expected = np.zeros(27, dtype=complex)
    expected[[0, 13, 26]] = 1 / SQRT3
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


def test_ghz_degenerate_single_qutrit():
    assert fidelity(ghz_state(1), xi_state(0)) == pytest.approx(1.0, abs=1e-14)


def test_ghz_five_qutrits_support():
    s = ghz_state(5)
    nonzero = np.flatnonzero(np.abs(s.amplitudes) > 1e-15)
    assert s.amplitudes.size == 3**5
    assert list(nonzero) == [0, (3**5 - 1) // 2, 3**5 - 1]


def test_ghz_size_cap():
    with pytest.raises(SizeOutOfRange):
        ghz_state(0)
    with pytest.raises(SizeOutOfRange):
        ghz_state(13)


# ---------------------------------------------------------------------------
# Bell basis


def test_bell_zero_zero():
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / SQRT3
    assert np.allclose(bell_state(BellOutcome(0, 0)).amplitudes, expected, atol=1e-15)


def test_bell_one_two_support_and_phases():
    s = bell_state(BellOutcome(1, 2))
    amps = s.amplitudes
    # nonzero at |02>, |10>, |21> with phases 1, w, w^2, each of magnitude 1/sqrt(3)
    idx = {2: 1.0, 3: OMEGA, 7: OMEGA**2}
    for i in range(9):
        if i in idx:
            assert abs(amps[i] - idx[i] / SQRT3) < 1e-12
        else:
            assert abs(amps[i]) < 1e-15


def test_bell_family_gram_is_identity():
    # DERIVED: 9x9 Gram matrix computed directly from the raw vectors
    mat = np.array([member.amplitudes for member in bell_family()])
    gram = mat.conj() @ mat.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_bell_completeness_resolves_identity():
    total = np.zeros((9, 9), dtype=complex)
    for member in bell_family():
        total += np.outer(member.amplitudes, member.amplitudes.conj())
    assert np.max(np.abs(total - np.eye(9))) < 1e-12


# ---------------------------------------------------------------------------
# Fourier basis


def test_xi_states_explicit():
    assert np.allclose(xi_state(0).amplitudes, np.ones(3) / SQRT3, atol=1e-15)
    assert np.allclose(xi_state(1).amplitudes, np.array([1, OMEGA, OMEGA**2]) / SQRT3, atol=1e-14)
    assert np.allclose(xi_state(2).amplitudes, np.array([1, OMEGA**2, OMEGA]) / SQRT3, atol=1e-14)


def test_xi_family_is_fourier_matrix():
    mat = np.array([member.amplitudes for member in xi_family()]).T
    dft = np.array([[OMEGA ** (j * k) for k in range(3)] for j in range(3)]) / SQRT3
    assert np.allclose(mat, dft, atol=1e-14)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-12


# ---------------------------------------------------------------------------
# the engine's constant rows


@pytest.mark.parametrize(
    "rows, family, width",
    [(_BELL_ROWS, bell_family, 2), (_XI_ROWS, xi_family, 1), (_COMPUTATIONAL_ROWS, computational_family, 1)],
    ids=["bell", "fourier", "computational"],
)
def test_engine_rows_are_the_validated_public_family_bit_for_bit(rows, family, width):
    # the public family passes the caller-facing check, and its rows are the engine's constant
    expected = _family_matrix(tuple(family()), width)
    assert rows.dtype == expected.dtype and rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_fixed_basis_constants_are_read_only():
    for const in (_BELL_AMPLITUDES, _XI_AMPLITUDES, _BELL_ROWS, _XI_ROWS, _COMPUTATIONAL_ROWS, _BELL_BLOCKS):
        assert not const.flags.writeable


def test_bell_blocks_regroup_the_bell_rows():
    # block k, row i, is Bell member k's conjugated row at the secret's digit i
    assert _BELL_BLOCKS.shape == (9, 3, 3)
    for i in range(3):
        for k in range(9):
            assert _BELL_BLOCKS[k, i].tobytes() == _BELL_ROWS[k].reshape(3, 3)[i].tobytes()


# ---------------------------------------------------------------------------
# Pauli operators


def test_shift_mapping():
    x = pauli_x(1).entries
    for j in range(3):
        ket = np.zeros(3)
        ket[j] = 1
        out = x @ ket
        assert out[(j + 1) % 3] == 1.0


def test_clock_matches_first_phase_correction():
    # diag(1, w, w^2) is exactly the single-step phase correction
    assert np.allclose(pauli_z(1).entries, np.diag([1, OMEGA, OMEGA**2]), atol=1e-15)


def test_weyl_commutation():
    # DERIVED: Z X = w X Z entrywise
    z, x = pauli_z(1).entries, pauli_x(1).entries
    assert np.max(np.abs(z @ x - OMEGA * (x @ z))) < 1e-12


def test_weyl_cube_identities():
    x, z = pauli_x(1).entries, pauli_z(1).entries
    assert np.allclose(np.linalg.matrix_power(x, 3), np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.matrix_power(z, 3), np.eye(3), atol=1e-12)


def _phase_free_equal(a, b):
    inner = np.trace(a.conj().T @ b)
    return abs(abs(inner) - 3.0) < 1e-9


def test_shift_clock_products_distinct_up_to_phase():
    ops = [pauli_z(b).entries @ pauli_x(a).entries for a in range(3) for b in range(3)]
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            assert _phase_free_equal(a, b) == (i == j)


# ---------------------------------------------------------------------------
# recovery operator


def test_recovery_for_plain_branch_is_clock_power():
    eye = recovery_operator(BellOutcome(0, 0), HelperSum(0))
    assert np.allclose(eye.entries, np.eye(3), atol=1e-15)
    u1 = np.diag([np.exp(2j * np.pi * j / 3) for j in range(3)])
    u2 = np.diag([np.exp(4j * np.pi * j / 3) for j in range(3)])
    assert np.allclose(recovery_operator(BellOutcome(0, 0), HelperSum(1)).entries, u1, atol=1e-14)
    assert np.allclose(recovery_operator(BellOutcome(0, 0), HelperSum(2)).entries, u2, atol=1e-14)


def _collapsed_designated_state(secret, bell, helper_outcome):
    """Simulate the two-agent collapse for one forced announcement pair."""
    joint = tensor(secret, ghz_state(3))
    agents = project_subsystem(joint, (1, 2), bell_family(), bell.index).collapsed
    return project_subsystem(agents, (1,), xi_family(), helper_outcome).collapsed


def test_recovery_brute_force_oracle_over_all_triples():
    """DERIVED: for all 27 (n, m, L) the closed form is the unique winner
    among the nine shift/clock candidates, on 20 random secrets."""
    rng = np.random.default_rng(42)
    secrets = [haar_random_state(rng) for _ in range(20)]
    candidates = {(a, b): np.array(pauli_z(b).entries @ pauli_x(a).entries) for a in range(3) for b in range(3)}

    for n, m, L in itertools.product(range(3), repeat=3):
        bell = BellOutcome(n, m)
        collapsed = [_collapsed_designated_state(secret, bell, L) for secret in secrets]
        winners = []
        for (a, b), mat in candidates.items():
            ok = all(
                abs(np.vdot(secret.amplitudes, mat @ state.amplitudes)) ** 2 > 1.0 - 1e-10
                for secret, state in zip(secrets, collapsed)
            )
            if ok:
                winners.append((a, b))
        assert winners == [((3 - m) % 3, (n + L) % 3)], f"triple ({n},{m},{L})"
        closed_form = recovery_operator(bell, L).entries
        winner_mat = candidates[winners[0]]
        inner = np.trace(winner_mat.conj().T @ closed_form)
        assert abs(abs(inner) - 3.0) < 1e-9


def test_recovery_soundness_exhaustive_small_registers():
    """Exhaustive over all announcement tuples for N agents in 2..6."""
    rng = np.random.default_rng(7)
    for num_agents in range(2, 7):
        secrets = [haar_random_state(rng) for _ in range(2 if num_agents <= 4 else 1)]
        for secret in secrets:
            joint = tensor(secret, ghz_state(num_agents + 1))
            for bell_index in range(9):
                agents = project_subsystem(joint, (1, 2), bell_family(), bell_index).collapsed
                for designated in range(1, num_agents + 1):
                    for helper_tuple in itertools.product(range(3), repeat=num_agents - 1):
                        state = agents
                        outcomes = iter(helper_tuple)
                        # measuring helpers in ascending order: anyone below the
                        # designated agent is at label 1 when their turn comes,
                        # anyone above it at label 2 (the designated sits at 1)
                        for agent in range(1, num_agents + 1):
                            if agent == designated:
                                continue
                            target = 1 if agent < designated else 2
                            state = project_subsystem(state, (target,), xi_family(), next(outcomes)).collapsed
                        correction = recovery_operator(BellOutcome.from_index(bell_index), sum(helper_tuple) % 3)
                        restored = apply_single(correction, 1, state)
                        assert fidelity(restored, secret) > 1.0 - 1e-10
