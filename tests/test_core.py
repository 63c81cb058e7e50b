"""State-vector engine tests.

Derived expected values are computed by an independent oracle built on
dense projector matrices (np.kron), never through the package's own
reshape-based measurement path.
"""

import numpy as np
import pytest

from tritshare import (
    DensityMatrix,
    PureState,
    Unitary3,
    apply_single,
    basis_index,
    basis_state,
    bell_family,
    born_distribution,
    fidelity,
    ghz_state,
    haar_random_state,
    make_state,
    measure_subsystem,
    pauli_x,
    pauli_z,
    project_subsystem,
    reduced_density,
    tensor,
    xi_state,
)
from tritshare.core import sample_indices
from tritshare.errors import (
    DimensionMismatch,
    EmptyKeepSet,
    EmptyRegister,
    LabelOutOfRange,
    LengthMismatch,
    NonFiniteAmplitude,
    NotNormalized,
    NotOrthonormal,
    NotUnitary,
    TargetOutOfRange,
    TargetsOverlap,
    ZeroProbabilityBranchSampled,
)

OMEGA = np.exp(2j * np.pi / 3)
SQRT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# independent oracle helpers (dense matrices only)


def oracle_bell_vector(n, m):
    """sum_j w^(jn) |j>|(j+m) mod 3> / sqrt(3), as a raw length-9 vector."""
    v = np.zeros(9, dtype=complex)
    for j in range(3):
        v[3 * j + (j + m) % 3] = OMEGA ** (j * n)
    return v / SQRT3


def oracle_project(state_vec, bra_vec, num_measured, num_total):
    """Project the leading qutrits onto <bra| with a dense kron matrix.

    Returns (probability, unnormalized surviving vector).
    """
    rest_dim = 3 ** (num_total - num_measured)
    op = np.kron(bra_vec.conj().reshape(1, -1), np.eye(rest_dim))
    out = op @ state_vec
    return float(np.vdot(out, out).real), out


def random_secret_vec(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return v / np.linalg.norm(v)


def targets_first(state_vec, labels, num_total):
    """The raw vector with the labelled qutrits moved to the front, in the given order."""
    axes = [t - 1 for t in labels]
    order = axes + [k for k in range(num_total) if k not in axes]
    return np.transpose(state_vec.reshape((3,) * num_total), order).reshape(-1)


def random_family(rng, num_qutrits):
    """A complete orthonormal family on num_qutrits qutrits: the columns of a random unitary."""
    dim = 3**num_qutrits
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return [PureState(num_qutrits, q[:, k]) for k in range(dim)]


# ---------------------------------------------------------------------------
# make_state


def test_make_state_basis_ket():
    s = make_state([1, 0, 0], 1)
    assert np.array_equal(s.amplitudes, np.array([1, 0, 0], dtype=complex))


def test_make_state_uniform_equals_fourier_zero():
    s = make_state([1 / SQRT3, 1 / SQRT3, 1 / SQRT3], 1)
    assert fidelity(s, xi_state(0)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(s.amplitudes, xi_state(0).amplitudes, atol=1e-12)


def test_make_state_rejects_unnormalized():
    # squared norm 0.36 + 0.64 + 0.01 = 1.01
    with pytest.raises(NotNormalized):
        make_state([0.6, 0.8j, 0.1], 1)


def test_make_state_renormalizes_small_drift():
    amps = np.array([1 + 3e-7, 0, 0], dtype=complex)
    s = make_state(amps, 1)
    assert np.vdot(s.amplitudes, s.amplitudes).real == pytest.approx(1.0, abs=1e-15)


def test_make_state_input_errors():
    with pytest.raises(LengthMismatch):
        make_state([1, 0], 1)
    with pytest.raises(NonFiniteAmplitude):
        make_state([np.nan, 0, 0], 1)
    with pytest.raises(LengthMismatch):
        make_state([1, 0, 0], 0)


def test_pure_state_is_immutable():
    s = make_state([1, 0, 0], 1)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# tensor


def test_tensor_basis_kets():
    s = tensor(basis_state([0]), basis_state([0]))
    assert s.num_qutrits == 2
    assert s.amplitudes[0] == 1.0


def test_tensor_matches_kron_for_secret_and_channel():
    rng = np.random.default_rng(11)
    secret = random_secret_vec(rng)
    ghz = np.zeros(27, dtype=complex)
    ghz[[0, 13, 26]] = 1 / SQRT3
    expected = np.kron(secret, ghz)
    joint = tensor(make_state(secret, 1), ghz_state(3))
    assert np.allclose(joint.amplitudes, expected, atol=1e-12)


def test_tensor_preserves_unit_norm():
    rng = np.random.default_rng(12)
    a = haar_random_state(rng, 2)
    b = haar_random_state(rng, 1)
    joint = tensor(a, b)
    assert np.vdot(joint.amplitudes, joint.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def test_tensor_label_one_is_most_significant():
    # |1> (x) |0> must put amplitude at base-3 index '10' = 3
    s = tensor(basis_state([1]), basis_state([0]))
    assert s.amplitudes[basis_index([1, 0])] == 1.0


# ---------------------------------------------------------------------------
# apply_single


def test_shift_on_ket_two():
    s = apply_single(pauli_x(1), 1, basis_state([2]))
    assert fidelity(s, basis_state([0])) == pytest.approx(1.0, abs=1e-15)


def test_clock_advances_fourier_index():
    s = apply_single(pauli_z(1), 1, xi_state(0))
    assert fidelity(s, xi_state(1)) == pytest.approx(1.0, abs=1e-14)


def test_identity_leaves_amplitudes():
    rng = np.random.default_rng(13)
    s = haar_random_state(rng, 3)
    eye = Unitary3(np.eye(3))
    out = apply_single(eye, 2, s)
    assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-15


def test_apply_single_target_range():
    with pytest.raises(TargetOutOfRange):
        apply_single(pauli_x(1), 3, basis_state([0, 0]))


def test_apply_single_preserves_inner_products():
    rng = np.random.default_rng(14)
    u = pauli_z(1)
    for _ in range(20):
        a = haar_random_state(rng, 2)
        b = haar_random_state(rng, 2)
        before = np.vdot(a.amplitudes, b.amplitudes)
        after = np.vdot(apply_single(u, 1, a).amplitudes, apply_single(u, 1, b).amplitudes)
        assert abs(before - after) < 1e-12


def test_unitary3_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        Unitary3(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_examples():
    rng = np.random.default_rng(15)
    p = haar_random_state(rng)
    assert fidelity(p, p) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(basis_state([0]), basis_state([1])) == 0.0
    # DERIVED: |<xi_0|0>|^2 = |1/sqrt(3)|^2 = 1/3 by direct inner product
    oracle = abs(np.vdot(np.array([1, 1, 1]) / SQRT3, np.array([1, 0, 0]))) ** 2
    assert oracle == pytest.approx(1 / 3, abs=1e-15)
    assert fidelity(xi_state(0), basis_state([0])) == pytest.approx(1 / 3, abs=1e-12)


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(16)
    p = haar_random_state(rng)
    shifted = PureState(1, p.amplitudes * np.exp(0.7j))
    assert fidelity(p, shifted) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(basis_state([0]), basis_state([0, 0]))


# ---------------------------------------------------------------------------
# born_distribution


def test_born_bell_family_uniform_ninths():
    """DERIVED: each of the nine projections of secret (x) GHZ carries 1/9.

    Oracle: dense projector matrices applied to the raw joint vector.
    """
    rng = np.random.default_rng(17)
    for _ in range(5):
        secret = random_secret_vec(rng)
        ghz = np.zeros(27, dtype=complex)
        ghz[[0, 13, 26]] = 1 / SQRT3
        joint_vec = np.kron(secret, ghz)
        for n in range(3):
            for m in range(3):
                prob, _ = oracle_project(joint_vec, oracle_bell_vector(n, m), 2, 4)
                assert prob == pytest.approx(1 / 9, abs=1e-12)
        joint = tensor(make_state(secret, 1), ghz_state(3))
        probs = born_distribution(joint, (1, 2), bell_family())
        assert np.allclose(probs, np.full(9, 1 / 9), atol=1e-12)


def test_born_computational_on_ghz_qutrit():
    family = [basis_state([k]) for k in range(3)]
    probs = born_distribution(ghz_state(3), (2,), family)
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_born_all_zero_ket():
    family = [basis_state([a, b]) for a in range(3) for b in range(3)]
    probs = born_distribution(basis_state([0, 0]), (1, 2), family)
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.allclose(probs, expected, atol=1e-15)


def test_born_sums_to_one_for_random_family():
    rng = np.random.default_rng(18)
    # random complete orthonormal family on one qutrit via QR
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    family = [PureState(1, q[:, k]) for k in range(3)]
    s = haar_random_state(rng, 2)
    probs = born_distribution(s, (2,), family)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_born_validation_errors():
    s = ghz_state(2)
    family = [basis_state([k]) for k in range(3)]
    with pytest.raises(TargetsOverlap):
        born_distribution(s, (1, 1), [basis_state([a, b]) for a in range(3) for b in range(3)])
    with pytest.raises(TargetOutOfRange):
        born_distribution(s, (5,), family)
    with pytest.raises(DimensionMismatch):  # refused, and not cached: the family still serves one qutrit
        born_distribution(s, (1, 2), family)
    assert born_distribution(s, (1,), family) == pytest.approx([1 / 3] * 3, abs=1e-12)
    with pytest.raises(NotOrthonormal):
        born_distribution(s, (1,), family[:2])
    skewed = [family[0], family[1], make_state([1 / SQRT3, 1 / SQRT3, 1 / SQRT3], 1)]
    with pytest.raises(NotOrthonormal):
        born_distribution(s, (1,), skewed)


# ---------------------------------------------------------------------------
# measure_subsystem / project_subsystem


def test_forced_branch_matches_dense_oracle():
    """DERIVED: collapse of the (0,0) branch for secret |0> is |00>."""
    joint = tensor(basis_state([0]), ghz_state(3))
    record = project_subsystem(joint, (1, 2), bell_family(), 0)
    assert record.probability == pytest.approx(1 / 9, abs=1e-12)
    assert fidelity(record.collapsed, basis_state([0, 0])) == pytest.approx(1.0, abs=1e-12)

    # generic secret: compare against the projector-matrix oracle
    rng = np.random.default_rng(19)
    secret = random_secret_vec(rng)
    joint = tensor(make_state(secret, 1), ghz_state(3))
    for index in range(9):
        n, m = divmod(index, 3)
        prob, vec = oracle_project(joint.amplitudes, oracle_bell_vector(n, m), 2, 4)
        record = project_subsystem(joint, (1, 2), bell_family(), index)
        assert record.probability == pytest.approx(prob, abs=1e-12)
        expected = PureState(2, vec / np.linalg.norm(vec))
        assert fidelity(record.collapsed, expected) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("targets", [(3, 1), (4, 2)])
def test_non_adjacent_reversed_targets_match_dense_oracle(targets):
    """DERIVED: measuring (3, 1) of a 4-qutrit state is measuring the leading
    pair of the state whose qutrits are reordered 3, 1, 2, 4."""
    rng = np.random.default_rng(26)
    s = haar_random_state(rng, 4)
    family = random_family(rng, 2)
    moved = targets_first(s.amplitudes, targets, 4)
    probs = born_distribution(s, targets, family)
    for index, member in enumerate(family):
        prob, vec = oracle_project(moved, member.amplitudes, 2, 4)
        assert probs[index] == pytest.approx(prob, abs=1e-12)
        record = project_subsystem(s, targets, family, index)
        assert record.probability == pytest.approx(prob, abs=1e-12)
        assert np.allclose(record.collapsed.amplitudes, vec / np.sqrt(prob), atol=1e-12)


def test_remeasuring_same_family_is_idempotent():
    rng = np.random.default_rng(20)
    s = haar_random_state(rng, 3)
    record = measure_subsystem(s, (1, 2), bell_family(), rng)
    # physical post-measurement state: measured pair left in the observed member
    full = tensor(bell_family()[record.outcome_index], record.collapsed)
    probs = born_distribution(full, (1, 2), bell_family())
    assert probs[record.outcome_index] == pytest.approx(1.0, abs=1e-12)


def test_measurement_removes_qutrits_and_is_seed_deterministic():
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(21)
    s = haar_random_state(np.random.default_rng(5), 3)
    family = [basis_state([k]) for k in range(3)]
    rec_a = measure_subsystem(s, (2,), family, rng_a)
    rec_b = measure_subsystem(s, (2,), family, rng_b)
    assert rec_a.outcome_index == rec_b.outcome_index
    assert rec_a.collapsed.num_qutrits == 2
    assert np.array_equal(rec_a.collapsed.amplitudes, rec_b.collapsed.amplitudes)


def test_measuring_everything_is_refused():
    rng = np.random.default_rng(22)
    family = [basis_state([k]) for k in range(3)]
    with pytest.raises(EmptyRegister):
        measure_subsystem(basis_state([0]), (1,), family, rng)


def test_zero_probability_branch_is_refused():
    family = [basis_state([k]) for k in range(3)]
    with pytest.raises(ZeroProbabilityBranchSampled):
        project_subsystem(basis_state([0, 0]), (1,), family, 2)


def _scalar_inverse_cdf(probs, u):
    """Reference rule: first cumulative weight above u, else the last positive entry."""
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return k if k < len(probs) else int(np.flatnonzero(probs > 1e-24)[-1])


def test_sample_indices_matches_the_scalar_rule_row_by_row():
    rng = np.random.default_rng(24)
    probs = rng.random((200, 9)) * (rng.random((200, 9)) < 0.6)
    probs[:, 4] += 0.01  # every row keeps a positive entry
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(200)
    u[:10] = np.nextafter(1.0, 0.0)  # the largest uniform: rows whose total rounds below it overflow
    k = sample_indices(probs, u)
    assert list(k) == [_scalar_inverse_cdf(p, x) for p, x in zip(probs, u)]
    assert np.all(probs[np.arange(200), k] > 0)


def test_sample_indices_skips_zero_branches_and_refuses_empty_rows():
    probs = np.array([[0.5, 0.0, 0.5], [0.3, 0.7 - 1e-12, 0.0]])
    assert list(sample_indices(probs, np.array([0.5, 0.9999999999999]))) == [2, 1]
    with pytest.raises(ZeroProbabilityBranchSampled):
        sample_indices(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([0.1, 0.5]))


def test_sampled_distribution_matches_born_within_one_percent():
    # module invariant: empirical frequencies over 1e5 draws within +/-0.01
    rng = np.random.default_rng(23)
    s = haar_random_state(rng, 2)
    family = [xi_state(l) for l in range(3)]
    probs = born_distribution(s, (1,), family)
    counts = np.zeros(3)
    trials = 100_000
    for _ in range(trials):
        counts[measure_subsystem(s, (1,), family, rng).outcome_index] += 1
    assert np.max(np.abs(counts / trials - probs)) < 0.01


# ---------------------------------------------------------------------------
# reduced_density


def test_reduced_ghz_marginal_is_maximally_mixed():
    rho = reduced_density(ghz_state(3), (2,))
    assert np.allclose(rho.entries, np.eye(3) / 3, atol=1e-12)


def test_reduced_branch_marginal_is_diagonal_in_weights():
    """DERIVED: tracing one agent out of the (0,0) branch leaves diag(|a|^2, |b|^2, |c|^2)."""
    rng = np.random.default_rng(24)
    secret = random_secret_vec(rng)
    joint = tensor(make_state(secret, 1), ghz_state(3))
    branch = project_subsystem(joint, (1, 2), bell_family(), 0).collapsed
    rho = reduced_density(branch, (1,))
    assert np.allclose(rho.entries, np.diag(np.abs(secret) ** 2), atol=1e-12)


def test_reduced_full_keep_is_projector():
    rng = np.random.default_rng(25)
    p = haar_random_state(rng)
    rho = reduced_density(p, (1,))
    assert np.allclose(rho.entries, np.outer(p.amplitudes, p.amplitudes.conj()), atol=1e-12)
    s = haar_random_state(rng, 2)
    rho2 = reduced_density(s, (1, 2))
    assert np.allclose(rho2.entries, np.outer(s.amplitudes, s.amplitudes.conj()), atol=1e-12)


def test_reduced_density_keeps_labels_in_the_given_order():
    """Oracle: trace out the trailing qutrits of the reordered vector with dense kron projectors."""
    rng = np.random.default_rng(27)
    s = haar_random_state(rng, 4)
    moved = targets_first(s.amplitudes, (3, 1), 4)
    expected = np.zeros((9, 9), dtype=complex)
    for k in range(9):
        out = np.kron(np.eye(9), np.eye(9)[k].reshape(1, -1)) @ moved
        expected += np.outer(out, out.conj())
    assert np.allclose(reduced_density(s, (3, 1)).entries, expected, atol=1e-12)
    assert not np.allclose(reduced_density(s, (1, 3)).entries, expected, atol=1e-6)


def test_reduced_density_errors():
    s = ghz_state(2)
    with pytest.raises(EmptyKeepSet):
        reduced_density(s, ())
    with pytest.raises(LabelOutOfRange):
        reduced_density(s, (3,))
    with pytest.raises(TargetsOverlap):
        reduced_density(s, (1, 1))


def test_density_matrix_validation():
    with pytest.raises(Exception):
        DensityMatrix(1, np.diag([0.9, 0.2, -0.1]))
