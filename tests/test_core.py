"""State-vector engine tests.

Derived expected values are computed by an independent oracle built on
dense projector matrices (np.kron), never through the package's own
reshape-based measurement path.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tritshare import (
    DensityMatrix,
    MeasurementFamily,
    PureState,
    Unitary3,
    apply_single,
    basis_index,
    basis_state,
    bell_family,
    born_distribution,
    computational_family,
    fidelity,
    ghz_state,
    haar_random_state,
    make_state,
    measure_subsystem,
    outside_intercept_resend,
    pauli_x,
    pauli_z,
    project_subsystem,
    reduced_density,
    sample_index,
    tensor,
    xi_family,
    xi_state,
)
import tritshare.core as core
from tritshare.core import (
    INTERNAL_TOL,
    _contract,
    _distinct,
    _family_matrix,
    _grouped,
    _measure,
    _sample,
    _weights,
    sample_indices,
)
from tritshare.operators import MAX_FAMILY_QUTRITS, MAX_GHZ_QUTRITS
from tritshare.errors import (
    DimensionMismatch,
    EmptyKeepSet,
    EmptyRegister,
    InvalidDensityMatrix,
    LabelOutOfRange,
    LengthMismatch,
    NonFiniteAmplitude,
    NotNormalized,
    NotOrthonormal,
    NotUnitary,
    TargetOutOfRange,
    SizeOutOfRange,
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


def test_overflowing_norm_is_not_normalized():
    # Finite amplitudes whose squared norm overflows to NaN: a tolerance test must not pass NaN.
    amps = np.array([1e308 + 1e308j, 0, 0])
    assert np.isnan(np.vdot(amps, amps))
    with pytest.raises(NotNormalized):
        PureState(1, amps)
    with pytest.raises(NotNormalized):
        make_state(amps, 1)


def test_make_state_renormalizes_small_drift():
    amps = np.array([1 + 3e-7, 0, 0], dtype=complex)
    s = make_state(amps, 1)
    assert np.vdot(s.amplitudes, s.amplitudes).real == pytest.approx(1.0, abs=1e-15)


def test_make_state_input_errors():
    with pytest.raises(LengthMismatch):
        make_state([1, 0], 1)
    with pytest.raises(NonFiniteAmplitude):
        make_state([np.nan, 0, 0], 1)
    for size in (0, -1):
        with pytest.raises(LengthMismatch, match="a register holds at least one qutrit"):
            make_state([1, 0, 0], size)


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


def _kron_applied(u, target, s):
    """``u`` on qutrit ``target`` of ``s`` as the dense operator 1 (x) u (x) 1, one np.kron row at a time."""
    before, after = np.eye(3 ** (target - 1)), np.eye(3 ** (s.num_qutrits - target))
    rows = (np.kron(np.kron(e, row), f) for e in before for row in u.entries for f in after)
    return np.array([row @ s.amplitudes for row in rows])


@pytest.mark.parametrize("num_qutrits", range(1, 8))
def test_apply_single_matches_the_kron_operator_on_every_target(num_qutrits):
    rng = np.random.default_rng(700 + num_qutrits)
    s = haar_random_state(rng, num_qutrits)
    u = Unitary3(np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0])
    for target in range(1, num_qutrits + 1):
        assert np.max(np.abs(apply_single(u, target, s).amplitudes - _kron_applied(u, target, s))) < 1e-12


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


@pytest.mark.parametrize("family", [bell_family(), xi_family(), computational_family(2)], ids=["bell", "xi", "comp2"])
def test_a_returned_family_cannot_be_mutated(family):
    rows = family.rows.tobytes()
    with pytest.raises(TypeError):
        family[0] = family[1]
    with pytest.raises(AttributeError):
        family.rows = np.eye(len(family), dtype=complex)
    with pytest.raises(AttributeError):
        del family.rows
    with pytest.raises(ValueError):
        family.rows[0, 0] = 0.0
    with pytest.raises(ValueError):
        family[0].amplitudes[0] = 0.0
    assert family.rows.tobytes() == rows
    # the members still are the family the rows describe
    assert np.array_equal(np.array([m.amplitudes for m in family]).conj(), family.rows)


def test_fixed_families_are_constants_and_computational_ones_pass_the_full_check():
    assert bell_family() is bell_family() and xi_family() is xi_family()
    assert isinstance(bell_family(), MeasurementFamily) and isinstance(xi_family(), MeasurementFamily)
    for n in range(1, 4):
        family = computational_family(n)
        assert family.rows.tobytes() == _family_matrix(tuple(family), n).tobytes()


def test_a_hand_built_family_that_is_not_orthonormal_is_refused():
    s = haar_random_state(np.random.default_rng(31), 2)
    family = [basis_state([k]) for k in range(3)]
    skewed = [family[0], family[1], make_state([1 / SQRT3, 1 / SQRT3, 1 / SQRT3], 1)]
    for refused in (skewed, family[:2]):
        with pytest.raises(NotOrthonormal):
            MeasurementFamily(refused)
        with pytest.raises(NotOrthonormal):
            project_subsystem(s, (1,), refused, 0)
    with pytest.raises(NotOrthonormal):
        MeasurementFamily([])
    with pytest.raises(DimensionMismatch):
        MeasurementFamily(family[:2] + [basis_state([0, 0])])
    # a hand-built family passes once, and is then measured with as built, on targets of its width
    built = MeasurementFamily(random_family(np.random.default_rng(32), 1))
    assert built.rows.tobytes() == _family_matrix(list(built), 1).tobytes()
    assert born_distribution(s, (2,), built).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        born_distribution(s, (1, 2), built)


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


#: Nine rows on one qutrit that form a Parseval frame: each computational row three times, over sqrt 3.
_TRIPLED_ROWS = np.tile(np.eye(3, dtype=np.complex128), (3, 1))[None] / SQRT3


@pytest.mark.parametrize("num_qutrits", [2, 8])
def test_forced_branch_refusal_keeps_its_tolerance(num_qutrits):
    # |0...0> + b |10...0>: rows 1, 4 and 7 find weight b^2 / 3, rows 2, 5 and 8 none.
    for b, refused in ((1e-11, False), (1e-13, True), (0.0, True)):
        amps = np.zeros(3**num_qutrits, dtype=np.complex128)
        amps[0], amps[3 ** (num_qutrits - 1)] = 1.0, b
        block = (amps / np.linalg.norm(amps)).reshape((1,) + (3,) * num_qutrits)
        for k in (1, 2, 4, 7):
            if refused or k == 2:
                with pytest.raises(ZeroProbabilityBranchSampled):
                    _measure(block, (0,), _TRIPLED_ROWS, np.array([k]))
            else:
                _, weight, kept = _measure(block, (0,), _TRIPLED_ROWS, np.array([k]))
                assert abs(weight[0] - b**2 / 3) < 1e-12 * b**2
                assert abs(kept.reshape(-1)[0] - 1) < 1e-12


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


@pytest.mark.parametrize("width", [3, 9, 27, 81, 243, 729])
def test_sample_indices_matches_a_sequential_cumulative_sum(width, monkeypatch):
    built = []
    upper_ones = core._upper_ones

    def recording(n):
        built.append(n)
        return upper_ones(n)

    monkeypatch.setattr(core, "_upper_ones", recording)
    rng = np.random.default_rng(width)
    rows = 300
    probs = rng.random((rows, width)) * (rng.random((rows, width)) < 0.5)
    probs[:, 0] += 0.01  # every row keeps a positive entry
    probs[:50, width // 2 + 1 :] = 0.0  # rows whose last positive entry is not their last
    probs /= probs.sum(axis=1, keepdims=True)
    probs[:100] *= 1.0 - 1e-12  # totals rounding below the largest uniforms
    u = rng.random(rows)
    u[:100:2] = np.nextafter(1.0, 0.0)
    u[1:100:2] = 1.0 - 1e-13
    k = sample_indices(probs, u)
    assert list(k) == [_scalar_inverse_cdf(p, x) for p, x in zip(probs, u)]
    assert np.all(probs[np.arange(rows), k] > 0)
    assert built == ([width] if width <= 81 else [])


def test_sample_indices_skips_zero_branches_and_refuses_empty_rows():
    probs = np.array([[0.5, 0.0, 0.5], [0.3, 0.7 - 1e-12, 0.0]])
    assert list(sample_indices(probs, np.array([0.5, 0.9999999999999]))) == [2, 1]
    with pytest.raises(ZeroProbabilityBranchSampled):
        sample_indices(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([0.1, 0.5]))


def test_sample_index_draws_one_row_of_sample_indices():
    """A row within ``INPUT_NORM_TOL`` of a distribution is drawn with the generator's next uniform."""
    for seed, probs in enumerate(([0.2, 0.0, 0.8], [1.0], np.full(27, 1 / 27), [0.5, 0.5 + 1e-7])):
        u = np.random.default_rng(seed).random(1)
        assert sample_index(probs, np.random.default_rng(seed)) == sample_indices(np.reshape(probs, (1, -1)), u)[0]


_NOT_DISTRIBUTIONS = {
    "nan": ([0.5, np.nan, 0.5], NonFiniteAmplitude, "finite"),
    "inf": ([np.inf, 0.0, 0.0], NonFiniteAmplitude, "finite"),
    "negative-summing-to-one": ([2.0, 3.0, -4.0], NotNormalized, "non-negative"),
    "negative-entry": ([0.5, -0.2, 0.7], NotNormalized, "non-negative"),
}


@pytest.mark.parametrize("case", list(_NOT_DISTRIBUTIONS))
def test_public_samplers_refuse_weights_that_are_not_finite_and_non_negative(case):
    probs, error, reason = _NOT_DISTRIBUTIONS[case]
    with pytest.raises(error, match=reason):
        sample_index(probs, np.random.default_rng(0))
    with pytest.raises(error, match=reason):
        sample_indices(np.array([[1.0, 0.0, 0.0], probs]), np.array([0.4, 0.4]))


@pytest.mark.parametrize("probs", [[0.5, 0.5, 0.1], [0.25, 0.25], [0.0, 0.0, 0.0], []])
def test_sample_index_refuses_a_total_off_one(probs):
    with pytest.raises(NotNormalized, match="not 1 within"):
        sample_index(probs, np.random.default_rng(0))


@given(st.integers(1, 40).flatmap(lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), min_size=1))))
@example((1, [0]))  # one key
@example((30, [7] * 12))  # all keys equal
@example((27, list(range(26, -1, -1)) * 2))  # every key of the range, twice
def test_distinct_matches_np_unique(case):
    size, keys = case
    keys = np.array(keys)
    distinct, position = _distinct(keys, size)
    want, inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(distinct, want)
    assert np.array_equal(position, inverse)


@pytest.mark.parametrize("width", [3, 9, 27, 81])
def test_product_sums_are_taken_draw_last(width):
    """``_sample``'s product route sums ``_upper_ones(n).T @ probs.T``, one column per draw. At 3
    and 9 outcomes, the widths of the sharing steps, those sums equal ``probs @ _upper_ones(n)``
    bit for bit, for C-ordered weights and for the transposed views the inside kernel passes; at
    27 and 81 they may differ in the last bit, and the draws here are still the same. At 3 and 9,
    some uniforms equal a sum exactly, which counts that outcome as passed."""
    rng = np.random.default_rng(width)
    upper = core._upper_ones(width)
    for size in (1, 7, 120, 1000, 2304):
        weights = rng.random((size, width))
        weights /= weights.sum(axis=1, keepdims=True)
        u = rng.random(size)
        u[::5] = np.nextafter(1.0, 0.0)
        if width <= 9:
            u[1::5] = (weights @ upper)[1::5, width // 2]
        for probs in (weights, np.ascontiguousarray(weights.T).T):
            rowwise = probs @ upper
            if width <= 9:
                assert np.array_equal((upper.T @ probs.T).T, rowwise), (size, probs.flags.c_contiguous)
            drawn = np.minimum(np.sum(rowwise <= u[:, None], axis=1), width - 1)
            assert np.array_equal(_sample(probs, u)[0], drawn), (size, probs.flags.c_contiguous)


@pytest.mark.parametrize("width", [3, 9, 27, 81, 243, 729, 3**9])
def test_row_indexed_sample_matches_the_gathered_rows(width):
    """Draws from hundreds of distinct rows (a dozen of 3**9 outcomes), each round naming its row,
    are ``sample_indices`` on the gathered rows and the scalar rule: the same outcomes and
    weights, also at ties across zero weights and past a row's rounded total."""
    rng = np.random.default_rng(700 + width)
    rows = 12 if width > 729 else 300
    probs = rng.random((rows, width)) * (rng.random((rows, width)) < 0.5)
    probs[:, 0] += 0.01  # every row keeps a positive entry
    probs[1::7, width // 2 + 1 :] = 0.0  # rows whose last positive entry is not their last
    probs /= probs.sum(axis=1, keepdims=True)
    probs[2::7] *= 0.5  # totals far below the largest uniforms
    # rows of dyadic weights, whose every sum is exact in any order: a uniform at a sum ties
    # with the sums across the zero weights after it, in the product as in sequence
    dyadic = np.arange(3, rows, 7)
    weights = rng.integers(1, 4, (len(dyadic), width)) * (rng.random((len(dyadic), width)) < 0.5)
    weights[:, [0, -1]] = 1
    weights[:, 1] = 0  # every dyadic row has a zero weight to tie across before its last
    probs[dyadic] = weights / 2.0 ** np.ceil(np.log2(weights.sum(axis=1, keepdims=True)))
    rounds = 3 * rows
    row = rng.integers(0, rows, rounds)
    u = rng.random(rounds)
    past = np.arange(0, rounds, 6)
    row[past] = rng.choice(np.arange(2, rows, 7), len(past))
    u[past] = np.where(past % 12 == 0, np.nextafter(1.0, 0.0), 0.75)
    tied = np.arange(1, rounds, 6)
    row[tied] = rng.choice(dyadic, len(tied))
    zero = [rng.choice(np.flatnonzero(probs[r, 1:-1] == 0)) + 1 for r in row[tied]]
    u[tied] = np.cumsum(probs[row[tied]], axis=1)[np.arange(len(tied)), zero]
    k, chosen = _sample(probs, u, row)
    want = sample_indices(probs[row], u)
    assert np.array_equal(k, want)
    assert np.array_equal(chosen, probs[row, want])
    assert list(k) == [_scalar_inverse_cdf(probs[r], x) for r, x in zip(row, u)]
    assert np.all(k[tied] > zero) and np.all(chosen > 0)
    assert np.array_equal(k[past], width - 1 - np.argmax(probs[row[past], ::-1] > 0, axis=1))


def test_row_indexed_draws_never_land_on_a_zero_weight():
    """Uniforms at every cumulative sum of a few rows, summed in sequence and by the product that
    ``sample_indices`` takes, draw only positive weights: a sequential sum of non-negative weights
    is flat across a zero weight, where a small-matrix product's sums can step."""
    rng = np.random.default_rng(781)
    probs = rng.random((12, 27)) ** 3 * (rng.random((12, 27)) < 0.6)
    probs[:, 0] += 0.01
    probs /= probs.sum(axis=1, keepdims=True)
    sums = np.concatenate([np.cumsum(probs, axis=1), probs @ core._upper_ones(27)], axis=1)
    _, chosen = _sample(probs, sums.reshape(-1), np.repeat(np.arange(12), sums.shape[1]))
    assert chosen.min() > 0


def test_sample_indices_redraws_where_the_product_steps_at_a_zero_weight():
    """On 768 rows of 27 weights, about 30 % zero, OpenBLAS's small-matrix product sums step at
    a zero weight on some rows (62 with numpy 2.4 and OpenBLAS 0.3.31), where a uniform drew that
    branch and was refused. Such a draw is taken again from the row's sequential sums."""
    rng = np.random.default_rng(781)
    probs = rng.random((768, 27)) * (rng.random((768, 27)) >= 0.3)
    probs /= probs.sum(axis=1, keepdims=True)
    product = probs @ core._upper_ones(27)
    step = (np.diff(product, axis=1) > 0) & (probs[:, 1:] == 0)
    stepped = np.flatnonzero(step.any(axis=1))
    u = rng.random(768)
    u[stepped] = product[stepped, np.argmax(step[stepped], axis=1)]
    k = sample_indices(probs, u)
    assert np.all(probs[np.arange(768), k] > 0)
    landed = np.flatnonzero(probs[np.arange(768), np.minimum(np.sum(product <= u[:, None], axis=1), 26)] == 0)
    assert list(k[landed]) == [_scalar_inverse_cdf(probs[b], u[b]) for b in landed]


def test_sample_indices_refuses_a_redrawn_zero_weight_only(monkeypatch):
    """Product sums that grow across every zero weight, as out-of-order sums can, on any BLAS: each
    draw that lands on a zero weight is redrawn from the sequential sums. Only a redraw that finds
    no positive weight either is refused."""
    monkeypatch.setattr(core, "_upper_ones", lambda n: np.triu(np.ones((n, n))) * (1 + 2.0**-40 * np.arange(n)))
    probs = np.array([[0.25, 0.0, 0.0, 0.75], [0.5, 0.0, 0.5, 0.0], [1e-30, 0.0, 0.5, 0.5]])
    # the product's sums exceed 0.25 from branch 1 of row 0 on, and 0.5 from branch 1 of row 1 on
    assert list(sample_indices(probs[:2], np.array([0.25, 0.5]))) == [3, 2]
    # a uniform of 0 falls in branch 0's gap of 1e-30, summed either way
    with pytest.raises(ZeroProbabilityBranchSampled, match="sampled branch 0"):
        sample_indices(probs, np.array([0.25, 0.5, 0.0]))


def test_row_indexed_sample_refuses_only_on_drawn_rows():
    probs = np.array([[0.0, 0.0, 0.0], [1e-30, 0.5, 0.5], [0.2, 0.3, 0.5], [0.25, 0.25, 0.0]])
    # the empty row 0 is never drawn from: no refusal, also where a draw passes row 3's total
    assert list(_sample(probs, np.array([0.1, 0.4, 0.9, 0.9]), np.array([2, 1, 2, 3]))[0]) == [0, 1, 2, 1]
    with pytest.raises(ZeroProbabilityBranchSampled, match="no branch carries"):
        sample_indices(probs[[2, 0]], np.array([0.1, 0.5]))
    with pytest.raises(ZeroProbabilityBranchSampled, match="no branch carries"):
        _sample(probs, np.array([0.1, 0.5]), np.array([2, 0]))
    # a uniform of 0 falls in branch 0's gap of 1e-30, below ZERO_PROB_TOL
    with pytest.raises(ZeroProbabilityBranchSampled, match="sampled branch 0"):
        sample_indices(probs[[2, 1]], np.array([0.5, 0.0]))
    with pytest.raises(ZeroProbabilityBranchSampled, match="sampled branch 0"):
        _sample(probs, np.array([0.5, 0.0]), np.array([2, 1]))


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


@pytest.mark.parametrize("num_qutrits", range(1, 7))
def test_engine_results_are_frozen_normalized_and_fresh(num_qutrits):
    # what the engine builds skips PureState's checks, so pin what those checks would have given
    rng = np.random.default_rng(600 + num_qutrits)
    s = haar_random_state(rng, num_qutrits)
    u = Unitary3(np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0])
    built = [(apply_single(u, t, s), (s,)) for t in range(1, num_qutrits + 1)]
    for k in range(1, num_qutrits):
        a, b = haar_random_state(rng, k), haar_random_state(rng, num_qutrits - k)
        built.append((tensor(a, b), (a, b)))
    # one target at either end, then two in reversed order, wherever a qutrit survives
    targets = [t for t in ((1,), (num_qutrits,), (num_qutrits, 1)) if len(set(t)) == len(t) < num_qutrits]
    for labels in targets:
        for family in (xi_family() if len(labels) == 1 else bell_family(), random_family(rng, len(labels))):
            for record in (measure_subsystem(s, labels, family, rng), project_subsystem(s, labels, family, 1)):
                built.append((record.collapsed, (s,) + tuple(family)))
    for state, inputs in built:
        amps = state.amplitudes
        assert amps.dtype == np.complex128 and amps.shape == (3**state.num_qutrits,)
        assert not amps.flags.writeable and (amps.base is None or not amps.base.flags.writeable)
        with pytest.raises(ValueError):
            amps[0] = 0.0
        assert abs(np.vdot(amps, amps).real - 1.0) <= INTERNAL_TOL
        assert not any(np.shares_memory(amps, given.amplitudes) for given in inputs)


# ---------------------------------------------------------------------------
# the batched engine's forms

# (qutrits, target axes): one target, or two in reversed order, non-adjacent from three qutrits on
ENGINE_TARGETS = [
    (n, axes) for n in range(2, 6) for axes in ((n - 1,), (0,), (n - 1, 0)) + (((n - 1, 1),) if n >= 4 else ())
]


def _random_block(rng, registers, n):
    shape = (registers,) + (3,) * n
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return block / np.linalg.norm(block.reshape(registers, -1), axis=1).reshape((-1,) + (1,) * n)


def _random_bases(rng, count, dim):
    """``(count, dim, dim)`` conjugated members of random orthonormal bases, one basis per register."""
    q, _ = np.linalg.qr(rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim)))
    return np.swapaxes(q, -1, -2).conj()


@pytest.mark.parametrize("n, axes", ENGINE_TARGETS)
def test_every_contract_form_matches_the_per_register_product(n, axes):
    rng = np.random.default_rng(100 * n + sum(axes))
    registers, width = 5, 3 ** len(axes)
    block = _random_block(rng, registers, n)
    single = block[:1]
    per_register = rng.standard_normal((registers, 4, width)) + 1j * rng.standard_normal((registers, 4, width))
    shared = per_register[0]

    def reference(rows, blk):
        return np.stack([rows[b] @ _grouped(blk, axes)[b % len(blk)] for b in range(registers)])

    forms = {
        "shared rows, B registers": (shared, block, np.broadcast_to(shared, per_register.shape)),
        "per-register rows, one register": (per_register, single, per_register),
        "per-register rows, B registers": (per_register, block, per_register),
    }
    for name, (rows, blk, rows_per_register) in forms.items():
        coeffs = _contract(rows, blk, axes)
        assert coeffs.shape == (registers, 4, 3 ** (n - len(axes))), name
        np.testing.assert_allclose(coeffs, reference(rows_per_register, blk), rtol=0, atol=1e-13, err_msg=name)
        np.testing.assert_allclose(_weights(coeffs), np.sum(np.abs(coeffs) ** 2, -1), rtol=1e-13, err_msg=name)


@pytest.mark.parametrize("n, axes", ENGINE_TARGETS)
def test_measuring_one_register_with_per_register_rows_matches_its_broadcast_copy(n, axes):
    rng = np.random.default_rng(200 * n + sum(axes))
    registers = 6
    single = _random_block(rng, 1, n)
    copies = np.broadcast_to(single, (registers,) + single.shape[1:])
    rows = _random_bases(rng, registers, 3 ** len(axes))
    for draw in (rng.random(registers), rng.integers(0, 3 ** len(axes), registers)):
        outcome, weight, kept = _measure(single, axes, rows, draw)
        outcome_ref, weight_ref, kept_ref = _measure(copies, axes, rows, draw)
        assert np.array_equal(outcome, outcome_ref)
        assert kept.shape == kept_ref.shape == (registers,) + (3,) * (n - len(axes))
        np.testing.assert_allclose(weight, weight_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(kept, kept_ref, rtol=0, atol=1e-13)


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
    """Each refusal of ``DensityMatrix`` raises ``InvalidDensityMatrix`` with its own reason."""
    for entries, reason in [
        (np.diag([0.9, 0.2, -0.1]), "negative eigenvalue"),
        (np.eye(3) / 3 + np.triu(np.full((3, 3), 0.1), 1), "not Hermitian"),
        (np.diag([0.5, 0.3, 0.3]), "trace is not 1"),
    ]:
        with pytest.raises(InvalidDensityMatrix, match=reason):
            DensityMatrix(1, entries)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.nan, 0)])
def test_density_matrix_refuses_non_finite_entries(entry):
    # NaN fails no ``>`` tolerance test, so the Hermitian and trace checks alone would pass it.
    mat = np.eye(3, dtype=complex) / 3
    mat[0, 1] = mat[1, 0] = entry
    with pytest.raises(NonFiniteAmplitude):
        DensityMatrix(1, mat)


_MALFORMED_INPUT = {
    "state-size": (lambda: PureState(2, [1, 0, 0]), LengthMismatch, "expected 9 amplitudes"),
    "state-nan": (lambda: PureState(1, [np.nan, 0, 0]), NonFiniteAmplitude, "finite"),
    "unitary-shape": (lambda: Unitary3(np.eye(2)), LengthMismatch, "3x3"),
    "unitary-inf": (lambda: Unitary3(np.diag([np.inf, 1, 1])), NonFiniteAmplitude, "finite"),
    "density-shape": (lambda: DensityMatrix(1, np.eye(2) / 2), LengthMismatch, r"expected a 3x3 matrix"),
    "digit": (lambda: basis_index([0, 3]), LabelOutOfRange, "0, 1 or 2"),
    "outcome": (
        lambda: project_subsystem(ghz_state(2), (1,), computational_family(1), 3),
        LabelOutOfRange,
        "outside family of 3",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_INPUT))
def test_malformed_input_is_refused_with_its_own_error(case):
    call, error, reason = _MALFORMED_INPUT[case]
    with pytest.raises(error, match=reason):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda s: born_distribution(s, (1.7,), xi_family()), TargetOutOfRange),
        (lambda s: apply_single(pauli_x(1), 1.5, s), TargetOutOfRange),
        (lambda s: project_subsystem(s, (2,), xi_family(), 2.9), LabelOutOfRange),
        (lambda s: reduced_density(s, (2.0,)), LabelOutOfRange),
        (lambda s: outside_intercept_resend(s, 1.5, "fourier", np.random.default_rng(0)), LabelOutOfRange),
    ],
    ids=["born-label", "apply-target", "project-outcome", "reduced-keep", "intercept-label"],
)
def test_non_integer_labels_and_outcomes_are_refused(call, error):
    s = haar_random_state(np.random.default_rng(91), 2)
    with pytest.raises(error, match="not an integer"):
        call(s)
    # numpy integers are integers
    assert born_distribution(s, (np.int64(2),), xi_family()) == pytest.approx(born_distribution(s, (2,), xi_family()))
    assert project_subsystem(s, (2,), xi_family(), np.intp(1)).outcome_index == 1


# name -> (call taking a size, an integer size it accepts, a non-integer one it refuses, the error,
#          integer sizes out of range that it refuses with the same error)
NON_INTEGER_SIZES = {
    "ghz": (ghz_state, 3, 3.7, SizeOutOfRange, (0, -1, MAX_GHZ_QUTRITS + 1)),
    "ghz-whole-float": (ghz_state, 3, 3.0, SizeOutOfRange, ()),  # equal to a cached size, still refused
    "make-state": (lambda n: make_state(np.eye(9)[0], n), 2, 2.7, LengthMismatch, (0, -1)),
    "pure-state": (lambda n: PureState(n, np.eye(3)[0]), 1, 1.9, LengthMismatch, (0, -1)),
    "density-matrix": (lambda n: DensityMatrix(n, np.eye(3) / 3), 1, 1.5, LengthMismatch, (0, -1)),
    "haar": (
        lambda n: haar_random_state(np.random.default_rng(0), n), 2, 2.5, LengthMismatch, (0, -1, MAX_GHZ_QUTRITS + 1)
    ),
    "computational-family": (computational_family, 1, 1.0, SizeOutOfRange, (0, -1, MAX_FAMILY_QUTRITS + 1)),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_SIZES))
def test_non_integer_sizes_are_refused(case):
    call, accepted, refused, error, out_of_range = NON_INTEGER_SIZES[case]
    call(accepted)
    call(np.int64(accepted))  # numpy integers are integers
    with pytest.raises(error, match="is not an integer"):
        call(refused)
    for size in out_of_range:
        with pytest.raises(error):
            call(size)
