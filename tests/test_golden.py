"""Seeded outputs match the golden corpus that ``golden.py`` generated (see its docstring), and two
wide grids of seeded runs match their pinned SHA-256 digests.

The grids are too large for the corpus, so only their digests are kept. Like the corpus, a digest
is regenerated only by a change that alters the seeded streams on purpose: the failure message
gives the new one."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from golden import FAKES, PATH, SECTIONS, compute, first_difference
from tritshare import (
    InsideAttack,
    OutsideAttack,
    run_check_rounds,
    run_inside_attack_experiment,
    run_outside_attack_experiment,
    verify_correlations,
)
from tritshare.attacks import BASIS_POLICIES, COMPARISON_MODES
from tritshare.protocol import FOURIER


@pytest.fixture(scope="module")
def corpus():
    return json.loads(PATH.read_text())


@pytest.mark.parametrize("section", list(SECTIONS))
def test_seeded_outputs_match_the_golden_corpus(corpus, section):
    expected, actual = corpus[section], compute(section)
    assert list(expected) == list(actual), f"{section}: the grid of cases changed"
    for case in expected:
        found = first_difference(expected[case], actual[case])
        if found is not None:
            where, was, now = found
            pytest.fail(f"{section} case {case!r} at {where or '/'}: corpus has {was!r}, this run gives {now!r}")


def _inside_grid() -> str:
    """The ``repr`` of every inside ``AttackStats`` over both dishonest agents x the fakes none, |0>
    and Haar x both comparison modes x designation drawn, 1 and 2 x seeds 1-20 x 1, 300 and 2,305
    trials (one block, two blocks and a block plus one trial), 2,160 runs, hashed in that order."""
    digest = hashlib.sha256()
    for agent, fake, mode, force, seed, trials in itertools.product(
        (1, 2), FAKES, COMPARISON_MODES, (None, 1, 2), range(1, 21), (1, 300, 2305)
    ):
        stats = run_inside_attack_experiment(trials, InsideAttack(agent, FAKES[fake]), mode, seed, force)
        digest.update(repr(stats).encode())
    return digest.hexdigest()


def _check_grid() -> str:
    """Check runs over 2-12 parties x (no Eve, and every basis policy on the first, the last and all
    transit qutrits) x every check policy x seeds 1-3, 936 runs of 2,305 rounds up to eight parties
    and 40 above. Each run hashes its ``run_check_rounds`` records as (Fourier, passed, trits...)
    rows of int64, their ``verify_correlations`` verdict and its ``run_outside_attack_experiment``
    stats."""
    digest = hashlib.sha256()
    for parties in range(2, 13):
        targets = dict.fromkeys([(2,), (parties,), tuple(range(2, parties + 1))])
        eves = [None] + [OutsideAttack(chosen, policy) for policy in BASIS_POLICIES for chosen in targets]
        rounds = 2305 if parties <= 8 else 40
        for eve, check, seed in itertools.product(eves, ("computational", "fourier", "random"), (1, 2, 3)):
            records = run_check_rounds(rounds, eve, check, seed, num_parties=parties)
            rows = [(r.basis == FOURIER, r.passed) + r.outcomes for r in records]
            digest.update(np.array(rows, dtype=np.int64).tobytes())
            digest.update(repr(verify_correlations(records)).encode())
            digest.update(repr(run_outside_attack_experiment(rounds, eve, check, seed, parties)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "grid, pinned",
    [
        (_inside_grid, "1465d7c8ccb014e0bd8e9d1a40f42a65acb475f903aad0b8cabd7b903c91041d"),
        (_check_grid, "dbd7aefdcd13f2c22b1a8ab6888e1ccd622ca9b667130c94dac0f03a6b2e5582"),
    ],
    ids=["inside", "check"],
)
def test_wide_seeded_grids_match_their_pinned_digests(grid, pinned):
    digest = grid()
    assert digest == pinned, f"{grid.__name__} gives {digest}"
