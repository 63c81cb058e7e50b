"""Seeded outputs match the golden corpus that ``golden.py`` generated (see its docstring)."""

import json

import pytest

from golden import PATH, SECTIONS, compute, first_difference


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
