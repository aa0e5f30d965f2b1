"""Hypothesis strategies for words."""
from __future__ import annotations

import hypothesis.strategies as st

from helpers import GROUP_KINDS
from mnmap.words import CLASSICAL, CYLINDRICAL, VCB, ZETA, Flavor, Letter, Word


def letters_st(flavor: Flavor):
    kinds = GROUP_KINDS[flavor.group]

    def build(kind, index, sign):
        return Letter(kind, 0 if kind == ZETA else index, sign)

    return st.builds(build,
                     st.sampled_from(kinds),
                     st.integers(1, max(flavor.n - 1, 1)),
                     st.sampled_from((1, -1)))


@st.composite
def words_st(draw, groups=(CLASSICAL, CYLINDRICAL, VCB), min_n=2, max_n=6,
             max_len=12):
    group = draw(st.sampled_from(groups))
    n = draw(st.integers(min_n, max_n))
    flavor = Flavor(group, n)
    letters = draw(st.lists(letters_st(flavor), max_size=max_len))
    return Word(flavor, tuple(letters))


@st.composite
def word_pairs_st(draw, groups=(CLASSICAL, CYLINDRICAL, VCB), min_n=2,
                  max_n=6, max_len=12):
    a = draw(words_st(groups=groups, min_n=min_n, max_n=max_n,
                      max_len=max_len))
    letters = draw(st.lists(letters_st(a.flavor), max_size=max_len))
    return a, Word(a.flavor, tuple(letters))
