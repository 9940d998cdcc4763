"""Schensted's theorem (1961) as an oracle that shares no code with the
engine: for row insertion, the first row of P is as long as the longest
increasing subsequence of the word, and P has as many rows as the longest
decreasing subsequence has values.  Column insertion swaps the two.  Both
lengths come from patience sorting."""

import random
from bisect import bisect_left

import pytest

from growthkit.catalog import get_algorithm
from growthkit.growth import GeneralizedPermutation, extract_P, run_growth

N = 1000


def longest_increasing(word) -> int:
    """Patience sorting: tops[k] is the least last value of an increasing
    subsequence of length k + 1 seen so far."""
    tops = []
    for v in word:
        k = bisect_left(tops, v)
        tops[k:k + 1] = [v]
    return len(tops)


def test_patience_sorting_on_small_words():
    assert longest_increasing([]) == 0
    assert longest_increasing([2, 3, 4, 1]) == 3
    assert longest_increasing([5, 4, 3, 2, 1]) == 1
    assert longest_increasing([3, 1, 4, 2, 5, 9, 7, 8]) == 5


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name,first_row,rows", [
    ("rs-row", "increasing", "decreasing"),
    ("rs-col", "decreasing", "increasing"),
])
def test_p_shape_matches_the_longest_subsequences(name, first_row, rows, seed):
    word = list(range(1, N + 1))
    random.Random(f"schensted-{seed}").shuffle(word)
    longest = {"increasing": longest_increasing(word),
               "decreasing": longest_increasing([-v for v in word])}
    gp = GeneralizedPermutation.from_word([(v, 1) for v in word], n=N)
    shape = extract_P(run_growth(get_algorithm(name), gp)).shape
    assert (shape.rows[0], len(shape.rows)) == (longest[first_row], longest[rows])
