"""Packed keys, tuple-order sorts, distinct rows and the trie index of
sidkit.rows, each against plain Python over tuples."""

from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import rows

# (radix, width): one key per row; a few columns a key at the largest radix
# a structure allows; ten levels of 50 codes, whose order-9 scorer rows
# (ten columns) take two keys
SHAPES = [(4, 3), (2**31, 3), (501, 10)]


@st.composite
def tables(draw, min_rows=0):
    """An (n, width) int64 table with values in [-1, radix - 1), drawn from
    a few values so rows repeat, and its radix."""
    radix, width = draw(st.sampled_from(SHAPES), label="shape")
    value = st.sampled_from(sorted({-1, 0, 1, radix // 2, radix - 2}))
    table = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                          min_size=min_rows, max_size=20), label="rows")
    return np.array(table, dtype=np.int64).reshape(len(table), width), radix


def tuples(table):
    return [tuple(row) for row in table.tolist()]


@settings(max_examples=200, deadline=None)
@given(tables())
def test_pack_unpack_round_trip(drawn):
    table, radix = drawn
    keys = rows.pack(table, radix)
    assert len(keys) == len(rows.key_widths(radix, table.shape[1]))
    np.testing.assert_array_equal(rows.unpack(keys, radix, table.shape[1]), table)


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from([None, "stable"]))
def test_sort_is_tuple_order_and_stable_when_asked(drawn, kind):
    table, radix = drawn
    order, keys = rows.sort(rows.pack(table, radix), kind=kind)
    assert tuples(table[order]) == sorted(tuples(table))
    if kind == "stable":
        assert order.tolist() == sorted(range(len(table)), key=tuples(table).__getitem__)
    np.testing.assert_array_equal(rows.unpack(keys, radix, table.shape[1]), table[order])


@settings(max_examples=200, deadline=None)
@given(tables())
def test_distinct_rows_and_counts_equal_a_counter(drawn):
    table, radix = drawn
    order, keys = rows.sort(rows.pack(table, radix))
    starts, counts = rows.distinct(keys)
    got = dict(zip(tuples(table[order][starts]), counts.tolist()))
    assert list(got) == sorted(got)
    assert got == Counter(tuples(table))


@settings(max_examples=200, deadline=None)
@given(drawn=tables(min_rows=1), data=st.data())
def test_index_rows_of_equals_a_bisect(drawn, data):
    """Hits, misses and rows narrower than the table, which stand for
    themselves right-padded with -1."""
    table, radix = drawn
    table = table[np.lexsort(table.T[::-1])]
    width = table.shape[1]
    index = rows.Index(table, radix)
    sorted_rows = tuples(table)
    assert index.starts.tolist() == [i for i, row in enumerate(sorted_rows)
                                     if i == 0 or row != sorted_rows[i - 1]] + [len(table)]
    value = st.sampled_from(sorted({-1, 0, 1, radix // 2, radix - 2}))
    query_width = data.draw(st.integers(1, width), label="query width")
    known = st.sampled_from(sorted_rows).map(lambda row: list(row[:query_width]))
    drawn_row = st.lists(value, min_size=query_width, max_size=query_width)
    queries = data.draw(st.lists(known | drawn_row, max_size=8), label="queries")
    queries = np.array(queries, dtype=np.int64).reshape(len(queries), query_width)
    start, stop = index.rows_of(queries)
    for query, a, b in zip(tuples(queries), start.tolist(), stop.tolist()):
        padded = query + (-1,) * (width - query_width)
        lo, hi = bisect_left(sorted_rows, padded), bisect_right(sorted_rows, padded)
        assert (a, b) == (lo, hi) if lo < hi else a == b


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=8))
def test_expand_lists_each_range_in_turn(ranges):
    start = np.array([a for a, _ in ranges], dtype=np.int64)
    stop = start + np.array([n for _, n in ranges], dtype=np.int64)
    positions, owner = rows.expand(start, stop)
    assert positions.tolist() == [p for a, b in zip(start, stop) for p in range(a, b)]
    assert owner.tolist() == [i for i, (a, b) in enumerate(zip(start, stop)) for _ in range(a, b)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-np.inf, 0.0, 1.5]), min_size=1, max_size=30), st.data())
def test_top_k_equals_a_stable_argsort(scores, data):
    """Best first, equal scores (-inf among them) in position order, k past
    the length keeping every position."""
    scores = np.array(scores)
    k = data.draw(st.integers(1, len(scores) + 2), label="k")
    np.testing.assert_array_equal(rows.top_k(scores, k), np.argsort(-scores, kind="stable")[:k])


@settings(max_examples=100, deadline=None)
@given(st.integers(1_000, 40_000), st.floats(-10.0, -1e-9),
       st.lists(st.integers(0, 100), min_size=4, max_size=4).filter(any), st.integers(0, 2**32),
       st.data())
def test_top_k_at_the_beam_sizes(n, negative, weights, seed, data):
    """A beam's candidates at its real sizes (thousands, where numpy's SIMD
    sort and select paths run), drawn from at most four values as the add-alpha
    floor makes them: -inf, -0.0, 0.0 (equal to -0.0) and one negative, in
    drawn proportions, so a tie block may be most of the array, a sliver or
    absent."""
    weights = np.array(weights) / sum(weights)
    scores = np.random.default_rng(seed).choice([-np.inf, -0.0, 0.0, negative], size=n, p=weights)
    k = data.draw(st.integers(1, n + 2), label="k")
    np.testing.assert_array_equal(rows.top_k(scores, k), np.argsort(-scores, kind="stable")[:k])
