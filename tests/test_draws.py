"""The tree draws replay numpy's sampling methods on PCG64 raw output.

Each test names the numpy method it pins. If one fails after a numpy
upgrade, numpy changed that method's algorithm: the forests are unchanged
(the golden digests still pass), but they no longer equal what the method
would draw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frugalas.draws import (
    CHUNK,
    ForestDraws,
    Stream,
    TreeStreams,
    choice_bounds,
    floors,
    lemire,
    split_halves,
)


def numpy_tree(seed, t, n_rows, n_features, k, n_nodes):
    """Tree t's bootstrap and candidate rows drawn by numpy's own methods."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
    sample = np.sort(rng.integers(0, n_rows, size=n_rows))
    return sample, [rng.choice(n_features, k, replace=False) for _ in range(n_nodes)]


def assert_tree_matches(draws, t, sample, rows):
    assert np.array_equal(draws.samples[t], sample)
    for i, row in enumerate(rows):
        assert np.array_equal(draws.candidates(t, i), row), (t, i)


def test_forest_draws_equal_generator_integers_then_choice():
    rng = np.random.default_rng(2024)
    cases = covered = 0
    seen = set()
    while cases < 2000:
        n_rows = int(rng.choice([1, 2, 3, int(rng.integers(4, 200))]))
        n_features = int(rng.choice([1, 2, int(rng.integers(3, 60)), int(rng.integers(60, 1001))]))
        # Each of the k picks costs a numpy pass, so the largest k are left
        # to the forests' own k = floor(sqrt(F)).
        small = min(n_features, 40)
        k = int(rng.choice([math.isqrt(n_features), small, rng.integers(1, small + 1)]))
        seed = int(rng.integers(2**32))
        n_trees = int(rng.integers(1, 4))
        draws = ForestDraws(TreeStreams(seed, n_trees), n_rows, n_features, k)
        for t in range(n_trees):
            # A tree reaches at most n_rows - 1 impure nodes; one in ten may
            # pass the first table and extend it.
            most = CHUNK + 20 if rng.uniform() < 0.1 else 8
            n_nodes = int(rng.integers(0, min(n_rows - 1, most) + 1))
            sample, rows = numpy_tree(seed, t, n_rows, n_features, k, n_nodes)
            assert_tree_matches(draws, t, sample, rows)
            covered += n_nodes > CHUNK
        kinds = {
            "one row": n_rows == 1,
            "odd rows": n_rows % 2 == 1 and n_rows > 1,
            "one feature": n_features == 1,
            "k equals F": k == n_features > 1,
            "F over 500": n_features > 500,
        }
        seen |= {kind for kind, hit in kinds.items() if hit}
        cases += 1
    assert seen == {"one row", "odd rows", "one feature", "k equals F", "F over 500"}
    assert covered > 10


def test_rejected_draws_are_redrawn_as_generator_integers_does():
    # Near 3 * 2**30 a quarter of the halves fall below the floor.
    bound = 3 * 2**30
    rejections = 0
    for seed in range(200):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        expected = rng.integers(0, bound, size=40)
        after = rng.integers(0, 7, size=5)

        halves = split_halves(np.random.PCG64(np.random.SeedSequence((seed, 0))).random_raw(20))
        rejections += int(lemire(halves, np.uint64(bound), floors(np.uint64(bound)))[1].sum())
        stream = Stream(TreeStreams(seed, 1), 0)
        assert np.array_equal(stream.draw(np.full(40, bound)), expected)
        # The next draw starts where numpy's did.
        assert np.array_equal(stream.draw(np.full(5, 7)), after)
    assert rejections > 1000


def test_mixed_bounds_follow_generator_integers_one_at_a_time():
    rng = np.random.default_rng(5)
    for seed in range(50):
        bounds = rng.choice([2, 3, 1000, 3 * 2**30, 2**32 - 1, 2**32], size=60)
        numpy_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        expected = [numpy_rng.integers(0, int(b)) for b in bounds]
        stream = Stream(TreeStreams(seed, 1), 0)
        assert stream.draw(bounds).tolist() == expected


@pytest.mark.parametrize(
    "n_rows, n_features, k",
    [
        # (2**32 - n) mod n = 2**16 for n = 3 * 2**16: one bootstrap draw in
        # 2**16 is rejected, about three per tree.
        (3 * 2**16, 40, 6),
        # A quarter of the Floyd draws below about 3 * 2**30 are rejected.
        (70, 3 * 2**30, 2),
    ],
    ids=["bootstrap", "candidates"],
)
def test_a_rejected_draw_redraws_the_tree(n_rows, n_features, k):
    draws = ForestDraws(TreeStreams(11, 2), n_rows, n_features, k)
    for t in range(2):
        # The tree's first draws, read as if none were rejected, hold a
        # rejection.
        bounds = np.concatenate(
            (np.full(n_rows, n_rows), np.tile(choice_bounds(n_features, k)[0], CHUNK))
        ).astype(np.uint64)
        raw = np.random.PCG64(np.random.SeedSequence((11, t))).random_raw(bounds.shape[0])
        halves = split_halves(raw)[: bounds.shape[0]]
        assert lemire(halves, bounds, floors(bounds))[1].any()

        sample, rows = numpy_tree(11, t, n_rows, n_features, k, min(n_rows - 1, CHUNK + 10))
        assert_tree_matches(draws, t, sample, rows)


# The two shapes of `test_a_rejected_draw_redraws_the_tree`, a shape whose
# trees pass the first table, and a small one: (rows, features, k).
RECORD_SHAPES = [(3 * 2**16, 40, 6), (70, 3 * 2**30, 2), (150, 30, 5), (12, 4, 2)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(RECORD_SHAPES),
    st.lists(st.integers(-40, 40), min_size=2, max_size=5),
    st.integers(0, 2**63),
    st.integers(1, 3),
    st.integers(0, CHUNK + 20),
)
def test_a_record_serves_each_fit_the_draws_of_a_fresh_one(shape, steps, seed, n_trees, nodes):
    # One slot's fits at row counts that grow and shrink, all through one
    # record, draw what a fresh record draws for each.
    n_rows, n_features, k = shape
    record = TreeStreams(seed, n_trees)
    for step in steps:
        rows = max(1, n_rows + step)
        shared = ForestDraws(record, rows, n_features, k)
        fresh = ForestDraws(TreeStreams(seed, n_trees), rows, n_features, k)
        assert np.array_equal(shared.samples, fresh.samples)
        # Tree by tree, past the first table where the tree has the rows.
        for t in range(n_trees):
            for i in range(min(rows - 1, nodes)):
                assert np.array_equal(shared.candidates(t, i), fresh.candidates(t, i)), (t, i)


def test_a_record_is_one_block_that_widens_every_row():
    record = TreeStreams(5, 3)
    first = record.block(3)
    kept = first.copy()
    # Tree 1 reads halves 4 to 9, words 2 to 4: past the block's 3 words.
    Stream(record, 1, 4).draw(np.full(6, 7))
    width = record.words.shape[1]
    assert width >= 6  # every row at least doubles
    assert np.array_equal(first, kept)  # a view taken earlier keeps its values
    for t in range(3):
        bitgen = np.random.PCG64(np.random.SeedSequence((5, t)))
        assert np.array_equal(record.words[t], bitgen.random_raw(width))
