"""The vector label rules equal the scalar ones cell for cell, `final` agrees
on floats and arrays, and a LabelStore's observations only improve."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frugalas.labels import (
    Censored,
    LabelStore,
    Solved,
    final,
    pair_classes,
    pairwise_label,
    settled,
    timeout_classes,
    timeout_label,
)

CUTOFF = 100.0
# Censor levels are timeouts, a few shared levels up to the cutoff; runtimes
# often hit them too. So a runtime equal to a censor level, an exact runtime
# tie and a censor at the cutoff are all common.
LEVELS = [10.0, 50.0, CUTOFF]
levels = st.sampled_from(LEVELS)
runtimes = st.one_of(levels, st.floats(0.0, CUTOFF))
observations = st.one_of(
    st.none(), st.builds(Solved, runtimes), st.builds(Censored, levels)
)


@st.composite
def tables(draw):
    n_algorithms = draw(st.integers(2, 4))
    row = st.lists(observations, min_size=n_algorithms, max_size=n_algorithms)
    return draw(st.lists(row, min_size=1, max_size=8))


def store_of(table) -> LabelStore:
    store = LabelStore(range(len(table)), range(len(table[0])))
    for i, row in enumerate(table):
        for j, obs in enumerate(row):
            if obs is not None:
                store.record(i, j, obs)
    return store


def is_final(obs, timeout=CUTOFF) -> bool:
    """The object rule: no run at `timeout` can change `obs`."""
    return isinstance(obs, Solved) or obs.at >= timeout


# One row per boundary case, on algorithms (a0, a1, a2).
BOUNDARY_TABLE = [
    [Solved(10.0), Censored(10.0), None],  # runtime equal to the censor level
    [Solved(50.0), Solved(50.0), Censored(CUTOFF)],  # exact runtime tie
    [Censored(CUTOFF), Censored(CUTOFF), Solved(CUTOFF)],  # censors at the cutoff
    [None, Solved(1.0), Censored(1.0)],  # an unlabelled side
]


@given(tables())
@example(BOUNDARY_TABLE)
def test_pair_classes_and_settlement_equal_the_scalar_rules(table):
    store = store_of(table)
    n_algorithms = len(table[0])
    for a in range(n_algorithms):
        for b in range(a + 1, n_algorithms):
            classes = pair_classes(store.solved, store.censored, a, b)
            done = settled(store.solved, store.censored, a, b, CUTOFF)
            assert classes.dtype == np.int8
            for i, row in enumerate(table):
                obs_a, obs_b = row[a], row[b]
                if obs_a is None or obs_b is None:
                    assert classes[i] == -1 and not done[i]
                    continue
                side = pairwise_label(obs_a, obs_b)
                assert classes[i] == {"a": 0, "b": 1, None: -1}[side]
                assert done[i] == (side is not None or (is_final(obs_a) and is_final(obs_b)))


@given(tables(), runtimes)
@example(BOUNDARY_TABLE, 10.0)
@example(BOUNDARY_TABLE, CUTOFF)
def test_timeout_classes_equal_the_scalar_rule(table, timeout):
    store = store_of(table)
    for k in range(len(table[0])):
        classes = timeout_classes(store.solved, store.censored, k, timeout)
        assert classes.dtype == np.int8
        for i, row in enumerate(table):
            label = timeout_label(row[k], timeout)
            assert classes[i] == (-1 if label is None else label)


@given(tables(), runtimes)
@example(BOUNDARY_TABLE, 10.0)
@example(BOUNDARY_TABLE, CUTOFF)
def test_final_on_floats_and_arrays_equals_the_object_rule(table, timeout):
    # timeouts are drawn like runtimes, so they often equal a censor level
    store = store_of(table)
    on_arrays = final(store.solved, store.censored, timeout)
    for i, row in enumerate(table):
        solved, censored = store.solved[i].tolist(), store.censored[i].tolist()
        for j, obs in enumerate(row):
            want = obs is not None and is_final(obs, timeout)
            assert final(solved[j], censored[j], timeout) is want
            assert on_arrays[i, j] == want


def test_boundary_rows_are_labelled_as_documented():
    store = store_of(BOUNDARY_TABLE)
    assert pair_classes(store.solved, store.censored, 0, 1).tolist() == [0, -1, -1, -1]
    assert settled(store.solved, store.censored, 0, 1, CUTOFF).tolist() == [
        True, True, True, False
    ]
    assert timeout_classes(store.solved, store.censored, 2, CUTOFF).tolist() == [-1, 1, 0, -1]


class TestOnlyImprove:
    def _store(self):
        store = LabelStore(["i0"], ["a0", "a1"])
        store.record("i0", "a0", Solved(5.0))
        store.record("i0", "a1", Censored(20.0))
        return store

    @pytest.mark.parametrize("obs", [Solved(1.0), Solved(5.0), Censored(50.0)])
    def test_solved_run_is_final(self, obs):
        store = self._store()
        solved, censored = store.solved.copy(), store.censored.copy()
        with pytest.raises(ValueError, match="already solved"):
            store.record("i0", "a0", obs)
        np.testing.assert_array_equal(store.solved, solved)
        np.testing.assert_array_equal(store.censored, censored)

    def test_censor_level_may_not_fall(self):
        store = self._store()
        solved, censored = store.solved.copy(), store.censored.copy()
        with pytest.raises(ValueError, match="may not decrease"):
            store.record("i0", "a1", Censored(10.0))
        np.testing.assert_array_equal(store.solved, solved)
        np.testing.assert_array_equal(store.censored, censored)

    def test_get_and_len_read_the_arrays(self):
        store = self._store()
        assert len(store) == 2
        assert store.get("i0", "a0") == Solved(5.0)
        assert store.get("i0", "a1") == Censored(20.0)
        store.record("i0", "a1", Solved(30.0))
        assert store.get("i0", "a1") == Solved(30.0)
        assert np.isnan(store.censored).all() and len(store) == 2


def improves(old, new) -> bool:
    """Whether observation `new` may follow `old` in the same cell."""
    if old is None:
        return True
    if isinstance(old, Solved):
        return new == old
    return isinstance(new, Solved) or new.at >= old.at


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 1),
            st.one_of(st.builds(Solved, runtimes), st.builds(Censored, runtimes)),
        ),
        max_size=30,
    )
)
def test_every_accepted_state_improves_on_the_one_before(records):
    store = LabelStore(range(3), range(2))
    cells = [(i, j) for i in range(3) for j in range(2)]
    for i, j, obs in records:
        before = {cell: store.get(*cell) for cell in cells}
        old = before[(i, j)]
        if isinstance(old, Solved) or not improves(old, obs):
            solved, censored = store.solved.copy(), store.censored.copy()
            with pytest.raises(ValueError):
                store.record(i, j, obs)
            np.testing.assert_array_equal(store.solved, solved)
            np.testing.assert_array_equal(store.censored, censored)
            continue
        store.record(i, j, obs)
        assert store.get(i, j) == obs
        for cell in cells:
            assert improves(before[cell], store.get(*cell)), cell
        # a cell holds at most one kind of observation
        assert not (~np.isnan(store.solved) & ~np.isnan(store.censored)).any()
