"""numpy's tree draws, replayed from PCG64 raw output.

Tree t of a forest with seed s grows on the draws that
`default_rng(SeedSequence((s, t)))` would make: its bootstrap as
`integers(0, n, size=n)`, then one `choice(n_features, k, replace=False)`
per impure node. numpy's random compatibility policy (NEP 19) fixes the bit
generators' raw output, not the algorithms of those methods, so this module
replays the algorithms of numpy 2.x (checked on 2.4.6) on the raw words of
`PCG64(SeedSequence((s, t)))` and calls no `Generator` method:

- Every draw takes a 32-bit half of a raw word, low half first, as numpy's
  `next_uint32` does, and turns it into an integer below a bound b with
  Lemire's method (Lemire, "Fast random integer generation in an interval",
  TOMACS 2019): the draw is `(u * b) >> 32`, and it is rejected, and redrawn
  from the next half, when `low32(u * b) < (2**32 - b) mod b`. A draw on the
  single value 0 takes no half.
- The bootstrap is n draws below n.
- `choice(F, k, replace=False)` is Floyd's algorithm (Bentley & Floyd, "A
  sample of brilliance", CACM 1987) with draws on 0..j for j = F-k .. F-1,
  a draw j that is already taken picking j itself; then an in-place shuffle
  of the k picks with draws on 0..i for i = k-1 .. 1. numpy takes another
  path only when F > 10000 and k > F // 50, which k = floor(sqrt(F)) never
  meets.

`ForestDraws` replays these for all trees of a forest at once: a Lemire pass
over the bootstrap halves of every tree and one over their candidate halves,
one bootstrap sort, and Floyd and the shuffle as k column steps over every
(tree, node) row. A tree whose block holds a rejected draw is redrawn on its
own `Stream`, as is any tree that grows more impure nodes than its table
holds.

Tree t's raw words are a pure function of (s, t), so the refits of one
forest slot, which keep its seed, can share them. `TreeStreams` is that
per-slot record: each tree is seeded once, its words are drawn once, and
every later fit reads them as a view. A record is one (n_trees, W) block of
the first W words of every tree and nothing else: when any tree reads past
W, every row widens and W at least doubles. So a record holds at most
2 x trees x the words of its widest tree, and a learning loop keeps about
slots x trees x W x 8 bytes, freed with the loop.

The tests compare these replays with numpy's own methods by name. If one of
them fails after a numpy upgrade, numpy changed a sampling algorithm: the
trees here are unchanged, but they no longer equal what numpy's methods
would draw.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import PCG64, SeedSequence

_LOW = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)
_32 = np.uint64(32)
# Impure nodes per tree in the first candidate table; a tree that grows more
# extends its own table.
CHUNK = 64


def split_halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw words along the last axis, low half first:
    a view where the host is little-endian."""
    # Little-endian words read as little-endian halves: low half first on
    # any host.
    return np.asarray(raw, dtype="<u8").view("<u4")


def floors(bounds):
    """numpy's rejection floor of each bound b, (2**32 - b) mod b: a draw
    whose low 32 bits of u * b fall below it is redrawn."""
    return (_TWO32 - bounds) % bounds


def lemire(halves: np.ndarray, bounds, floor) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejected): each half's Lemire draw below its bound (uint64,
    1 to 2**32, broadcast against `halves`) as int64, and whether numpy
    rejects it; `floor` is `floors(bounds)`."""
    m = halves * bounds  # uint64, as every bound is
    rejected = (m & _LOW) < floor
    m >>= _32
    return m.view(np.int64), rejected


class TreeStreams:
    """Every tree's raw words for one forest slot, shared by its refits.

    Tree t reads `PCG64(SeedSequence((seed, t)))`, seeded here and nowhere
    else. `words` holds the first W words of every tree as one
    (n_trees, W) block, which `block` widens for every tree at once, at least
    doubling W. Each tree's generator sits after exactly W words, so a word
    is drawn once, whoever reads it.
    """

    def __init__(self, seed: int, n_trees: int):
        self.seed, self.n_trees = seed, n_trees
        self._bitgens = [PCG64(SeedSequence((seed, t))) for t in range(n_trees)]
        self.words = np.empty((n_trees, 0), dtype=np.uint64)

    def block(self, width: int) -> np.ndarray:
        """(n_trees, width) uint64 view: every tree's first `width` words."""
        have = self.words.shape[1]
        if width > have:
            grown = np.empty((self.n_trees, max(width, 2 * have)), dtype=np.uint64)
            grown[:, :have] = self.words
            for t, bitgen in enumerate(self._bitgens):
                grown[t, have:] = bitgen.random_raw(grown.shape[1] - have)
            self.words = grown
        return self.words[:, :width]


class Stream:
    """Tree t's words in a `TreeStreams` record as a stream of halves, from
    half `at` on; a draw past the record's block widens it."""

    def __init__(self, record: TreeStreams, t: int, at: int = 0):
        self.record, self.t, self.at = record, t, at

    def draw(self, bounds) -> np.ndarray:
        """One Lemire draw below each of `bounds` in turn, each rejected draw
        redrawn from the next half as numpy does; int64."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        floor = floors(bounds)
        out = np.empty(bounds.shape[0], dtype=np.int64)
        done = 0
        while done < out.shape[0]:
            todo = bounds[done:]
            end = self.at + todo.shape[0]
            halves = split_halves(self.record.block((end + 1) // 2)[self.t])
            values, rejected = lemire(halves[self.at : end], todo, floor[done:])
            r = int(rejected.argmax()) if rejected.any() else todo.shape[0]
            out[done : done + r] = values[:r]
            done += r
            # A rejected half is skipped; its draw is made again from the next.
            self.at += r + (done < out.shape[0])
        return out


@lru_cache(maxsize=64)  # fit_forest's k follows from F: one entry per feature count
def choice_bounds(n_features: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of the draws of one `choice(n_features, k, replace=False)`,
    and their floors: Floyd's on 0..j for j = F-k .. F-1 (none for j = 0),
    then the shuffle's on 0..i for i = k-1 .. 1."""
    floyd = np.arange(max(n_features - k, 1), n_features) + 1
    shuffle = np.arange(k, 1, -1)
    bounds = np.concatenate((floyd, shuffle)).astype(np.uint64)
    floor = floors(bounds)
    # Every caller shares them.
    bounds.flags.writeable = floor.flags.writeable = False
    return bounds, floor


def choices(values: np.ndarray, n_features: int, k: int) -> np.ndarray:
    """(rows, k) int64: per row, `choice(n_features, k, replace=False)` from
    its drawn values, one row of `choice_bounds` draws each.

    Each step works on one contiguous (rows,) line: the picks are built as
    (k, rows) and the shuffle swaps through their flat index.
    """
    rows = values.shape[0]
    drawn = values.T
    picks = np.empty((k, rows), dtype=np.int64)
    col = 0
    for s, j in enumerate(range(n_features - k, n_features)):
        if j == 0:
            picks[s] = 0
            continue
        value = drawn[col]
        col += 1
        if s:
            taken = np.logical_or.reduce(picks[:s] == value, axis=0)
            value = np.where(taken, j, value)
        picks[s] = value
    flat = picks.reshape(-1)
    lanes = np.arange(rows)
    for i in range(k - 1, 0, -1):
        to = drawn[col] * rows
        to += lanes
        col += 1
        swapped = flat[to]
        flat[to] = picks[i]
        picks[i] = swapped
    return picks.T


class ForestDraws:
    """Every tree's bootstrap and candidate features for one forest.

    Tree t reads its words from `record`, a `TreeStreams` that may have
    served earlier fits. `samples[t]` is its bootstrap, sorted.
    `candidates(t, i)` is its i-th impure node's candidate features, in the
    order the tree reaches them. The first request builds every tree's table
    of `min(CHUNK, n_rows - 1)` rows at once, so a forest whose trees are all
    pure draws none; a tree that needs more doubles its own. A tree has at
    most n_rows - 1 impure nodes (each impure leaf holds two rows or more),
    so a tree of few rows costs few draws.
    """

    def __init__(self, record: TreeStreams, n_rows: int, n_features: int, k: int):
        self.n_features, self.k = n_features, k
        self.bounds, self._floor = choice_bounds(n_features, k)
        self._boot = n_rows if n_rows > 1 else 0
        self._chunk = min(CHUNK, n_rows - 1)
        self._end = self._boot + self._chunk * self.bounds.shape[0]
        self._record = record
        self._halves = split_halves(record.block((self._end + 1) // 2))

        bound = np.uint64(n_rows)
        samples, rejected = lemire(self._halves[:, : self._boot], bound, floors(bound))
        if not self._boot:  # numpy draws nothing for a bootstrap of one row
            samples = np.zeros((record.n_trees, 1), dtype=np.int64)
        # A tree with a rejected draw reads the rest of its draws from its
        # own stream, one half further on per rejection.
        self._streams: dict[int, Stream] = {}
        if rejected.any():
            for t in np.flatnonzero(rejected.any(axis=1)).tolist():
                samples[t] = self._stream_of(t, 0).draw(np.full(self._boot, n_rows))
        samples.sort(axis=1)
        self.samples = samples
        self._tables: list[np.ndarray] | None = None

    def candidates(self, t: int, i: int) -> np.ndarray:
        """Tree t's candidate features at its i-th impure node; i counts up
        from 0 by one."""
        if self._tables is None:
            self._tables = self._first_tables()
        table = self._tables[t]
        if i == table.shape[0]:
            more = self._draw_table(self._stream_of(t, self._end), max(i, 1))
            table = self._tables[t] = np.concatenate((table, more))
        return table[i]

    def _first_tables(self) -> list[np.ndarray]:
        n_trees, chunk, draws = self._halves.shape[0], self._chunk, self.bounds.shape[0]
        values, rejected = lemire(
            self._halves[:, self._boot : self._end].reshape(n_trees, chunk, draws),
            self.bounds,
            self._floor,
        )
        picks = choices(values.reshape(n_trees * chunk, draws), self.n_features, self.k)
        tables = list(picks.reshape(n_trees, chunk, self.k))
        redraw = set(self._streams)
        if rejected.any():
            redraw.update(np.flatnonzero(rejected.any(axis=(1, 2))).tolist())
        for t in redraw:
            tables[t] = self._draw_table(self._stream_of(t, self._boot), chunk)
        return tables

    def _stream_of(self, t: int, at: int) -> Stream:
        """Tree t's stream; a tree without one starts it at half `at`, where
        its draws so far end."""
        if t not in self._streams:
            self._streams[t] = Stream(self._record, t, at)
        return self._streams[t]

    def _draw_table(self, stream: Stream, rows: int) -> np.ndarray:
        values = stream.draw(np.tile(self.bounds, rows))
        return choices(values.reshape(rows, self.bounds.shape[0]), self.n_features, self.k)
