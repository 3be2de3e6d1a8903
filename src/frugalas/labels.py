"""The observation table of (instance, algorithm) runs and the labels it implies.

`pairwise_label` and `timeout_label` state each rule for one cell;
`pair_classes`, `timeout_classes` and `settled` apply the same rules to whole
columns of a `LabelStore`'s arrays, where NaN (absent) compares false.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Solved:
    runtime: float


@dataclass(frozen=True)
class Censored:
    at: float


Observation = Solved | Censored


class LabelStore:
    """Observation table: rows follow `instances`, columns `algorithms`.

    `solved[i, j]` is the runtime of a solved run and `censored[i, j]` the
    censor level of a censored run; each is NaN otherwise, so a cell that is
    NaN in both is unlabelled.

    Observations only improve: a censored entry may be replaced by a censored
    entry at a higher timeout or by a solved entry; solved entries are final.
    """

    def __init__(self, instances, algorithms):
        self._row = {inst: i for i, inst in enumerate(instances)}
        self._col = {algo: j for j, algo in enumerate(algorithms)}
        self.solved = np.full((len(self._row), len(self._col)), np.nan)
        self.censored = np.full_like(self.solved, np.nan)

    def get(self, instance: str, algorithm: str) -> Observation | None:
        cell = self._row[instance], self._col[algorithm]
        runtime, at = self.solved[cell], self.censored[cell]
        if not math.isnan(runtime):
            return Solved(float(runtime))
        if not math.isnan(at):
            return Censored(float(at))
        return None

    def record(self, instance: str, algorithm: str, obs: Observation) -> None:
        cell = self._row[instance], self._col[algorithm]
        if not math.isnan(self.solved[cell]):
            raise ValueError(f"{(instance, algorithm)} already solved; observation is final")
        old_at = self.censored[cell]
        if isinstance(obs, Solved):
            self.solved[cell] = obs.runtime
            self.censored[cell] = np.nan
        elif obs.at < old_at:
            raise ValueError(
                f"{(instance, algorithm)}: censor level may not decrease ({old_at} -> {obs.at})"
            )
        else:
            self.censored[cell] = obs.at

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.solved) | ~np.isnan(self.censored)))


def pairwise_label(obs_a: Observation, obs_b: Observation) -> str | None:
    """Which side of an algorithm pair is faster: 'a', 'b' or None.

    A solved run beats a run censored at or above its runtime; against a
    lower censor level it says nothing yet. Two censored runs carry no
    information, and neither does an exact runtime tie.
    """
    if obs_a is None or obs_b is None:
        raise ValueError("pairwise_label requires an observation on both sides")
    a_solved = isinstance(obs_a, Solved)
    b_solved = isinstance(obs_b, Solved)
    if a_solved and b_solved:
        if obs_a.runtime < obs_b.runtime:
            return "a"
        if obs_b.runtime < obs_a.runtime:
            return "b"
        return None
    if a_solved:
        return "a" if obs_a.runtime <= obs_b.at else None
    if b_solved:
        return "b" if obs_b.runtime <= obs_a.at else None
    return None


def timeout_label(obs: Observation | None, timeout: float) -> int | None:
    """Training label for a timeout predictor at the given level.

    None marks an absent or undetermined observation (censored below the
    level).
    """
    if obs is None:
        return None
    if isinstance(obs, Solved):
        return 0 if obs.runtime <= timeout else 1
    return 1 if obs.at >= timeout else None


def _wins(solved, censored, a, b):
    """(a_wins, b_wins): where column a, or column b, is known faster."""
    sa, sb = solved[:, a], solved[:, b]
    return (sa < sb) | (sa <= censored[:, b]), (sb < sa) | (sb <= censored[:, a])


def pair_classes(solved, censored, a, b) -> np.ndarray:
    """`pairwise_label` of columns a and b as int8: 0 = a faster, 1 = b
    faster, -1 = no label (either side unlabelled, or undecided). With index
    arrays a and b, one column per pair."""
    a_wins, b_wins = _wins(solved, censored, a, b)
    return np.where(a_wins, 0, np.where(b_wins, 1, -1)).astype(np.int8)


def timeout_classes(solved, censored, k: int, timeout: float) -> np.ndarray:
    """`timeout_label` of column k at `timeout` as int8, -1 for None."""
    s = solved[:, k]
    will_time_out = (s > timeout) | (censored[:, k] >= timeout)
    return np.where(s <= timeout, 0, np.where(will_time_out, 1, -1)).astype(np.int8)


def settled(solved, censored, a, b, cutoff: float) -> np.ndarray:
    """Cells of pair (a, b) that no further run can change, shaped like
    `pair_classes`: the label is decided, or both sides are final (solved,
    or censored at the cutoff), as an exact runtime tie or two censors at
    the cutoff never become informative."""
    a_wins, b_wins = _wins(solved, censored, a, b)
    final = ~np.isnan(solved) | (censored >= cutoff)
    return a_wins | b_wins | (final[:, a] & final[:, b])
