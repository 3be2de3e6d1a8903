"""Observation states for (instance, algorithm) runs and pairwise labels."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Solved:
    runtime: float


@dataclass(frozen=True)
class Censored:
    at: float


Observation = Solved | Censored


class LabelStore:
    """Mapping (instance, algorithm) -> observation; absent means unlabelled.

    Observations only improve: a censored entry may be replaced by a censored
    entry at a higher timeout or by a solved entry; solved entries are final.
    """

    def __init__(self):
        self.state: dict[tuple[str, str], Observation] = {}

    def get(self, instance: str, algorithm: str) -> Observation | None:
        return self.state.get((instance, algorithm))

    def record(self, instance: str, algorithm: str, obs: Observation) -> None:
        key = (instance, algorithm)
        old = self.state.get(key)
        if old is not None:
            if isinstance(old, Solved):
                raise ValueError(f"{key} already solved; observation is final")
            if isinstance(obs, Censored) and obs.at < old.at:
                raise ValueError(
                    f"{key}: censor level may not decrease ({old.at} -> {obs.at})"
                )
        self.state[key] = obs

    def __len__(self) -> int:
        return len(self.state)


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
