"""Synthetic interaction corpora with planted group structure.

Every user belongs to one latent group; each of their events draws an item
from that group with probability ``group_stickiness`` and uniformly from the
whole catalog otherwise.  Item titles encode the ground truth ("group-g
word-w") so metadata sampling has something to chew on, and group recovery by
clustering is checkable against the emitted ground-truth map.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 1000
    n_items: int = 200
    n_latent_groups: int = 10
    history_len_range: tuple[int, int] = (5, 15)
    group_stickiness: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_items", "n_latent_groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if self.n_latent_groups > self.n_items:
            raise ValueError("n_latent_groups cannot exceed n_items")
        if not 0.0 <= self.group_stickiness <= 1.0:
            raise ValueError("group_stickiness must be a probability")
        lo, hi = self.history_len_range
        if lo < 1 or hi < lo:
            raise ValueError("history_len_range must satisfy 1 <= lo <= hi")


@dataclass
class SynthData:
    spec: SynthSpec
    events: list[dict]  # user/item/timestamp/title rows, ingest-ready
    item_groups: np.ndarray  # group id per item index
    user_groups: np.ndarray  # group id per user index

    def expected_in_group_rate(self) -> float:
        """Chance an event lands in its user's group (sticky or by luck)."""
        share = np.bincount(self.item_groups, minlength=self.spec.n_latent_groups)
        share = share / self.spec.n_items
        mean_share = float(np.mean(share[self.user_groups]))
        s = self.spec.group_stickiness
        return s + (1.0 - s) * mean_share


def item_id(index: int) -> str:
    return f"item-{index:05d}"


def generate(spec: SynthSpec) -> SynthData:
    """Deterministic given the seed; events come out grouped per user."""
    rng = np.random.default_rng(spec.seed)
    # Items split into contiguous near-equal groups.
    item_groups = (np.arange(spec.n_items) * spec.n_latent_groups) // spec.n_items
    group_members = [np.flatnonzero(item_groups == g) for g in range(spec.n_latent_groups)]
    user_groups = rng.integers(0, spec.n_latent_groups, size=spec.n_users)

    events: list[dict] = []
    lo, hi = spec.history_len_range
    for u in range(spec.n_users):
        group = int(user_groups[u])
        length = int(rng.integers(lo, hi + 1))
        for t in range(length):
            if rng.random() < spec.group_stickiness:
                members = group_members[group]
                item = int(members[rng.integers(members.size)])
            else:
                item = int(rng.integers(spec.n_items))
            events.append(
                {
                    "user": f"user-{u:05d}",
                    "item": item_id(item),
                    "timestamp": t,
                    "title": f"group-{item_groups[item]} word-{item}",
                }
            )
    return SynthData(spec=spec, events=events, item_groups=item_groups, user_groups=user_groups)


def write_jsonl(data: SynthData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in data.events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")


def write_groups_csv(data: SynthData, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", "group"])
        for index, group in enumerate(data.item_groups):
            writer.writerow([item_id(index), int(group)])
