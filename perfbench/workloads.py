"""The benchmark's workloads and the seeded inputs they run on.

Inputs come from ``hsrec.synth.generate`` with the workload seed; the program
only ever sees them as a JSONL file.  ``Expected`` recomputes from the raw
generator events what ingestion and the leave-one-out split must produce, so
the set-up checks do not depend on the code they check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from hsrec.synth import SynthSpec, generate, write_jsonl


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    n_items: int
    n_groups: int
    clustering: str  # "kmeans" (co-occurrence SVD features) or "random"
    learning_rate: float  # peak; warm-up, then cosine decay over train_steps
    train_steps: int  # two-level steps on the served model; the run makes exactly these
    steps_per_round: int  # two-level steps before each serving group
    full_every: int  # one full-softmax step on a second model per this many two-level steps
    queries_per_group: int  # structure queries, and as many ANN queries, per serving group
    eval_users: tuple[int, int, int]  # users per group for the structure, ann and full engines
    quality_users: int  # test users behind test_nll
    popularity_check: bool  # the trained model must beat popularity on Recall@10
    setup_every: int  # one more timed set-up per this many rounds, besides the first
    dim: int = 64
    item_dim: int = 512
    batch_size: int = 64


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="catalog-200",
            n_users=2000,
            n_items=200,
            n_groups=10,
            clustering="kmeans",
            learning_rate=1.25,
            train_steps=1000,
            steps_per_round=10,
            full_every=10,
            queries_per_group=16,
            eval_users=(5, 10, 10),
            quality_users=1000,
            popularity_check=True,
            setup_every=10,
        ),
        Workload(
            name="catalog-10k",
            n_users=2000,
            n_items=10000,
            n_groups=50,
            clustering="random",
            learning_rate=1.0,
            train_steps=16,
            steps_per_round=1,
            full_every=2,
            queries_per_group=8,
            eval_users=(3, 24, 24),
            quality_users=500,
            popularity_check=False,
            setup_every=2,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, path) -> list[dict]:
    """Generate the workload's interactions for ``seed`` and write them as JSONL."""
    spec = SynthSpec(
        n_users=workload.n_users,
        n_items=workload.n_items,
        n_latent_groups=workload.n_groups,
        seed=seed,
    )
    data = generate(spec)
    write_jsonl(data, path)
    return data.events


@dataclass
class Expected:
    """Corpus facts derived straight from the generator's events."""

    users: list[str]  # first-seen order
    items: list[str]  # first-seen order, which fixes the item token indices
    n_events: int
    sequences: dict[str, list[str]]  # user -> item ids in (timestamp, line) order
    n_train_events: int
    n_train_examples: int
    n_split_users: int
    train_counts: Counter

    @classmethod
    def from_events(cls, events: list[dict]) -> "Expected":
        users: list[str] = []
        items: dict[str, None] = {}
        rows: dict[str, list[tuple[float, int, str]]] = {}
        for line_no, event in enumerate(events):
            user, item = event["user"], event["item"]
            items.setdefault(item)
            if user not in rows:
                rows[user] = []
                users.append(user)
            rows[user].append((float(event["timestamp"]), line_no, item))
        sequences = {u: [item for _, _, item in sorted(rows[u])] for u in users}
        kept = [u for u in users if len(sequences[u]) >= 3]
        train_counts: Counter = Counter()
        for u in kept:
            train_counts.update(sequences[u][:-2])
        return cls(
            users=users,
            items=list(items),
            n_events=len(events),
            sequences=sequences,
            n_train_events=sum(len(sequences[u]) - 2 for u in kept),
            n_train_examples=sum(len(sequences[u]) - 3 for u in kept),
            n_split_users=len(kept),
            train_counts=train_counts,
        )
