"""Independent numpy recomputation of what the program must output.

Everything here is computed in float64 from the model's parameter tables and
its cluster assignment, without calling the package's scoring, search or
encoder code.  The tables are float32, so the program and this module round
differently; comparisons therefore allow ``TOL`` and treat scores within it as
ties ("exact up to floating-point ties").
"""

from __future__ import annotations

import numpy as np

# Largest disagreement accepted between a program score and its recomputation;
# the program rounds projected item rows to float32.
TOL = 1e-5


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


class Reference:
    """Float64 copies of a model's tables and the scores they imply."""

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self.refresh()

    def refresh(self) -> None:
        """Re-read the tables; call after every parameter update."""
        s = self.snapshot
        t = s.tables
        f = np.float64
        self.n_text = t.text.data.shape[0]
        self.text = t.text.data.astype(f)
        self.centroids = t.centroids.data.astype(f)
        self.projected = t.item_raw.data.astype(f) @ t.projection.weight.astype(f).T
        self.projected += t.projection.bias.astype(f)
        self.assign = np.asarray(s.cluster_map.item_assignment, dtype=np.int64)
        self.additive = self.projected + self.centroids[self.assign]
        e = s.encoder
        self.hidden_w, self.hidden_b = e.hidden_w.astype(f), e.hidden_b.astype(f)
        self.out_w, self.out_b = e.out_w.astype(f), e.out_b.astype(f)
        # Segment starts for per-cluster maxima; the partition check guarantees
        # every cluster has a member.
        self._by_cluster = np.argsort(self.assign, kind="stable")
        sizes = np.bincount(self.assign, minlength=self.centroids.shape[0])
        self._starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    def prompt(self, vocab, history) -> list[int]:
        """Ordinals of the ID-only prompt for a history of item indices."""
        body = []
        for item in history:
            body += [vocab.id_marker_id, self.n_text + int(item)]
        return (
            list(vocab.prompt_prefix_ids) + body + list(vocab.prompt_question_ids) + [vocab.id_marker_id]
        )

    def query(self, ordinals) -> np.ndarray:
        """Mean-pooled embeddings through the MLP with identity skip."""
        ords = np.asarray(ordinals, dtype=np.int64)
        is_item = ords >= self.n_text
        rows = np.empty((ords.size, self.text.shape[1]))
        rows[~is_item] = self.text[ords[~is_item]]
        rows[is_item] = self.projected[ords[is_item] - self.n_text]
        pooled = rows.mean(axis=0)
        hidden = np.tanh(self.hidden_w @ pooled + self.hidden_b)
        return pooled + self.out_w @ hidden + self.out_b

    def item_logprobs(self, q: np.ndarray) -> np.ndarray:
        """log P(item | H) for every item under the two-level softmax."""
        cluster = np.concatenate([self.text @ q, self.centroids @ q])
        cluster -= _logsumexp(cluster)
        member = self.projected @ q
        peak = np.maximum.reduceat(member[self._by_cluster], self._starts)
        sums = np.bincount(self.assign, weights=np.exp(member - peak[self.assign]), minlength=peak.size)
        log_norm = peak + np.log(sums)
        return cluster[self.n_text + self.assign] + member - log_norm[self.assign]

    def item_logprobs_full(self, q: np.ndarray) -> np.ndarray:
        """log P(item | H) for every item under the flat softmax over all tokens."""
        member = self.projected @ q
        return member - _logsumexp(np.concatenate([self.text @ q, member]))

    def item_additive(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query with centroid + embedding item rows."""
        return self.additive @ q


def topk_error(returned, scores: np.ndarray, k: int, tol: float = TOL) -> str | None:
    """Why ``returned`` (item indices, best first) is not a top-k of ``scores``.

    Accepts any order among items whose scores lie within ``tol``.
    """
    r = np.asarray(returned, dtype=np.int64)
    want = min(k, scores.size)
    if r.size != want:
        return f"returned {r.size} items, expected {want}"
    if np.unique(r).size != r.size:
        return "returned items repeat"
    if r.min() < 0 or r.max() >= scores.size:
        return "returned an index outside the catalog"
    s = scores[r]
    rises = np.flatnonzero(np.diff(s) > tol)
    if rises.size:
        i = int(rises[0])
        return f"rank {i + 2} scores {s[i + 1]:.9g} above rank {i + 1} at {s[i]:.9g}"
    rest = np.ones(scores.size, dtype=bool)
    rest[r] = False
    if rest.any():
        best = float(scores[rest].max())
        if best > float(s.min()) + tol:
            return f"an item scoring {best:.9g} is missing; the last returned scores {s.min():.9g}"
    return None


def rank_interval(scores: np.ndarray, target: int, tol: float = TOL) -> tuple[int, int]:
    """Bounds on the target's 1-based rank when scores within ``tol`` may tie either way."""
    s = scores[target]
    lo = int(np.count_nonzero(scores > s + tol)) + 1
    hi = int(np.count_nonzero(scores >= s - tol))
    return lo, hi


def metrics_of(ranks) -> dict[str, float]:
    """Recall@1, Recall@10, NDCG@10 and MRR of 1-based ranks."""
    r = np.asarray(ranks, dtype=np.float64)
    return {
        "recall@1": float(np.mean(r <= 1)),
        "recall@10": float(np.mean(r <= 10)),
        "ndcg@10": float(np.mean(np.where(r <= 10, 1.0 / np.log2(r + 1.0), 0.0))),
        "mrr": float(np.mean(1.0 / r)),
    }


def report_error(report: dict, intervals, eps: float = 1e-12) -> str | None:
    """Why a metric report cannot come from ranks inside ``intervals``.

    Every metric falls as a rank grows, so the best ranks bound it from above
    and the worst from below.
    """
    lo = metrics_of([a for a, _ in intervals])
    hi = metrics_of([b for _, b in intervals])
    for name in lo:
        if not hi[name] - eps <= report[name] <= lo[name] + eps:
            return f"{name} {report[name]:.12g} outside [{hi[name]:.12g}, {lo[name]:.12g}]"
    if report["n_users"] != len(intervals):
        return f"report covers {report['n_users']} users, expected {len(intervals)}"
    return None
