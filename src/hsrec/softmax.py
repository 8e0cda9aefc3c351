"""Full and two-level softmax over the mixed text/item token space.

Full mode normalizes one dot-product logit per token over the entire space.
Two-level mode factorizes the distribution: a softmax over clusters (text
singletons plus item clusters) times a softmax over the chosen cluster's
members,

    P(w | H) = P(cluster(w) | H) * P(w | cluster(w), H)

which needs only ``n_clusters + |cluster(w)|`` dot products per training
example instead of one per token.  All probability math runs in the log
domain with max-shifted logsumexp; queries are promoted to float64 so
reductions accumulate in double precision even over float32 tables.  The
two-level first level (:func:`cluster_logits`, :func:`cluster_log_probs_batch`
and the training head) reads ``ModelTables.first_level_rows()``, one float64
copy of the text rows and centroids per table version, instead of casting a
float32 table inside every product.

Training takes one batched step: :func:`nll_and_grad` scores a ``(B, d)``
query matrix with one ``(B, n)`` GEMM of cluster (or full) logits and a
row-wise logsumexp, then one small GEMM per distinct target cluster for the
member softmaxes; the text, centroid and projected-item gradients are
``P.T @ Q`` products.  The item side of a target cluster with at least ``d``
members is lifted instead: with ``L = Q W`` computed once per batch, its
members' raw-row gradient stays the factored ``P_c.T @ L_c`` (expanded by the
trainer's update) and the head gets ``Q_c.T @ (P_c R_c)``, so those rows are
chained through the projection head only when they are also encoder inputs;
smaller clusters keep projected-row gradients.  One example is a batch of
one.  The test suite keeps a per-example form with the projected-row chain as
the oracle whose summed losses, gradients and dot count this step must equal.

Exact item scoring reads one cluster-ordered float64 copy of the projected
item rows (``ModelTables.item_rows_by_cluster``), where each item cluster's
members are one slice.  :func:`score_all` takes one row product for a query,
:func:`item_log_probs_batch` one ``(B, n_items)`` GEMM for a query block,
and :func:`member_log_conditionals` one product over a single cluster's
slice; all three normalize with one segmented log-softmax over the cluster
offsets (:func:`_segment_log_softmax`), with no loop over clusters.  The
single-query products are ``einsum`` loops, which compute a row the same way
wherever it sits, so one cluster scored alone gets bitwise the scores it gets
among all of them.  :func:`two_level_logprob` keeps the per-token arithmetic
as an independent oracle.

A :class:`CostCounter` tallies d-dimensional dot products so the cost claims
are measurable rather than asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterMap
from .tables import GradBuffer, ModelTables

MODES = ("full", "twolevel")
_ONE_SEGMENT = np.zeros(1, dtype=np.intp)


@dataclass
class CostCounter:
    """Counts d-dimensional dot products spent computing logits."""

    dots: int = 0

    def add(self, n: int) -> None:
        self.dots += int(n)

    def to_json(self) -> str:
        return json.dumps({"dots": self.dots})


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted log softmax; safe for logit magnitudes up to ~1e300."""
    x = np.asarray(logits, dtype=np.float64)
    m = x.max()
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum())


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1)
    shifted = x - m[:, None]
    np.exp(shifted, out=shifted)
    out = shifted.sum(axis=1)
    np.log(out, out=out)
    out += m
    return out


def _query64(query) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"query must be a 1-D vector, got shape {q.shape}")
    return q


def _queries64(queries) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"queries must be a (B, d) matrix, got shape {q.shape}")
    return q


def _first_level_rows(tables: ModelTables, mode: str) -> np.ndarray:
    """Float64 first-level rows: text rows, then the projected item rows
    (full mode, a fresh copy) or the centroids (two-level, the tables' copy
    for their version), cast once, not again inside every product."""
    if mode == "full":
        return np.concatenate([tables.text.data, tables.item_projected()], dtype=np.float64)
    return tables.first_level_rows()


def full_logits(query, tables: ModelTables) -> np.ndarray:
    q = _query64(query)
    return np.concatenate([tables.text.data @ q, tables.item_projected() @ q])


def cluster_logits(query, tables: ModelTables) -> np.ndarray:
    """First-level logits: text rows double as singleton-cluster centroids.

    Two products over views of ``tables.first_level_rows()``, one per table,
    not one over the whole copy: a GEMV can round a row differently by where
    it sits, and these two read what a product over each table reads."""
    q = _query64(query)
    rows, n_text = tables.first_level_rows(), tables.n_text
    return np.concatenate([rows[:n_text] @ q, rows[n_text:] @ q])


def two_level_logprob(
    query,
    ordinal: int,
    tables: ModelTables,
    cluster_map: ClusterMap,
    counter: CostCounter | None = None,
) -> float:
    """log P(token | H) = log P(cluster | H) + log P(token | cluster, H)."""
    q = _query64(query)
    cl = log_softmax(cluster_logits(q, tables))
    cluster_id = cluster_map.cluster_of(ordinal)
    if ordinal < tables.n_text:
        # Singleton cluster: the conditional is exactly 1.
        if counter is not None:
            counter.add(cluster_map.n_clusters + 1)
        return float(cl[ordinal])
    members = cluster_map.item_members(cluster_id - cluster_map.n_text)
    member_logits = tables.item_projected()[members] @ q
    if counter is not None:
        counter.add(cluster_map.n_clusters + members.size)
    item_index = ordinal - tables.n_text
    pos = int(np.flatnonzero(members == item_index)[0])
    return float(cl[cluster_id] + member_logits[pos] - _logsumexp(member_logits))


def _segment_log_softmax(logits: np.ndarray, starts: np.ndarray, sizes) -> np.ndarray:
    """Log-softmax, in place, of each segment ``starts[i] : starts[i] + sizes[i]``
    along the last axis of ``logits``; the segments are non-empty and back to
    back.

    ``maximum.reduceat``, ``exp``, ``add.reduceat`` and ``log`` compute each
    segment the same way wherever it sits, so a segment normalized alone
    equals it normalized among others, bit for bit.  ``add.reduceat`` sums in
    another order than ``.sum()``, so a one-segment caller must not use
    :func:`_logsumexp` instead.  An empty segment would read its neighbour's
    first entry; ``ClusterMap`` rejects empty clusters.
    """
    m = np.maximum.reduceat(logits, starts, axis=-1)
    shifted = np.repeat(m, sizes, axis=-1)
    np.subtract(logits, shifted, out=shifted)
    np.exp(shifted, out=shifted)
    log_norm = np.log(np.add.reduceat(shifted, starts, axis=-1))
    del shifted  # freed before the next (B, n_items) temporary: a block holds two at a time
    log_norm += m
    logits -= np.repeat(log_norm, sizes, axis=-1)
    return logits


def _item_log_probs(member_logits: np.ndarray, cluster_lp: np.ndarray, cluster_map: ClusterMap) -> np.ndarray:
    """Item log-probabilities, in item order, from the cluster-ordered member
    logits ``(..., n_items)`` (overwritten) and log P(item cluster | H)
    ``(..., n_item_clusters)``."""
    sizes = cluster_map.cluster_sizes()
    log_cond = _segment_log_softmax(member_logits, cluster_map.offsets[:-1], sizes)
    log_cond += np.repeat(cluster_lp, sizes, axis=-1)
    return log_cond[..., cluster_map.item_position]


def member_log_conditionals(
    query: np.ndarray, tables: ModelTables, cluster_map: ClusterMap, item_cluster: int
) -> tuple[np.ndarray, np.ndarray]:
    """(member item indices, their log P(item | cluster)) for one item cluster
    and a float64 ``(d,)`` query.

    Its scores equal :func:`score_all`'s for those members bit for bit, the
    property the pruned search (``topk_structure``) rests on: both take the
    same ``einsum`` row product and :func:`_segment_log_softmax`.
    """
    lo, hi = cluster_map.offsets[item_cluster : item_cluster + 2]
    logits = np.einsum("ij,j->i", tables.item_rows_by_cluster(cluster_map)[lo:hi], query)
    return cluster_map.item_order[lo:hi], _segment_log_softmax(logits, _ONE_SEGMENT, hi - lo)


def cluster_log_probs_batch(queries: np.ndarray, tables: ModelTables) -> np.ndarray:
    """(B, n_clusters) log P(cluster | H) for ``(B, d)`` float64 queries."""
    logits = queries @ _first_level_rows(tables, "twolevel").T
    logits -= _logsumexp_rows(logits)[:, None]
    return logits


def item_log_probs_batch(
    queries,
    tables: ModelTables,
    cluster_map: ClusterMap | None = None,
    mode: str = "twolevel",
) -> np.ndarray:
    """(B, n_items) exact item log-probabilities, the block form of
    ``score_all(query, ...)[n_text:]`` for each row of ``queries``.

    Full mode is one ``(B, n_total)`` GEMM and a row-wise logsumexp.
    Two-level mode is one ``(B, n_clusters)`` GEMM of cluster logits, one
    ``(B, n_items)`` GEMM against the cluster-ordered item rows and one
    segmented log-softmax.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q = _queries64(queries)
    n_text = tables.n_text
    if mode == "full":
        logits = q @ _first_level_rows(tables, "full").T
        return logits[:, n_text:] - _logsumexp_rows(logits)[:, None]
    if cluster_map is None:
        raise ValueError("two-level scoring requires a cluster map")
    cl = cluster_log_probs_batch(q, tables)[:, n_text:].copy()  # not a view of the (B, n_clusters) logits
    return _item_log_probs(q @ tables.item_rows_by_cluster(cluster_map).T, cl, cluster_map)


def score_all(
    query,
    tables: ModelTables,
    cluster_map: ClusterMap | None = None,
    mode: str = "twolevel",
    counter: CostCounter | None = None,
) -> np.ndarray:
    """Exact log-probability of every token under the chosen mode.

    Enumeration over the whole space.  Two-level mode takes the first-level
    logits, one ``einsum`` row product against the cluster-ordered item rows
    and one segmented log-softmax; ``topk_items`` and ``topk_exact`` rank it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q = _query64(query)
    if mode == "full":
        if counter is not None:
            counter.add(tables.n_total)
        return log_softmax(full_logits(q, tables))
    if cluster_map is None:
        raise ValueError("two-level scoring requires a cluster map")
    n_text = tables.n_text
    cl = log_softmax(cluster_logits(q, tables))
    logits = np.einsum("ij,j->i", tables.item_rows_by_cluster(cluster_map), q)
    out = np.empty(tables.n_total, dtype=np.float64)
    out[:n_text] = cl[:n_text]
    out[n_text:] = _item_log_probs(logits, cl[n_text:], cluster_map)
    if counter is not None:
        counter.add(cluster_map.n_clusters + tables.n_items)
    return out


def nll_and_grad(
    queries,
    targets,
    tables: ModelTables,
    cluster_map: ClusterMap | None,
    mode: str = "twolevel",
    grads: GradBuffer | None = None,
    counter: CostCounter | None = None,
):
    """Cross-entropy losses and exact gradients for a batch of examples.

    ``queries`` is ``(B, d)`` and ``targets`` holds ``B`` ordinals.  Returns
    ``(losses, d_queries, grads)`` with ``losses`` of shape ``(B,)`` and
    ``d_queries`` of shape ``(B, d)``; head gradients accumulate into
    ``grads`` (allocated if not supplied).  In two-level mode the only item
    rows that receive gradient are the members of the target clusters.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q = np.asarray(queries, dtype=np.float64)
    t = np.asarray(targets, dtype=np.int64)
    if q.ndim != 2 or t.shape != (q.shape[0],):
        raise ValueError(f"need (B, d) queries and B targets, got shapes {q.shape} and {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= tables.n_total):
        raise ValueError("target ordinal out of range")
    if grads is None:
        grads = GradBuffer(tables)
    n_text = tables.n_text
    is_item = t >= n_text
    if mode == "full":
        # Full mode: every token is its own first-level class.
        first = t
    else:
        if cluster_map is None:
            raise ValueError("two-level mode requires a cluster map")
        first = t.copy()
        first[is_item] = n_text + cluster_map.item_assignment[t[is_item] - n_text]

    # First level: one (B, n) GEMM and a row-wise logsumexp.
    heads = _first_level_rows(tables, mode)
    logits = q @ heads.T
    if counter is not None:
        counter.add(t.size * heads.shape[0])
    log_norm = _logsumexp_rows(logits)
    batch = np.arange(t.size)
    losses = log_norm - logits[batch, first]
    p = np.subtract(logits, log_norm[:, None], out=logits)
    np.exp(p, out=p)
    p[batch, first] -= 1.0
    d_queries = p @ heads
    d_heads = p.T @ q
    grads.d_text += d_heads[:n_text]
    if mode == "full":
        grads.add_item_rows(np.arange(tables.n_items), d_heads[n_text:])
        return losses, d_queries, grads
    grads.d_centroids += d_heads[n_text:]
    if counter is not None:
        # Text targets: their singleton's conditional is 1, one dot each.
        counter.add(t.size - int(is_item.sum()))

    # Second level: one GEMM per distinct target item cluster.  The item side
    # of a cluster with at least d members is lifted: with L = Q W, its
    # members' raw-row gradient is P_c.T @ L_c and the head's is
    # Q_c.T @ (P_c R_c) and Q_c.T @ (P_c 1), so a member row is chained
    # through the head only if it is also an encoder input.  A smaller
    # cluster keeps projected-row gradients: there the lifted form's dozen
    # numpy calls per cluster cost more than the rows it saves (catalog-200's
    # clusters of at most 20 members at d = 64 trained slower lifted).
    items = tables.item_projected()
    clusters = np.unique(first[is_item])
    lifts = cluster_map.cluster_sizes()[clusters - n_text] >= tables.dim
    if lifts.any():
        raw = tables.item_raw.data
        lifted = q @ tables.projection.weight.astype(np.float64)
        member_sums = np.zeros((t.size, tables.item_dim))  # row b: P_b R over b's target cluster
        p_sums = np.zeros(t.size)
    for cluster, lift in zip(clusters, lifts):
        rows = np.flatnonzero(first == cluster)
        members = cluster_map.item_members(int(cluster) - n_text)
        member_rows = items[members].astype(np.float64)
        queries = q[rows]
        member_logits = queries @ member_rows.T
        if counter is not None:
            counter.add(rows.size * members.size)
        m_norm = _logsumexp_rows(member_logits)
        # Members are in ascending item order (ClusterMap sorts them stably).
        pos = np.searchsorted(members, t[rows] - n_text)
        within = np.arange(rows.size)
        losses[rows] += m_norm - member_logits[within, pos]
        pm = np.exp(member_logits - m_norm[:, None])
        pm[within, pos] -= 1.0
        d_queries[rows] += pm @ member_rows
        if lift:
            member_sums[rows] = pm @ raw[members].astype(np.float64)
            p_sums[rows] = pm.sum(axis=1)
            grads.add_item_cluster(members, pm.T, queries, lifted[rows])
        else:
            grads.add_item_rows(members, pm.T @ queries)
    if lifts.any():
        grads.d_proj_weight += q.T @ member_sums
        grads.d_proj_bias += q.T @ p_sums
    return losses, d_queries, grads
