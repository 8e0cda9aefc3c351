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
two-level first level (:func:`cluster_logits` and the training head) reads
``ModelTables.first_level_rows()``, one float64 copy of the text rows and
centroids per table version, instead of casting a float32 table inside every
product.

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
members are one slice, and normalizes it one way, with no loop over
clusters: :func:`_fold` adds each cluster's offset ``logit_c - log sum_c
exp(L - m_c)`` to its max-shifted item logits ``L - m_c``, which scores an
item ``logit_c + log P(i | c, H)``, its log-probability plus log Z.
Evaluation, ``predict`` and ``topk_items`` rank items by these scores
(:func:`_cluster_rank_scores`, in item order :func:`item_rank_scores`) over
one ``(B, n_items)`` GEMM for a query block, folded a row tile at a time
(``FOLD_TILE_BYTES``), or one row product for a single query: log Z is one
constant per query, so they rank items as
log-probabilities do while reading no text row, ``O((C + |I|) d)`` per query
whatever ``|V|`` is.  :func:`log_partition` gives log Z; :func:`score_all`
and the pruned search (``topk_structure``) subtract it from the folds and
the text logits.  Every item logit against a rows copy is one
:func:`_item_products` call.  :func:`two_level_logprob` keeps the per-token
arithmetic as an independent oracle.

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
# Bytes of a query block's scores folded at a time (_cluster_rank_scores):
# a tile and the fold's repeat and exp temporaries, four tiles' worth, fit in
# a 2 MB L2.  That is five rows at catalog-10k (8,600 items) and any block of
# at most 64 rows up to 768 items, which is then one tile.
FOLD_TILE_BYTES = 384 * 1024


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
) -> float:
    """log P(token | H) = log P(cluster | H) + log P(token | cluster, H)."""
    q = _query64(query)
    cl = log_softmax(cluster_logits(q, tables))
    cluster_id = cluster_map.cluster_of(ordinal)
    if ordinal < tables.n_text:
        # Singleton cluster: the conditional is exactly 1.
        return float(cl[ordinal])
    members = cluster_map.item_members(cluster_id - cluster_map.n_text)
    member_logits = tables.item_projected()[members] @ q
    item_index = ordinal - tables.n_text
    pos = int(np.flatnonzero(members == item_index)[0])
    return float(cl[cluster_id] + member_logits[pos] - _logsumexp(member_logits))


def _fold(scores: np.ndarray, centroid_logits, starts: np.ndarray, sizes) -> np.ndarray:
    """Rank scores, in place, of cluster-ordered item logits ``scores``: each
    segment ``starts[i] : starts[i] + sizes[i]`` of the last axis (non-empty,
    back to back) is one cluster, scored ``L - m_c`` plus the offset
    ``logit_c - log sum_c exp(L - m_c)``, that is ``logit_c + log P(i | c, H)``.

    ``maximum.reduceat``, ``exp``, ``add.reduceat`` and ``log`` compute each
    segment the same way wherever it sits, so a cluster folded alone equals it
    folded among others, bit for bit; ``.sum()`` sums in another order, so a
    one-cluster caller must not use it.  Likewise each row of a ``(B, n)``
    block is folded by itself, reading no other row, so a block folded in row
    tiles equals it folded whole, bit for bit.  A best member shifts to
    exactly 0, so the sum is at least 1 and no member folds above
    ``logit_c``.  An empty
    segment would read its neighbour's first entry; ``ClusterMap`` rejects
    empty clusters.
    """
    scores -= np.repeat(np.maximum.reduceat(scores, starts, axis=-1), sizes, axis=-1)
    offset = centroid_logits - np.log(np.add.reduceat(np.exp(scores), starts, axis=-1))
    scores += np.repeat(offset, sizes, axis=-1)
    return scores


def _item_products(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Item logits against ``rows`` of a float64 ``(d,)`` query, ``(n,)``, by
    the ``einsum`` row product, or of a ``(B, d)`` block, ``(B, n)``, by one
    GEMM.  Not a GEMV: a GEMV (also a ``(1, d)`` GEMM's) can round a row
    differently by where it sits, while the ``einsum`` loop computes each row
    the same way wherever it sits.  So equal rows score equal, their ties
    breaking by ascending ordinal, and a slice of rows (a cluster, the probed
    items) scores bitwise as it does among all."""
    return np.einsum("ij,j->i", rows, queries) if queries.ndim == 1 else queries @ rows.T


def _cluster_rank_scores(queries, tables: ModelTables, cluster_map: ClusterMap, mode: str) -> np.ndarray:
    """:func:`item_rank_scores` in cluster order: column ``j`` is item
    ``cluster_map.item_order[j]``.

    Two-level mode folds (:func:`_fold`) the item logits against the
    cluster-ordered item rows with the centroid logits (the centroid table
    cast to float64, the values ``first_level_rows()`` holds, without
    building that copy).  Full mode scores an item by its logit ``q . p_i``.

    A block takes two GEMMs, whole, and is then folded one tile at a time: a
    tile is the block's next ``FOLD_TILE_BYTES // row bytes`` rows (at least
    one), so a tile and the fold's ``repeat`` and ``exp`` temporaries stay in
    cache.  :func:`_fold` computes a row the same way wherever it sits and
    reads no other row, so every tiling gives the same bits; a block within
    the budget is one tile.  A single query is folded by one direct call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    single = np.ndim(queries) == 1
    q = _query64(queries) if single else _queries64(queries)
    scores = _item_products(tables.item_rows_by_cluster(cluster_map), q)
    if mode == "full":
        return scores
    centroid_logits = q @ tables.centroids.data.astype(np.float64, copy=False).T
    starts, sizes = cluster_map.offsets[:-1], cluster_map.cluster_sizes()
    if single:
        return _fold(scores, centroid_logits, starts, sizes)
    tile = max(1, FOLD_TILE_BYTES // max(scores[:1].nbytes, 1))
    for lo in range(0, len(scores), tile):
        _fold(scores[lo : lo + tile], centroid_logits[lo : lo + tile], starts, sizes)
    return scores


def item_rank_scores(
    queries,
    tables: ModelTables,
    cluster_map: ClusterMap,
    mode: str = "twolevel",
) -> np.ndarray:
    """:func:`_cluster_rank_scores` gathered to item order: ``(B, n_items)``,
    C-ordered, for ``(B, d)`` queries, or ``(n_items,)`` for one ``(d,)``
    query.  A query's scores are its exact item log-probabilities plus its
    log Z (:func:`log_partition`), a constant that changes no item's rank."""
    return np.take(_cluster_rank_scores(queries, tables, cluster_map, mode), cluster_map.item_position, axis=-1)


def log_partition(query, tables: ModelTables) -> float:
    """log Z of a ``(d,)`` query under the two-level softmax: the logsumexp
    of its first-level logits (:func:`cluster_logits`).  An item's rank score
    (:func:`item_rank_scores`, ``topk_items``) minus log Z is its
    log-probability."""
    return _logsumexp(cluster_logits(query, tables))


def score_all(
    query,
    tables: ModelTables,
    cluster_map: ClusterMap | None = None,
    mode: str = "twolevel",
) -> np.ndarray:
    """Exact log-probability of every token under the chosen mode.

    Enumeration over the whole space.  Two-level mode subtracts log Z, the
    logsumexp of the first-level logits ``cl``, once from the text logits and
    the items' rank scores (:func:`item_rank_scores`); ``topk_exact`` ranks the
    result and ``topk_structure`` computes it bit for bit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q = _query64(query)
    if mode == "full":
        return log_softmax(full_logits(q, tables))
    if cluster_map is None:
        raise ValueError("two-level scoring requires a cluster map")
    cl = cluster_logits(q, tables)
    return np.concatenate((cl[: tables.n_text], item_rank_scores(q, tables, cluster_map))) - _logsumexp(cl)


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
        lifted = q @ grads.weight
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
