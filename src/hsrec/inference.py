"""Top-k token generation from a query vector.

Three engines:

* ``topk_exact``      — full enumeration of two-level log-probabilities; the
                        oracle the fast paths are tested against.
* ``topk_structure``  — exact cluster-pruned search.  Clusters are expanded in
                        descending P(cluster | H); since that probability upper
                        bounds every member's joint probability, the search
                        stops once the current K-th best candidate beats the
                        next unexpanded cluster.  Output is identical to
                        ``topk_exact`` including tie-breaks.
* ``topk_ann``        — maximum-inner-product search over additive rows
                        centroid(cluster(w)) + e_w.  Dropping the per-cluster
                        log-partition term makes this approximate; scores are
                        raw dot products, not probabilities.  The additive
                        index (``build_additive_index``) holds the item rows
                        only, a derived copy of the tables built once per
                        table version and cluster map and shared, read-only,
                        by served queries, evaluation and ``hsrec bench``.
                        A text token is its own centroid, so its row is
                        2·e_w and its score is twice its first-level logit.

Item-only paths serve recommendations, and they search nothing: a dense
vector of item scores goes to one selection.  ``topk_items`` scores every
item's rank score (``structure``: ``softmax.item_rank_scores``, its exact
log-probability plus the query's log Z, which orders the items alike, from
one row product against the cluster-ordered item rows, one against the
centroids and one segmented log-softmax) or its ANN index row (``ann``, one
row product).  No text row is read; ``softmax.log_partition`` gives the log
Z that turns a rank score into a log-probability.  Blocks of users
(evaluation, ``SequenceRecommender.predict``) are ranked the same way a
block at a time: ``item_rank_scores`` scores a ``(B, d)`` query block with
one GEMM, and ``ann_item_scores`` takes a query block as one GEMM.
The pruned search serves ``topk_structure`` alone, the token-level top-k
over text and items; each cluster it expands is one slice of the same
cluster-ordered rows, scored bitwise as ``score_all`` scores it.

Selection is array work, never a per-candidate loop.  ``_rank_topk``
(``topk_items``, ANN, ``topk_exact``, block prediction) partitions the
scores around the k-th best and sorts only the entries at or above it.  The
best-first loop starts from ``_rank_topk`` of the text singletons, whose
scores are their own cluster bounds, and keeps its best k as a sorted pair
of arrays: an expanded item cluster's members that reach the current k-th
score are concatenated with them and sorted back to k.

Ties are broken by ascending unified ordinal everywhere, so all engines are
reproducible and comparable row-for-row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .cluster import ClusterMap
from .exceptions import StaleIndexError
from .softmax import (
    _queries64,
    _query64,
    cluster_logits,
    item_rank_scores,
    log_softmax,
    member_log_conditionals,
    score_all,
)
from .tables import ModelTables
from .tokens import TokenSpace


@dataclass(frozen=True)
class TopK:
    """Ranked tokens: scores non-increasing, ties by ascending ordinal."""

    ordinals: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.ordinals.size

    def rows(self, space: TokenSpace, item_ids=None) -> list[dict]:
        """One dict per token: rank, kind (text or item), index within its
        kind and score, plus ``item_id`` on item rows when ``item_ids`` is given."""
        out = []
        for rank, (ordinal, score) in enumerate(zip(self.ordinals.tolist(), self.scores.tolist()), start=1):
            is_item = ordinal >= space.n_text
            index = ordinal - space.n_text if is_item else ordinal
            row = {"rank": rank, "kind": "item" if is_item else "text", "index": index, "score": score}
            if item_ids is not None and is_item:
                row["item_id"] = item_ids[index]
            out.append(row)
        return out


@dataclass
class SearchStats:
    """Per-query accounting emitted alongside structure-search results."""

    clusters_expanded: int = 0
    tokens_scored: int = 0
    clusters_pruned: int = 0
    max_pruned_logprob: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _rank_topk(scores: np.ndarray, k: int) -> TopK:
    """Top-k of a dense score vector under the global tie-break.

    A partition finds the k-th best score, and only the entries at or above
    it, every tie included, are sorted.  Sorts are stable over ascending
    indices, so ties break by index.  A NaN k-th score (fewer than k non-NaN
    scores) or ``k >= n`` sorts everything, which ranks NaN last.
    """
    n = scores.size
    k = min(k, n)
    if 0 < k < n:
        keys = -scores
        keys.partition(k - 1)
        kth = -keys[k - 1]
        if kth == kth:
            survivors = (scores >= kth).nonzero()[0]
            order = survivors[(-scores[survivors]).argsort(kind="stable")[:k]]
            return TopK(ordinals=order, scores=scores[order])
    order = (-scores).argsort(kind="stable")[:k]
    return TopK(ordinals=order, scores=scores[order])


def topk_exact(query, k: int, tables: ModelTables, cluster_map: ClusterMap) -> TopK:
    """Exact top-k of the two-level distribution by full enumeration.

    Asking for more tokens than exist truncates rather than failing.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank_topk(score_all(query, tables, cluster_map, mode="twolevel"), k)


def topk_structure(query, k: int, tables: ModelTables, cluster_map: ClusterMap):
    """Exact top-k via best-first cluster expansion with bound-based pruning.

    Returns ``(TopK, SearchStats)``.  A text singleton scores its own log
    P(cluster | H), so the search starts holding the best k text tokens and
    expands item clusters alone, in descending P(cluster | H).  That
    probability upper bounds every member's, so the search stops at the first
    cluster strictly below the held k-th score; the strict comparison keeps
    exact float ties expanding, preserving the ordinal tie-break of the oracle.
    An expanded cluster adds nothing if its best member is below the k-th
    score, and otherwise its members at or above it are ``lexsort``-ed into
    the held k.

    Clusters are expanded exactly when their bound reaches the final k-th
    score ``s``, since the k-th score only rises and never above an expanded
    bound, so the stats follow from ``s``: the clusters below it are pruned.
    With fewer than k results, or a NaN ``s``, nothing is pruned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = _query64(query)
    n_text = tables.n_text
    cl = log_softmax(cluster_logits(q, tables))
    best = _rank_topk(cl[:n_text], k)
    best_scores, best_ordinals = best.scores, best.ordinals
    tokens_scored = cluster_map.n_clusters
    item_cl = cl[n_text:]
    for cluster in (-item_cl).argsort(kind="stable"):
        bound = item_cl[cluster]
        kth = best_scores[-1] if best_scores.size == k else None
        if kth is not None and kth > bound:
            break
        members, log_cond = member_log_conditionals(q, tables, cluster_map, int(cluster))
        tokens_scored += members.size
        scores = bound + log_cond
        if kth is not None:
            if scores.max() < kth:
                continue
            keep = scores >= kth
            scores, members = scores[keep], members[keep]
        scores = np.concatenate((best_scores, scores))
        ordinals = np.concatenate((best_ordinals, n_text + members))
        order = np.lexsort((ordinals, -scores))[:k]
        best_scores, best_ordinals = scores[order], ordinals[order]

    # ``cl < s`` is false for a NaN ``s`` (and for an all-NaN ``cl``).
    pruned = cl[cl < best_scores[-1]] if best_scores.size == k else cl[:0]
    stats = SearchStats(
        clusters_expanded=cl.size - pruned.size,
        tokens_scored=tokens_scored,
        clusters_pruned=pruned.size,
        max_pruned_logprob=float(pruned.max()) if pruned.size else None,
    )
    return TopK(ordinals=best_ordinals, scores=best_scores), stats


@dataclass(frozen=True)
class AdditiveIndex:
    """MIPS index over the item rows centroid(cluster(w)) + e_w, stamped
    with the table version.

    Row ``i`` of ``vectors`` is item ``i``'s, unified ordinal ``n_text + i``.
    Text rows are not stored: a text token's row would be exactly twice its
    embedding, which the first-level copy (``tables.first_level_rows()``)
    already holds, so ``topk_ann`` scores text tokens from that copy.  One
    index per table version and cluster map is shared by every caller, so it
    is immutable: the dataclass is frozen and ``vectors`` read-only.
    """

    vectors: np.ndarray  # (n_items, d), read-only
    tables_version: int
    n_text: int
    cluster_map: ClusterMap = field(repr=False)


def build_additive_index(tables: ModelTables, cluster_map: ClusterMap) -> AdditiveIndex:
    """The tables' current additive index for ``cluster_map``.

    Row for item w is centroid(cluster(w)) + e_w, the projected item row plus
    its cluster's centroid, computed in the tables' precision and widened to
    float64.  The index is a derived copy of the tables: built on the first
    call in a table version, then the same object for every later call with
    that cluster map (served queries, ``evaluate``, ``hsrec bench``) until a
    write drops it.  An index held across a write is stale, and queries
    against it raise.
    """
    return tables.derived(("additive_index", cluster_map), lambda: _build_index(tables, cluster_map))


def _build_index(tables: ModelTables, cluster_map: ClusterMap) -> AdditiveIndex:
    vectors = np.empty((tables.n_items, tables.dim), dtype=np.float64)
    # Computed in the tables' precision, widened into ``vectors``: no temporary.
    np.add(tables.item_projected(), tables.centroids.data[cluster_map.item_assignment], out=vectors)
    vectors.flags.writeable = False
    return AdditiveIndex(
        vectors=vectors,
        tables_version=tables.version,
        n_text=tables.n_text,
        cluster_map=cluster_map,
    )


def _fresh_rows(index: AdditiveIndex, tables: ModelTables) -> np.ndarray:
    """The index's item rows; an index older than the tables raises."""
    if index.tables_version != tables.version:
        raise StaleIndexError(
            f"index built at tables version {index.tables_version}, "
            f"tables are now at {tables.version}; rebuild the index"
        )
    return index.vectors


def ann_item_scores(query, index: AdditiveIndex, tables: ModelTables) -> np.ndarray:
    """Inner products of a ``(d,)`` query, or of each row of a ``(B, d)``
    query block (one GEMM), with the index's item rows; a stale index raises.

    A single query takes an ``einsum`` row product, not a GEMV: a GEMV can
    round equal rows differently by where they sit, and equal item rows must
    score equal so that their ties break by ascending ordinal."""
    items = _fresh_rows(index, tables)
    if np.ndim(query) == 2:
        return _queries64(query) @ items.T
    return np.einsum("ij,j->i", items, _query64(query))


def topk_ann(
    query,
    k: int,
    index: AdditiveIndex,
    tables: ModelTables,
    probes: int | None = None,
) -> TopK:
    """Top-k by inner product over the text tokens and the additive index.

    Exact brute-force MIPS by default, so any deviation from ``topk_exact``
    is attributable to the dropped log-partition term alone.  ``probes``
    enables the approximate mode: only the item rows of the ``probes`` item
    clusters with the highest centroid scores are scored (text tokens always
    are).  Scores are additive dot products, not log-probabilities.

    A text token's score is twice its first-level logit, the product over
    the first-level copy's text rows that ``cluster_logits`` takes, doubled:
    bitwise the product of its row 2·e_w, since doubling is exact.  Item rows, probed or not, take
    ``ann_item_scores``' per-row ``einsum``, so a probed item scores bitwise
    as the full scan and the item-only paths score it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if probes is not None and probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    items = _fresh_rows(index, tables)
    q = _query64(query)
    n_text = index.n_text
    first_level = tables.first_level_rows()
    members = None
    if probes is not None:
        centroid_scores = first_level[n_text:] @ q
        probed = np.lexsort((np.arange(centroid_scores.size), -centroid_scores))[:probes]
        # Ascending item order, so ties still break by ascending ordinal.
        members = np.isin(index.cluster_map.item_assignment, probed).nonzero()[0]
        items = items[members]
    scores = np.concatenate((2.0 * (first_level[:n_text] @ q), np.einsum("ij,j->i", items, q)))
    top = _rank_topk(scores, k)
    if members is None:
        return top
    ordinals = np.concatenate((np.arange(n_text), n_text + members))
    return TopK(ordinals=ordinals[top.ordinals], scores=top.scores)


def filter_items(topk: TopK, space: TokenSpace) -> TopK:
    """Stable restriction of a ranking to item tokens."""
    keep = topk.ordinals >= space.n_text
    return TopK(ordinals=topk.ordinals[keep], scores=topk.scores[keep])


def topk_items(
    query,
    k: int,
    tables: ModelTables,
    cluster_map: ClusterMap,
    space: TokenSpace,
    engine: str = "structure",
    index: AdditiveIndex | None = None,
) -> TopK:
    """Item-only top-k of a ``(d,)`` query; ordinals are unified, ties by
    ascending ordinal.

    ``structure`` scores every item by its two-level rank score
    (``item_rank_scores``): each item's log-probability plus the query's
    log Z, read from no text row.  Subtract ``log_partition(query, tables)``
    for log-probabilities.  Its ordinals equal
    ``filter_items(topk_exact(query, n_total, ...))`` truncated to k, but
    for two items whose log-probabilities lie within one rounding of each
    other, which may order differently.
    ``ann`` scores the item rows of the additive ``index``
    (``build_additive_index``, built once per table version).  Both
    then select the k best with ``_rank_topk``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = _query64(query)
    if engine == "structure":
        scores = item_rank_scores(q, tables, cluster_map)
    elif engine == "ann":
        if index is None:
            raise ValueError("ann engine requires a prebuilt additive index")
        scores = ann_item_scores(q, index, tables)
    else:
        raise ValueError(f"unknown engine {engine!r}; choose 'structure' or 'ann'")
    ranked = _rank_topk(scores, k)
    return TopK(ordinals=space.n_text + ranked.ordinals, scores=ranked.scores)
