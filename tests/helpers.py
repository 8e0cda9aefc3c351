"""Shared fixtures: random models, parameter flattening, finite differences,
snapshot byte surgery, and the selection oracles the array-form top-k paths
are tested against."""

import heapq
import json
import struct

import numpy as np

from hsrec.cluster import ClusterMap
from hsrec.encoder import EncoderParams
from hsrec.inference import SearchStats, TopK
from hsrec.softmax import _query64, cluster_logits, log_softmax, member_log_conditionals
from hsrec.tables import EmbeddingTable, ModelTables, ProjectionHead


def random_cluster_map(n_text, n_items, n_clusters, rng):
    """Random item assignment guaranteed to leave no cluster empty."""
    labels = rng.integers(0, n_clusters, size=n_items)
    labels[rng.choice(n_items, size=n_clusters, replace=False)] = np.arange(n_clusters)
    return ClusterMap(n_text, labels, n_clusters)


def random_model(n_text, n_items, dim, item_dim, n_clusters, seed=0, dtype=np.float64, scale=0.5):
    rng = np.random.default_rng(seed)
    tables = ModelTables(
        EmbeddingTable((rng.standard_normal((n_text, dim)) * scale).astype(dtype)),
        EmbeddingTable((rng.standard_normal((n_items, item_dim)) * scale).astype(dtype)),
        ProjectionHead(
            (rng.standard_normal((dim, item_dim)) * scale).astype(dtype),
            (rng.standard_normal(dim) * scale).astype(dtype),
        ),
        EmbeddingTable((rng.standard_normal((n_clusters, dim)) * scale).astype(dtype)),
    )
    cmap = random_cluster_map(n_text, n_items, n_clusters, rng)
    return tables, cmap, rng


SNAPSHOT_HEADER_BYTES = 41  # magic, then "<IIIQQQB"


def snapshot_offsets(blob):
    """(cluster assignment, metadata length) byte offsets of a saved snapshot,
    located from its header."""
    dim, item_dim, n_text, n_items, n_clusters, precision = struct.unpack_from("<IIQQQB", blob, 8)
    size = 4 if precision == 0 else 8
    at = SNAPSHOT_HEADER_BYTES + size * (
        n_text * dim + n_items * item_dim + dim * item_dim + dim + n_clusters * dim
    )
    return at, at + 4 * (n_text + n_items) + size * (2 * dim * dim + 2 * dim)


def rewrite_snapshot(path, assignment=None, metadata=None):
    """Overwrite a saved snapshot's unified cluster assignment (as u32) and/or
    its metadata trailer (any JSON value), locating both from the header."""
    blob = bytearray(path.read_bytes())
    at, meta_at = snapshot_offsets(blob)
    if assignment is not None:
        new = np.asarray(assignment, dtype="<u4").tobytes()
        blob[at : at + len(new)] = new
    if metadata is not None:
        meta = json.dumps(metadata).encode("utf-8")
        blob[meta_at:] = struct.pack("<Q", len(meta)) + meta
    path.write_bytes(bytes(blob))


def random_encoder(dim, rng, dtype=np.float64, scale=0.5):
    return EncoderParams(
        hidden_w=(rng.standard_normal((dim, dim)) * scale).astype(dtype),
        hidden_b=(rng.standard_normal(dim) * scale).astype(dtype),
        out_w=(rng.standard_normal((dim, dim)) * scale).astype(dtype),
        out_b=(rng.standard_normal(dim) * scale).astype(dtype),
    )


def param_arrays(tables, encoder=None):
    arrays = dict(tables.parameter_arrays())
    if encoder is not None:
        arrays.update(encoder.parameter_arrays())
    return arrays


def flatten(arrays):
    # np.asarray densifies the row-sparse raw-item gradient of GradBuffer.finalize.
    return np.concatenate([np.asarray(a).ravel() for a in arrays.values()])


def write_back(tables, arrays, theta):
    """Write theta into arrays, the tables' own through ``tables.writing()``."""
    with tables.writing():
        offset = 0
        for arr in arrays.values():
            n = arr.size
            arr.ravel()[:] = theta[offset : offset + n]
            offset += n


def fd_gradient(loss_fn, tables, arrays, eps=1e-5):
    """Central finite differences of loss_fn() with respect to every entry."""
    theta = flatten(arrays)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        write_back(tables, arrays, theta)
        up = loss_fn()
        theta[i] = orig - eps
        write_back(tables, arrays, theta)
        down = loss_fn()
        theta[i] = orig
        grad[i] = (up - down) / (2 * eps)
    write_back(tables, arrays, theta)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def fig2_fixture():
    """Two item clusters (P=0.6, 0.1) and two text singletons (P=0.2, 0.1).

    Query [1, 0] against first coordinates set to log-probabilities makes the
    model reproduce exactly those cluster probabilities; the best token has
    joint probability 0.6 * 0.4 = 0.24, which beats every other cluster bound,
    so a top-1 search expands one cluster only.
    """
    n_text, dim = 2, 2
    text = np.array([[np.log(0.2), 0.0], [np.log(0.1), 0.0]])
    centroids = np.array([[np.log(0.6), 0.0], [np.log(0.1), 0.0]])
    # Identity head: raw item rows are the projected rows.
    conds_c1 = [0.4, 0.35, 0.25]
    conds_c2 = [0.5, 0.5]
    item_raw = np.array([[np.log(c), 0.0] for c in conds_c1 + conds_c2])
    tables = ModelTables(
        EmbeddingTable(text),
        EmbeddingTable(item_raw),
        ProjectionHead(np.eye(dim), np.zeros(dim)),
        EmbeddingTable(centroids),
    )
    cmap = ClusterMap(n_text, [0, 0, 0, 1, 1], 2)
    query = np.array([1.0, 0.0])
    return tables, cmap, query


def synth_dataset(tmp_path, n_users=80, n_items=24, n_groups=4, stickiness=0.85, seed=0, hist=(4, 9), vocab_size=512):
    """Small planted-structure dataset written to disk and ingested back."""
    from hsrec.catalog import build_dataset, ingest_jsonl
    from hsrec.synth import SynthSpec, generate, write_jsonl

    spec = SynthSpec(
        n_users=n_users,
        n_items=n_items,
        n_latent_groups=n_groups,
        history_len_range=hist,
        group_stickiness=stickiness,
        seed=seed,
    )
    data = generate(spec)
    path = tmp_path / "synth.jsonl"
    write_jsonl(data, path)
    return build_dataset(ingest_jsonl(path), vocab_size=vocab_size, name="synth"), data


def rank_topk_reference(scores, k):
    """Top-k by one full ``lexsort`` on (-score, index)."""
    n = scores.size
    order = np.lexsort((np.arange(n), -scores))[: min(k, n)]
    return TopK(ordinals=order.astype(np.int64), scores=scores[order])


def best_first_heap(query, k, tables, cluster_map):
    """Best-first search with a per-candidate min-heap of the best k: the
    oracle for ``inference.topk_structure``'s array merge."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = _query64(query)
    n_text = tables.n_text
    cl = log_softmax(cluster_logits(q, tables))
    stats = SearchStats(tokens_scored=cluster_map.n_clusters)
    expansion_order = np.lexsort((np.arange(cl.size), -cl))

    # Min-heap of the best-K seen so far, keyed so the root is the worst:
    # lowest log-probability first, then highest ordinal.
    heap: list[tuple[float, int, int]] = []

    def worst_beats(bound: float) -> bool:
        if len(heap) < k:
            return False
        return heap[0][0] > bound

    for i, cluster_id in enumerate(expansion_order):
        bound = float(cl[cluster_id])
        if worst_beats(bound):
            stats.clusters_pruned = expansion_order.size - i
            stats.max_pruned_logprob = bound
            break
        stats.clusters_expanded += 1
        if cluster_id < n_text:
            candidates = ((bound, int(cluster_id)),)
        else:
            members, log_cond = member_log_conditionals(
                q, tables, cluster_map, int(cluster_id) - n_text
            )
            stats.tokens_scored += members.size
            candidates = zip((cl[cluster_id] + log_cond).tolist(), (n_text + members).tolist())
        for score, ordinal in candidates:
            entry = (score, -ordinal, ordinal)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

    ranked = sorted(heap, key=lambda e: (-e[0], e[2]))
    return (
        TopK(
            ordinals=np.asarray([e[2] for e in ranked], dtype=np.int64),
            scores=np.asarray([e[0] for e in ranked], dtype=np.float64),
        ),
        stats,
    )
