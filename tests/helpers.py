"""Shared fixtures: random models, parameter flattening, finite differences,
snapshot byte surgery, and the oracles the fast paths are tested against:
the per-line ingest, the split's example lists, the per-example render loop,
full-softmax log-probabilities, normalized block item log-probabilities
(the oracle for evaluation's rank scores), the per-example loss, gradients and
encoder backward, top-k selection, co-occurrence counting, cluster binning,
centroid means and the full-layout additive index; and the item rows a
factored item gradient writes."""

import heapq
import json
import math
import struct
import zlib

import numpy as np

from hsrec.catalog import (
    METADATA_FIELDS,
    Catalog,
    Interactions,
    ItemRecord,
    SequenceExample,
    _parse_line,
    read_lines,
)
from hsrec.cluster import ClusterMap
from hsrec.encoder import EncoderParams
from hsrec.exceptions import DataError
from hsrec.inference import SearchStats, TopK
from hsrec.softmax import (
    MODES,
    _first_level_rows,
    _item_log_probs,
    _logsumexp,
    _logsumexp_rows,
    _queries64,
    _query64,
    cluster_logits,
    full_logits,
    log_softmax,
    member_log_conditionals,
)
from hsrec.tables import EmbeddingTable, GradBuffer, ModelTables, ProjectionHead
from hsrec.tokens import tokenize_text


def ingest_loop(path) -> Interactions:
    """The per-line ingest, the oracle for ``catalog.ingest_jsonl``: every
    line through ``json.loads``, string or integer ids, string or null text
    fields, and every event merges its metadata into its item's record field
    by field (first-seen wins, later events fill fields still missing)."""

    def number(value, name, line_no):
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise DataError(f"line {line_no}: {name} is not a number") from None
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DataError(f"line {line_no}: {name} is not a finite number")
        return value

    kinds = {type(None): "null", bool: "boolean", int: "integer", float: "float", list: "array", dict: "object"}

    def ident(value, name, line_no):
        if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
            return str(value)
        raise DataError(f"line {line_no}: {name} must be a string or an integer, got {kinds[type(value)]}")

    def text(value, name, line_no):
        if value is not None and not isinstance(value, str):
            raise DataError(f"line {line_no}: {name} must be a string or null, got {kinds[type(value)]}")

    records, index = [], {}
    raw, users = {}, []
    n_events = 0
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        obj = _parse_line(line, line_no)
        user, item_id = (ident(obj[name], name, line_no) for name in ("user", "item"))
        timestamp = number(obj["timestamp"], "timestamp", line_no)
        metadata = {k: obj[k] for k in METADATA_FIELDS if k in obj and obj[k] is not None}
        if "price" in metadata:
            metadata["price"] = number(metadata["price"], "price", line_no)
        for name in ("title", "brand", "category"):
            text(obj.get(name), name, line_no)
        if item_id not in index:
            index[item_id] = len(records)
            records.append(ItemRecord(item_id=item_id))
        record = records[index[item_id]]
        for name in METADATA_FIELDS:
            if name in metadata and getattr(record, name) is None:
                setattr(record, name, metadata[name])
        if user not in raw:
            raw[user] = []
            users.append(user)
        raw[user].append((timestamp, index[item_id]))
        n_events += 1
    if n_events == 0:
        raise DataError(f"{path}: no interaction lines found")
    runs = [[item for _, item in sorted(raw[user], key=lambda e: e[0])] for user in users]
    offsets = np.cumsum([0] + [len(run) for run in runs])
    events = np.array([item for run in runs for item in run], dtype=np.int64)
    return Interactions(catalog=Catalog(records, index), users=users, events=events, offsets=offsets)


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


def seal_snapshot(blob):
    """Snapshot bytes without their checksum, with a checksum that matches them."""
    return bytes(blob) + struct.pack("<I", zlib.crc32(blob))


def rewrite_snapshot(path, assignment=None, metadata=None):
    """Overwrite a saved snapshot's unified cluster assignment (as u32) and/or
    its metadata trailer (any JSON value), locating both from the header, and
    seal the result with a matching checksum, so that a loader's own checks
    see the change."""
    blob = bytearray(path.read_bytes()[:-4])
    at, meta_at = snapshot_offsets(blob)
    if assignment is not None:
        new = np.asarray(assignment, dtype="<u4").tobytes()
        blob[at : at + len(new)] = new
    if metadata is not None:
        meta = json.dumps(metadata).encode("utf-8")
        blob[meta_at:] = struct.pack("<Q", len(meta)) + meta
    path.write_bytes(seal_snapshot(blob))


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


def user_runs(interactions):
    """Each user's chronological item indices, as a dict of lists."""
    bounds = interactions.offsets.tolist()
    return {user: interactions.events[lo:hi].tolist() for user, lo, hi in zip(interactions.users, bounds, bounds[1:])}


def split_runs(interactions):
    """The leave-one-out split one user at a time, the oracle for
    ``build_dataset``'s: (train, val, test, n_dropped), where train maps each
    kept user to its run but the last two items, val to the one before its
    last and test to its last; a user with fewer than three events is
    dropped."""
    train, val, test, dropped = {}, {}, {}, 0
    for user, run in user_runs(interactions).items():
        if len(run) < 3:
            dropped += 1
            continue
        train[user], val[user], test[user] = run[:-2], run[-2], run[-1]
    return train, val, test, dropped


def examples_from_split(interactions):
    """The split as (train, val, test) SequenceExample lists, one user at a
    time: the oracle for ``Dataset``'s array-form examples.

    Train examples are all history prefixes inside the train region, so no
    example conditions on events at or after its target.
    """
    train, val, test, _ = split_runs(interactions)
    train_ex, val_ex, test_ex = [], [], []
    for user, items in train.items():
        for j in range(1, len(items)):
            train_ex.append(SequenceExample(user, tuple(items[:j]), items[j]))
        val_ex.append(SequenceExample(user, tuple(items), val[user]))
        test_ex.append(SequenceExample(user, (*items, val[user]), test[user]))
    return train_ex, val_ex, test_ex


def render_loop(example, data, rng=None, id_only_fraction=0.25, metadata_keep_prob=0.5, force_id_only=False):
    """One prompt, item by item and field by field, each field tokenized as it
    is rendered, with one scalar draw per present field: the oracle for
    ``render.render_batch`` and, with ``force_id_only``, for
    ``render.render_id_only_batch``."""
    vocab = data.vocab
    id_only = force_id_only or rng.random() < id_only_fraction
    tokens = list(vocab.prompt_prefix_ids)
    for item_index in example.history:
        tokens.append(vocab.id_marker_id)
        tokens.append(data.space.item_ordinal(item_index))
        if id_only:
            continue
        record = data.catalog[item_index]
        for name in METADATA_FIELDS:
            value = getattr(record, name)
            if value is None or rng.random() >= metadata_keep_prob:
                continue
            tokens.append(vocab.field_marker_ids[name])
            if name == "price":
                tokens.append(vocab.price_bucket_ids[int(np.searchsorted(data.price_edges, float(value), side="right"))])
            else:
                tokens.extend(vocab.lookup(w) for w in tokenize_text(str(value)))
    tokens.extend(vocab.prompt_question_ids)
    tokens.append(vocab.id_marker_id)
    return tokens


def pack(sequences):
    """Token sequences as ``encode_batch`` takes them: one ordinal array and
    the sequences' lengths."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    ordinals = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in sequences]) if sequences else []
    return ordinals, lengths


def full_logprob(query, ordinal, tables):
    """log P(token | H) under the flat softmax over V union I, one token at a
    time: the oracle for full-mode scoring."""
    logits = full_logits(query, tables)
    return float(logits[ordinal] - _logsumexp(logits))


def item_log_probs_batch(queries, tables, cluster_map=None, mode="twolevel"):
    """(B, n_items) exact item log-probabilities, the block form of
    ``score_all(query, ...)[n_text:]`` for each row of ``queries``: the
    normalized oracle for ``softmax.item_rank_scores``, whose rows it equals
    up to each row's log Z.

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
    cl = q @ tables.first_level_rows().T
    cl = (cl - _logsumexp_rows(cl)[:, None])[:, n_text:]
    return _item_log_probs(q @ tables.item_rows_by_cluster(cluster_map).T, cl, cluster_map)


def nll_and_grad_oracle(query, target, tables, cluster_map, mode="twolevel", grads=None, counter=None):
    """Cross-entropy loss and exact analytic gradients for one example: the
    per-example oracle for the batched ``softmax.nll_and_grad``.

    Returns ``(loss, d_query, grads)``.  Head-side gradients accumulate into
    ``grads`` (allocated if not supplied): text rows, projected item rows
    (chained through the head by ``GradBuffer.finalize``), and centroid rows.
    In two-level mode only the cluster centroids and the target cluster's
    members receive gradient.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    q = _query64(query)
    if not 0 <= target < tables.n_total:
        raise ValueError(f"target ordinal {target} out of range")
    if grads is None:
        grads = GradBuffer(tables)
    n_text = tables.n_text

    if mode == "full":
        logits = full_logits(q, tables)
        if counter is not None:
            counter.add(tables.n_total)
        log_norm = _logsumexp(logits)
        loss = log_norm - float(logits[target])
        p = np.exp(logits - log_norm)
        p[target] -= 1.0
        d_query = tables.text.data.T @ p[:n_text] + tables.item_projected().T @ p[n_text:]
        grads.d_text += np.outer(p[:n_text], q)
        grads.add_item_rows(np.arange(tables.n_items), np.outer(p[n_text:], q))
        return loss, d_query, grads

    if cluster_map is None:
        raise ValueError("two-level mode requires a cluster map")
    cs = cluster_logits(q, tables)
    if counter is not None:
        counter.add(cluster_map.n_clusters)
    log_norm = _logsumexp(cs)
    target_cluster = cluster_map.cluster_of(target)
    loss = log_norm - float(cs[target_cluster])
    p = np.exp(cs - log_norm)
    p[target_cluster] -= 1.0
    d_query = tables.text.data.T @ p[:n_text] + tables.centroids.data.T @ p[n_text:]
    grads.d_text += np.outer(p[:n_text], q)
    grads.d_centroids += np.outer(p[n_text:], q)

    if target >= n_text:
        members = cluster_map.item_members(target_cluster - n_text)
        if counter is not None:
            counter.add(members.size)
        member_logits = tables.item_projected()[members] @ q
        m_norm = _logsumexp(member_logits)
        pos = int(np.flatnonzero(members == target - n_text)[0])
        loss += m_norm - float(member_logits[pos])
        pm = np.exp(member_logits - m_norm)
        pm[pos] -= 1.0
        d_query = d_query + tables.item_projected()[members].T @ pm
        grads.add_item_rows(members, np.outer(pm, q))
    else:
        # Text target: its singleton's conditional is 1, so no second level.
        if counter is not None:
            counter.add(1)
    return loss, d_query, grads


def encode_backward_oracle(cache, d_query, tables, params, grads):
    """Chain one sequence's d(loss)/d(query) into encoder parameters and input
    embeddings, from ``encode``'s one-row cache: the per-example oracle for
    the batched ``encoder.encode_backward``."""
    (hidden,), (pooled,) = cache.hidden, cache.pooled
    if grads.encoder_grads is None:
        raise ValueError("GradBuffer was built without encoder parameters")
    eg = grads.encoder_grads
    eg["enc_out_w"] += np.outer(d_query, hidden)
    eg["enc_out_b"] += d_query
    d_act = (1.0 - hidden**2) * (params.out_w.T @ d_query)
    eg["enc_hidden_w"] += np.outer(d_act, pooled)
    eg["enc_hidden_b"] += d_act
    # The identity skip feeds d_query straight back to the pooled input.
    d_emb = (params.hidden_w.T @ d_act + d_query) / cache.ordinals.size

    ords = cache.ordinals
    is_item = ords >= tables.n_text
    # Repeated tokens within one sequence: np.add.at for text rows, a count
    # per distinct item row.
    if (~is_item).any():
        np.add.at(grads.d_text, ords[~is_item], d_emb)
    if is_item.any():
        rows, counts = np.unique(ords[is_item] - tables.n_text, return_counts=True)
        grads.add_item_rows(rows, counts[:, None] * d_emb)


def touched_item_rows(item_grad):
    """Ascending item rows an ``ItemRowGrad`` writes: the rows its blocks hold."""
    return np.unique(np.concatenate([np.zeros(0, dtype=np.intp)] + [rows for rows, _ in item_grad.blocks()]))


def rank_topk_reference(scores, k):
    """Top-k by one full ``lexsort`` on (-score, index)."""
    n = scores.size
    order = np.lexsort((np.arange(n), -scores))[: min(k, n)]
    return TopK(ordinals=order.astype(np.int64), scores=scores[order])


def additive_rows_full(tables, cluster_map):
    """The additive index in its full layout, one float64 row per unified
    ordinal: the text rows ``2 * text``, then the item rows ``projected +
    centroid``, each computed in the tables' precision and widened."""
    n_text = tables.n_text
    rows = np.empty((tables.n_total, tables.dim), dtype=np.float64)
    np.multiply(tables.text.data, 2.0, out=rows[:n_text])
    np.add(tables.item_projected(), tables.centroids.data[cluster_map.item_assignment], out=rows[n_text:])
    return rows


def ann_scores_full(query, tables, cluster_map):
    """ANN scores of every token over ``additive_rows_full``: one product
    over the text rows, then the item rows as ``inference.ann_item_scores``
    takes them (a per-row ``einsum`` for a ``(d,)`` query, one GEMM for a
    ``(B, d)`` block, items only)."""
    rows = additive_rows_full(tables, cluster_map)
    items = rows[tables.n_text :]
    if np.ndim(query) == 2:
        return _queries64(query) @ items.T
    q = _query64(query)
    return np.concatenate((rows[: tables.n_text] @ q, np.einsum("ij,j->i", items, q)))


def topk_ann_full(query, k, tables, cluster_map, probes=None):
    """Top-k of ``ann_scores_full`` by one ``lexsort``, over the text tokens
    and the members of the ``probes`` item clusters with the highest centroid
    scores (every item cluster if ``probes`` is None): the oracle for
    ``inference.topk_ann``."""
    q = _query64(query)
    scores = ann_scores_full(q, tables, cluster_map)
    keep = np.ones(scores.size, dtype=bool)
    if probes is not None:
        centroid_scores = tables.centroids.data.astype(np.float64) @ q
        probed = np.lexsort((np.arange(centroid_scores.size), -centroid_scores))[:probes]
        keep[tables.n_text :] = np.isin(cluster_map.item_assignment, probed)
    ordinals = keep.nonzero()[0]
    top = rank_topk_reference(scores[ordinals], k)
    return TopK(ordinals=ordinals[top.ordinals], scores=top.scores)


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


def cooccurrence_counts_per_user(interactions):
    """Co-occurrence counts of the split's train events one user at a time:
    the oracle for ``cluster.cooccurrence_counts``."""
    n_items = len(interactions.catalog)
    cooc = np.zeros((n_items, n_items), dtype=np.float64)
    for events in split_runs(interactions)[0].values():
        items = np.unique(events)
        cooc[np.ix_(items, items)] += 1.0
    return cooc


def contiguous_bins_loop(order, n_clusters):
    """Bin labels one cluster at a time: the oracle for
    ``cluster._contiguous_bins``."""
    labels = np.empty(order.size, dtype=np.int64)
    base, extra = divmod(order.size, n_clusters)
    start = 0
    for j in range(n_clusters):
        size = base + (1 if j < extra else 0)
        labels[order[start : start + size]] = j
        start += size
    return labels


def init_centroids_loop(cluster_map, item_projected):
    """Member means one cluster at a time: the oracle for
    ``cluster.init_centroids``."""
    out = np.zeros((cluster_map.n_item_clusters, item_projected.shape[1]), dtype=item_projected.dtype)
    for j in range(cluster_map.n_item_clusters):
        members = cluster_map.item_members(j)
        out[j] = item_projected[members].mean(axis=0, dtype=np.float64).astype(item_projected.dtype)
    return out
