"""Shared fixtures: random models, parameter flattening, finite differences."""

import numpy as np

from hsrec.cluster import ClusterMap
from hsrec.encoder import EncoderParams
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


def write_back(arrays, theta):
    offset = 0
    for arr in arrays.values():
        n = arr.size
        arr.ravel()[:] = theta[offset : offset + n]
        offset += n


def fd_gradient(loss_fn, arrays, eps=1e-5):
    """Central finite differences of loss_fn() with respect to every entry."""
    theta = flatten(arrays)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        write_back(arrays, theta)
        up = loss_fn()
        theta[i] = orig - eps
        write_back(arrays, theta)
        down = loss_fn()
        theta[i] = orig
        grad[i] = (up - down) / (2 * eps)
    write_back(arrays, theta)
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
