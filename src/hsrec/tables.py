"""Embedding tables, the item projection head, and gradient buffers.

Items live in their own ``k``-dimensional table and are mapped into the
``d``-dimensional model space by an affine projection head; the projected rows
serve both as input embeddings and as output logits.  Text tokens have a
direct ``d``-dimensional table.  Item-cluster centroids are a separate
learnable table; text tokens act as their own singleton clusters, so their
"centroid" is the text embedding row itself (one shared parameter, not a
copy).

A training step accumulates into a :class:`GradBuffer`.  Item gradients land on
the *projected* rows, and the buffer records which item rows received any: the
members of the batch's target clusters and the history items in two-level
mode, every row in full mode.  :meth:`GradBuffer.finalize` chains only those
rows through the projection head, and returns the raw-item gradient as an
:class:`ItemRowGrad`, zero outside the touched rows and formed a row block at
a time, so no ``(|I|, k)`` float64 array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import check_finite, check_random_state

FLOAT_DTYPES = (np.float32, np.float64)
ROW_BLOCK = 1024  # item rows chained through the head, or updated, at a time


class EmbeddingTable:
    """Dense row-major matrix of per-token vectors with a fixed dimension."""

    def __init__(self, data):
        arr = np.ascontiguousarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            raise ValueError(f"embedding dtype must be float32 or float64, got {arr.dtype}")
        if arr.ndim != 2:
            raise ValueError(f"embedding table must be 2-D, got shape {arr.shape}")
        check_finite(arr, "embedding table")
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def precision(self) -> str:
        return "f32" if self.data.dtype == np.float32 else "f64"

    def check(self) -> None:
        check_finite(self.data, "embedding table")


@dataclass
class ProjectionHead:
    """Affine map from the item embedding space (k) to the model space (d)."""

    weight: np.ndarray  # (d, k)
    bias: np.ndarray  # (d,)

    def __post_init__(self):
        self.weight = np.ascontiguousarray(self.weight)
        self.bias = np.ascontiguousarray(self.bias)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("projection head expects a (d, k) weight and a (d,) bias")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"projection weight rows {self.weight.shape[0]} != bias size {self.bias.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.weight.T + self.bias

    def check(self) -> None:
        check_finite(self.weight, "projection weight")
        check_finite(self.bias, "projection bias")


def project_items(item_table: EmbeddingTable, head: ProjectionHead) -> np.ndarray:
    """Project every raw item row through the head; deterministic."""
    if head.in_dim != item_table.dim:
        raise ValueError(
            f"projection head expects input dim {head.in_dim}, table has dim {item_table.dim}"
        )
    return head.apply(item_table.data)


class ModelTables:
    """All output-side parameters plus a version stamp for index invalidation.

    ``version`` increments on every parameter update; anything derived from the
    tables (projected item cache, additive index) records the version it was
    built from.
    """

    def __init__(
        self,
        text: EmbeddingTable,
        item_raw: EmbeddingTable,
        projection: ProjectionHead,
        centroids: EmbeddingTable,
    ):
        if text.dim != projection.out_dim or text.dim != centroids.dim:
            raise ValueError("text, projected item, and centroid dimensions must agree")
        if projection.in_dim != item_raw.dim:
            raise ValueError("projection input dim must match the raw item dim")
        self.text = text
        self.item_raw = item_raw
        self.projection = projection
        self.centroids = centroids
        self.version = 0
        self._proj_cache_version = -1
        self._proj_cache: np.ndarray | None = None

    @property
    def n_text(self) -> int:
        return self.text.rows

    @property
    def n_items(self) -> int:
        return self.item_raw.rows

    @property
    def n_total(self) -> int:
        return self.n_text + self.n_items

    @property
    def dim(self) -> int:
        return self.text.dim

    @property
    def item_dim(self) -> int:
        return self.item_raw.dim

    @property
    def n_item_clusters(self) -> int:
        return self.centroids.rows

    def item_projected(self) -> np.ndarray:
        """Projected item rows, cached per version."""
        if self._proj_cache_version != self.version:
            self._proj_cache = project_items(self.item_raw, self.projection)
            self._proj_cache_version = self.version
        return self._proj_cache

    def bump_version(self) -> None:
        self.version += 1

    def check(self) -> None:
        self.text.check()
        self.item_raw.check()
        self.projection.check()
        self.centroids.check()

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {
            "text": self.text.data,
            "item_raw": self.item_raw.data,
            "proj_weight": self.projection.weight,
            "proj_bias": self.projection.bias,
            "centroids": self.centroids.data,
        }


def init_tables(
    n_text: int,
    n_items: int,
    dim: int,
    item_dim: int,
    seed=0,
    dtype=np.float32,
) -> ModelTables:
    """Seeded random init: rows uniform in +-1/sqrt(width of their own space).

    Centroids start at zero; they are overwritten by the clustering stage.
    """
    rng = check_random_state(seed)
    text_scale = 1.0 / np.sqrt(dim)
    item_scale = 1.0 / np.sqrt(item_dim)
    text = rng.uniform(-text_scale, text_scale, size=(n_text, dim))
    item_raw = rng.uniform(-item_scale, item_scale, size=(n_items, item_dim))
    proj_w = rng.uniform(-item_scale, item_scale, size=(dim, item_dim))
    proj_b = np.zeros(dim)
    return ModelTables(
        EmbeddingTable(text.astype(dtype)),
        EmbeddingTable(item_raw.astype(dtype)),
        ProjectionHead(proj_w.astype(dtype), np.asarray(proj_b, dtype=dtype)),
        EmbeddingTable(np.zeros((0, dim), dtype=dtype)),
    )


def parameter_counts(n_text: int, n_items: int, dim: int, item_dim: int, n_item_clusters: int) -> dict:
    """Stored parameter counts per table (items dominate at catalog scale)."""
    counts = {
        "text": n_text * dim,
        "item": n_items * item_dim,
        "projection": dim * item_dim + dim,
        "centroids": n_item_clusters * dim,
    }
    counts["total"] = sum(counts.values())
    return counts


def item_parameter_count(n_items: int, item_dim: int) -> int:
    return n_items * item_dim


@dataclass
class ItemRowGrad:
    """Gradient of the raw item table: zero outside ``rows``, kept as ``d_proj @ weight``.

    :meth:`blocks` forms it ``ROW_BLOCK`` rows at a time; ``np.asarray`` gives
    the dense ``(n_items, k)`` array.
    """

    rows: np.ndarray  # (r,) ascending item indices that received gradient
    d_proj: np.ndarray  # (r, d) their projected-row gradients
    weight: np.ndarray  # (d, k) float64 copy of the projection weight they were projected with
    n_items: int

    def blocks(self):
        """(item indices, their (len, k) float64 gradient) per row block."""
        for lo in range(0, self.rows.size, ROW_BLOCK):
            yield self.rows[lo : lo + ROW_BLOCK], self.d_proj[lo : lo + ROW_BLOCK] @ self.weight

    def __array__(self, dtype=None, copy=None):
        out = np.zeros((self.n_items, self.weight.shape[1]), dtype=dtype or np.float64)
        for rows, grad in self.blocks():
            out[rows] = grad
        return out


class GradBuffer:
    """Accumulators for one batch, in float64.

    Output-side item gradients are collected on the *projected* rows, and
    ``item_touched`` marks the item rows that received any; call
    :meth:`finalize` once per batch to chain those rows through the
    projection head.
    """

    def __init__(self, tables: ModelTables, encoder=None):
        d = tables.dim
        self.d_text = np.zeros((tables.n_text, d))
        self.d_item_proj = np.zeros((tables.n_items, d))
        self.item_touched = np.zeros(tables.n_items, dtype=bool)
        self.d_centroids = np.zeros((tables.n_item_clusters, d))
        self.encoder_grads = None
        if encoder is not None:
            self.encoder_grads = {
                name: np.zeros_like(arr, dtype=np.float64)
                for name, arr in encoder.parameter_arrays().items()
            }
        self.n_examples = 0

    def finalize(self, tables: ModelTables) -> dict:
        """Chain the touched projected-item rows back to raw items and the head.

        Untouched rows have zero gradient, so they add nothing to the head's
        gradient; the raw rows are read ``ROW_BLOCK`` at a time.
        """
        rows = np.flatnonzero(self.item_touched)
        d_proj = self.d_item_proj[rows]
        raw = tables.item_raw.data
        d_weight = np.zeros((tables.dim, tables.item_dim))
        for lo in range(0, rows.size, ROW_BLOCK):
            d_weight += d_proj[lo : lo + ROW_BLOCK].T @ raw[rows[lo : lo + ROW_BLOCK]].astype(np.float64)
        weight = np.array(tables.projection.weight, dtype=np.float64)
        grads = {
            "text": self.d_text,
            "item_raw": ItemRowGrad(rows, d_proj, weight, tables.n_items),
            "proj_weight": d_weight,
            "proj_bias": d_proj.sum(axis=0),
            "centroids": self.d_centroids,
        }
        if self.encoder_grads is not None:
            grads.update(self.encoder_grads)
        return grads
