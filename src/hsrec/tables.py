"""Embedding tables, the item projection head, and gradient buffers.

Items live in their own ``k``-dimensional table and are mapped into the
``d``-dimensional model space by an affine projection head; the projected rows
serve both as input embeddings and as output logits.  Text tokens have a
direct ``d``-dimensional table.  Item-cluster centroids are a separate
learnable table; text tokens act as their own singleton clusters, so their
"centroid" is the text embedding row itself (one shared parameter, not a
copy).

Every parameter array is read-only; :meth:`ModelTables.writing` is the one
writer, so a write elsewhere raises instead of serving stale derived copies.
Those copies are kept per table version, in one memo that every write drops:
the projected item rows, their float64 copy in cluster order, the float64
first-level rows (text rows, then centroids) that the token-level scorers,
``log_partition`` and the training head read, so none casts a float32 table
again, and the additive ANN index (``inference.build_additive_index``), which
serving and evaluation then share.  The index holds the item rows alone: ANN
scores for text tokens are read off the first-level copy, whose text rows are
half of what the index's text rows would be.

A training step accumulates into a :class:`GradBuffer`, which casts the head
weight ``W`` to float64 once.  Projected-row gradients (the encoder inputs,
full mode and small target clusters) are chained through ``W`` by
:meth:`GradBuffer.finalize`, for those rows only.  A two-level target cluster
of at least ``d`` members arrives lifted: its members' raw-row gradient is
``P_c.T @ (Q_c W)``, so a member is chained through the head only when it is
also an encoder input; the caller adds the head's part ``Q_c.T @ (P_c R_c)``.
``finalize`` returns an :class:`ItemRowGrad` of ``(rows, left, right)`` parts
worth ``left @ right``, which the update expands a part at a time, so no
``(|I|, k)`` or ``(touched, k)`` float64 array is made; nor does a step's
bookkeeping hold any array of length ``|I|``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
# Item rows chained through the head, or expanded and written, at a time.
# Small blocks (256 KB of float64 at k = 512) stay in cache, and keep a step's
# temporaries small enough that the allocator does not hand heap pages back
# and fault them in again every step.
ROW_BLOCK = 64
# Item rows drawn at a time by ``init_tables``.
INIT_ROWS = 1024


def check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")


class EmbeddingTable:
    """Dense row-major matrix of per-token vectors with a fixed dimension."""

    def __init__(self, data):
        arr = np.ascontiguousarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            raise ValueError(f"embedding dtype must be float32 or float64, got {arr.dtype}")
        if arr.ndim != 2:
            raise ValueError(f"embedding table must be 2-D, got shape {arr.shape}")
        check_finite(arr, "embedding table")
        arr.flags.writeable = False  # written only through ModelTables.writing()
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


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
        self.weight.flags.writeable = False  # written only through ModelTables.writing()
        self.bias.flags.writeable = False

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        out = rows @ self.weight.T
        out += self.bias  # in place: no second (n, d) temporary
        return out


def project_items(item_table: EmbeddingTable, head: ProjectionHead) -> np.ndarray:
    """Project every raw item row through the head; deterministic."""
    if head.in_dim != item_table.dim:
        raise ValueError(
            f"projection head expects input dim {head.in_dim}, table has dim {item_table.dim}"
        )
    return head.apply(item_table.data)


class ModelTables:
    """All output-side parameters plus a version stamp for index invalidation.

    The five parameter arrays are read-only; :meth:`writing` is the only way
    to write them.  Leaving it moves ``version`` on and drops the copies
    derived from the tables (:meth:`derived`: the projected items, their
    cluster-ordered float64 copy, the float64 first-level rows and the
    additive index), which are rebuilt on first use.  The additive index
    records the version it was built from and refuses to serve a later one,
    so one held across a write raises.
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
        self._drop_derived()

    def _drop_derived(self) -> None:
        self._derived: dict = {}  # key -> this version's copy; see derived()

    def derived(self, key, build):
        """This table version's copy under ``key``: ``build()`` on first use,
        the same object until the next write drops it.

        A key names a copy and what else it depends on, such as
        ``("rows_by_cluster", cluster_map)``; cluster maps key by identity.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def __getstate__(self):
        # Copies (copy.deepcopy, pickle) rebuild the derived copies, not copy them.
        state = self.__dict__.copy()
        del state["_derived"]
        return state

    def __setstate__(self, state):
        # Copies come back writable: lock them again.
        self.__dict__.update(state)
        for arr in self.parameter_arrays().values():
            arr.flags.writeable = False
        self._drop_derived()

    @contextmanager
    def writing(self):
        """Yield the five ``parameter_arrays`` writable; on exit, also on error,
        lock them again, move ``version`` on and drop every derived copy."""
        arrays = tuple(self.parameter_arrays().items())
        for _, arr in arrays:
            arr.flags.writeable = True
        try:
            yield dict(arrays)
        finally:
            for _, arr in arrays:
                arr.flags.writeable = False
            self.version += 1
            self._drop_derived()

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
        """Projected item rows, built on first use after each write."""
        return self.derived("projected", lambda: project_items(self.item_raw, self.projection))

    def first_level_rows(self) -> np.ndarray:
        """Read-only float64 copy of the two-level first-level rows: the text
        rows, then the centroids.

        Built on first use after each write and dropped by :meth:`writing`,
        so a product over it reads the float64 values numpy's per-call cast
        of a float32 table would make, without making them again.
        """

        def build():
            rows = np.concatenate([self.text.data, self.centroids.data], dtype=np.float64)
            rows.flags.writeable = False
            return rows

        return self.derived("first_level", build)

    def item_rows_by_cluster(self, cluster_map) -> np.ndarray:
        """Float64 copy of the projected item rows in ``cluster_map.item_order``:
        item cluster ``c``'s members are the rows ``offsets[c]:offsets[c + 1]``.

        Built on first use after each write, once per cluster map, and
        dropped by :meth:`writing`.
        """
        return self.derived(
            ("rows_by_cluster", cluster_map),
            lambda: self.item_projected()[cluster_map.item_order].astype(np.float64, copy=False),
        )

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
    if dim < 1 or item_dim < 1:
        raise ValueError(f"dim and item_dim must be at least 1, got {dim} and {item_dim}")
    rng = np.random.default_rng(seed)
    text_scale = 1.0 / np.sqrt(dim)
    item_scale = 1.0 / np.sqrt(item_dim)
    text = rng.uniform(-text_scale, text_scale, size=(n_text, dim))
    # Drawn into the table INIT_ROWS rows at a time, the one-shot draw's
    # values in its order, so no float64 copy of the whole table is made.
    item_raw = np.empty((n_items, item_dim), dtype=dtype)
    for lo in range(0, n_items, INIT_ROWS):
        block = item_raw[lo : lo + INIT_ROWS]
        block[:] = rng.uniform(-item_scale, item_scale, size=block.shape)
    proj_w = rng.uniform(-item_scale, item_scale, size=(dim, item_dim))
    proj_b = np.zeros(dim)
    return ModelTables(
        EmbeddingTable(text.astype(dtype)),
        EmbeddingTable(item_raw),
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
    """Gradient of the raw item table, kept factored: zero outside the rows
    of its parts.

    Each part ``(rows, left, right)`` holds ascending rows, disjoint from the
    other parts' rows, whose gradient is ``left @ right``:

    - a lifted target cluster of a two-level batch is ``(members, p_t,
      lifted)``: the members' ``(m, r)`` member-softmax gradients against the
      ``r`` examples that target the cluster, times their lifted queries
      ``q W``, an ``(r, k)`` block;
    - projected rows come ``ROW_BLOCK`` at a time as ``(rows, d_proj, W)``,
      with ``W`` the float64 ``(d, k)`` head weight: the encoder inputs and
      the members of small clusters in a two-level batch (a lifted member
      that is also an encoder input has its cluster part added here), and
      every touched row in full mode.

    :meth:`blocks` expands it a part at a time; ``np.asarray`` gives the
    dense ``(n_items, item_dim)`` array.
    """

    parts: list  # (rows, left (h, r), right (r, k)) per part
    n_items: int
    item_dim: int

    def blocks(self):
        """(item indices, their (len, k) float64 gradient) per part."""
        for rows, left, right in self.parts:
            if left.shape[1] == 1:  # an outer product, where BLAS is slow
                yield rows, np.einsum("ij,jk->ik", left, right)
            else:
                yield rows, left @ right

    def __array__(self, dtype=None, copy=None):
        out = np.zeros((self.n_items, self.item_dim), dtype=dtype or np.float64)
        for rows, grad in self.blocks():
            out[rows] = grad
        return out


class GradBuffer:
    """Accumulators for one batch, in float64.

    Item rows receive gradient in one of two forms:

    - :meth:`add_item_rows`: projected-row gradients of distinct rows, from
      the encoder inputs, small two-level clusters and full mode;
    - :meth:`add_item_cluster`: a two-level batch's target cluster in lifted
      form; the caller adds its head gradient to ``d_proj_weight`` and
      ``d_proj_bias``.

    ``weight``, the step's float64 copy of the head weight, serves the lift
    and the chain.  Call :meth:`finalize` once per batch, after every gradient
    has arrived: it chains the projected rows through the head, adding to the
    buffer's own head gradient, and collects the raw-item gradient as an
    :class:`ItemRowGrad`.  Nothing here is sized by the item count.
    """

    def __init__(self, tables: ModelTables, encoder=None):
        d = tables.dim
        self.d_text = np.zeros((tables.n_text, d))
        self.weight = np.array(tables.projection.weight, dtype=np.float64)
        self.item_rows: list[tuple[np.ndarray, np.ndarray]] = []
        self.item_clusters: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.d_proj_weight = np.zeros((d, tables.item_dim))
        self.d_proj_bias = np.zeros(d)
        self.d_centroids = np.zeros((tables.n_item_clusters, d))
        self.encoder_grads = None
        if encoder is not None:
            self.encoder_grads = {
                name: np.zeros_like(arr, dtype=np.float64)
                for name, arr in encoder.parameter_arrays().items()
            }

    def add_item_rows(self, rows: np.ndarray, d_proj: np.ndarray) -> None:
        """Gradient ``d_proj`` (one row each) on the projected rows of ascending, distinct ``rows``."""
        self.item_rows.append((rows, d_proj))

    def add_item_cluster(
        self, members: np.ndarray, p_t: np.ndarray, queries: np.ndarray, lifted: np.ndarray
    ) -> None:
        """A target cluster's gradient in lifted form.

        ``p_t`` is the ``(m, r)`` member-softmax gradient against the ``r``
        examples that target the cluster, ``queries`` their ``(r, d)`` queries
        and ``lifted`` their ``(r, k)`` lifted queries: the members' projected
        rows get ``p_t @ queries``, their raw rows ``p_t @ lifted``.
        """
        self.item_clusters.append((members, p_t, queries, lifted))

    def finalize(self, tables: ModelTables) -> dict:
        """Chain the projected-row gradients back to raw items and the head.

        The head's gradient is the lifted clusters' part, accumulated by the
        caller, plus ``d_proj.T @ raw`` over the projected rows only, read
        ``ROW_BLOCK`` at a time.  A cluster member that also has a projected
        row gradient (an encoder input) then takes its cluster part in
        projected form, so every row is chained once.
        """
        proj_rows = np.unique(np.concatenate([np.zeros(0, dtype=np.intp)] + [rows for rows, _ in self.item_rows]))
        d_proj = np.zeros((proj_rows.size, tables.dim))
        for rows, grad in self.item_rows:
            if rows.size == proj_rows.size:  # full mode's head: every projected row, in order
                d_proj += grad
            else:
                d_proj[np.searchsorted(proj_rows, rows)] += grad
        raw = tables.item_raw.data
        for lo in range(0, proj_rows.size, ROW_BLOCK):
            self.d_proj_weight += d_proj[lo : lo + ROW_BLOCK].T @ raw[proj_rows[lo : lo + ROW_BLOCK]].astype(np.float64)
        self.d_proj_bias += d_proj.sum(axis=0)

        parts = []
        # Every lifted member is looked up in one search, then split by cluster.
        keys = np.append(proj_rows, tables.n_items)  # a sentinel no member equals, so every search lands in keys
        lifted_members = np.concatenate([np.zeros(0, dtype=np.intp)] + [c[0] for c in self.item_clusters])
        pos = np.searchsorted(keys, lifted_members)
        hits = keys[pos] == lifted_members
        ends = np.cumsum([c[0].size for c in self.item_clusters]).tolist()
        for (members, p_t, queries, lifted), start, end in zip(self.item_clusters, [0] + ends, ends):
            hit = hits[start:end]
            if hit.any():
                d_proj[pos[start:end][hit]] += p_t[hit] @ queries
                members, p_t = members[~hit], p_t[~hit]
            if members.size:
                parts.append((members, p_t, lifted))
        for lo in range(0, proj_rows.size, ROW_BLOCK):
            parts.append((proj_rows[lo : lo + ROW_BLOCK], d_proj[lo : lo + ROW_BLOCK], self.weight))

        grads = {
            "text": self.d_text,
            "item_raw": ItemRowGrad(parts, tables.n_items, tables.item_dim),
            "proj_weight": self.d_proj_weight,
            "proj_bias": self.d_proj_bias,
            "centroids": self.d_centroids,
        }
        if self.encoder_grads is not None:
            grads.update(self.encoder_grads)
        return grads
