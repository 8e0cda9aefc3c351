"""Partition the item catalog into clusters; text tokens are singleton clusters.

Cluster ids are unified: text token ``v`` is cluster ``v`` (its own singleton),
and item cluster ``j`` is cluster ``n_text + j``.  The item-side partition
comes from one of three label functions, each returning a ``ClusterMap``:
``cluster_kmeans`` (k-means on item feature vectors), ``cluster_frequency``
(train-frequency binning) and ``cluster_random`` (a seeded shuffle).
``init_centroids`` turns a map into the centroid table as member means.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .exceptions import DataError
from .tables import EmbeddingTable
from .validation import check_array


# User-item entries whose co-occurrence pairs are counted at a time.
PAIR_ROWS = 1024

# Lloyd rounds at most, and the relative centroid move that ends them early.
MAX_ITER = 50
TOL = 1e-4


def default_n_clusters(n_items: int) -> int:
    """ceil(sqrt(n_items)): the recommended item-cluster count."""
    return int(math.ceil(math.sqrt(n_items)))


class ClusterMap:
    """Total map token -> cluster with exact inverse member lists."""

    def __init__(self, n_text: int, item_assignment, n_item_clusters: int):
        assignment = np.ascontiguousarray(item_assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise ValueError("item assignment must be a 1-D array")
        if n_item_clusters < 1 and assignment.size > 0:
            raise ValueError("need at least one item cluster")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= n_item_clusters):
            raise ValueError("item assignment contains out-of-range cluster ids")
        counts = np.bincount(assignment, minlength=n_item_clusters)
        if assignment.size and (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"item cluster {empty} is empty")
        self.n_text = int(n_text)
        self.item_assignment = assignment
        self.n_item_clusters = int(n_item_clusters)
        # Items grouped by cluster for O(1) member slices.
        self.item_order = np.argsort(assignment, kind="stable")
        # Inverse of item_order: where each item sits in it.
        self.item_position = np.empty_like(self.item_order)
        self.item_position[self.item_order] = np.arange(assignment.size)
        self.offsets = np.zeros(n_item_clusters + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])

    @property
    def n_items(self) -> int:
        return self.item_assignment.size

    @property
    def n_clusters(self) -> int:
        return self.n_text + self.n_item_clusters

    def cluster_of(self, ordinal: int) -> int:
        if ordinal < self.n_text:
            return ordinal
        return self.n_text + int(self.item_assignment[ordinal - self.n_text])

    def item_members(self, item_cluster: int) -> np.ndarray:
        """Item indices belonging to item cluster ``item_cluster``."""
        lo, hi = self.offsets[item_cluster], self.offsets[item_cluster + 1]
        return self.item_order[lo:hi]

    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def assignment(self) -> np.ndarray:
        """Full unified-ordinal assignment array (text part is the identity)."""
        full = np.empty(self.n_text + self.n_items, dtype=np.int64)
        full[: self.n_text] = np.arange(self.n_text)
        full[self.n_text :] = self.n_text + self.item_assignment
        return full

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ordinal", "cluster"])
            for ordinal, cluster in enumerate(self.assignment()):
                writer.writerow([ordinal, int(cluster)])


def _kmeans_pp_init(X: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each new center drawn proportional to squared distance."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            # All points coincide with chosen centers; any point works.
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = X[pick]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared distances via the expansion ||x||^2 - 2<x,c> + ||c||^2."""
    return np.sum(X**2, axis=1)[:, None] - 2.0 * (X @ centers.T) + np.sum(centers**2, axis=1)[None, :]


def kmeans_fit(X: np.ndarray, n_clusters: int, seed=0):
    """Lloyd iterations with k-means++ seeding.

    Deterministic given the seed.  An empty cluster is reseeded to the point
    farthest from that cluster's previous centroid.  Stops after ``MAX_ITER``
    rounds or when the largest centroid move falls below ``TOL`` relative to
    the largest centroid norm.  Every cluster of the returned labels is
    non-empty.

    Returns (labels, centers, inertia).
    """
    X = check_array(X, dtype=np.float64, name="item_vectors")
    n = X.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, n_clusters, rng)
    for _ in range(MAX_ITER):
        labels = np.argmin(_sq_dists(X, centers), axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=n_clusters)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, X)
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(np.argmax(np.sum((X - centers[j]) ** 2, axis=1)))
            new_centers[j] = X[far]
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        scale = max(np.max(np.linalg.norm(centers, axis=1)), 1e-12)
        centers = new_centers
        if shift / scale < TOL:
            break
    labels = np.argmin(_sq_dists(X, centers), axis=1)
    # Duplicate points or centers can still leave a cluster unassigned; force
    # the farthest point into each so every cluster is non-empty.
    counts = np.bincount(labels, minlength=n_clusters)
    for j in np.flatnonzero(counts == 0):
        eligible = counts[labels] > 1
        dist_j = np.sum((X - centers[j]) ** 2, axis=1)
        dist_j[~eligible] = -np.inf
        far = int(np.argmax(dist_j))
        counts[labels[far]] -= 1
        labels[far] = j
        counts[j] += 1
        centers[j] = X[far]
    inertia = float(np.sum(np.sum((X - centers[labels]) ** 2, axis=1)))
    return labels, centers, inertia


def _contiguous_bins(order: np.ndarray, n_clusters: int) -> np.ndarray:
    """Slice an item ordering into n_clusters contiguous bins, sizes within 1."""
    n = order.size
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    base, extra = divmod(n, n_clusters)
    sizes = base + (np.arange(n_clusters) < extra)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = np.repeat(np.arange(n_clusters), sizes)
    return labels


def cluster_kmeans(item_vectors, n_clusters=None, seed=0, n_text=0) -> ClusterMap:
    """k-means over item feature vectors (k-means++ seeding, Lloyd updates)."""
    n_clusters = n_clusters or default_n_clusters(len(item_vectors))
    labels, _, _ = kmeans_fit(item_vectors, n_clusters, seed=seed)
    return ClusterMap(n_text, labels, n_clusters)


def cluster_frequency(train_counts, n_clusters=None, n_text=0) -> ClusterMap:
    """Items sorted by (count desc, index asc), sliced into near-equal bins."""
    counts = np.ascontiguousarray(train_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-D array covering every item")
    n_clusters = n_clusters or default_n_clusters(counts.size)
    order = np.lexsort((np.arange(counts.size), -counts))
    return ClusterMap(n_text, _contiguous_bins(order, n_clusters), n_clusters)


def cluster_random(n_items: int, n_clusters=None, seed=0, n_text=0) -> ClusterMap:
    """Seeded shuffle then near-equal contiguous slicing."""
    if n_items < 1:
        raise ValueError("need at least one item")
    n_clusters = n_clusters or default_n_clusters(n_items)
    order = np.random.default_rng(seed).permutation(n_items)
    return ClusterMap(n_text, _contiguous_bins(order, n_clusters), n_clusters)


def init_centroids(cluster_map: ClusterMap, item_projected: np.ndarray) -> EmbeddingTable:
    """Item-cluster centroid table: the mean of each cluster's projected member rows.

    Each mean is a float64 sum over the members in ascending item order, cast
    back to the rows' dtype.  Text singleton clusters have no row here; their
    centroid *is* the text embedding row (shared parameter), so a gradient
    step on either view moves the other.
    """
    item_projected = np.asarray(item_projected)
    k, width = cluster_map.n_item_clusters, item_projected.shape[1]
    # One float64 running sum per (cluster, column) cell, from 0.0, in item order.
    cells = (cluster_map.item_assignment[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(cells, weights=item_projected.ravel(), minlength=k * width)
    means = sums.reshape(k, width) / cluster_map.cluster_sizes()[:, None]
    return EmbeddingTable(means.astype(item_projected.dtype))


def cooccurrence_counts(data) -> np.ndarray:
    """``(n_items, n_items)`` float64 count of the users whose train events hold
    both items; the diagonal counts the users who hold the item.

    Every user's ordered pairs of distinct train items are counted without a
    per-user loop, as codes ``i * n_items + j`` added into the matrix;
    counts are integers, so the float64 matrix is exact whatever the order of
    counting.
    """
    n_items = data.n_items
    items, sizes = data.train_runs()
    users = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    # Each user's distinct items (entries), ascending, users in order.
    users, items = np.divmod(np.unique(users * n_items + items), n_items)
    start = np.searchsorted(users, users)  # per entry: where its user's entries start
    held = np.bincount(users)[users]  # per entry: how many entries its user has
    cooc = np.zeros((n_items, n_items), dtype=np.float64)
    # Entry e pairs with each of its user's entries.  PAIR_ROWS entries at a
    # time, so the pair arrays stay small however many users there are.
    for lo in range(0, items.size, PAIR_ROWS):
        h = held[lo : lo + PAIR_ROWS]
        partner = np.repeat(start[lo : lo + PAIR_ROWS] - (np.cumsum(h) - h), h)
        partner += np.arange(partner.size)
        codes = np.repeat(items[lo : lo + PAIR_ROWS] * n_items, h)
        codes += items[partner]
        np.add.at(cooc.reshape(-1), codes, 1.0)
    return cooc


def cooccurrence_svd_features(data, n_components: int = 32) -> np.ndarray:
    """Item features for k-means: SVD of a dataset's log train co-occurrence matrix.

    Two items co-occur when they appear in the same user's train events.  Dense
    SVD keeps this deterministic; it is meant for desk-scale catalogs, and a
    larger one is a :class:`DataError`.
    """
    if data.n_items > 20000:
        raise DataError(f"dense co-occurrence SVD is limited to catalogs of <= 20k items, this one has "
                        f"{data.n_items}; cluster it with --clusters random|frequency")
    cooc = cooccurrence_counts(data)
    n_components = min(n_components, data.n_items)
    u, s, _ = np.linalg.svd(np.log1p(cooc), full_matrices=False)
    return u[:, :n_components] * s[:n_components]
