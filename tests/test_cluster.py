import numpy as np
import pytest

from hsrec import cluster as cluster_module
from helpers import contiguous_bins_loop, init_centroids_loop, random_cluster_map
from hsrec.cluster import (
    ClusterMap,
    _contiguous_bins,
    cluster_frequency,
    cluster_kmeans,
    cluster_random,
    cooccurrence_counts,
    cooccurrence_svd_features,
    default_n_clusters,
    init_centroids,
    kmeans_fit,
)
from hsrec.tables import init_tables
from hsrec.softmax import score_all


def brute_force_two_partition_objective(points):
    """Best k=2 within-cluster sum of squares by enumerating all partitions."""
    points = np.asarray(points, dtype=np.float64)
    best = np.inf
    n = len(points)
    for mask in range(1, 2**n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        obj = 0.0
        for side in (points[sel], points[~sel]):
            obj += float(np.sum((side - side.mean(axis=0)) ** 2))
        best = min(best, obj)
    return best


def test_two_separated_blobs():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.1, size=(20, 2))
    blob_b = rng.normal(10.0, 0.1, size=(20, 2))
    X = np.vstack([blob_a, blob_b])
    labels, _, _ = kmeans_fit(X, 2, seed=1)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]


def test_default_cluster_count_is_sqrt():
    assert default_n_clusters(10_000) == 100
    assert default_n_clusters(10) == 4


def test_one_dimensional_known_optimum():
    # Oracle computed first: enumerate every 2-partition of {0, 1, 10, 11}.
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    oracle = brute_force_two_partition_objective(points)
    labels, _, inertia = kmeans_fit(points, 2, seed=0)
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
    assert inertia == pytest.approx(oracle, rel=1e-12)


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((60, 5))
    labels_a, centers_a, inertia_a = kmeans_fit(X, 7, seed=123)
    labels_b, centers_b, inertia_b = kmeans_fit(X, 7, seed=123)
    assert np.array_equal(labels_a, labels_b)
    assert np.array_equal(centers_a, centers_b)
    assert inertia_a == inertia_b
    cmap = cluster_kmeans(X, 7, seed=123)
    assert np.array_equal(cmap.item_assignment, labels_a) and cmap.n_item_clusters == 7
    assert cluster_kmeans(X, seed=123).n_item_clusters == default_n_clusters(60)


def test_kmeans_too_many_clusters_errors():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((3, 2)), 4)


def test_kmeans_handles_duplicate_points():
    X = np.zeros((10, 2))
    X[5:] = 1.0
    labels, _, _ = kmeans_fit(X, 3, seed=0)
    assert np.bincount(labels, minlength=3).min() >= 1


def test_frequency_groups_similar_counts():
    cmap = cluster_frequency([9, 9, 1, 1], n_clusters=2, n_text=0)
    assert cmap.item_assignment[0] == cmap.item_assignment[1]
    assert cmap.item_assignment[2] == cmap.item_assignment[3]
    assert cmap.item_assignment[0] != cmap.item_assignment[2]


def test_frequency_near_equal_bins():
    sizes = cluster_frequency(np.arange(10), n_clusters=3).cluster_sizes()
    assert sorted(sizes, reverse=True) == [4, 3, 3]


def test_frequency_equal_counts_ordinal_tiebreak():
    a = cluster_frequency(np.full(6, 5), n_clusters=2).item_assignment
    b = cluster_frequency(np.full(6, 5), n_clusters=2).item_assignment
    assert np.array_equal(a, b)
    # Count-descending with index tie-break: lowest indices land first.
    assert np.array_equal(a, [0, 0, 0, 1, 1, 1])


def test_random_deterministic_and_balanced():
    a = cluster_random(10, n_clusters=4, seed=11)
    b = cluster_random(10, n_clusters=4, seed=11)
    assert np.array_equal(a.item_assignment, b.item_assignment)
    sizes = a.cluster_sizes()
    assert sizes.size == 4
    assert sizes.max() - sizes.min() <= 1


def test_random_cluster_uniformity_monte_carlo():
    # Each of the 12 items should land in each of the 3 clusters about
    # uniformly over seeds: binomial(n_seeds, size_share) within 3 sigma.
    n_items, n_clusters, n_seeds = 12, 3, 1000
    hits = np.zeros((n_items, n_clusters))
    for seed in range(n_seeds):
        labels = cluster_random(n_items, n_clusters=n_clusters, seed=seed).item_assignment
        hits[np.arange(n_items), labels] += 1
    p = 1.0 / n_clusters
    sigma = np.sqrt(n_seeds * p * (1 - p))
    assert np.all(np.abs(hits - n_seeds * p) <= 3 * sigma + 1e-9)


def test_cluster_map_inversion_all_constructors():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    maps = [
        cluster_kmeans(X, 5, seed=0, n_text=7),
        cluster_frequency(rng.integers(0, 50, size=30), 5, n_text=7),
        cluster_random(30, 5, seed=0, n_text=7),
    ]
    for cmap in maps:
        seen = np.zeros(cmap.n_text + cmap.n_items, dtype=int)
        for cluster_id in range(cmap.n_clusters):
            if cluster_id < cmap.n_text:
                members = [cluster_id]
            else:
                members = cmap.n_text + cmap.item_members(cluster_id - cmap.n_text)
            for ordinal in members:
                assert cmap.cluster_of(int(ordinal)) == cluster_id
                seen[ordinal] += 1
        assert np.all(seen == 1)
        assert np.all(cmap.cluster_sizes() >= 1)


def test_all_constructors_interchangeable_for_scoring():
    rng = np.random.default_rng(5)
    tables = init_tables(4, 20, 6, 3, seed=1)
    from hsrec.cluster import init_centroids as ic

    X = rng.standard_normal((20, 3))
    for cmap in (
        cluster_kmeans(X, 4, seed=0, n_text=4),
        cluster_frequency(rng.integers(0, 9, 20), 4, n_text=4),
        cluster_random(20, 4, seed=0, n_text=4),
    ):
        t = init_tables(4, 20, 6, 3, seed=1)
        centroids = ic(cmap, t.item_projected())
        from hsrec.tables import ModelTables

        full = ModelTables(t.text, t.item_raw, t.projection, centroids)
        scores = score_all(rng.standard_normal(6), full, cmap, mode="twolevel")
        assert np.isfinite(scores).all()
        assert np.exp(scores).sum() == pytest.approx(1.0, abs=1e-9)


def test_init_centroids_means():
    cmap = ClusterMap(n_text=0, item_assignment=[0, 1, 1], n_item_clusters=2)
    vecs = np.array([[2.0, 4.0], [1.0, 1.0], [3.0, 5.0]])
    table = init_centroids(cmap, vecs)
    assert np.array_equal(table.data[0], vecs[0])  # singleton: mean of one
    assert np.array_equal(table.data[1], (vecs[1] + vecs[2]) / 2)


# (n_items, n_clusters): catalog-10k's shape, n = n_clusters, one cluster,
# unequal bin sizes.
BIN_SHAPES = [(8578, 93), (7, 7), (1, 1), (9, 1), (10, 3), (11, 4)]


@pytest.mark.parametrize("n_items, n_clusters", BIN_SHAPES)
def test_contiguous_bins_equal_the_loop(n_items, n_clusters):
    order = np.random.default_rng(n_items).permutation(n_items)
    got = _contiguous_bins(order, n_clusters)
    assert got.dtype == np.int64 and got.tobytes() == contiguous_bins_loop(order, n_clusters).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_items, n_clusters, width", [(8578, 93, 64), (7, 7, 5), (9, 1, 5), (40, 6, 3)])
def test_init_centroids_equal_the_loop(dtype, n_items, n_clusters, width):
    rng = np.random.default_rng(n_items + width)
    rows = (rng.standard_normal((n_items, width)) * 3.0).astype(dtype)
    rows[:, 0] = -0.0  # the loop's sums start at +0.0: these means are +0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    # Random labels: unequal cluster sizes, clusters interleaved in item order.
    cmap = random_cluster_map(0, n_items, n_clusters, rng)
    got = init_centroids(cmap, rows).data
    want = init_centroids_loop(cmap, rows)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cluster_map_rejects_empty_cluster():
    with pytest.raises(ValueError):
        ClusterMap(0, [0, 0, 0], 2)


def test_csv_export(tmp_path):
    cmap = ClusterMap(2, [0, 1], 2)
    path = tmp_path / "clusters.csv"
    cmap.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ordinal,cluster"
    # Text singletons map to themselves; items offset by n_text.
    assert lines[1:] == ["0,0", "1,1", "2,2", "3,3"]


def test_cooccurrence_features_shape(tmp_path):
    import json

    from hsrec.catalog import build_dataset, ingest_jsonl

    rows = []
    for u in range(8):
        for t in range(4):
            rows.append({"user": f"u{u}", "item": f"i{(u * 2 + t) % 10}", "timestamp": t})
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows))
    data = build_dataset(ingest_jsonl(path))
    assert data.n_items == 10
    feats = cooccurrence_svd_features(data, n_components=4)
    assert feats.shape == (10, 4)
    assert np.isfinite(feats).all()


def test_cooccurrence_counts_equal_the_per_user_loop(tmp_path, monkeypatch):
    import json

    from helpers import cooccurrence_counts_per_user
    from hsrec.catalog import build_dataset, ingest_jsonl

    rows = []
    histories = {
        "u0": ["i3", "i1", "i3", "i4", "i3", "i0", "i2"],  # i3 three times in train
        "u1": ["i5", "i0", "i1"],  # one train item
        "u2": ["i1", "i2", "i5", "i0", "i4", "i3"],
        "u3": ["i4", "i4", "i4", "i4"],  # one distinct train item, held twice
        "u4": ["i2", "i0"],  # too short: dropped
    }
    for user, items in histories.items():
        rows.extend({"user": user, "item": item, "timestamp": t} for t, item in enumerate(items))
    for u in range(30):  # random histories of 3 to 9 events
        rng = np.random.default_rng(u)
        items = rng.integers(0, 6, size=rng.integers(3, 10))
        rows.extend({"user": f"r{u}", "item": f"i{i}", "timestamp": t} for t, i in enumerate(items))
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows))
    inter = ingest_jsonl(path)
    data = build_dataset(inter)
    n_items = 6
    assert data.n_items == n_items and data.split.n_dropped_users == 1
    want = cooccurrence_counts_per_user(inter)
    for block in (1, 4, 7, 1024):  # block edges inside and between users
        monkeypatch.setattr(cluster_module, "PAIR_ROWS", block)
        got = cooccurrence_counts(data)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), block
    assert want.max() > 1.0  # pairs repeat across users
    u, s, _ = np.linalg.svd(np.log1p(want), full_matrices=False)
    assert cooccurrence_svd_features(data, n_components=4).tobytes() == (u[:, :4] * s[:4]).tobytes()
