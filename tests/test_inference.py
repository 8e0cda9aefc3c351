import dataclasses
import itertools
import json

import numpy as np
import pytest

from helpers import (
    additive_rows_full,
    ann_scores_full,
    best_first_heap,
    bits,
    fig2_fixture,
    oracle_ranking,
    random_cluster_map,
    random_model,
    rank_topk_reference,
    tied_items,
    topk_ann_full,
)
from hsrec.cluster import ClusterMap
from hsrec.exceptions import StaleIndexError
from hsrec.inference import (
    TopK,
    _rank_topk,
    ann_item_scores,
    build_additive_index,
    filter_items,
    topk_ann,
    topk_exact,
    topk_items,
    topk_structure,
)
from hsrec.softmax import log_partition, score_all
from hsrec.tables import EmbeddingTable, ModelTables, ProjectionHead
from hsrec.tokens import TokenSpace


def test_full_ranking_is_sorted_with_ordinal_ties():
    tables, cmap, rng = random_model(6, 14, 5, 4, 4, seed=0)
    q = rng.standard_normal(5)
    top = topk_exact(q, tables.n_total, tables, cmap)
    assert len(top) == tables.n_total
    assert np.all(np.diff(top.scores) <= 1e-15)
    assert np.array_equal(top.ordinals, oracle_ranking(q, tables, cmap)[0])


def test_oversized_k_truncates():
    tables, cmap, rng = random_model(3, 5, 4, 3, 2, seed=1)
    top = topk_exact(rng.standard_normal(4), 999, tables, cmap)
    assert len(top) == 8


def test_fig2_top1_and_pruning():
    tables, cmap, query = fig2_fixture()
    top = topk_exact(query, 1, tables, cmap)
    assert top.ordinals[0] == cmap.n_text + 0
    assert np.exp(top.scores[0]) == pytest.approx(0.24, abs=1e-12)

    structured, stats = topk_structure(query, 1, tables, cmap)
    assert np.array_equal(structured.ordinals, top.ordinals)
    assert stats.clusters_expanded == 1
    assert stats.clusters_pruned == 3
    # The pruned bound is the 0.2 text cluster, below the 0.24 candidate.
    assert np.exp(stats.max_pruned_logprob) == pytest.approx(0.2, abs=1e-12)
    assert stats.max_pruned_logprob <= structured.scores[-1]


def test_singleton_clusters_degenerate_to_sorting():
    # One cluster per item: structure search equals plain cluster-prob sorting.
    tables, _, rng = random_model(4, 10, 5, 3, 10, seed=2)
    cmap = ClusterMap(4, np.arange(10), 10)
    q = rng.standard_normal(5)
    exact, (structured, _) = topk_exact(q, 14, tables, cmap), topk_structure(q, 14, tables, cmap)
    assert np.array_equal(exact.ordinals, structured.ordinals)
    assert np.allclose(exact.scores, structured.scores, atol=1e-12)


@pytest.mark.parametrize("k", [1, 5, 10, 100])
def test_structure_equals_exact_random_sweep(k):
    for seed in range(60):
        tables, cmap, rng = random_model(5 + seed % 7, 30 + 3 * seed, 6, 4, 3 + seed % 5, seed=seed)
        q = rng.standard_normal(6)
        exact = topk_exact(q, k, tables, cmap)
        structured, stats = topk_structure(q, k, tables, cmap)
        assert np.array_equal(exact.ordinals, structured.ordinals), seed
        assert np.array_equal(exact.scores, structured.scores), seed
        # Pruning soundness: every pruned cluster bound <= returned k-th score.
        if stats.max_pruned_logprob is not None:
            assert stats.max_pruned_logprob <= structured.scores[-1] + 1e-15


def test_structure_prunes_on_average():
    expanded, total = 0, 0
    for seed in range(20):
        tables, cmap, rng = random_model(20, 400, 8, 6, 20, seed=seed)
        _, stats = topk_structure(rng.standard_normal(8), 10, tables, cmap)
        expanded += stats.clusters_expanded
        total += cmap.n_clusters
    assert expanded < total  # pruning must actually happen


def test_additive_index_rows():
    tables, cmap, rng = random_model(5, 12, 4, 3, 3, seed=3)
    index = build_additive_index(tables, cmap)
    full = additive_rows_full(tables, cmap)
    # Text rows alias their own centroid: exactly twice the embedding, which
    # is twice the first-level copy's text rows.
    assert np.array_equal(full[:5], 2.0 * tables.text.data)
    assert bits(full[:5]) == bits(2.0 * tables.first_level_rows()[:5])
    projected = tables.item_projected()
    for item in range(12):
        expected = projected[item] + tables.centroids.data[cmap.item_assignment[item]]
        assert np.array_equal(index.vectors[item], expected)
    # The index holds the full layout's item rows, bit for bit.
    assert bits(index.vectors) == bits(full[5:])
    assert (index.n_text, index.vectors.shape[0]) == (5, 12)


def test_additive_index_is_one_read_only_copy_per_version_and_cluster_map():
    tables, cmap, rng = random_model(5, 12, 4, 3, 3, seed=3)
    index = build_additive_index(tables, cmap)
    assert build_additive_index(tables, cmap) is index
    with pytest.raises(ValueError, match="read-only"):
        index.vectors[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        index.tables_version += 1
    # A second cluster map gets its own index, and the first keeps its own.
    other = random_cluster_map(5, 12, 3, rng)
    assert not np.array_equal(other.item_assignment, cmap.item_assignment)
    other_index = build_additive_index(tables, other)
    assert other_index is not index and other_index.cluster_map is other
    assert build_additive_index(tables, other) is other_index
    expected = tables.item_projected() + tables.centroids.data[other.item_assignment]
    assert np.array_equal(other_index.vectors, expected)
    assert bits(other_index.vectors) == bits(additive_rows_full(tables, other)[5:])
    assert bits(index.vectors) == bits(additive_rows_full(tables, cmap)[5:])
    assert build_additive_index(tables, cmap) is index


def test_additive_index_zero_centroids_equals_item_table():
    tables, cmap, rng = random_model(0, 9, 4, 3, 3, seed=4)
    with tables.writing() as arrays:
        arrays["centroids"][:] = 0.0
    assert np.array_equal(build_additive_index(tables, cmap).vectors, tables.item_projected())


def test_stale_index_rejected():
    tables, cmap, rng = random_model(4, 8, 4, 3, 2, seed=5)
    index = build_additive_index(tables, cmap)
    with tables.writing():
        pass
    for probes in (None, 1):
        with pytest.raises(StaleIndexError):
            topk_ann(rng.standard_normal(4), 3, index, tables, probes=probes)


def test_ann_equals_full_ordering_when_centroids_shared():
    # All clusters share one centroid: the additive shift is a constant vector,
    # so the MIPS ordering equals the full-softmax ordering.
    tables, cmap, rng = random_model(0, 15, 5, 4, 3, seed=6)
    shared = rng.standard_normal(5)
    with tables.writing() as arrays:
        arrays["centroids"][:] = shared
    q = rng.standard_normal(5)
    index = build_additive_index(tables, cmap)
    ann = topk_ann(q, 15, index, tables)
    full_scores = score_all(q, tables, None, mode="full")
    full_order = np.lexsort((np.arange(15), -full_scores))
    assert np.array_equal(ann.ordinals, full_order)


def test_ann_top1_exact_when_log_partitions_equal():
    # Clusters whose member logits are permutations of each other have equal
    # log-partitions, so dropping that term cannot change the argmax.
    dim = 3
    member_logits = np.array([1.3, 0.2, -0.7])
    item_rows = []
    for cluster in range(3):
        for value in np.roll(member_logits, cluster):
            item_rows.append([value, 0.0, 0.0])
    tables = ModelTables(
        EmbeddingTable(np.zeros((0, dim))),
        EmbeddingTable(np.asarray(item_rows)),
        ProjectionHead(np.eye(dim), np.zeros(dim)),
        EmbeddingTable(np.array([[0.9, 0, 0], [0.1, 0, 0], [-0.4, 0, 0]])),
    )
    cmap = ClusterMap(0, np.repeat(np.arange(3), 3), 3)
    q = np.array([1.0, 0.0, 0.0])
    exact = topk_exact(q, 1, tables, cmap)
    index = build_additive_index(tables, cmap)
    ann = topk_ann(q, 1, index, tables)
    assert ann.ordinals[0] == exact.ordinals[0]


def test_ann_overlap_measured_not_asserted():
    overlaps = []
    for seed in range(10):
        tables, cmap, rng = random_model(10, 120, 6, 4, 11, seed=seed)
        q = rng.standard_normal(6)
        ann = set(topk_ann(q, 10, build_additive_index(tables, cmap), tables).ordinals.tolist())
        overlaps.append(len(ann & set(topk_exact(q, 10, tables, cmap).ordinals.tolist())) / 10)
    # Approximation quality is reported, not asserted exact.
    assert 0.0 <= np.mean(overlaps) <= 1.0


def test_ann_ordering_invariant_to_constant_logit_shift():
    tables, cmap, rng = random_model(6, 20, 5, 4, 4, seed=8)
    q = rng.standard_normal(5)
    base = topk_ann(q, 26, build_additive_index(tables, cmap), tables)
    shifted_scores = additive_rows_full(tables, cmap) @ q + 3.7
    assert np.array_equal(base.ordinals, np.lexsort((np.arange(shifted_scores.size), -shifted_scores)))


def test_ann_probe_mode_subset():
    tables, cmap, rng = random_model(4, 30, 5, 4, 6, seed=9)
    q = rng.standard_normal(5)
    index = build_additive_index(tables, cmap)
    probed, exhaustive = topk_ann(q, 8, index, tables, probes=2), topk_ann(q, 8, index, tables)
    # Probed results are a subset of the full index's tokens and include text.
    assert set(probed.ordinals.tolist()) <= set(range(34)) and len(probed) == 8
    assert set(exhaustive.ordinals[:1].tolist()) <= set(range(34))


@pytest.mark.parametrize("probes", [0, -1])
def test_ann_rejects_fewer_than_one_probe(probes):
    # Sliced as [:probes], -1 would probe all clusters but one and 0 none.
    tables, cmap, rng = random_model(4, 30, 5, 4, 6, seed=9)
    index = build_additive_index(tables, cmap)
    with pytest.raises(ValueError, match="probes"):
        topk_ann(rng.standard_normal(5), 8, index, tables, probes=probes)


def test_filter_items():
    space = TokenSpace(4, 6)
    all_text = TopK(np.array([0, 2, 3]), np.array([0.3, 0.2, 0.1]))
    assert len(filter_items(all_text, space)) == 0
    mixed = TopK(np.array([5, 0, 7, 1, 4]), np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    items = filter_items(mixed, space)
    assert items.ordinals.tolist() == [5, 7, 4]
    assert items.scores.tolist() == [5.0, 3.0, 1.0]


def test_topk_rows_name_each_token():
    space = TokenSpace(4, 6)
    ranked = TopK(np.array([6, 3, 4], dtype=np.int64), np.array([-0.5, -1.25, -2.0]))
    item_ids = [f"item-{i}" for i in range(6)]
    want = [
        {"rank": 1, "kind": "item", "index": 2, "score": -0.5, "item_id": "item-2"},
        {"rank": 2, "kind": "text", "index": 3, "score": -1.25},
        {"rank": 3, "kind": "item", "index": 0, "score": -2.0, "item_id": "item-0"},
    ]
    rows = ranked.rows(space, item_ids)
    assert rows == want
    # Plain Python values, so the rows serialize as JSON.
    assert all(type(row["index"]) is int and type(row["score"]) is float for row in rows)
    assert json.loads(json.dumps(rows)) == want
    assert ranked.rows(space) == [{k: v for k, v in row.items() if k != "item_id"} for row in want]


def _topk_items_cases():
    """Random models; one pushes its text rows above every item, one has
    identical item rows so that scores tie inside each cluster."""
    for seed in range(12):
        dim = (6, 16)[seed % 2]
        tables, cmap, rng = random_model(5 + seed % 7, 20 + 3 * seed, dim, 4, 3 + seed % 5, seed=seed)
        yield tables, cmap, rng.standard_normal(dim)
    tables, cmap, rng = random_model(30, 10, 16, 3, 2, seed=10)
    with tables.writing() as arrays:
        arrays["text"] += 2.0
    yield tables, cmap, rng.standard_normal(16)
    tables, cmap, rng = random_model(8, 24, 16, 3, 4, seed=11)
    with tables.writing() as arrays:
        arrays["item_raw"][:] = arrays["item_raw"][0]
    yield tables, cmap, rng.standard_normal(16)


@pytest.mark.parametrize("engine", ["structure", "ann"])
def test_topk_items_equals_filtered_full_ranking(engine):
    # Oracle: rank every token, keep the items in order, truncate to k.
    cases = itertools.chain(_topk_items_cases(), *map(_best_first_cases, BEST_FIRST_MODELS))
    for tables, cmap, q in cases:
        space = TokenSpace(tables.n_text, tables.n_items)
        index = build_additive_index(tables, cmap)
        if engine == "structure":
            ranked = topk_exact(q, tables.n_total, tables, cmap)
        else:
            ranked = topk_ann(q, tables.n_total, index, tables)
        items = filter_items(ranked, space)
        for k in (1, 3, 5, 10, tables.n_items, tables.n_items + 3):
            top = topk_items(q, k, tables, cmap, space, engine=engine, index=index)
            assert np.array_equal(top.ordinals, items.ordinals[:k])
            if engine == "structure":
                # Rank scores: the log-probabilities plus the query's log Z.
                np.testing.assert_allclose(top.scores - log_partition(q, tables), items.scores[:k], rtol=1e-12, atol=0)
            else:
                assert np.array_equal(top.scores, items.scores[:k])


def test_structure_query_reads_no_first_level_copy(monkeypatch):
    built = []
    first_level_rows = ModelTables.first_level_rows

    def counted(self):
        built.append(self.version)
        return first_level_rows(self)

    monkeypatch.setattr(ModelTables, "first_level_rows", counted)
    for tables, cmap, q in _topk_items_cases():
        with tables.writing():
            pass  # a fresh table version: no derived copy is built yet
        topk_items(q, 5, tables, cmap, TokenSpace(tables.n_text, tables.n_items))
        assert built == []
        log_partition(q, tables)
        assert built == [tables.version]
        built.clear()


def test_topk_items_engines():
    tables, cmap, rng = random_model(4, 8, 4, 3, 2, seed=12)
    space = TokenSpace(4, 8)
    q = rng.standard_normal(4)
    for engine in ("exact", "full"):
        with pytest.raises(ValueError, match="unknown engine"):
            topk_items(q, 3, tables, cmap, space, engine=engine)
    with pytest.raises(ValueError, match="index"):
        topk_items(q, 3, tables, cmap, space, engine="ann")
    index = build_additive_index(tables, cmap)
    with tables.writing():
        pass
    with pytest.raises(StaleIndexError):
        topk_items(q, 3, tables, cmap, space, engine="ann", index=index)


@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_rank_topk_equals_full_lexsort(n):
    # Few levels, so most scores tie; signed zeros, infinities and NaN mixed in.
    levels = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan])
    for seed in range(40):
        rng = np.random.default_rng(seed)
        scores = rng.choice(levels[: 3 + seed % 6] if seed % 4 else levels, size=n)
        for k in (1, 2, 5, n - 1, n, n + 3):
            if k < 1:
                continue
            got, want = _rank_topk(scores, k), rank_topk_reference(scores, k)
            assert bits(got) == bits(want), (seed, k)


BEST_FIRST_MODELS = ("random", "prunes", "tied", "tied_singletons", "tied_text", "few_text")


def _best_first_cases(model):
    for seed in range(8):
        if model == "random":
            tables, cmap, rng = random_model(3 + seed % 5, 20 + 7 * seed, 6, 4, 2 + seed % 5, seed=seed)
        elif model == "prunes":
            tables, cmap, rng = random_model(20, 400, 8, 6, 20, seed=seed)
        elif model == "few_text":
            # Zero to two text tokens, fewer than most k, so the search starts
            # holding fewer than k; k = 10 often exceeds n_total.
            tables, cmap, rng = random_model(seed % 3, 5 + seed, 6, 4, 1 + seed % 4, seed=seed)
        elif model == "tied_text":
            # Zeroed rows tie text singletons with each other and with the
            # zeroed item clusters, in runs longer than most k.
            tables, cmap, rng = random_model(25, 30, 6, 4, 5, seed=seed)
            with tables.writing() as arrays:
                arrays["text"][rng.random(25) < 0.5] = 0.0
                arrays["centroids"][rng.random(5) < 0.4] = 0.0
        else:
            tables, _, rng = random_model(5 + seed % 3, 24, 6, 4, 4, seed=seed)
            n_clusters = 24 if model == "tied_singletons" else 4
            cmap = ClusterMap(tables.n_text, np.arange(24) % n_clusters, n_clusters)
            tables = tied_items(tables, cmap)
        yield tables, cmap, rng.standard_normal(tables.dim)


@pytest.mark.parametrize("model", BEST_FIRST_MODELS)
def test_best_first_equals_heap_oracle(model):
    pruned = 0
    for tables, cmap, q in _best_first_cases(model):
        for k in (1, 3, 10, tables.n_total + 3):
            got, got_stats = topk_structure(q, k, tables, cmap)
            want, want_stats = best_first_heap(q, k, tables, cmap)
            assert bits(got) == bits(want), k
            assert got_stats.to_dict() == want_stats.to_dict(), k
            pruned += got_stats.clusters_pruned
    if model == "prunes":
        assert pruned > 0


def test_ann_probe_mask_equals_member_lists():
    tables, cmap, rng = random_model(4, 30, 5, 4, 6, seed=9)
    index = build_additive_index(tables, cmap)
    full = additive_rows_full(tables, cmap)
    for _ in range(5):
        q = rng.standard_normal(5)
        scores = np.concatenate((full[: index.n_text] @ q, ann_item_scores(q, index, tables)))
        centroid_scores = tables.centroids.data @ q
        by_centroid = np.lexsort((np.arange(centroid_scores.size), -centroid_scores))
        for probes in range(1, cmap.n_item_clusters + 2):
            allowed = np.zeros(tables.n_total, dtype=bool)
            allowed[: tables.n_text] = True
            for j in by_centroid[:probes]:
                allowed[tables.n_text + cmap.item_members(int(j))] = True
            want = rank_topk_reference(np.where(allowed, scores, -np.inf), min(8, int(allowed.sum())))
            got = topk_ann(q, 8, index, tables, probes=probes)
            assert bits(got) == bits(want)


def _ann_oracle_cases(dtype):
    """Random models at several shapes, with and without text tokens; two
    have identical item rows, so that ANN scores tie inside each cluster,
    and one of them identical centroids too, so that every item ties."""
    shapes = [(0, 30, 8, 4, 5), (7, 50, 16, 6, 6), (40, 300, 64, 8, 17), (9, 1, 5, 3, 1)]
    for seed, shape in enumerate(shapes):
        tables, cmap, rng = random_model(*shape, seed=seed, dtype=dtype)
        yield tables, cmap, rng
    for shared_centroid in (False, True):
        tables, cmap, rng = random_model(12, 60, 64, 8, 7, seed=9, dtype=dtype)
        with tables.writing() as arrays:
            arrays["item_raw"][:] = arrays["item_raw"][0]
            if shared_centroid:
                arrays["centroids"][:] = arrays["centroids"][0]
        yield tables, cmap, rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ann_paths_equal_full_layout_oracle_bitwise(dtype):
    # topk_ann, with and without probes, topk_items(engine="ann") and the
    # block scores read the item-only index and the first-level copy; the
    # oracle scores the full layout, 2 * text rows then item rows.
    for tables, cmap, rng in _ann_oracle_cases(dtype):
        index = build_additive_index(tables, cmap)
        space = TokenSpace(tables.n_text, tables.n_items)
        block = rng.standard_normal((5, tables.dim)).astype(dtype)
        assert bits(ann_item_scores(block, index, tables)) == bits(ann_scores_full(block, tables, cmap))
        for q in block:
            items = ann_scores_full(q, tables, cmap)[tables.n_text :]
            assert bits(ann_item_scores(q, index, tables)) == bits(items)
            for k in (1, 5, tables.n_total + 3):
                for probes in (None, 1, 3, cmap.n_item_clusters + 1):
                    got = topk_ann(q, k, index, tables, probes=probes)
                    want = topk_ann_full(q, k, tables, cmap, probes=probes)
                    assert bits(got) == bits(want), (k, probes)
                top = topk_items(q, k, tables, cmap, space, engine="ann", index=index)
                want = rank_topk_reference(items, k)
                assert bits(top.ordinals) == bits(tables.n_text + want.ordinals), k
                assert bits(top.scores) == bits(want.scores), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_additive_index_holds_item_rows_only(dtype):
    tables, cmap, rng = random_model(300, 500, 64, 8, 20, seed=1, dtype=dtype)
    index = build_additive_index(tables, cmap)
    assert (index.vectors.shape, index.vectors.dtype) == ((500, 64), np.float64)
    assert index.vectors.nbytes == 500 * 64 * 8
    assert index.vectors.base is None  # owns its rows: no view of a larger array
