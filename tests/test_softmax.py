import numpy as np
import pytest

import weakref

from helpers import (
    bits,
    fd_gradient,
    fig2_fixture,
    flatten,
    full_logprob,
    item_log_probs_batch,
    max_rel_error,
    nll_and_grad_oracle,
    oracle_ranking,
    param_arrays,
    random_cluster_map,
    random_model,
    touched_item_rows,
)
from hsrec.cluster import ClusterMap
from hsrec.evaluate import rank_rows
from hsrec.inference import ann_item_scores, build_additive_index, topk_structure
from hsrec.softmax import (
    CostCounter,
    _logsumexp,
    cluster_logits,
    full_logits,
    item_rank_scores,
    log_partition,
    log_softmax,
    nll_and_grad,
    score_all,
    two_level_logprob,
)
from hsrec.tables import EmbeddingTable, ModelTables, ProjectionHead


def uniform_model(n_text, n_items, dim=4, item_dim=4):
    ones_text = np.ones((n_text, dim))
    ones_items = np.ones((n_items, item_dim))
    return ModelTables(
        EmbeddingTable(ones_text),
        EmbeddingTable(ones_items),
        ProjectionHead(np.eye(dim), np.zeros(dim)),
        EmbeddingTable(np.ones((2, dim))),
    )


def test_full_uniform_when_embeddings_equal():
    lp = [full_logprob(np.array([0.3, -0.2, 0.9, 0.0]), o, uniform_model(3, 5)) for o in range(8)]
    np.testing.assert_allclose(np.exp(lp), 1 / 8, rtol=0, atol=1e-12)


def test_full_two_token_closed_form():
    # Logits (0, ln 3) -> probabilities (0.25, 0.75).
    text = np.array([[0.0], [np.log(3.0)]])
    tables = ModelTables(
        EmbeddingTable(text),
        EmbeddingTable(np.zeros((1, 1))),
        ProjectionHead(np.zeros((1, 1)), np.array([-1e9])),
        EmbeddingTable(np.zeros((1, 1))),
    )
    # Park the lone item at a huge negative logit so only the two text tokens matter.
    q = np.array([1.0])
    p0 = np.exp(full_logprob(q, 0, tables))
    p1 = np.exp(full_logprob(q, 1, tables))
    assert p0 == pytest.approx(0.25, abs=1e-9)
    assert p1 == pytest.approx(0.75, abs=1e-9)


def test_full_matches_brute_force_summation():
    tables, _, rng = random_model(20, 30, 8, 5, 6, seed=7)
    q = rng.standard_normal(8)
    logits = np.concatenate(
        [tables.text.data @ q, (tables.item_raw.data @ tables.projection.weight.T + tables.projection.bias) @ q]
    )
    # Direct summation oracle, no max shift.
    probs = np.exp(logits) / np.exp(logits).sum()
    for ordinal in [0, 7, 25, 49]:
        assert full_logprob(q, ordinal, tables) == pytest.approx(np.log(probs[ordinal]), abs=1e-10)


def test_two_level_singleton_cluster_equals_cluster_prob():
    # For a text token the conditional is 1: P(w) = P(cluster(w)).
    tables, cmap, rng = random_model(6, 10, 5, 4, 3, seed=1)
    q = rng.standard_normal(5)
    want = float(log_softmax(cluster_logits(q, tables))[2])
    assert two_level_logprob(q, 2, tables, cmap) == pytest.approx(want, abs=1e-12)
    assert score_all(q, tables, cmap, mode="twolevel")[2] == pytest.approx(want, abs=1e-12)


def test_two_level_fig2_joint_probability():
    tables, cmap, query = fig2_fixture()
    # First item of the 0.6-cluster has conditional 0.4: joint 0.24.
    lp = two_level_logprob(query, cmap.n_text + 0, tables, cmap)
    assert np.exp(lp) == pytest.approx(0.24, abs=1e-12)
    # And the pruned cluster's probability is 0.1.
    from hsrec.softmax import cluster_logits, log_softmax

    cl = log_softmax(cluster_logits(query, tables))
    assert np.exp(cl[cmap.n_text + 1]) == pytest.approx(0.1, abs=1e-12)


def test_two_level_sums_to_one_random_instances():
    for seed in range(20):
        tables, cmap, rng = random_model(15, 40, 6, 5, 7, seed=seed)
        total = np.exp(score_all(rng.standard_normal(6), tables, cmap, mode="twolevel")).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_score_all_matches_pointwise_ops():
    tables, cmap, rng = random_model(10, 25, 6, 4, 5, seed=3)
    q = rng.standard_normal(6)
    dense_two, dense_full = score_all(q, tables, cmap, mode="twolevel"), score_all(q, tables, None, mode="full")
    for ordinal in [0, 9, 10, 20, 34]:
        assert dense_two[ordinal] == pytest.approx(two_level_logprob(q, ordinal, tables, cmap), abs=1e-12)
        assert dense_full[ordinal] == pytest.approx(full_logprob(q, ordinal, tables), abs=1e-12)


def _with_clusters(tables, cmap, rng):
    """``tables`` with one random centroid per item cluster of ``cmap``."""
    dtype = tables.text.data.dtype
    centroids = EmbeddingTable((rng.standard_normal((cmap.n_item_clusters, tables.dim)) * 0.5).astype(dtype))
    return ModelTables(tables.text, tables.item_raw, tables.projection, centroids), cmap


def _scorer_cases(dtype):
    """An unsorted random assignment, singleton item clusters, a single item
    cluster and a one-item catalog."""
    tables, cmap, rng = random_model(7, 40, 6, 4, 5, seed=4, dtype=dtype)
    yield tables, cmap, rng
    yield (*_with_clusters(tables, ClusterMap(7, rng.permutation(40), 40), rng), rng)
    yield (*_with_clusters(tables, ClusterMap(7, np.zeros(40), 1), rng), rng)
    tables, cmap, rng = random_model(7, 1, 6, 4, 1, seed=5, dtype=dtype)
    yield tables, cmap, rng


def _all_item_ranks(scores):
    """rank_rows of every item of every row of a ``(B, n_items)`` block."""
    n_rows, n_items = scores.shape
    return rank_rows(np.repeat(scores, n_items, axis=0), np.tile(np.arange(n_items), n_rows))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_item_scorers_equal_per_token_oracle(dtype):
    for tables, cmap, rng in _scorer_cases(dtype):
        n_text = tables.n_text
        queries = rng.standard_normal((3, tables.dim))
        block = item_log_probs_batch(queries, tables, cmap)
        ranked = item_rank_scores(queries, tables, cmap)
        full_ranked = item_rank_scores(queries, tables, cmap, "full")
        for scores in (ranked, full_ranked):
            assert scores.dtype == np.float64 and scores.flags.c_contiguous
        full_block = item_log_probs_batch(queries, tables, cmap, "full")
        for q, row, rank_row, full_row, full_lp in zip(queries, block, ranked, full_ranked, full_block):
            want = np.array([two_level_logprob(q, o, tables, cmap) for o in range(tables.n_total)])
            order, dense = oracle_ranking(q, tables, cmap)
            np.testing.assert_allclose(dense, want, rtol=1e-12, atol=0)
            np.testing.assert_allclose(row, want[n_text:], rtol=1e-12, atol=0)
            # Rank scores are the log-probabilities plus the query's log Z.
            log_z = _logsumexp(cluster_logits(q, tables))
            np.testing.assert_allclose(rank_row - want[n_text:], log_z, rtol=0, atol=1e-12)
            full_want = [full_logprob(q, o, tables) for o in range(n_text, tables.n_total)]
            np.testing.assert_allclose(full_lp, full_want, rtol=1e-12, atol=0)
            np.testing.assert_allclose(score_all(q, tables, None, "full")[n_text:], full_want, rtol=1e-12, atol=0)
            full_log_z = _logsumexp(full_logits(q, tables))
            np.testing.assert_allclose(full_row - full_want, full_log_z, rtol=0, atol=1e-12)
            # A single query's rank scores are the same, from row products.
            single = item_rank_scores(q, tables, cmap)
            assert single.shape == (tables.n_items,) and single.dtype == np.float64
            np.testing.assert_allclose(single - want[n_text:], log_z, rtol=0, atol=1e-12)
            full_single = item_rank_scores(q, tables, cmap, "full")
            np.testing.assert_allclose(full_single - full_want, full_log_z, rtol=0, atol=1e-12)
            assert bits(_all_item_ranks(single[None])) == bits(_all_item_ranks(row[None]))
            # The pruned search's per-cluster scores are score_all's, bit for
            # bit: at k = n_total it expands every cluster and keeps every token.
            top, stats = topk_structure(q, tables.n_total, tables, cmap)
            assert stats.clusters_pruned == 0
            assert np.array_equal(top.ordinals, order)
            assert bits(top.scores) == bits(dense[top.ordinals])
        assert bits(_all_item_ranks(ranked)) == bits(_all_item_ranks(block))
        assert bits(_all_item_ranks(full_ranked)) == bits(_all_item_ranks(full_block))


def _bound_cases():
    """The scorer cases in both dtypes, equal item rows, one-member clusters
    and logits of magnitude up to 1e4, each with a block of queries."""
    for dtype in (np.float32, np.float64):
        for tables, cmap, rng in _scorer_cases(dtype):
            yield tables, cmap, rng.standard_normal((6, tables.dim))
    tables, cmap, rng = random_model(5, 37, 64, 4, 4, seed=6)
    with tables.writing() as arrays:
        arrays["item_raw"][:] = 0.0
    yield tables, cmap, rng.standard_normal((6, 64))
    tables, _, rng = random_model(4, 10, 5, 3, 10, seed=2)
    yield tables, ClusterMap(4, np.arange(10), 10), rng.standard_normal((6, 5))
    tables, cmap, rng = random_model(8, 12, 4, 4, 3, seed=2)
    with tables.writing() as arrays:
        for name in ("text", "item_raw", "centroids"):
            arrays[name] *= 5e3
    yield tables, cmap, np.vstack([[1.0, -1.0, 1.0, -1.0], rng.standard_normal((5, 4))])


def test_no_score_exceeds_its_cluster_bound():
    # The pruned search's soundness, with no tolerance: every item's score is
    # at most its cluster's bound fl(cl_c - log Z), and a text token's score
    # is its bound.  The search on the same bounds equals the enumeration.
    for tables, cmap, queries in _bound_cases():
        n_text = tables.n_text
        for q in queries:
            order, dense = oracle_ranking(q, tables, cmap)
            bounds = cluster_logits(q, tables) - log_partition(q, tables)
            assert np.isfinite(dense).all()
            assert bits(dense[:n_text]) == bits(bounds[:n_text])
            assert (dense[n_text:] <= bounds[n_text + cmap.item_assignment]).all()
            for k in (1, 3, tables.n_total):
                top, _ = topk_structure(q, k, tables, cmap)
                want = order[:k]
                assert np.array_equal(top.ordinals, want) and bits(top.scores) == bits(dense[want]), k


def test_equal_item_rows_score_equal():
    # Zero raw rows: every projected row is exactly the head bias, 64 wide,
    # and every ANN index row of a cluster is the bias plus its centroid.  A
    # GEMV rounds the rows past the last whole block of four apart from the
    # others, so only item counts that are not a multiple of four catch one.
    for n_items, n_clusters in ((60, 3), (18, 1), (37, 4), (61, 6)):
        tables, cmap, rng = random_model(5, n_items, 64, 4, n_clusters, seed=6)
        with tables.writing() as arrays:
            arrays["item_raw"][:] = 0.0
        index = build_additive_index(tables, cmap)
        for q in rng.standard_normal((24, 64)):
            scores = score_all(q, tables, cmap)
            ranked = item_rank_scores(q, tables, cmap)
            ann = ann_item_scores(q, index, tables)
            for c in range(cmap.n_item_clusters):
                members = cmap.item_members(c)
                assert np.unique(scores[tables.n_text + members]).size == 1, (n_items, n_clusters)
                assert np.unique(ranked[members]).size == 1, (n_items, n_clusters)
                assert np.unique(ann[members]).size == 1, (n_items, n_clusters)


def _fresh(tables):
    """The same parameters, with no derived copies."""
    arrays = {name: a.copy() for name, a in tables.parameter_arrays().items()}
    return ModelTables(
        EmbeddingTable(arrays["text"]),
        EmbeddingTable(arrays["item_raw"]),
        ProjectionHead(arrays["proj_weight"], arrays["proj_bias"]),
        EmbeddingTable(arrays["centroids"]),
    )


def _item_scores(tables, cmap, queries):
    return (
        [score_all(q, tables, cmap) for q in queries],
        item_log_probs_batch(queries, tables, cmap),
        [topk_structure(q, 7, tables, cmap)[0].scores for q in queries],
        item_rank_scores(queries, tables, cmap),
        item_rank_scores(queries, tables, cmap, "full"),
        [item_rank_scores(q, tables, cmap) for q in queries],
    )


def _assert_same_scores(got, want):
    for g, w in zip(got, want):
        assert all(bits(a) == bits(b) for a, b in zip(g, w))


def test_cluster_ordered_rows_follow_writes_and_cluster_maps():
    tables, cmap, rng = random_model(5, 30, 6, 4, 4, seed=8)
    queries = rng.standard_normal((4, 6))

    before = _item_scores(tables, cmap, queries)
    rows = tables.item_rows_by_cluster(cmap)
    assert rows.dtype == np.float64 and tables.item_rows_by_cluster(cmap) is rows
    assert bits(rows) == bits(tables.item_projected()[cmap.item_order])
    released = weakref.ref(rows)
    del rows
    with tables.writing() as arrays:
        arrays["item_raw"][::3] *= -2.0
    assert released() is None  # the writer drops the float64 copy

    after = _item_scores(tables, cmap, queries)
    _assert_same_scores(after, _item_scores(_fresh(tables), cmap, queries))
    for old, new in zip(before, after):
        assert not all(np.array_equal(a, b) for a, b in zip(old, new))

    # A second cluster map over the same tables reads its own order, and the
    # first map's scores are unchanged by it.
    other = random_cluster_map(5, 30, 4, rng)
    assert not np.array_equal(other.item_order, cmap.item_order)
    _assert_same_scores(_item_scores(tables, other, queries), _item_scores(_fresh(tables), other, queries))
    assert bits(tables.item_rows_by_cluster(other)) == bits(tables.item_projected()[other.item_order])
    _assert_same_scores(_item_scores(tables, cmap, queries), after)


def _first_level_scores(tables, cmap, queries, targets):
    losses, d_queries, grads = nll_and_grad(queries, targets, tables, cmap)
    return (
        [cluster_logits(q, tables) for q in queries],
        *_item_scores(tables, cmap, queries),
        [losses, d_queries, grads.d_text, grads.d_centroids],
    )


@pytest.mark.parametrize("table", ["text", "centroids"])
def test_first_level_writes_reach_every_scorer(table):
    # Every two-level first-level product reads tables.first_level_rows().
    tables, cmap, rng = random_model(5, 30, 6, 4, 4, seed=9, dtype=np.float32)
    queries, targets = rng.standard_normal((4, 6)), np.array([0, 5, 12, 34])
    before = _first_level_scores(tables, cmap, queries, targets)
    with tables.writing() as arrays:
        arrays[table][::2] *= -2.0
    after = _first_level_scores(tables, cmap, queries, targets)
    _assert_same_scores(after, _first_level_scores(_fresh(tables), cmap, queries, targets))
    # Rank scores read no text row; full-mode rank scores no centroid either.
    reads_table = [True] * len(after)
    reads_table[4] = reads_table[6] = table == "centroids"
    reads_table[5] = False
    for old, new, reads in zip(before, after, reads_table):
        assert (not all(np.array_equal(a, b) for a, b in zip(old, new))) == reads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cluster_logits_are_the_per_table_products(dtype):
    # The copy holds the values numpy's cast of each table gave, in the same
    # layout, so the two products over its views round as those over the tables.
    for n_text, n_clusters, dim in [(7, 5, 6), (1, 1, 3), (333, 17, 32), (1000, 31, 64)]:
        tables, _, rng = random_model(n_text, 40, dim, 4, n_clusters, seed=n_text, dtype=dtype)
        for q in rng.standard_normal((5, dim)):
            want = np.concatenate([tables.text.data @ q, tables.centroids.data @ q])
            assert bits(cluster_logits(q, tables)) == bits(want)


def test_log_partition_normalizes_the_two_level_distribution():
    for seed in range(6):
        tables, cmap, rng = random_model(4 + seed, 30, 6, 4, 1 + seed, seed=seed)
        for q in rng.standard_normal((3, 6)) * (1.0, 30.0)[seed % 2]:
            log_z = log_partition(q, tables)
            logits = cluster_logits(q, tables)
            m = logits.max()
            assert log_z == pytest.approx(m + np.log(np.sum(np.exp(logits - m))), rel=1e-12, abs=1e-12)
            # log Z turns first-level logits and item rank scores into a distribution.
            text, items = logits[: tables.n_text] - log_z, item_rank_scores(q, tables, cmap) - log_z
            assert np.exp(text).sum() + np.exp(items).sum() == pytest.approx(1.0, abs=1e-12)
            lp = score_all(q, tables, cmap)
            np.testing.assert_allclose(lp, np.concatenate([text, items]), rtol=0, atol=1e-12)


def test_full_and_two_level_differ_in_general():
    tables, cmap, rng = random_model(10, 25, 6, 4, 5, seed=11)
    q = rng.standard_normal(6)
    assert not np.allclose(score_all(q, tables, None, mode="full"), score_all(q, tables, cmap, mode="twolevel"))


def test_uniform_model_full_loss_is_log_n():
    tables = uniform_model(3, 5)
    q = np.array([0.1, 0.4, -0.3, 0.2])
    loss, _, _ = nll_and_grad_oracle(q, 4, tables, None, mode="full")
    assert loss == pytest.approx(np.log(8), abs=1e-12)


def test_log_domain_stability_huge_logits():
    # Logit magnitudes up to 1e4 must stay finite in both modes.
    tables, cmap, rng = random_model(8, 12, 4, 4, 3, seed=2)
    with tables.writing() as arrays:
        arrays["text"] *= 5e3
        arrays["item_raw"] *= 5e3
        arrays["centroids"] *= 5e3
    q = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.isfinite(score_all(q, tables, cmap, mode="twolevel")).all()
    assert np.isfinite(score_all(q, tables, None, mode="full")).all()
    loss, d_q, _ = nll_and_grad_oracle(q, 3, tables, cmap, mode="twolevel")
    assert np.isfinite(loss) and np.isfinite(d_q).all()


def test_cost_counter_two_level_vs_full():
    # 1,000 text tokens + 10,000 items in 100 balanced clusters: per-example
    # dot products 1,100 + 100 for two-level vs 11,000 for full.
    n_text, n_items, n_clusters = 1000, 10_000, 100
    rng = np.random.default_rng(0)
    tables = ModelTables(
        EmbeddingTable(rng.standard_normal((n_text, 8)).astype(np.float32)),
        EmbeddingTable(rng.standard_normal((n_items, 4)).astype(np.float32)),
        ProjectionHead(
            rng.standard_normal((8, 4)).astype(np.float32), np.zeros(8, dtype=np.float32)
        ),
        EmbeddingTable(rng.standard_normal((n_clusters, 8)).astype(np.float32)),
    )
    cmap = ClusterMap(n_text, np.arange(n_items) % n_clusters, n_clusters)
    q = rng.standard_normal(8)

    full_counter = CostCounter()
    nll_and_grad_oracle(q, n_text + 5, tables, None, mode="full", counter=full_counter)
    two_counter = CostCounter()
    nll_and_grad_oracle(q, n_text + 5, tables, cmap, mode="twolevel", counter=two_counter)

    assert full_counter.dots == 11_000
    assert two_counter.dots == (n_text + n_clusters) + 100
    assert two_counter.dots <= 1300
    assert full_counter.dots / two_counter.dots >= 5
    assert "dots" in two_counter.to_json()


def test_two_level_gradient_sparsity():
    tables, cmap, rng = random_model(6, 20, 5, 4, 4, seed=8)
    q = rng.standard_normal(5)
    target_item = 7
    _, _, grads = nll_and_grad_oracle(q, 6 + target_item, tables, cmap, mode="twolevel")
    target_cluster = cmap.item_assignment[target_item]
    members = cmap.item_members(int(target_cluster))
    # Only the target cluster's projected rows receive gradient, each of them some.
    assert not grads.item_clusters
    assert np.array_equal(touched_item_rows(grads.finalize(tables)["item_raw"]), members)
    ((rows, d_proj),) = grads.item_rows
    assert np.array_equal(rows, members)
    assert np.all(np.any(d_proj != 0.0, axis=1))
    # Every centroid (text rows included) sees level-1 gradient.
    assert np.all(np.any(grads.d_centroids != 0.0, axis=1))
    assert np.all(np.any(grads.d_text != 0.0, axis=1))


def test_text_centroid_aliasing_shares_parameter():
    # The first-level "centroid" of a text singleton is the text row itself:
    # perturbing the text table moves both the cluster logit and the token logit.
    tables, cmap, rng = random_model(5, 8, 4, 3, 2, seed=12)
    q = rng.standard_normal(4)
    before = cluster_logits(q, tables)[1], full_logits(q, tables)[1]
    with tables.writing() as arrays:
        arrays["text"][1] += 0.5
    moved = cluster_logits(q, tables)[1] - before[0], full_logits(q, tables)[1] - before[1]
    assert moved[0] != 0.0 and moved[1] != 0.0
    assert moved[0] == pytest.approx(moved[1], rel=1e-12)


@pytest.mark.parametrize("mode", ["full", "twolevel"])
def test_head_gradients_match_finite_differences(mode):
    worst = 0.0
    for seed in range(6):
        tables, cmap, rng = random_model(5, 9, 4, 3, 3, seed=seed)
        q = rng.standard_normal(4)
        target = int(rng.integers(0, 14))
        arrays = param_arrays(tables)

        def loss_fn():
            loss, _, _ = nll_and_grad_oracle(q, target, tables, cmap, mode=mode)
            return loss

        numeric = fd_gradient(loss_fn, tables, arrays, eps=1e-5)
        _, _, grads = nll_and_grad_oracle(q, target, tables, cmap, mode=mode)
        analytic = flatten(grads.finalize(tables))
        worst = max(worst, max_rel_error(analytic, numeric))
    assert worst < 1e-4


def test_gradient_of_query_matches_finite_differences():
    tables, cmap, rng = random_model(5, 9, 4, 3, 3, seed=42)
    q = rng.standard_normal(4)
    target = 11
    _, d_query, _ = nll_and_grad_oracle(q, target, tables, cmap, mode="twolevel")
    eps = 1e-6
    numeric = np.zeros(4)
    for i in range(4):
        up, down = q.copy(), q.copy()
        up[i] += eps
        down[i] -= eps
        lu, _, _ = nll_and_grad_oracle(up, target, tables, cmap, mode="twolevel")
        ld, _, _ = nll_and_grad_oracle(down, target, tables, cmap, mode="twolevel")
        numeric[i] = (lu - ld) / (2 * eps)
    assert max_rel_error(d_query, numeric) < 1e-4
