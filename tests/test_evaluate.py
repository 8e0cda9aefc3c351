import copy
import dataclasses
import importlib

import numpy as np
import pytest

from helpers import item_log_probs_batch, oracle_ranks, synth_dataset, tied_items
from hsrec.cluster import ClusterMap
from hsrec.encoder import EncoderParams, encode, encode_batch
from hsrec.evaluate import (
    ENGINES,
    EVAL_BLOCK,
    MetricReport,
    evaluate,
    item_score_blocks,
    metrics_from_ranks,
    popularity_baseline,
    rank_rows,
    report_csv_row,
    target_ranks,
)
from hsrec.exceptions import TrainingDivergedError
from hsrec.inference import AdditiveIndex, ann_item_scores, build_additive_index, topk_items
from hsrec.render import render_id_only, render_id_only_batch
from hsrec.softmax import _cluster_rank_scores, item_rank_scores, score_all
from hsrec.tables import EmbeddingTable, ModelTables, ProjectionHead
from hsrec.trainer import SequenceRecommender, TrainConfig, init_model, train

# The package re-exports a function under this name.
evaluate_module = importlib.import_module("hsrec.evaluate")
inference_module = importlib.import_module("hsrec.inference")
softmax_module = importlib.import_module("hsrec.softmax")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data, _ = synth_dataset(tmp_path_factory.mktemp("eval"), n_users=70, n_items=18, n_groups=3, seed=3)
    config = TrainConfig(max_steps=60, batch_size=8, eval_every=0, seed=0, softmax_mode="twolevel")
    result = train(data, config, dim=8, item_dim=6, clustering="kmeans")
    return data, result.snapshot


def test_perfect_model_metrics_all_one():
    assert metrics_from_ranks([1] * 25) == MetricReport(25, {1: 1.0, 10: 1.0}, 1.0, 1.0)


def test_metric_invariants_random_ranks():
    report = metrics_from_ranks(np.random.default_rng(0).integers(1, 100, size=500))
    assert report.recall[1] <= report.recall[10]
    assert report.recall[1] <= report.mrr <= 1.0
    assert report.ndcg10 <= 1.0


def test_ndcg_and_mrr_formulas():
    # rank 3 -> ndcg 1/log2(4); rank 11 -> ndcg 0 but mrr 1/11.
    report = metrics_from_ranks([3])
    assert report.ndcg10 == pytest.approx(1.0 / np.log2(4.0))
    report = metrics_from_ranks([11])
    assert report.ndcg10 == 0.0
    assert report.mrr == pytest.approx(1.0 / 11.0)


def test_random_scorer_expected_recall():
    # Expected Recall@10 for a uniform random scorer over n items is 10/n.
    rng = np.random.default_rng(1)
    n_items, n_users = 50, 4000
    scores, targets = np.empty((n_users, n_items)), np.empty(n_users, dtype=np.int64)
    for user in range(n_users):
        scores[user] = rng.standard_normal(n_items)
        targets[user] = rng.integers(n_items)
    hits = np.count_nonzero(rank_rows(scores, targets) <= 10)
    expected = 10.0 / n_items
    assert abs(hits / n_users - expected) <= 4 * np.sqrt(expected * (1 - expected) / n_users)


def test_rank_rows_tie_break():
    # One row per target over the same scores: tied at top, lower index wins.
    scores = np.tile([1.0, 2.0, 2.0, 0.5], (4, 1))
    assert rank_rows(scores, [1, 2, 0, 3]).tolist() == [1, 2, 3, 4]


def test_rank_excludes_history_but_never_target():
    scores = np.tile([5.0, 4.0, 3.0], (2, 1))
    assert rank_rows(scores, [2, 2], [{0, 1}, {2}]).tolist() == [1, 3]


def test_structure_engine_equals_enumeration_bitwise(trained):
    data, snapshot = trained
    for exclude_history in (False, True):
        structure = evaluate(snapshot, data, engine="structure", exclude_history=exclude_history)
        enumerated = evaluate(snapshot, data, engine="full", exclude_history=exclude_history)
        assert structure == enumerated, exclude_history  # bit-for-bit equal reports


def test_ann_engine_runs_and_reports(trained):
    data, snapshot = trained
    report = evaluate(snapshot, data, engine="ann")
    assert 0.0 <= report.recall[10] <= 1.0
    assert report.n_users == len(data.test_examples)


@pytest.mark.parametrize("engine", ["full", "structure", "ann"])
def test_nan_model_raises_instead_of_ranking_first(trained, engine):
    # No score compares greater than a NaN target score, so a diverged model
    # would read as perfect if the rank were taken at face value.
    data, snapshot = trained
    diverged = copy.deepcopy(snapshot)
    with diverged.tables.writing() as arrays:
        arrays["text"][:] = np.nan
    with pytest.raises(TrainingDivergedError, match="diverged"):
        evaluate(diverged, data, engine=engine)


def test_rank_rows_rejects_non_finite_target():
    scores = np.array([[1.0, np.nan, -np.inf]])
    assert rank_rows(scores, [0]).tolist() == [1]
    for target in (1, 2):
        with pytest.raises(TrainingDivergedError):
            rank_rows(scores, [target])


def test_engine_mode_consistency_enforced(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=12, n_groups=3, seed=5)
    config = TrainConfig(max_steps=5, batch_size=4, eval_every=0, seed=0, softmax_mode="full")
    result = train(data, config, dim=8, item_dim=6, clustering="random")
    with pytest.raises(ValueError, match="two-level"):
        evaluate(result.snapshot, data, engine="structure")
    report = evaluate(result.snapshot, data, engine="full")
    assert report.n_users == len(data.test_examples)


def test_popularity_baseline_hand_computed(tmp_path):
    import json

    from hsrec.catalog import build_dataset, ingest_jsonl

    rows = []
    # Three users, all interacting mostly with item "hot"; targets chosen so
    # the popularity rank of each test target is hand-checkable.
    events = {
        "u1": ["hot", "hot", "cold", "hot"],
        "u2": ["hot", "mild", "hot", "hot"],
        "u3": ["mild", "hot", "mild", "cold"],
    }
    for user, items in events.items():
        for t, item in enumerate(items):
            rows.append({"user": user, "item": item, "timestamp": t})
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows))
    data = build_dataset(ingest_jsonl(path), vocab_size=64)
    # Train events: u1 [hot hot], u2 [hot mild], u3 [mild hot].
    # Counts: hot=4, mild=2, cold=0 -> popularity order hot, mild, cold.
    report = popularity_baseline(data, ks=(1, 2))
    # Test targets: u1 hot (rank 1), u2 hot (rank 1), u3 cold (rank 3).
    assert report.recall[1] == pytest.approx(2 / 3)
    assert report.mrr == pytest.approx((1 + 1 + 1 / 3) / 3)


def test_report_serialization(trained):
    data, snapshot = trained
    report = evaluate(snapshot, data, engine="structure")
    row = report_csv_row("synth", "structure", "kmeans", report)
    assert row["dataset"] == "synth"
    assert "recall@10" in row
    assert "mrr" in report.to_json()


def _as_float64(snapshot):
    t, enc = snapshot.tables, snapshot.encoder
    tables = ModelTables(
        EmbeddingTable(t.text.data.astype(np.float64)),
        EmbeddingTable(t.item_raw.data.astype(np.float64)),
        ProjectionHead(t.projection.weight.astype(np.float64), t.projection.bias.astype(np.float64)),
        EmbeddingTable(t.centroids.data.astype(np.float64)),
    )
    encoder = EncoderParams(*(a.astype(np.float64) for a in enc.parameter_arrays().values()))
    return dataclasses.replace(snapshot, tables=tables, encoder=encoder)


def _tied(snapshot, singletons=False):
    # Zeroed item side (helpers.tied_items), whatever order a product sums in.
    # (Equal non-zero rows are not enough: a one-query product can round its
    # tail rows differently.)  With singletons, every item is its own cluster,
    # all tied: each cluster's log P(cluster | H) equals the target's
    # log-probability, so the structure engine must score every cluster to
    # break the ties by index.
    tied = copy.deepcopy(snapshot)
    if singletons:
        n_text, n_items = tied.tables.n_text, tied.tables.n_items
        tied.cluster_map = ClusterMap(n_text, np.arange(n_items), n_items)
    tied.tables = tied_items(tied.tables, tied.cluster_map)
    return tied


@pytest.mark.parametrize("engine", ["full", "structure", "ann"])
@pytest.mark.parametrize("model", ["float32", "float64", "tied", "tied_singletons"])
def test_batched_ranks_equal_per_user_oracle(trained, engine, model):
    data, snapshot = trained
    make = {"float32": lambda s: s, "float64": _as_float64, "tied": _tied, "tied_singletons": lambda s: _tied(s, True)}
    snapshot = make[model](snapshot)
    # More users than one block, so the last block is a partial one.
    examples = (data.test_examples * (2 * EVAL_BLOCK // len(data.test_examples) + 1))[: 2 * EVAL_BLOCK + 7]
    ranks = {}
    for exclude_history in (False, True):
        want = oracle_ranks(snapshot, data, engine, examples, exclude_history)
        ranks[exclude_history] = target_ranks(snapshot, data, engine, examples, exclude_history)
        assert ranks[exclude_history].tolist() == want, exclude_history
        # B = 1: every user alone in its block.
        alone = [int(target_ranks(snapshot, data, engine, [e], exclude_history)[0]) for e in examples[:20]]
        assert alone == want[:20], exclude_history
    # Excluding the history only drops competitors: no user's rank rises.
    assert (ranks[True] <= ranks[False]).all()
    if model.startswith("tied"):
        query, _ = encode(render_id_only(examples[0], data), snapshot.tables, snapshot.encoder)
        scores = score_all(query, snapshot.tables, snapshot.cluster_map)[snapshot.tables.n_text :]
        assert np.unique(scores).size < scores.size


def _equal_item_rows(tmp_path):
    """A snapshot with 18 equal non-zero 64-wide item rows in one cluster (raw
    rows zero, so every projected row is exactly the head bias), and 24 test
    examples whose targets cycle through the items.  A GEMV can round equal
    rows differently by where they sit; single-query scores must tie exactly,
    so that ``topk_items`` ranks the tied items by ordinal, as the block
    ranks do."""
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=18, n_groups=3, seed=5)
    config = TrainConfig(seed=0, softmax_mode="twolevel")
    snapshot = init_model(data, config, dim=64, item_dim=6, clustering="random")
    tables, rng = snapshot.tables, np.random.default_rng(0)
    snapshot.cluster_map = ClusterMap(tables.n_text, np.zeros(18), 1)
    centroids = EmbeddingTable(rng.standard_normal((1, 64)).astype(tables.text.data.dtype))
    tables = snapshot.tables = ModelTables(tables.text, tables.item_raw, tables.projection, centroids)
    with tables.writing() as arrays:
        arrays["item_raw"][:] = 0.0
        arrays["proj_bias"][:] = rng.standard_normal(64)
    examples = [dataclasses.replace(e, target=j % 18) for j, e in enumerate(data.test_examples[:24])]
    return data, snapshot, examples


def _assert_single_query_ties(data, snapshot, examples, engine, index=None):
    tables, cmap, single = snapshot.tables, snapshot.cluster_map, []
    for e in examples:
        query, _ = encode(render_id_only(e, data), tables, snapshot.encoder)
        if engine == "ann":
            scores = ann_item_scores(query, index, tables)
        else:
            scores = item_rank_scores(query, tables, cmap)
        assert np.unique(scores).size == 1
        top = topk_items(query, 18, tables, cmap, snapshot.space, engine=engine, index=index)
        single.append(int(np.flatnonzero(top.ordinals == tables.n_text + e.target)[0]) + 1)
    assert single == [e.target + 1 for e in examples]
    assert target_ranks(snapshot, data, engine, examples).tolist() == single


def test_single_query_ann_ties_break_by_ordinal(tmp_path):
    data, snapshot, examples = _equal_item_rows(tmp_path)
    index = build_additive_index(snapshot.tables, snapshot.cluster_map)
    _assert_single_query_ties(data, snapshot, examples, "ann", index)


def test_single_query_structure_ties_break_by_ordinal(tmp_path):
    _assert_single_query_ties(*_equal_item_rows(tmp_path), "structure")


def test_served_ann_query_and_evaluation_share_one_index(trained, monkeypatch):
    data, snapshot = trained
    snapshot = copy.deepcopy(snapshot)  # no index built yet
    built = []

    def counted(**fields):
        built.append(fields["tables_version"])
        return AdditiveIndex(**fields)

    monkeypatch.setattr(inference_module, "AdditiveIndex", counted)
    tables, cmap = snapshot.tables, snapshot.cluster_map
    examples = data.test_examples[:5]
    first = tables.version
    for step in range(2):
        query, _ = encode(render_id_only(examples[0], data), tables, snapshot.encoder)
        index = build_additive_index(tables, cmap)
        topk_items(query, 3, tables, cmap, snapshot.space, engine="ann", index=index)
        evaluate(snapshot, data, engine="ann", examples=examples)
        assert target_ranks(snapshot, data, "ann", examples).tolist() == oracle_ranks(
            snapshot, data, "ann", examples, False
        )
        assert built == list(range(first, first + step + 1))  # one build per table version
        with tables.writing() as arrays:
            arrays["centroids"][0] *= 0.5


@pytest.mark.parametrize("engine", ["full", "structure", "ann"])
def test_block_boundaries_do_not_change_ranks(trained, engine, monkeypatch):
    data, snapshot = trained
    examples = data.test_examples
    want = oracle_ranks(snapshot, data, engine, examples, False)
    for block in (1, 5, 7, len(examples)):
        monkeypatch.setattr(evaluate_module, "EVAL_BLOCK", block)
        assert target_ranks(snapshot, data, engine, examples).tolist() == want, block
        assert target_ranks(snapshot, data, engine, examples[::-1]).tolist() == want[::-1], block
    # A subset of the users ranks as they rank in the full run.
    for subset in (np.arange(0, len(examples), 3), np.random.default_rng(0).choice(len(examples), 23, replace=False)):
        got = target_ranks(snapshot, data, engine, [examples[i] for i in subset])
        assert got.tolist() == [want[i] for i in subset]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_tiles_fold_every_row_once(trained, rows, monkeypatch):
    # A test-size block is one tile.  A budget of ``rows`` rows, plus a byte
    # short of one more, folds a 64-row block in tiles of ``rows`` rows, the
    # last one partial: every row must be folded once, so the block has the
    # one-tile block's bits, and the ranks are the one-tile ranks.
    data, snapshot = trained
    examples = data.test_examples
    assert len(examples) > EVAL_BLOCK  # a full block and a partial one
    ordinals, lengths = render_id_only_batch(data, [e.history for e in examples[:EVAL_BLOCK]])
    for model in (snapshot, _as_float64(snapshot), _tied(snapshot)):
        tables, cmap = model.tables, model.cluster_map
        queries, _ = encode_batch(ordinals, lengths, tables, model.encoder)

        def outputs():
            scores = _cluster_rank_scores(queries, tables, cmap, "twolevel")
            ranks = [
                target_ranks(model, data, engine, examples, exclude_history).tolist()
                for engine in ("full", "structure")
                for exclude_history in (False, True)
            ]
            return scores, ranks

        monkeypatch.setattr(softmax_module, "FOLD_TILE_BYTES", 1 << 60)
        want_scores, want_ranks = outputs()
        row_bytes = want_scores[0].nbytes
        monkeypatch.setattr(softmax_module, "FOLD_TILE_BYTES", (rows + 1) * row_bytes - 1)
        got_scores, got_ranks = outputs()
        assert got_scores.tobytes() == want_scores.tobytes()
        assert got_ranks == want_ranks
    assert np.unique(want_scores[0]).size < want_scores.shape[1]  # the tied model's rows tie


def test_full_softmax_snapshot_ranks_equal_oracle(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=12, n_groups=3, seed=5)
    config = TrainConfig(max_steps=20, batch_size=4, eval_every=0, seed=0, softmax_mode="full")
    snapshot = train(data, config, dim=8, item_dim=6, clustering="random").snapshot
    ranks = {}
    for exclude_history in (False, True):
        want = oracle_ranks(snapshot, data, "full", data.test_examples, exclude_history)
        ranks[exclude_history] = target_ranks(snapshot, data, "full", exclude_history=exclude_history)
        assert ranks[exclude_history].tolist() == want
    assert (ranks[True] <= ranks[False]).all()


def test_rank_rows_equals_pairwise_count():
    # Integer scores tie often; exclusions never drop a row's own target.
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 4, size=(30, 12)).astype(np.float64)
    targets = rng.integers(0, 12, size=30)
    exclude = [rng.choice(12, size=rng.integers(0, 5), replace=False).tolist() for _ in range(30)]
    want = []
    for row, target, dropped in zip(scores, targets.tolist(), exclude):
        kept = [j for j in range(12) if j == target or j not in dropped]
        want.append(1 + sum(row[j] > row[target] or (row[j] == row[target] and j < target) for j in kept))
    cmap = ClusterMap(3, [2, 0, 1, 0, 2, 1, 1, 0, 2, 0, 1, 2], 3)  # columns are not in item order
    assert rank_rows(scores[:, cmap.item_order], targets, exclude, cmap).tolist() == want
    assert rank_rows(scores, targets, exclude).tolist() == want
    bad = scores.copy()
    bad[3, targets[3]] = np.nan
    with pytest.raises(TrainingDivergedError, match="diverged"):
        rank_rows(bad, targets)


@pytest.fixture(scope="module", params=["twolevel", "full"])
def fitted(request, tmp_path_factory):
    data, _ = synth_dataset(tmp_path_factory.mktemp("fit"), n_users=90, n_items=24, n_groups=3, seed=8)
    est = SequenceRecommender(dim=8, item_dim=6, max_steps=40, batch_size=8, eval_every=0, seed=0,
                              n_clusters=4, softmax_mode=request.param)
    return est.fit(data)


def _engines(snapshot):
    return ENGINES if snapshot.softmax_mode == "twolevel" else ("full",)


def test_ranks_do_not_read_text_rows_no_prompt_reads(fitted):
    # Text rows of 1e14: every log Z of the normalized form is about 1e14,
    # where a float64 spacing is 1/64, so subtracting it would merge nearby
    # items.  Rank scores read no text row that an ID-only prompt does not.
    snapshot, data = fitted.snapshot_, fitted.dataset_
    examples = data.test_examples
    histories = [[data.catalog[i].item_id for i in e.history] for e in examples]
    ordinals, _ = render_id_only_batch(data, [e.history for e in examples])
    unread = np.setdiff1d(np.arange(snapshot.tables.n_text), ordinals)
    assert unread.size > snapshot.tables.n_text // 2

    def outputs(est):
        ranks = [
            target_ranks(est.snapshot_, data, engine, examples, exclude_history).tolist()
            for engine in _engines(est.snapshot_)
            for exclude_history in (False, True)
        ]
        return ranks, est.predict(histories, k=5)

    want = outputs(fitted)
    perturbed = copy.deepcopy(fitted)
    rng = np.random.default_rng(0)
    with perturbed.snapshot_.tables.writing() as arrays:
        arrays["text"][unread] = 1e14 * rng.standard_normal((unread.size, snapshot.tables.dim))
    assert outputs(perturbed) == want


def test_item_score_blocks_are_c_ordered_float64(fitted, monkeypatch):
    # A strided (B, n_items) block makes rank_rows walk every row with a stride.
    snapshot, data = fitted.snapshot_, fitted.dataset_
    monkeypatch.setattr(evaluate_module, "EVAL_BLOCK", 16)  # full blocks and a partial one
    n_items = snapshot.tables.n_items
    histories = [e.history for e in data.test_examples]
    for engine in _engines(snapshot):
        sizes = []
        for scores, cmap in item_score_blocks(snapshot, data, histories, engine):
            sizes.append(len(scores))
            assert scores.dtype == np.float64 and scores.shape == (sizes[-1], n_items), engine
            assert scores.flags.c_contiguous, engine
            assert cmap is (None if engine == "ann" else snapshot.cluster_map), engine
        assert sizes == [min(16, len(histories) - lo) for lo in range(0, len(histories), 16)], engine


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_cross_cluster_ties_break_by_item_index(mode):
    # Item clusters 0 and 1 are one size, with equal centroids and equal
    # member rows in member order: items (0, 1), (2, 3) and (5, 4) tie
    # across the two clusters; items 6 and 7 form a third cluster.  Entries
    # are multiples of 1/4 and small, so every product is exact in any order.
    rng = np.random.default_rng(3)
    dim, n_text = 4, 5
    rows = rng.integers(-4, 5, size=(5, dim)) / 4
    item_raw = rows[[0, 0, 1, 1, 2, 2, 3, 4]]
    tables = ModelTables(
        EmbeddingTable(rng.standard_normal((n_text, dim))),
        EmbeddingTable(item_raw),
        ProjectionHead(np.eye(dim), np.zeros(dim)),
        EmbeddingTable(np.array([[0.5, -0.25, 1.0, 0.0]] * 2 + [[0.25, 0.5, -0.5, 1.0]])),
    )
    cmap = ClusterMap(n_text, [0, 1, 0, 1, 1, 0, 2, 2], 3)
    queries = rng.integers(-8, 9, size=(6, dim)) / 4
    scores = item_rank_scores(queries, tables, cmap, mode)
    oracle = item_log_probs_batch(queries, tables, cmap, mode)
    n_items = tables.n_items
    for row, want in zip(scores, oracle):
        ranks = rank_rows(np.tile(row, (n_items, 1)), np.arange(n_items))
        assert ranks.tolist() == rank_rows(np.tile(want, (n_items, 1)), np.arange(n_items)).tolist()
        for lo, hi in ((0, 1), (2, 3), (4, 5)):
            assert row[lo] == row[hi] and ranks[hi] == ranks[lo] + 1, (lo, hi)


# Columns hold items 1 3 6 | 0 4 7 | 2 5: item clusters 0, 1 and 2.
COLUMNS = ClusterMap(2, [1, 0, 2, 0, 1, 2, 0, 1], 3)
TIES = [2.0, 2.0, 1.0, 2.0, 0.0, 3.0, 2.0, -np.inf]  # items 0, 1, 3 and 6 tie, across clusters 0 and 1
# (item-order scores, target item, excluded items, rank): hand-counted.
CLUSTER_ORDER_CASES = [
    (TIES, 3, [], 4),  # tied partners 0 (later column) and 1 (earlier column) rank before it
    (TIES, 0, [], 2),  # its tied partners 1, 3 and 6 all sit at earlier columns
    (TIES, 6, [], 5),
    (TIES, 3, [5, 1], 2),  # drops the higher item and a tied one
    (TIES, 6, [0, 3], 3),  # drops two tied items; column 3 holds item 0
    (TIES, 3, [5], 3),  # column 5 holds item 7, already -inf
    (TIES, 4, [7], 7),  # no tie but its own
    ([0.0] * 8, 5, [], 6),  # one tie across the whole row; item 5 sits in the last column
    ([0.0] * 8, 1, [2, 5], 2),
    ([-np.inf, 1.0, -np.inf, 1.0, -np.inf, -np.inf, 0.0, -np.inf], 6, [], 3),  # -inf never ties a finite target
    ([-np.inf, 1.0, -np.inf, 1.0, -np.inf, -np.inf, 0.0, -np.inf], 3, [0], 2),
]


def test_cluster_ordered_rank_equals_item_order_rank():
    scores, targets, exclude, want = (list(x) for x in zip(*CLUSTER_ORDER_CASES))
    item_order = np.array(scores)
    by_cluster = item_order[:, COLUMNS.item_order]
    assert rank_rows(item_order.copy(), targets, exclude).tolist() == want
    assert rank_rows(by_cluster.copy(), targets, exclude, COLUMNS).tolist() == want
    assert rank_rows(by_cluster, targets, None, COLUMNS).tolist() == rank_rows(item_order, targets).tolist()
    # Exclusions overwrite the caller's block in place, at the dropped items' columns.
    rank_rows(by_cluster, targets, exclude, COLUMNS)
    for row, (dropped, target) in enumerate(zip(exclude, targets)):
        gone = [i for i in dropped if i != target]
        assert np.all(by_cluster[row, COLUMNS.item_position[gone]] == -np.inf), row
    for target in (7, 2):  # -inf, then NaN
        block = by_cluster[:1].copy()
        block[0, COLUMNS.item_position[2]] = np.nan
        with pytest.raises(TrainingDivergedError, match="diverged"):
            rank_rows(block, [target], None, COLUMNS)


@pytest.mark.parametrize("model", ["fitted", "tied"])
def test_cluster_ordered_blocks_rank_as_their_item_order(fitted, model, monkeypatch):
    # Each full and structure block is ranked in cluster order; taken back to
    # item order, it must rank alike, and ann blocks come in item order.
    # The tied model's item rows are zero: in full mode every item ties.
    snapshot, data = fitted.snapshot_, fitted.dataset_
    if model == "tied":
        snapshot = _tied(snapshot)
    monkeypatch.setattr(evaluate_module, "EVAL_BLOCK", 16)
    examples = data.test_examples
    for engine in _engines(snapshot):
        blocks = item_score_blocks(snapshot, data, [e.history for e in examples], engine)
        for lo, (scores, cmap) in zip(range(0, len(examples), 16), blocks):
            targets = [e.target for e in examples[lo : lo + 16]]
            exclude = [e.history for e in examples[lo : lo + 16]]
            in_items = scores if cmap is None else np.take(scores, cmap.item_position, axis=1)
            want = rank_rows(in_items.copy(), targets, exclude).tolist()
            assert rank_rows(scores, targets, exclude, cmap).tolist() == want, engine
        if model == "tied" and snapshot.softmax_mode == "full":
            assert target_ranks(snapshot, data, engine, examples).tolist() == [e.target + 1 for e in examples]


def test_three_paths_give_one_ranking(fitted):
    # One block of test histories, one query matrix Q (``encode_batch``).
    # Evaluation's ranks and predict's top-k both come from Q's block GEMM,
    # so a target ranked within k sits at its rank in predict's list, and
    # nowhere in it otherwise.  topk_items scores a row of Q with an einsum,
    # so its top-k may differ from predict's only between items whose
    # per-token oracle scores agree to rounding.
    snapshot, data = fitted.snapshot_, fitted.dataset_
    tables, cmap, n_text, k = snapshot.tables, snapshot.cluster_map, snapshot.tables.n_text, 5
    block = data.test_examples[:EVAL_BLOCK]
    top = fitted.predict([[snapshot.item_ids[i] for i in e.history] for e in block], k=k)
    top = [[data.catalog.index_of(i) for i in row] for row in top]
    for engine in [e for e in _engines(snapshot) if e != "ann"]:
        ranks = target_ranks(snapshot, data, engine, block)
        assert ranks.min() <= k < ranks.max(), engine  # both sides of the cutoff occur
        for e, rank, row in zip(block, ranks.tolist(), top):
            assert (row[rank - 1] == e.target) if rank <= k else (e.target not in row), (engine, e.user)
    if snapshot.softmax_mode != "twolevel":
        return  # topk_items ranks by the two-level head alone
    Q, _ = encode_batch(*render_id_only_batch(data, [e.history for e in block]), tables, snapshot.encoder)
    for q, row in zip(Q, top):
        got = (topk_items(q, k, tables, cmap, snapshot.space).ordinals - n_text).tolist()
        oracle = score_all(q, tables, cmap, "twolevel")[n_text:]
        for a, b in zip(got, row):
            assert a == b or np.isclose(oracle[a], oracle[b], rtol=1e-12, atol=0), (a, b)
