import copy
import dataclasses
import importlib

import numpy as np
import pytest

from helpers import synth_dataset
from hsrec.cluster import ClusterMap
from hsrec.encoder import EncoderParams, encode
from hsrec.evaluate import (
    EVAL_BLOCK,
    evaluate,
    metrics_from_ranks,
    popularity_baseline,
    rank_rows,
    report_csv_row,
    target_ranks,
)
from hsrec.exceptions import TrainingDivergedError
from hsrec.inference import AdditiveIndex, ann_item_scores, build_additive_index, topk_items
from hsrec.render import render_id_only
from hsrec.softmax import score_all
from hsrec.tables import EmbeddingTable, ModelTables, ProjectionHead
from hsrec.trainer import TrainConfig, init_model, train

# The package re-exports a function under this name.
evaluate_module = importlib.import_module("hsrec.evaluate")
inference_module = importlib.import_module("hsrec.inference")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data, _ = synth_dataset(tmp_path_factory.mktemp("eval"), n_users=70, n_items=18, n_groups=3, seed=3)
    config = TrainConfig(max_steps=60, batch_size=8, eval_every=0, seed=0, softmax_mode="twolevel")
    result = train(data, config, dim=8, item_dim=6, clustering="kmeans")
    return data, result.snapshot


def test_perfect_model_metrics_all_one():
    report = metrics_from_ranks([1] * 25)
    assert report.recall[1] == 1.0
    assert report.recall[10] == 1.0
    assert report.ndcg10 == 1.0
    assert report.mrr == 1.0


def test_metric_invariants_random_ranks():
    rng = np.random.default_rng(0)
    report = metrics_from_ranks(rng.integers(1, 100, size=500))
    assert report.recall[1] <= report.recall[10]
    assert report.recall[1] <= report.mrr <= 1.0
    assert report.ndcg10 <= 1.0


def test_ndcg_and_mrr_formulas():
    # rank 1 -> ndcg 1; rank 3 -> 1/log2(4); rank 11 -> ndcg 0 but mrr 1/11.
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
    sigma = np.sqrt(expected * (1 - expected) / n_users)
    assert abs(hits / n_users - expected) <= 4 * sigma


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


def test_exclude_history_changes_nothing_for_unseen_targets(trained):
    data, snapshot = trained
    with_hist = evaluate(snapshot, data, engine="structure", exclude_history=False)
    without = evaluate(snapshot, data, engine="structure", exclude_history=True)
    # Excluding history can only improve or preserve the target's rank.
    assert without.mrr >= with_hist.mrr - 1e-12


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


def _tied(snapshot):
    # Zero item rows, head bias and centroids: every ANN score is exactly 0,
    # and two-level scores tie inside each cluster and across clusters of one
    # size, whatever order a product sums in.  (Equal non-zero rows are not
    # enough: a one-query product can round its tail rows differently.)
    tied = copy.deepcopy(snapshot)
    with tied.tables.writing() as arrays:  # drops the cached projected rows
        arrays["item_raw"][:] = 0.0
        arrays["proj_bias"][:] = 0.0
        arrays["centroids"][:] = 0.0
    return tied


def _tied_singletons(snapshot):
    # Every item its own cluster, all tied: each cluster's log P(cluster | H)
    # equals the target's log-probability, so the structure engine must
    # score every cluster to break the ties by index.
    tied = _tied(snapshot)
    n_text, n_items, dim = tied.tables.n_text, tied.tables.n_items, tied.tables.dim
    tied.cluster_map = ClusterMap(n_text, np.arange(n_items), n_items)
    t = tied.tables
    centroids = EmbeddingTable(np.zeros((n_items, dim), dtype=t.text.data.dtype))
    tied.tables = ModelTables(t.text, t.item_raw, t.projection, centroids)
    return tied


def _oracle_ranks(snapshot, data, engine, examples, exclude_history):
    """Per user: encode, score every item with the single-query scorers, rank."""
    tables = snapshot.tables
    mode = snapshot.config.get("softmax_mode", "twolevel")
    index = build_additive_index(tables, snapshot.cluster_map) if engine == "ann" else None
    ranks = []
    for e in examples:
        query, _ = encode(render_id_only(e, data), tables, snapshot.encoder)
        if engine == "ann":
            scores = ann_item_scores(query, index, tables)
        else:
            cmap = snapshot.cluster_map if mode == "twolevel" else None
            scores = score_all(query, tables, cmap, mode=mode)[tables.n_text :]
        exclude = [set(e.history)] if exclude_history else None
        ranks.append(int(rank_rows(scores[None, :], [e.target], exclude)[0]))
    return ranks


@pytest.mark.parametrize("engine", ["full", "structure", "ann"])
@pytest.mark.parametrize("model", ["float32", "float64", "tied", "tied_singletons"])
def test_batched_ranks_equal_per_user_oracle(trained, engine, model):
    data, snapshot = trained
    make = {"float32": lambda s: s, "float64": _as_float64, "tied": _tied, "tied_singletons": _tied_singletons}
    snapshot = make[model](snapshot)
    # More users than one block, so the last block is a partial one.
    examples = (data.test_examples * (2 * EVAL_BLOCK // len(data.test_examples) + 1))[: 2 * EVAL_BLOCK + 7]
    for exclude_history in (False, True):
        want = _oracle_ranks(snapshot, data, engine, examples, exclude_history)
        got = target_ranks(snapshot, data, engine, examples, exclude_history)
        assert got.tolist() == want, exclude_history
        # B = 1: every user alone in its block.
        alone = [int(target_ranks(snapshot, data, engine, [e], exclude_history)[0]) for e in examples[:20]]
        assert alone == want[:20], exclude_history
    if model.startswith("tied"):
        query, _ = encode(render_id_only(examples[0], data), snapshot.tables, snapshot.encoder)
        scores = score_all(query, snapshot.tables, snapshot.cluster_map)[snapshot.tables.n_text :]
        assert np.unique(scores).size < scores.size


def test_single_query_ann_ties_break_by_ordinal(tmp_path):
    # 18 equal non-zero 64-wide index rows in one cluster: raw rows zero, so
    # every projected row is exactly the head bias.  A GEMV can round equal
    # rows differently by where they sit; the single-query ANN scores must tie
    # exactly, so that topk_items ranks the tied items by ordinal, as the
    # block ranks do.
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
    index = build_additive_index(tables, snapshot.cluster_map)
    examples = [dataclasses.replace(e, target=j % 18) for j, e in enumerate(data.test_examples[:24])]
    single = []
    for e in examples:
        query, _ = encode(render_id_only(e, data), tables, snapshot.encoder)
        assert np.unique(ann_item_scores(query, index, tables)).size == 1
        top = topk_items(query, 18, tables, snapshot.cluster_map, snapshot.space, engine="ann", index=index)
        single.append(int(np.flatnonzero(top.ordinals == tables.n_text + e.target)[0]) + 1)
    assert single == [e.target + 1 for e in examples]
    assert target_ranks(snapshot, data, "ann", examples).tolist() == single


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
        assert target_ranks(snapshot, data, "ann", examples).tolist() == _oracle_ranks(
            snapshot, data, "ann", examples, False
        )
        assert built == list(range(first, first + step + 1))  # one build per table version
        with tables.writing() as arrays:
            arrays["centroids"][0] *= 0.5


@pytest.mark.parametrize("engine", ["full", "structure", "ann"])
def test_block_boundaries_do_not_change_ranks(trained, engine, monkeypatch):
    data, snapshot = trained
    examples = data.test_examples
    want = _oracle_ranks(snapshot, data, engine, examples, False)
    for block in (1, 5, 7, len(examples)):
        monkeypatch.setattr(evaluate_module, "EVAL_BLOCK", block)
        assert target_ranks(snapshot, data, engine, examples).tolist() == want, block


def test_full_softmax_snapshot_ranks_equal_oracle(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=12, n_groups=3, seed=5)
    config = TrainConfig(max_steps=20, batch_size=4, eval_every=0, seed=0, softmax_mode="full")
    snapshot = train(data, config, dim=8, item_dim=6, clustering="random").snapshot
    for exclude_history in (False, True):
        want = _oracle_ranks(snapshot, data, "full", data.test_examples, exclude_history)
        assert target_ranks(snapshot, data, "full", exclude_history=exclude_history).tolist() == want


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
    assert rank_rows(scores, targets, exclude).tolist() == want
    bad = scores.copy()
    bad[3, targets[3]] = np.nan
    with pytest.raises(TrainingDivergedError, match="diverged"):
        rank_rows(bad, targets)
