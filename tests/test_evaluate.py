import copy

import numpy as np
import pytest

from helpers import synth_dataset
from hsrec.evaluate import (
    MetricReport,
    evaluate,
    metrics_from_ranks,
    popularity_baseline,
    rank_from_scores,
    report_csv_row,
)
from hsrec.exceptions import TrainingDivergedError
from hsrec.trainer import TrainConfig, init_model, train


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
    hits = 0
    for _ in range(n_users):
        scores = rng.standard_normal(n_items)
        target = int(rng.integers(n_items))
        hits += rank_from_scores(scores, target) <= 10
    expected = 10.0 / n_items
    sigma = np.sqrt(expected * (1 - expected) / n_users)
    assert abs(hits / n_users - expected) <= 4 * sigma


def test_rank_from_scores_tie_break():
    scores = np.array([1.0, 2.0, 2.0, 0.5])
    assert rank_from_scores(scores, 1) == 1  # tied at top, lower index wins
    assert rank_from_scores(scores, 2) == 2
    assert rank_from_scores(scores, 0) == 3
    assert rank_from_scores(scores, 3) == 4


def test_rank_excludes_history_but_never_target():
    scores = np.array([5.0, 4.0, 3.0])
    assert rank_from_scores(scores, 2, exclude={0, 1}) == 1
    assert rank_from_scores(scores, 2, exclude={2}) == 3


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
    diverged.tables.text.data[:] = np.nan
    with pytest.raises(TrainingDivergedError, match="diverged"):
        evaluate(diverged, data, engine=engine)


def test_rank_from_scores_rejects_non_finite_target():
    scores = np.array([1.0, np.nan, -np.inf])
    assert rank_from_scores(scores, 0) == 1
    for target in (1, 2):
        with pytest.raises(TrainingDivergedError):
            rank_from_scores(scores, target)


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
