"""Tests of the benchmark itself: every workload at a seconds-long size, and
each output check rejecting a planted wrong output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from bench import K, Bench, run  # noqa: E402
from reference import TOL, metrics_of, rank_interval, report_error, topk_error  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from hsrec import inference, trainer  # noqa: E402
from hsrec.exceptions import StaleIndexError  # noqa: E402


def small(name: str, **changes):
    """The named workload shrunk to run in a few seconds; same code path."""
    base = dict(
        n_users=160,
        n_items=40,
        n_groups=4,
        train_steps=8,
        steps_per_round=2,
        full_every=2,
        queries_per_group=3,
        eval_users=(2, 3, 3),
        quality_users=40,
        setup_every=2,
        dim=16,
        item_dim=24,
        batch_size=16,
        popularity_check=False,
    )
    base.update(changes)
    return replace(WORKLOADS[name], **base)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_reports_every_metric(name, trace, tmp_path):
    result = run(small(name), seed=3, trace=trace, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == sum(p["attempted"] for p in result["phases"].values())
    assert all(p["attempted"] > 0 for p in result["phases"].values())
    e2e, layers = declared()
    assert sorted(result["metrics"]) == sorted(layers if trace else e2e)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_popularity_check_passes_on_a_trained_model(tmp_path):
    w = small("catalog-200", train_steps=300, learning_rate=1.0, full_every=300, popularity_check=True)
    result = run(w, seed=5, trace=False, out_dir=tmp_path)
    assert result["correct"], result["problems"]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    b = Bench(small("catalog-10k"), seed=4, out_dir=tmp_path_factory.mktemp("out"))
    b.prepare()
    b.run_rounds()
    assert b.phases["setup"].attempted == 3
    assert not b.problems
    return b


def test_swapped_top10_is_rejected(bench):
    user = bench.order[0]
    ids, query = bench._query("structure", bench._history_ids(user))
    bench._check_query("structure", user, (ids, query))
    assert not bench.problems
    scores = bench.ref.item_logprobs(bench.ref.query(bench.ref.prompt(bench.data.vocab, bench.history[user])))
    order = [bench.item_index[i] for i in ids]
    assert topk_error(order, scores, K) is None
    # Swap the best item with the worst of the ten.
    swapped = [order[-1]] + order[1:-1] + [order[0]]
    assert scores[order[0]] - scores[order[-1]] > TOL
    assert "above rank" in topk_error(swapped, scores, K)
    bench._check_query("structure", user, ([ids[-1]] + ids[1:-1] + [ids[0]], query))
    assert bench.problems
    bench.problems.clear()


def test_result_from_a_stale_projection_is_rejected(bench):
    user = bench.order[1]
    history = bench._history_ids(user)
    stale = bench._query("structure", history)
    stale_ann = bench._query("ann", history)
    index = bench.index
    bench._train_step("twolevel", bench.snap, 1000, 1.0)
    with pytest.raises(StaleIndexError):
        inference.topk_ann(np.zeros(bench.w.dim), K, index, bench.snap.tables)
    fresh = bench._query("structure", history)
    bench._check_query("structure", user, fresh)
    assert not bench.problems
    bench._check_query("structure", user, stale)
    bench._check_query("ann", user, stale_ann)
    assert len(bench.problems) >= 2
    bench.problems.clear()


def test_off_by_one_rank_is_rejected(bench):
    users = bench.order[:6]
    examples = [bench.example[u] for u in users]
    report = bench._evaluate("full", examples).to_dict()
    intervals = bench._intervals(users, "full")
    assert report_error(report, intervals) is None
    ranks = [round(1.0 / bench._evaluate("full", [ex]).mrr) for ex in examples]
    assert all(lo <= r <= hi for r, (lo, hi) in zip(ranks, intervals))
    assert report_error(dict(report, **metrics_of([r + 1 for r in ranks])), intervals) is not None
    assert any(r + 1 > hi for r, (_, hi) in zip(ranks, intervals))


def test_rank_interval_counts_near_ties_both_ways():
    scores = np.array([3.0, 2.0, 2.0 + TOL / 2, 1.0])
    assert rank_interval(scores, 1) == (2, 3)
    assert rank_interval(scores, 0) == (1, 1)
    assert rank_interval(scores, 3) == (4, 4)


def test_training_that_does_not_lower_the_loss_is_rejected(bench):
    assert all(after < before for before, after in bench.train_nll.values())
    saved = bench.train_nll
    bench.train_nll = {"twolevel": [5.0, 5.1], "full": list(saved["full"])}
    bench._check_losses()
    assert bench.problems
    bench.problems.clear()
    bench.train_nll = saved


def test_cluster_map_that_is_not_a_partition_is_rejected(bench):
    wrong = trainer.build_cluster_map(bench.data, "random", n_clusters=3, seed=0)
    snap = trainer.init_model(bench.data, bench.config("twolevel", 0, 1.0), dim=16, item_dim=24, cluster_map=wrong)
    bench._check_setup(bench.interactions, bench.data, snap)
    assert any("partition" in p for p in bench.problems)
    bench.problems.clear()


def test_operation_time_scales_by_the_probes_around_it():
    sp = Speed()
    sp.starts = [0.0, 1.0, 2.0, 3.0]
    sp.seconds = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S]
    assert sp.factor(1.0, 0.1) == 0.5  # only the probe at 1.0 lies within 0.5 s
    assert sp.factor(0.8, 1.5) == pytest.approx(1 / 3)  # probes at 1.0 and 2.0: median 3x
    assert sp.factor(9.0, 0.1) == 1.0  # none near: the last probe


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-200", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
