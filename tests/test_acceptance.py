"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The end-to-end training criterion (7) is the slow one (about 30 s);
everything else finishes in seconds.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    fd_gradient,
    flatten,
    max_rel_error,
    nll_and_grad_oracle,
    oracle_ranks,
    param_arrays,
    random_encoder,
    random_model,
)
from hsrec.catalog import build_dataset, ingest_jsonl
from hsrec.cli import main as cli_main
from hsrec.cluster import ClusterMap
from hsrec.encoder import encode_backward, encode_batch
from hsrec.evaluate import evaluate, metrics_from_ranks, popularity_baseline, report_csv_row
from hsrec.inference import topk_structure
from hsrec.latency import (
    MISTRAL_7B,
    PALM,
    REFERENCE_SPECS,
    DeploymentProfile,
    EncodingSpec,
    speedup,
    speedup_bounds,
    total_latency,
)
from hsrec.softmax import CostCounter, nll_and_grad, score_all
from hsrec.synth import SynthSpec, generate, write_jsonl
from hsrec.tables import GradBuffer, item_parameter_count
from hsrec.trainer import CLUSTERINGS, TrainConfig, train


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - start:.1f}s]")


def test_c01_latency_headline_numbers():
    with criterion(1, "latency headline numbers"):
        start = time.time()
        m_single = REFERENCE_SPECS["mistral7b"]["id"]
        m_title = REFERENCE_SPECS["mistral7b"]["title"]
        p_single = REFERENCE_SPECS["palm"]["id"]
        p_title = REFERENCE_SPECS["palm"]["title"]
        assert total_latency(MISTRAL_7B, m_single) == 55.0
        assert total_latency(MISTRAL_7B, m_title) == 475.0
        assert total_latency(PALM, p_single) == 68.0
        assert total_latency(PALM, p_title) == 676.0
        assert abs(speedup(MISTRAL_7B, m_title, m_single) - 8.6) < 0.05
        assert abs(speedup(PALM, p_title, p_single) - 9.9) < 0.05
        assert time.time() - start < 1.0


def test_c02_speedup_bounds_sweep():
    with criterion(2, "speedup bounds over 10,000 random profiles"):
        start = time.time()
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(10_000):
            m = int(rng.integers(2, 64))
            h = int(rng.integers(1, 500))
            const = int(rng.integers(0, 300))
            multi = EncodingSpec(m, h, const)
            single = EncodingSpec(1, h, const)
            lower, upper = speedup_bounds(multi, single)
            profile = DeploymentProfile(
                "r",
                decode_ms=float(rng.uniform(1e-3, 200.0)),
                prefill_slope_ms=float(rng.uniform(0.0, 20.0)),
            )
            s = speedup(profile, multi, single)
            if not (lower - 1e-9 <= s <= upper + 1e-9):
                violations += 1
        assert violations == 0
        assert time.time() - start < 10.0


def test_c03_two_level_normalization():
    with criterion(3, "two-level normalization at |V|=1k, |I|=10k"):
        worst = 0.0
        for seed in range(100):
            tables, cmap, rng = random_model(
                1000, 10_000, dim=16, item_dim=8, n_clusters=100, seed=seed, dtype=np.float64
            )
            query = rng.standard_normal(16)
            total = np.exp(score_all(query, tables, cmap, mode="twolevel")).sum()
            worst = max(worst, abs(total - 1.0))
        print(f"  worst |sum - 1| = {worst:.2e}")
        assert worst <= 1e-9


def test_c04_composed_gradient_oracle():
    with criterion(4, "composed encoder+projection+head gradient vs FD"):
        worst = 0.0
        for seed in range(20):
            tables, cmap, rng = random_model(5, 9, 4, 3, 3, seed=seed)
            enc = random_encoder(4, rng)
            seq = [int(rng.integers(0, 14)) for _ in range(5)]
            target = int(rng.integers(0, 14))
            arrays = param_arrays(tables, enc)

            # The functions a training step runs, at a batch of one.
            def loss_fn():
                queries, _ = encode_batch(seq, [len(seq)], tables, enc)
                losses, _, _ = nll_and_grad(queries, [target], tables, cmap, mode="twolevel")
                return losses[0]

            numeric = fd_gradient(loss_fn, tables, arrays, eps=1e-5)
            queries, cache = encode_batch(seq, [len(seq)], tables, enc)
            grads = GradBuffer(tables, enc)
            _, d_queries, _ = nll_and_grad(queries, [target], tables, cmap, mode="twolevel", grads=grads)
            encode_backward(cache, d_queries, tables, enc, grads)
            analytic = flatten(grads.finalize(tables))
            worst = max(worst, max_rel_error(analytic, numeric))
        print(f"  worst relative error = {worst:.2e}")
        assert worst < 1e-4


def _structure_sweep():
    """Shared by criteria 5 and 10: exactness plus pruning-bound soundness."""
    sweep_start = time.time()
    rng = np.random.default_rng(99)
    mismatches = 0
    bound_violations = 0
    big_tokens_scored = []
    big_total = 0
    n_instances = 1000
    for i in range(n_instances):
        if i < 800:
            n_text = int(rng.integers(10, 60))
            n_items = int(rng.integers(200, 600))
            n_clusters = int(rng.integers(10, 30))
            dim = 8
        else:
            n_text, n_items, n_clusters, dim = 1000, 10_000, 100, 16
        tables, cmap, inner = random_model(
            n_text, n_items, dim=dim, item_dim=8, n_clusters=n_clusters, seed=int(rng.integers(2**31))
        )
        if i >= 800:
            # Balanced clusters for the sublinearity measurement.
            cmap = ClusterMap(n_text, np.arange(n_items) % n_clusters, n_clusters)
        query = inner.standard_normal(dim)
        scores = score_all(query, tables, cmap, mode="twolevel")
        order = np.lexsort((np.arange(scores.size), -scores))
        for k in (1, 5, 10, 100):
            structured, stats = topk_structure(query, k, tables, cmap)
            expect = order[: min(k, scores.size)]
            if not np.array_equal(structured.ordinals, expect):
                mismatches += 1
            if not np.array_equal(scores[expect], structured.scores):
                mismatches += 1
            if stats.max_pruned_logprob is not None:
                if stats.max_pruned_logprob > structured.scores[-1]:
                    bound_violations += 1
            if i >= 800 and k == 10:
                big_tokens_scored.append(stats.tokens_scored)
                big_total = n_text + n_items
    elapsed = time.time() - sweep_start
    return mismatches, bound_violations, big_tokens_scored, big_total, n_instances, elapsed


@pytest.fixture(scope="module")
def structure_sweep():
    return _structure_sweep()


def test_c05_structure_exactness(structure_sweep):
    with criterion(5, "structure search == exact top-k on 1,000 instances"):
        mismatches, _, tokens_scored, total, n, elapsed = structure_sweep
        mean_scored = float(np.mean(tokens_scored))
        print(f"  instances={n}, K in {{1,5,10,100}}, mismatches={mismatches}, sweep={elapsed:.1f}s")
        print(f"  mean tokens scored at |V|+|I|=11,000: {mean_scored:.0f}")
        assert mismatches == 0
        assert elapsed < 120.0
        # Sublinearity on the balanced 10k-item instances (measured, logged).
        assert mean_scored < 0.5 * total


def test_c06_training_cost_sublinearity():
    with criterion(6, "two-level training cost vs full softmax"):
        n_text, n_items, n_clusters = 1000, 10_000, 100
        tables, _, rng = random_model(
            n_text, n_items, dim=16, item_dim=8, n_clusters=n_clusters, seed=0
        )
        cmap = ClusterMap(n_text, np.arange(n_items) % n_clusters, n_clusters)
        full_dots, two_dots = [], []
        for _ in range(10):
            query = rng.standard_normal(16)
            target = int(rng.integers(0, n_text + n_items))
            c_full, c_two = CostCounter(), CostCounter()
            nll_and_grad_oracle(query, target, tables, None, mode="full", counter=c_full)
            nll_and_grad_oracle(query, target, tables, cmap, mode="twolevel", counter=c_two)
            full_dots.append(c_full.dots)
            two_dots.append(c_two.dots)
        print(f"  per-example dots: full={max(full_dots)}, two-level={max(two_dots)}")
        assert max(full_dots) == 11_000
        assert max(two_dots) <= 1300
        assert min(full_dots) / max(two_dots) >= 5.0


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-synth")
    spec = SynthSpec(
        n_users=1000,
        n_items=200,
        n_latent_groups=10,
        history_len_range=(5, 15),
        group_stickiness=0.8,
        seed=0,
    )
    path = out / "interactions.jsonl"
    write_jsonl(generate(spec), path)
    return build_dataset(ingest_jsonl(path), vocab_size=8192, name="synth"), path


def test_c07_end_to_end_quality(synth_corpus):
    with criterion(7, "trained quality vs popularity; full vs two-level parity"):
        start = time.time()
        data, _ = synth_corpus
        # Oracle first: the no-model popularity baseline.
        baseline = popularity_baseline(data).recall[10]
        print(f"  popularity recall@10 = {baseline:.4f}")

        recalls = {}
        for mode in ("full", "twolevel"):
            config = TrainConfig(
                max_steps=2500,
                batch_size=64,
                learning_rate=1.0,
                seed=0,
                softmax_mode=mode,
                eval_every=0,
            )
            result = train(data, config, dim=64, item_dim=512, clustering="kmeans")
            engine = "structure" if mode == "twolevel" else "full"
            recalls[mode] = evaluate(result.snapshot, data, engine=engine).recall[10]
            print(f"  {mode} test recall@10 = {recalls[mode]:.4f}")

        assert recalls["twolevel"] >= 5.0 * baseline
        relative_gap = abs(recalls["full"] - recalls["twolevel"]) / recalls["full"]
        print(f"  full-vs-two-level relative gap = {relative_gap:.3f}")
        assert relative_gap <= 0.15
        assert time.time() - start < 600.0


def test_c08_clustering_ablation_harness(tmp_path):
    with criterion(8, "clustering ablation: 3 methods x 3 engines, each row against the per-user oracle"):
        spec = SynthSpec(
            n_users=200, n_items=36, n_latent_groups=6, history_len_range=(4, 9),
            group_stickiness=0.8, seed=1,
        )
        corpus = tmp_path / "interactions.jsonl"
        write_jsonl(generate(spec), corpus)
        code = cli_main(
            [
                "eval", "--data", str(corpus), "--clusters", "all", "--steps", "80",
                "--batch-size", "16", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "ablation.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        engines = ("structure", "ann", "full")
        assert [(r["clustering"], r["engine"]) for r in rows] == [(c, e) for c in CLUSTERINGS for e in engines]
        # Each method's model again, through the library with the ablation's
        # settings; every row holds the metrics of the per-user oracle's ranks.
        data = build_dataset(ingest_jsonl(corpus), vocab_size=8192, name="interactions")
        config = TrainConfig(batch_size=16, max_steps=80)
        for clustering in CLUSTERINGS:
            snapshot = train(data, config, clustering=clustering).snapshot
            for engine in engines:
                ranks = oracle_ranks(snapshot, data, engine, data.test_examples, exclude_history=False)
                want = report_csv_row(data.name, engine, clustering, metrics_from_ranks(ranks))
                assert rows.pop(0) == {key: str(value) for key, value in want.items()}, (clustering, engine)
        print(f"  {len(CLUSTERINGS) * len(engines)} ablation rows equal the oracle's")


def test_c09_storage_accounting():
    with criterion(9, "item parameter count at |I|=1e6, k=500"):
        assert item_parameter_count(1_000_000, 500) == 5.0e8


def test_c10_pruning_bound_soundness(structure_sweep):
    with criterion(10, "pruned-cluster bound <= returned K-th probability"):
        _, bound_violations, _, _, n, _ = structure_sweep
        print(f"  queries checked = {n * 4}, violations = {bound_violations}")
        assert bound_violations == 0
