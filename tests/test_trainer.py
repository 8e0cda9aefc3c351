import re

import numpy as np
import pytest

import hsrec.trainer
from helpers import synth_dataset, touched_item_rows
from hsrec.catalog import build_dataset, ingest_jsonl
from hsrec.encoder import encode
from hsrec.evaluate import EVAL_BLOCK, popularity_baseline
from hsrec.exceptions import DataError, NotFittedError, TrainingDivergedError
from hsrec.inference import topk_items
from hsrec.render import render_example, render_id_only
from hsrec.softmax import score_all
from hsrec.tables import GradBuffer
from hsrec.trainer import (
    SequenceRecommender,
    TrainConfig,
    cosine_lr,
    init_model,
    train,
    validation_recall,
)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    data, _ = synth_dataset(tmp_path_factory.mktemp("synth"))
    return data


def snapshot_bytes(snapshot):
    arrays = dict(snapshot.tables.parameter_arrays())
    arrays.update(snapshot.encoder.parameter_arrays())
    return {name: arr.copy() for name, arr in arrays.items()}


def test_render_id_only_shape(small_data):
    example = small_data.train_examples[0]
    tokens = render_id_only(example, small_data)
    n_text = small_data.space.n_text
    items = [t for t in tokens if t >= n_text]
    texts = [t for t in tokens if t < n_text]
    assert len(items) == len(example.history)
    # ID-only rendering uses prompt machinery only: no metadata words at all.
    assert set(texts) <= set(small_data.vocab.prompt_token_ids)


def test_render_keep_prob_one_emits_every_field(tmp_path):
    synth_dataset(tmp_path)
    interactions = ingest_jsonl(tmp_path / "synth.jsonl")
    # Graft full metadata onto the catalog records; fields are tokenized when the dataset is built.
    for i, record in enumerate(interactions.catalog.records):
        record.brand = f"brand{i % 3}"
        record.category = "tools and stuff"
    data = build_dataset(interactions, vocab_size=512)
    rng = np.random.default_rng(0)
    example = data.train_examples[0]
    tokens = render_example(example, data, rng, id_only_fraction=0.0, metadata_keep_prob=1.0)
    marker_ids = data.vocab.field_marker_ids
    for name in ("title", "brand", "category"):
        assert tokens.count(marker_ids[name]) == len(example.history)


def test_render_deterministic_under_seed(small_data):
    example = small_data.train_examples[3]
    a = render_example(example, small_data, np.random.default_rng(7))
    b = render_example(example, small_data, np.random.default_rng(7))
    assert a == b


def test_id_only_fraction_three_sigma(small_data):
    rng = np.random.default_rng(123)
    example = small_data.train_examples[0]
    n_text = small_data.space.n_text
    prompt_only = 0
    n_draws = 10_000
    base_text = set(small_data.vocab.prompt_token_ids)
    for _ in range(n_draws):
        # keep_prob 1 means any non-ID-only render must carry metadata, so a
        # prompt-only sequence marks exactly the ID-only draws.
        tokens = render_example(
            example, small_data, rng, id_only_fraction=0.25, metadata_keep_prob=1.0
        )
        if set(t for t in tokens if t < n_text) <= base_text:
            prompt_only += 1
    p = 0.25
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert abs(prompt_only - n_draws * p) <= 3 * sigma


def test_price_renders_as_bucket_token(tmp_path):
    synth_dataset(tmp_path)
    interactions = ingest_jsonl(tmp_path / "synth.jsonl")
    for i, record in enumerate(interactions.catalog.records):
        record.price = float(1 + i)
    data = build_dataset(interactions, vocab_size=512)
    assert data.price_edges is not None
    rng = np.random.default_rng(1)
    tokens = render_example(
        data.train_examples[0], data, rng, id_only_fraction=0.0, metadata_keep_prob=1.0
    )
    assert any(t in data.vocab.price_bucket_ids for t in tokens)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1)
    assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05)
    assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("clustering", ["random", "kmeans"])
def test_init_model_projects_the_catalog_once(small_data, monkeypatch, clustering):
    calls = []
    project = hsrec.tables.project_items
    monkeypatch.setattr(hsrec.tables, "project_items", lambda *args: calls.append(1) or project(*args))
    config = TrainConfig(max_steps=0, batch_size=8, eval_every=0, seed=1)
    snapshot = init_model(small_data, config, dim=8, item_dim=6, clustering=clustering)
    assert len(calls) == 1
    projected = snapshot.tables.item_projected()
    snapshot.tables.item_rows_by_cluster(snapshot.cluster_map)
    assert len(calls) == 1  # the tables keep the projection the centroids were built from
    assert projected.tobytes() == project(snapshot.tables.item_raw, snapshot.tables.projection).tobytes()


def test_zero_learning_rate_keeps_parameters_bitwise(small_data):
    config = TrainConfig(max_steps=5, learning_rate=0.0, batch_size=8, eval_every=0, seed=1)
    snapshot = init_model(small_data, config, dim=8, item_dim=6)
    before = snapshot_bytes(snapshot)
    train(small_data, config, snapshot=snapshot)
    after = snapshot_bytes(snapshot)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_zero_steps_equals_initialization(small_data):
    config = TrainConfig(max_steps=0, batch_size=8, eval_every=0, seed=1)
    snapshot = init_model(small_data, config, dim=8, item_dim=6)
    before = snapshot_bytes(snapshot)
    result = train(small_data, config, snapshot=snapshot)
    after = snapshot_bytes(result.snapshot)
    assert result.steps_run == 0
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_training_deterministic_loss_curves(small_data):
    def run():
        config = TrainConfig(
            max_steps=30, batch_size=8, eval_every=10, val_sample=20, seed=5
        )
        result = train(small_data, config, dim=8, item_dim=6, clustering="random")
        return [(m["step"], m["loss"], m["val_recall@10"]) for m in result.metrics]

    assert run() == run()


def test_divergence_aborts_with_diagnostic(small_data):
    config = TrainConfig(max_steps=3, batch_size=4, eval_every=0, seed=2)
    snapshot = init_model(small_data, config, dim=8, item_dim=6)
    with snapshot.tables.writing() as arrays:
        arrays["text"][0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match="step"):
        train(small_data, config, snapshot=snapshot)


def test_initial_loss_near_log_vocab(small_data):
    # Tiny random init: the first-step loss must sit near ln(n_total).
    config = TrainConfig(max_steps=1, batch_size=16, eval_every=0, seed=3)
    result = train(small_data, config, dim=8, item_dim=6, clustering="random")
    assert result.steps_run == 1


def test_short_training_beats_popularity(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=150, n_items=24, n_groups=4, stickiness=0.9, seed=1)
    baseline = popularity_baseline(data).recall[10]
    config = TrainConfig(
        max_steps=350,
        batch_size=32,
        learning_rate=0.05,
        eval_every=0,
        seed=0,
        softmax_mode="twolevel",
    )
    result = train(data, config, dim=16, item_dim=12, clustering="kmeans")
    recall = validation_recall(result.snapshot, data, k=10)
    assert recall > baseline


def test_estimator_roundtrip(tmp_path):
    data, synth = synth_dataset(tmp_path, n_users=60, n_items=16, n_groups=4, seed=2)
    est = SequenceRecommender(
        dim=8, item_dim=8, max_steps=40, batch_size=8, eval_every=0, seed=0, n_clusters=4
    )
    params = est.get_params()
    assert params["dim"] == 8 and "learning_rate" in params
    est.fit(data)
    history = [data.catalog[i].item_id for i in data.test_examples[0].history]
    preds = est.predict([history], k=5)
    assert len(preds) == 1 and len(preds[0]) == 5
    assert all(isinstance(p, str) for p in preds[0])
    score = est.score()
    assert 0.0 <= score <= 1.0


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_predict_equals_per_history_oracle(tmp_path, mode):
    data, _ = synth_dataset(tmp_path, n_users=60, n_items=16, n_groups=4, seed=2)
    est = SequenceRecommender(
        dim=8, item_dim=8, max_steps=40, batch_size=8, eval_every=0, seed=0, n_clusters=4, softmax_mode=mode
    )
    est.fit(data)
    snap = est.snapshot_
    tables = snap.tables
    histories = [[data.catalog[i].item_id for i in e.history] for e in data.test_examples]
    want = []
    for e in data.test_examples:
        query, _ = encode(render_id_only(e, data), tables, snap.encoder)
        if mode == "twolevel":
            items = topk_items(query, 5, tables, snap.cluster_map, snap.space).ordinals - tables.n_text
        else:
            scores = score_all(query, tables, None, mode="full")[tables.n_text :]
            items = np.lexsort((np.arange(scores.size), -scores))[:5]
        want.append([snap.item_ids[int(i)] for i in items])
    assert est.predict(histories, k=5) == want
    assert 3 * len(histories) > EVAL_BLOCK
    assert est.predict(3 * histories, k=5) == 3 * want
    assert est.predict([], k=5) == []


def test_predict_scores_with_the_fitted_softmax_mode(tmp_path):
    # Changing the parameter without refitting leaves the fitted two-level
    # model, and predict scores it as score() and evaluate do.
    data, _ = synth_dataset(tmp_path, n_users=200, n_items=40, n_groups=4, seed=2)
    est = SequenceRecommender(dim=8, item_dim=8, max_steps=40, batch_size=8, eval_every=0, seed=0, n_clusters=6)
    est.fit(data)
    histories = [[data.catalog[i].item_id for i in e.history] for e in data.test_examples]
    want = est.predict(histories, k=10)
    score = est.score()
    est.set_params(softmax_mode="full")
    assert est.predict(histories, k=10) == want
    assert est.score() == score


def test_predict_rejects_empty_and_unknown_histories(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=60, n_items=16, n_groups=4, seed=2)
    est = SequenceRecommender(dim=8, item_dim=8, max_steps=2, batch_size=8, eval_every=0, seed=0, n_clusters=4)
    est.fit(data)
    known = data.catalog[0].item_id
    with pytest.raises(DataError, match="history must be non-empty"):
        est.predict([[known], []], k=5)
    with pytest.raises(DataError, match="unknown item id"):
        est.predict([[known, "no-such-item"]], k=5)


def _plant_after_finalize(monkeypatch, plant):
    """Run ``plant(tables, grads)`` on every finalized gradient before the update."""
    finalize = GradBuffer.finalize

    def planted(self, tables):
        grads = finalize(self, tables)
        plant(tables, grads)
        return grads

    monkeypatch.setattr(GradBuffer, "finalize", planted)


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_nan_gradient_on_touched_item_row_raises(small_data, monkeypatch, mode):
    def plant(tables, grads):
        # The first touched row only, in the part that holds it.
        item_grad = grads["item_raw"]
        first = touched_item_rows(item_grad)[0]
        for rows, left, _ in item_grad.parts:
            if rows[0] == first:
                left[0] = np.nan
                return
        raise AssertionError("no part starts at the first touched row")

    _plant_after_finalize(monkeypatch, plant)
    config = TrainConfig(max_steps=2, batch_size=4, eval_every=0, seed=2, softmax_mode=mode)
    with pytest.raises(ValueError, match="NaN or Inf"):
        train(small_data, config, dim=8, item_dim=6, clustering="random")


@pytest.mark.parametrize(
    "name", ["text", "proj_weight", "proj_bias", "centroids", "enc_hidden_w", "enc_hidden_b", "enc_out_w", "enc_out_b"]
)
def test_nan_gradient_on_dense_parameter_raises(small_data, monkeypatch, name):
    # Every parameter but the raw item table is checked whole after its write.
    def plant(tables, grads):
        grads[name].flat[0] = np.nan

    _plant_after_finalize(monkeypatch, plant)
    config = TrainConfig(max_steps=1, batch_size=4, eval_every=0, seed=2)
    with pytest.raises(ValueError, match=f"{name} contains NaN or Inf"):
        train(small_data, config, dim=8, item_dim=6, clustering="random")


def test_large_decay_checks_every_item_row(small_data, monkeypatch):
    # With lr * weight_decay > 2, decay alone can overflow an untouched row,
    # so the whole table is read: a NaN planted off the touched rows raises.
    def plant(tables, grads):
        untouched = np.setdiff1d(np.arange(tables.n_items), touched_item_rows(grads["item_raw"]))
        with tables.writing() as arrays:
            arrays["item_raw"][untouched[0]] = np.nan

    _plant_after_finalize(monkeypatch, plant)
    config = TrainConfig(max_steps=1, batch_size=2, learning_rate=1.0, weight_decay=2.5, eval_every=0, seed=2)
    with pytest.raises(ValueError, match="NaN or Inf"):
        train(small_data, config, dim=8, item_dim=6, clustering="random")


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_train_calls_the_names_the_span_table_wraps(small_data, monkeypatch, mode):
    # perfbench's span table times a step's loss and encoder backward by
    # patching these names on hsrec.trainer; a rename would leave them untimed.
    shapes = {"nll_and_grad": [], "encode_backward": []}

    def count_calls(name, block_arg):
        fn = getattr(hsrec.trainer, name)

        def wrapper(*args, **kwargs):
            shapes[name].append(np.shape(args[block_arg]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(hsrec.trainer, name, wrapper)

    count_calls("nll_and_grad", 0)  # the (B, d) queries
    count_calls("encode_backward", 1)  # the (B, d) query gradients
    config = TrainConfig(max_steps=2, batch_size=4, eval_every=0, seed=2, softmax_mode=mode)
    train(small_data, config, dim=8, item_dim=6, clustering="random")
    assert shapes == {"nll_and_grad": [(4, 8)] * 2, "encode_backward": [(4, 8)] * 2}


def test_estimator_set_params_rejects_unknown():
    est = SequenceRecommender()
    with pytest.raises(ValueError):
        est.set_params(not_a_parameter=3)


ESTIMATOR_DEFAULTS = [
    ("dim", 64),
    ("item_dim", 512),
    ("vocab_size", 8192),
    ("clustering", "kmeans"),
    ("n_clusters", None),
    ("softmax_mode", "twolevel"),
    ("batch_size", 64),
    ("learning_rate", 5e-3),
    ("weight_decay", 1e-5),
    ("max_steps", 2000),
    ("id_only_fraction", 0.25),
    ("metadata_keep_prob", 0.5),
    ("eval_every", 200),
    ("patience", 10),
    ("val_sample", 500),
    ("seed", 0),
]


def test_estimator_parameter_protocol():
    est = SequenceRecommender()
    assert list(est.get_params().items()) == ESTIMATOR_DEFAULTS
    assert list(est.get_params(deep=False).items()) == ESTIMATOR_DEFAULTS
    assert repr(est) == "SequenceRecommender(" + ", ".join(f"{k}={v!r}" for k, v in ESTIMATOR_DEFAULTS) + ")"
    # Positional construction follows the declaration order.
    assert SequenceRecommender(8, 6, 40).get_params()["vocab_size"] == 40
    # What sklearn.base.clone checks: rebuilding from get_params keeps each object.
    marked = SequenceRecommender(**{name: object() for name, _ in ESTIMATOR_DEFAULTS})
    params = marked.get_params(deep=False)
    rebuilt = type(marked)(**params)
    assert all(getattr(rebuilt, name) is value for name, value in params.items())
    assert est.set_params(dim=8, seed=3) is est
    assert (est.dim, est.seed) == (8, 3)
    names = sorted(name for name, _ in ESTIMATOR_DEFAULTS)
    message = f"Invalid parameter 'not_a_parameter' for SequenceRecommender; valid parameters are {names}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        est.set_params(not_a_parameter=3)
    # Instances are hashable and compare by identity, as estimators do.
    a, b = SequenceRecommender(), SequenceRecommender()
    assert len({a, b, a}) == 2
    assert a == a and a != b


def test_unfitted_estimator_raises_not_fitted_error():
    est = SequenceRecommender()
    message = "SequenceRecommender is not fitted yet; call fit() first (missing snapshot_, dataset_)"
    for call in (lambda: est.predict([["a"]]), est.score):
        with pytest.raises(NotFittedError, match=f"^{re.escape(message)}$"):
            call()
