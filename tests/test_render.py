"""The batch render and the array-form examples against their per-example
oracles (``helpers.render_loop``, ``helpers.examples_from_split``), and the
numpy property the batch render's draw order rests on."""

import json

import numpy as np
import pytest

from helpers import examples_from_split, oracle_item_scores, pack, render_loop
from hsrec.catalog import build_dataset, concat_ranges, ingest_jsonl
from hsrec.evaluate import EVAL_BLOCK, evaluate, rank_rows, target_ranks
from hsrec.inference import _rank_topk
from hsrec.render import render_batch, render_example, render_id_only, render_id_only_batch
from hsrec.trainer import SequenceRecommender


def write_corpus(path, fields, n_users=40, n_items=30, seed=0):
    """Interactions whose items carry the given metadata fields, some of them
    missing or empty, with words rare enough to fall off a small vocabulary."""
    rng = np.random.default_rng(seed)
    brands = ["Acme", "Globex corp", None]
    categories = [None, "tools and stuff", "", "garden"]
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(n_users):
            for t in range(int(rng.integers(3, 9))):
                i = int(rng.integers(n_items))
                row = {"user": f"u{u}", "item": f"i{i}", "timestamp": t}
                values = {
                    "title": f"Thing {i % 7} rare{i} word{i % 3}" if i % 5 else None,
                    "brand": brands[i % 3],
                    "price": round(1.5 * i + 0.25, 2) if i % 4 else None,
                    "category": categories[i % 4],
                }
                row.update({k: v for k, v in values.items() if k in fields and v is not None})
                fh.write(json.dumps(row) + "\n")
    return path


ALL_FIELDS = ("title", "brand", "price", "category")


@pytest.fixture(scope="module", params=["all fields", "no prices", "no metadata"])
def corpus_interactions(request, tmp_path_factory):
    fields = {"all fields": ALL_FIELDS, "no prices": ("title", "brand", "category"), "no metadata": ()}
    return ingest_jsonl(write_corpus(tmp_path_factory.mktemp("render") / "d.jsonl", fields[request.param]))


@pytest.fixture(scope="module")
def corpus_data(corpus_interactions):
    return build_dataset(corpus_interactions, vocab_size=40)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_generator_random_n_equals_n_scalar_draws(seed):
    # The batch render draws an example's fields with one random(n) call
    # where the per-example loop made n scalar random() calls.
    for n in (0, 1, 7):
        batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert batch.random(n).tolist() == [scalar.random() for _ in range(n)]
            assert batch.random() == scalar.random()


def test_corpus_covers_the_cases(corpus_data):
    data = corpus_data
    n_fields = np.diff(data.field_tokens.item_ptr)
    if data.price_edges is None:
        assert not any(r.price is not None for r in data.catalog.records)
    if n_fields.any():
        assert (n_fields == 0).any() and (n_fields > 1).any()  # items with missing fields
        assert data.vocab.oov_id in data.field_tokens.tokens.tolist()  # words off the vocabulary
    assert min(len(e.history) for e in data.train_examples) == 1


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("id_only_fraction", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("keep_prob", [0.0, 0.5, 1.0])
def test_batch_render_equals_per_example_loop(corpus_data, seed, id_only_fraction, keep_prob):
    data = corpus_data
    pick = np.random.default_rng(seed).integers(0, len(data.train_examples), size=48)
    examples = [data.train_examples[int(i)] for i in pick] + data.test_examples[:16]
    loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [render_loop(e, data, loop_rng, id_only_fraction, keep_prob) for e in examples]
    histories, lengths = pack([e.history for e in examples])
    ordinals, prompt_lengths = render_batch(data, histories, lengths, batch_rng, id_only_fraction, keep_prob)
    assert prompt_lengths.tolist() == [len(t) for t in want]
    assert ordinals.tolist() == [t for tokens in want for t in tokens]
    assert batch_rng.random() == loop_rng.random()  # the same draws were made

    # Batch-of-one forms, with the same generator state threaded through.
    loop_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for e in examples[:8]:
        assert render_example(e, data, one_rng, id_only_fraction, keep_prob) == render_loop(
            e, data, loop_rng, id_only_fraction, keep_prob
        )
    assert one_rng.random() == loop_rng.random()


def test_id_only_renders_equal_per_example_loop(corpus_data):
    data = corpus_data
    examples = data.test_examples
    want = [render_loop(e, data, force_id_only=True) for e in examples]
    ordinals, lengths = render_id_only_batch(data, [e.history for e in examples])
    assert ordinals.tolist() == [t for tokens in want for t in tokens]
    assert lengths.tolist() == [len(t) for t in want]
    assert [render_id_only(e, data) for e in examples] == want


def test_render_rejects_items_outside_the_catalog(corpus_data):
    data = corpus_data
    for bad in (-1, data.n_items):
        with pytest.raises(ValueError, match="out of range"):
            render_batch(data, [0, bad], [2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="out of range"):
            render_id_only_batch(data, [(0,), (0, bad)])
    with pytest.raises(ValueError, match="rng is required"):
        render_example(data.train_examples[0], data)


def test_dataset_examples_equal_split_oracle(corpus_interactions, corpus_data):
    data = corpus_data
    train, val, test = examples_from_split(corpus_interactions)
    assert data.train_examples == train
    assert data.val_examples == val
    assert data.test_examples == test
    # The arrays the training step slices give the same histories and targets.
    lengths = data.train_ends - data.train_starts
    histories = data.events[concat_ranges(data.train_starts, lengths)].tolist()
    assert lengths.tolist() == [len(e.history) for e in train]
    assert histories == [i for e in train for i in e.history]
    assert data.events[data.train_ends].tolist() == [e.target for e in train]


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_evaluate_and_predict_equal_per_example_render(tmp_path, mode):
    path = write_corpus(tmp_path / "d.jsonl", ALL_FIELDS, n_users=90, n_items=30, seed=4)
    est = SequenceRecommender(
        dim=8, item_dim=8, vocab_size=40, max_steps=30, batch_size=16, eval_every=0, seed=0,
        n_clusters=5, softmax_mode=mode, metadata_keep_prob=1.0,
    )
    est.fit(path)
    snapshot, data = est.snapshot_, est.dataset_
    examples = data.test_examples
    assert len(examples) > EVAL_BLOCK  # a full block and a partial one

    want_ranks, want_top = [], []
    for block, scores in oracle_item_scores(snapshot, data, examples):
        want_ranks += rank_rows(scores, [e.target for e in block]).tolist()
        want_top += [[snapshot.item_ids[i] for i in _rank_topk(row, 5).ordinals.tolist()] for row in scores]
    assert target_ranks(snapshot, data, "full").tolist() == want_ranks
    report = evaluate(snapshot, data, "full", ks=(1, 10))
    assert report.n_users == len(examples)
    assert report.mrr == float(np.mean(1.0 / np.asarray(want_ranks)))
    histories = [[data.catalog[i].item_id for i in e.history] for e in examples]
    assert est.predict(histories, k=5) == want_top
