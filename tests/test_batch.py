"""The batched training step against its per-example oracle.

``encode_batch`` + ``nll_and_grad`` + ``encode_backward`` must give the
losses, query gradients, finalized parameter gradients, touched item rows and
dot count of per-example ``encode`` + ``nll_and_grad_oracle`` +
``encode_backward_oracle`` calls summed over the batch.  Summation order
differs, so values agree to 1e-12 relative rather than bitwise.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    encode_backward_oracle,
    nll_and_grad_oracle,
    pack,
    random_encoder,
    random_model,
    render_loop,
    synth_dataset,
    touched_item_rows,
)
from hsrec.cluster import ClusterMap
from hsrec.encoder import encode, encode_backward, encode_batch
from hsrec.softmax import CostCounter, nll_and_grad
from hsrec.tables import GradBuffer, ItemRowGrad
from hsrec.trainer import TrainConfig, _apply_update, init_model, train

REL = 1e-12
N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS = 7, 30, 5, 4, 4


def rel_gap(want, got):
    want, got = np.asarray(want), np.asarray(got)
    return float(np.max(np.abs(want - got)) / max(np.max(np.abs(want)), 1e-300))


def mixed_batch(cmap):
    """Text and item targets, three item targets in one cluster, a repeated token."""
    members = cmap.item_members(1)
    assert members.size >= 3
    seqs = [[0, 1, 9], [3, 3, 3, 12, 12], [N_TEXT + 4], [2, 20, 21, 22, 0], [5, 6], [30, 30, 1]]
    targets = [
        N_TEXT + int(members[0]),
        N_TEXT + int(members[1]),
        2,  # text target
        N_TEXT + int(members[-1]),
        N_TEXT + int(cmap.item_members(0)[0]),
        6,  # text target
    ]
    return seqs, targets


def overlap_batch(cmap):
    """Item targets in a cluster of at least DIM members (lifted) and in a
    smaller one (projected rows), with history items inside both clusters, so
    on each path one raw row gets a head part and an encoder-input part."""
    sizes = cmap.cluster_sizes()
    lifted, projected = int(np.argmax(sizes >= DIM)), int(np.argmax(sizes < DIM))
    assert sizes[lifted] >= DIM > sizes[projected]
    a, b = cmap.item_members(lifted), cmap.item_members(projected)
    seqs = [[0, N_TEXT + int(a[1])], [N_TEXT + int(a[1]), N_TEXT + int(b[0]), 3], [N_TEXT + int(b[0]), 2]]
    targets = [N_TEXT + int(a[0]), N_TEXT + int(a[2]), N_TEXT + int(b[1])]
    return seqs, targets


def per_example(seqs, targets, tables, cmap, enc, mode):
    grads, counter, losses, d_queries = GradBuffer(tables, enc), CostCounter(), [], []
    for seq, target in zip(seqs, targets):
        query, cache = encode(seq, tables, enc)
        loss, d_query, _ = nll_and_grad_oracle(query, target, tables, cmap, mode, grads, counter)
        encode_backward_oracle(cache, d_query, tables, enc, grads)
        losses.append(loss)
        d_queries.append(d_query)
    return np.array(losses), np.array(d_queries), grads, counter


def batched(seqs, targets, tables, cmap, enc, mode):
    grads, counter = GradBuffer(tables, enc), CostCounter()
    queries, cache = encode_batch(*pack(seqs), tables, enc)
    losses, d_queries, _ = nll_and_grad(queries, targets, tables, cmap, mode, grads, counter)
    encode_backward(cache, d_queries, tables, enc, grads)
    return losses, d_queries, grads, counter


def assert_batch_matches_oracle(seqs, targets, tables, cmap, enc, mode):
    want_loss, want_dq, want, want_counter = per_example(seqs, targets, tables, cmap, enc, mode)
    got_loss, got_dq, got, got_counter = batched(seqs, targets, tables, cmap, enc, mode)
    assert rel_gap(want_loss, got_loss) <= REL
    assert rel_gap(want_loss.sum(), got_loss.sum()) <= REL
    assert rel_gap(want_dq, got_dq) <= REL
    assert got_counter.dots == want_counter.dots
    want_final, got_final = want.finalize(tables), got.finalize(tables)
    assert np.array_equal(touched_item_rows(got_final["item_raw"]), touched_item_rows(want_final["item_raw"]))
    assert list(got_final) == list(want_final)
    for name in want_final:
        assert rel_gap(want_final[name], got_final[name]) <= REL, name


@pytest.mark.parametrize("mode", ["full", "twolevel"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_equals_per_example_sum(mode, dtype):
    for seed in range(5):
        tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=seed, dtype=dtype)
        enc = random_encoder(DIM, rng, dtype=dtype)
        seqs, targets = mixed_batch(cmap)
        assert_batch_matches_oracle(seqs, targets, tables, cmap, enc, mode)


@pytest.mark.parametrize("mode", ["full", "twolevel"])
def test_batch_of_one_equals_single_example(mode):
    for target in (3, N_TEXT + 11):
        tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=target)
        enc = random_encoder(DIM, rng)
        assert_batch_matches_oracle([[1, N_TEXT + 2, 1]], [target], tables, cmap, enc, mode)


@pytest.mark.parametrize("size", [DIM, DIM - 1])
def test_twolevel_batch_touches_target_clusters_and_history_only(size):
    # The target cluster has ``size`` members: at DIM members it arrives
    # lifted, as one (members, p_t, lifted) part; one fewer, as projected rows.
    tables, _, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=9)
    assignment = np.resize([0, 1, 3], N_ITEMS)
    assignment[:size] = 2
    cmap = ClusterMap(N_TEXT, rng.permutation(assignment), N_CLUSTERS)
    enc = random_encoder(DIM, rng)
    target_item = int(cmap.item_members(2)[0])
    history_item = int(cmap.item_members(3)[0])
    _, _, grads, _ = batched([[0, N_TEXT + history_item]], [N_TEXT + target_item], tables, cmap, enc, "twolevel")
    want = np.zeros(N_ITEMS, dtype=bool)
    want[cmap.item_members(2)] = True
    want[history_item] = True
    item_grad = grads.finalize(tables)["item_raw"]
    assert isinstance(item_grad, ItemRowGrad)
    assert np.array_equal(touched_item_rows(item_grad), np.flatnonzero(want))
    assert not np.asarray(item_grad)[~want].any()
    # Projected parts are chained through the step's head weight copy.
    lifted = [(rows, left) for rows, left, right in item_grad.parts if right is not grads.weight]
    if size >= DIM:
        assert len(lifted) == 1
        assert np.array_equal(lifted[0][0], cmap.item_members(2)) and lifted[0][1].shape == (size, 1)
    else:
        assert lifted == []


def test_encode_batch_rows_equal_encode():
    tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=4, dtype=np.float32)
    enc = random_encoder(DIM, rng, dtype=np.float32)
    seqs, _ = mixed_batch(cmap)
    queries, _ = encode_batch(*pack(seqs), tables, enc)
    for seq, row in zip(seqs, queries):
        assert rel_gap(encode(seq, tables, enc)[0], row) <= REL
    with pytest.raises(ValueError):
        encode_batch(*pack([[1], []]), tables, enc)
    with pytest.raises(ValueError, match="lengths sum to 1"):
        encode_batch([1, 2], [1], tables, enc)


def test_encode_cache_is_a_batch_of_one():
    # encode's one-row cache drives the batched backward as encode_batch's does.
    tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=6)
    enc = random_encoder(DIM, rng)
    seq = [1, N_TEXT + 2, 1, N_TEXT + 9]
    d_queries = rng.standard_normal((1, DIM))
    finals = []
    for _, cache in (encode(seq, tables, enc), encode_batch(seq, [len(seq)], tables, enc)):
        grads = GradBuffer(tables, enc)
        encode_backward(cache, d_queries, tables, enc, grads)
        finals.append(grads.finalize(tables))
    want, got = finals
    assert list(got) == list(want)
    for name in want:
        assert rel_gap(want[name], got[name]) <= REL, name


def assert_dense_update_bitwise(seqs, targets, tables, cmap, enc, mode):
    """The touched-row update writes the tables the dense rule would, bit for bit."""
    _, _, grads, _ = batched(seqs, targets, tables, cmap, enc, mode)
    final = grads.finalize(tables)
    snap = SimpleNamespace(tables=tables, encoder=enc)  # what _apply_update reads
    arrays = {**tables.parameter_arrays(), **enc.parameter_arrays()}
    before = {name: arr.copy() for name, arr in arrays.items()}
    lr, weight_decay, n = 0.3, 0.01, len(seqs)
    _apply_update(snap, final, lr, weight_decay, n)
    for name, arr in before.items():
        # The dense rule over every row: arr -= lr * (grad / n).
        want = arr.copy()
        if want.ndim == 2:
            want *= 1.0 - lr * weight_decay
        want -= lr * (np.asarray(final[name]) / n)
        assert np.array_equal(want, arrays[name]), name
    untouched = np.ones(tables.n_items, dtype=bool)
    untouched[touched_item_rows(final["item_raw"])] = False
    if mode == "twolevel":
        assert untouched.any()
    decayed = before["item_raw"][untouched].copy()
    decayed *= 1.0 - lr * weight_decay
    assert np.array_equal(tables.item_raw.data[untouched], decayed)


@pytest.mark.parametrize("mode", ["full", "twolevel"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_touched_row_update_equals_dense_update_bitwise(mode, dtype):
    tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=3, dtype=dtype)
    enc = random_encoder(DIM, rng, dtype=dtype)
    seqs, targets = mixed_batch(cmap)
    assert_dense_update_bitwise(seqs, targets, tables, cmap, enc, mode)


@pytest.mark.parametrize("mode", ["full", "twolevel"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_row_with_head_and_input_parts(mode, dtype):
    tables, cmap, rng = random_model(N_TEXT, N_ITEMS, DIM, ITEM_DIM, N_CLUSTERS, seed=4, dtype=dtype)
    enc = random_encoder(DIM, rng, dtype=dtype)
    seqs, targets = overlap_batch(cmap)
    if mode == "twolevel":
        # The lifted cluster's member seqs[0][1] is also an encoder input, so
        # its cluster part is chained with its input part, as a projected row.
        _, _, grads, _ = batched(seqs, targets, tables, cmap, enc, mode)
        item_grad = grads.finalize(tables)["item_raw"]
        shared = seqs[0][1] - N_TEXT
        # Projected parts are chained through the step's head weight copy.
        clusters = [rows for rows, _, right in item_grad.parts if right is not grads.weight]
        assert len(clusters) == 1 and shared not in clusters[0]
        assert any(shared in rows for rows, _, right in item_grad.parts if right is grads.weight)
    assert_batch_matches_oracle(seqs, targets, tables, cmap, enc, mode)
    assert_dense_update_bitwise(seqs, targets, tables, cmap, enc, mode)


@pytest.mark.parametrize("mode", ["full", "twolevel"])
def test_train_step_matches_per_example_loop(tmp_path, mode):
    # The per-example loop this step replaced, as a reference: same batch
    # draw and renderings, per-example oracle gradients, dense update.
    data, _ = synth_dataset(tmp_path)
    config = TrainConfig(max_steps=1, batch_size=16, learning_rate=0.5, eval_every=0, seed=4, softmax_mode=mode)
    ref = init_model(data, config, dim=8, item_dim=6, clustering="random")
    got = init_model(data, config, dim=8, item_dim=6, clustering="random")
    rng = np.random.default_rng(config.seed)
    batch_idx = rng.integers(0, len(data.train_examples), size=config.batch_size)
    grads = GradBuffer(ref.tables, ref.encoder)
    for i in batch_idx:
        example = data.train_examples[int(i)]
        seq = render_loop(example, data, rng, config.id_only_fraction, config.metadata_keep_prob)
        query, cache = encode(seq, ref.tables, ref.encoder)
        target = data.space.item_ordinal(example.target)
        _, d_query, _ = nll_and_grad_oracle(query, target, ref.tables, ref.cluster_map, mode, grads)
        encode_backward_oracle(cache, d_query, ref.tables, ref.encoder, grads)
    final = grads.finalize(ref.tables)
    with ref.tables.writing() as arrays:
        arrays.update(ref.encoder.parameter_arrays())
        for name, grad in final.items():
            arr = arrays[name]
            if config.weight_decay and arr.ndim == 2:
                arr *= 1.0 - config.learning_rate * config.weight_decay
            arr -= config.learning_rate * (np.asarray(grad) / config.batch_size)

    train(data, config, snapshot=got)
    got_arrays = {**got.tables.parameter_arrays(), **got.encoder.parameter_arrays()}
    for name, arr in arrays.items():
        # float32 parameters: one rounding step of float32 at most.
        assert np.allclose(got_arrays[name], arr, rtol=1e-6, atol=1e-7), name
