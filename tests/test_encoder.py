import numpy as np
import pytest

from helpers import (
    encode_backward_oracle,
    fd_gradient,
    flatten,
    max_rel_error,
    nll_and_grad_oracle,
    param_arrays,
    random_encoder,
    random_model,
)
from hsrec.encoder import encode, init_encoder
from hsrec.tables import GradBuffer


def test_single_token_mean_is_that_embedding():
    tables, _, rng = random_model(5, 8, 4, 3, 2, seed=0)
    enc = random_encoder(4, rng)
    _, cache = encode([2], tables, enc)
    assert np.allclose(cache.pooled, tables.text.data[2])


def test_permutation_invariance_of_mean_pool():
    tables, _, rng = random_model(5, 8, 4, 3, 2, seed=1)
    enc = random_encoder(4, rng)
    seq = [0, 3, 6, 9, 2, 6]
    q1, _ = encode(seq, tables, enc)
    q2, _ = encode(seq[::-1], tables, enc)
    assert np.allclose(q1, q2, atol=1e-12)


def test_empty_sequence_errors():
    tables, _, rng = random_model(5, 8, 4, 3, 2, seed=2)
    enc = random_encoder(4, rng)
    with pytest.raises(ValueError):
        encode([], tables, enc)


def test_encode_deterministic():
    tables, _, rng = random_model(5, 8, 4, 3, 2, seed=3)
    enc = init_encoder(4, seed=9)
    q1, _ = encode([1, 6, 6], tables, enc)
    q2, _ = encode([1, 6, 6], tables, enc)
    assert np.array_equal(q1, q2)


def test_encoder_gradients_match_finite_differences():
    # Composed check: loss = two-level NLL of encode(seq); wiggle everything.
    worst = 0.0
    for seed in range(4):
        tables, cmap, rng = random_model(5, 9, 4, 3, 3, seed=seed)
        enc = random_encoder(4, rng)
        seq = [0, 4, 5 + int(rng.integers(9)), 5 + int(rng.integers(9)), 3]
        target = int(rng.integers(0, 14))
        arrays = param_arrays(tables, enc)

        def loss_fn():
            query, _ = encode(seq, tables, enc)
            loss, _, _ = nll_and_grad_oracle(query, target, tables, cmap, mode="twolevel")
            return loss

        numeric = fd_gradient(loss_fn, tables, arrays, eps=1e-5)
        query, cache = encode(seq, tables, enc)
        grads = GradBuffer(tables, enc)
        loss, d_query, _ = nll_and_grad_oracle(query, target, tables, cmap, mode="twolevel", grads=grads)
        encode_backward_oracle(cache, d_query, tables, enc, grads)
        analytic = flatten(grads.finalize(tables))
        worst = max(worst, max_rel_error(analytic, numeric))
    assert worst < 1e-4


def test_repeated_tokens_accumulate_input_gradient():
    tables, cmap, rng = random_model(4, 6, 3, 2, 2, seed=5)
    enc = random_encoder(3, rng)
    grads = GradBuffer(tables, enc)
    query, cache = encode([1, 1, 1], tables, enc)
    loss, d_query, _ = nll_and_grad_oracle(query, 0, tables, cmap, mode="twolevel", grads=grads)
    encode_backward_oracle(cache, d_query, tables, enc, grads)
    single = GradBuffer(tables, enc)
    query2, cache2 = encode([1], tables, enc)
    loss2, d_query2, _ = nll_and_grad_oracle(query2, 0, tables, cmap, mode="twolevel", grads=single)
    encode_backward_oracle(cache2, d_query2, tables, enc, single)
    # Same pooled input, so the total input-side gradient must agree.
    assert np.allclose(grads.d_text[1], single.d_text[1], atol=1e-12)
