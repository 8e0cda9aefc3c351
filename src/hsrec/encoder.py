"""Sequence encoder: mean-pooled embeddings through a two-layer MLP plus skip.

This stands in for an autoregressive backbone at desk scale; it turns a
rendered token sequence into the query vector that the softmax head consumes.
The interface is the contract — any module that maps a token sequence to a
d-dimensional query vector can replace it.  Gradients are hand-derived and
checked against finite differences in the test suite.

Training encodes a whole batch at once: :func:`encode_batch` pools ``B``
sequences with segment sums (``np.add.reduceat``) into a ``(B, d)`` matrix,
and :func:`encode_backward` is GEMMs plus one scatter of the per-token
embedding gradients.  The single-sequence :func:`encode` is the query path;
it returns a one-row cache, so :func:`encode_backward` also takes one
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import GradBuffer, ModelTables
from .validation import check_random_state


@dataclass
class EncoderParams:
    hidden_w: np.ndarray  # (d, d)
    hidden_b: np.ndarray  # (d,)
    out_w: np.ndarray  # (d, d)
    out_b: np.ndarray  # (d,)

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {
            "enc_hidden_w": self.hidden_w,
            "enc_hidden_b": self.hidden_b,
            "enc_out_w": self.out_w,
            "enc_out_b": self.out_b,
        }


def init_encoder(dim: int, seed=0, dtype=np.float32) -> EncoderParams:
    rng = check_random_state(seed)
    scale = 1.0 / np.sqrt(dim)
    return EncoderParams(
        hidden_w=rng.uniform(-scale, scale, size=(dim, dim)).astype(dtype),
        hidden_b=np.zeros(dim, dtype=dtype),
        out_w=rng.uniform(-scale, scale, size=(dim, dim)).astype(dtype),
        out_b=np.zeros(dim, dtype=dtype),
    )


@dataclass
class EncodeCache:
    """Forward activations of :func:`encode_batch` or :func:`encode` (one row)
    needed by :func:`encode_backward`."""

    ordinals: np.ndarray  # (T,) the sequences' tokens, concatenated
    lengths: np.ndarray  # (B,) tokens per sequence
    pooled: np.ndarray  # (B, d)
    hidden: np.ndarray  # (B, d)


def _embed(ords: np.ndarray, tables: ModelTables) -> np.ndarray:
    """(len(ords), d) float64 input embeddings: text rows and projected item rows."""
    n_text = tables.n_text
    is_item = ords >= n_text
    embeds = np.empty((ords.size, tables.dim), dtype=np.float64)
    if (~is_item).any():
        embeds[~is_item] = tables.text.data[ords[~is_item]]
    if is_item.any():
        embeds[is_item] = tables.item_projected()[ords[is_item] - n_text]
    return embeds


def encode(ordinals, tables: ModelTables, params: EncoderParams):
    """Token ordinals -> (query vector, one-row cache).

    query = pooled + out_w @ tanh(hidden_w @ pooled + hidden_b) + out_b,
    where pooled is the mean input embedding.  The identity skip keeps the
    input gradient from being throttled by two near-zero weight matrices at
    the start of training.  Mean pooling makes the encoder order-invariant;
    that is a deliberate backbone limitation, not a property of the head.
    """
    ords = np.asarray(ordinals, dtype=np.int64)
    if ords.size == 0:
        raise ValueError("cannot encode an empty token sequence")
    pooled = np.add.reduce(_embed(ords, tables), axis=0) / ords.size
    hidden = np.tanh(params.hidden_w @ pooled + params.hidden_b)
    query = pooled + params.out_w @ hidden + params.out_b
    lengths = np.array([ords.size], dtype=np.int64)
    return query, EncodeCache(ordinals=ords, lengths=lengths, pooled=pooled[None], hidden=hidden[None])


def encode_batch(sequences, tables: ModelTables, params: EncoderParams):
    """B token sequences -> ((B, d) query matrix, cache); row b is ``encode(sequences[b])``."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("cannot encode an empty batch or an empty token sequence")
    ords = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in sequences])
    starts = np.cumsum(lengths) - lengths
    pooled = np.add.reduceat(_embed(ords, tables), starts, axis=0) / lengths[:, None]
    hidden = np.tanh(pooled @ params.hidden_w.T + params.hidden_b)
    queries = pooled + hidden @ params.out_w.T + params.out_b
    return queries, EncodeCache(ordinals=ords, lengths=lengths, pooled=pooled, hidden=hidden)


def encode_backward(
    cache: EncodeCache,
    d_queries: np.ndarray,
    tables: ModelTables,
    params: EncoderParams,
    grads: GradBuffer,
) -> None:
    """Chain the (B, d) query gradients into encoder parameters and input embeddings."""
    if grads.encoder_grads is None:
        raise ValueError("GradBuffer was built without encoder parameters")
    eg = grads.encoder_grads
    eg["enc_out_w"] += d_queries.T @ cache.hidden
    eg["enc_out_b"] += d_queries.sum(axis=0)
    d_act = (1.0 - cache.hidden**2) * (d_queries @ params.out_w)
    eg["enc_hidden_w"] += d_act.T @ cache.pooled
    eg["enc_hidden_b"] += d_act.sum(axis=0)
    d_emb = (d_act @ params.hidden_w + d_queries) / cache.lengths[:, None]

    # One scatter: count each distinct token's occurrences per sequence, so
    # its gradient is one row of counts @ d_emb.
    n_seq = cache.lengths.size
    tokens, inverse = np.unique(cache.ordinals, return_inverse=True)
    seq_of_token = np.repeat(np.arange(n_seq), cache.lengths)
    counts = np.bincount(inverse * n_seq + seq_of_token, minlength=tokens.size * n_seq)
    d_tokens = counts.reshape(tokens.size, n_seq).astype(np.float64) @ d_emb
    n_text = tables.n_text
    n_text_tokens = int(np.searchsorted(tokens, n_text))
    grads.d_text[tokens[:n_text_tokens]] += d_tokens[:n_text_tokens]
    grads.add_item_rows(tokens[n_text_tokens:] - n_text, d_tokens[n_text_tokens:])
