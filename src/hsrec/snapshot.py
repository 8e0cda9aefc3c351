"""Binary model snapshots.

Little-endian layout::

    magic   "HSRC"
    u32     format version (2; any other is refused)
    u32     model dim d, u32 item dim k
    u64     n_text, u64 n_items, u64 n_item_clusters
    u8      precision (0 = f32, 1 = f64)
    then row-major payloads:
        text table, raw item table, projection weight + bias, centroid table,
        unified cluster-assignment array (u32),
        encoder MLP (hidden weight/bias, output weight/bias),
        u64 metadata length + JSON metadata (vocab words, item ids, config)
    u32     zlib.crc32 of every preceding byte

Round trips are bit-identical.  Loaded table arrays are read-only, as every
table's are, and writable through ``ModelTables.writing()``, so a loaded
model can be trained further.  The header's sizes are checked against the
file's length before any payload is read, so a corrupt size fails at once
instead of asking for memory.  The checksum is computed as the bytes are
written and read, with no second pass over the file, and it catches a
changed byte that would otherwise load, such as a payload byte that leaves
its float finite.  Wrong magic or version (a version-1 file, which has no
checksum, included), a zero model dim, header sizes or a metadata length the
file does not hold (truncated files, bytes after the metadata or checksum),
a checksum mismatch, NaN or Inf in a float payload, metadata that is not
UTF-8 JSON or not an object with ``vocab_words`` and ``item_ids`` lists of the
header's sizes (and an object ``config`` whose ``softmax_mode``, absent
for ``"twolevel"``, is a known mode), and a cluster assignment or
vocabulary that cannot be built raise :class:`SnapshotFormatError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterMap
from .encoder import EncoderParams
from .exceptions import SnapshotFormatError
from .softmax import MODES
from .tables import EmbeddingTable, ModelTables, ProjectionHead
from .tokens import TokenSpace, Vocabulary

MAGIC = b"HSRC"
FORMAT_VERSION = 2
_PRECISION_CODE = {"f32": 0, "f64": 1}
_PRECISION_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<IIIQQQB")
DEFAULT_SOFTMAX_MODE = "twolevel"  # of a snapshot whose config names none


@dataclass
class ModelSnapshot:
    """A trained (or freshly initialized) model plus everything needed to use it."""

    tables: ModelTables
    encoder: EncoderParams
    cluster_map: ClusterMap
    vocab: Vocabulary
    item_ids: list[str]
    config: dict = field(default_factory=dict)
    name: str = "model"
    price_edges: list[float] | None = None

    @property
    def space(self) -> TokenSpace:
        return TokenSpace(n_text=self.tables.n_text, n_items=self.tables.n_items)

    @property
    def softmax_mode(self) -> str:
        return self.config.get("softmax_mode", DEFAULT_SOFTMAX_MODE)


class _Checksummed:
    """A binary file whose reads and writes update ``crc``, the running
    ``zlib.crc32`` of the bytes that passed through it."""

    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def read(self, n: int) -> bytes:
        buf = self.fh.read(n)
        self.crc = zlib.crc32(buf, self.crc)
        return buf

    def write(self, buf) -> None:
        self.crc = zlib.crc32(buf, self.crc)
        self.fh.write(buf)

    def fileno(self) -> int:
        return self.fh.fileno()


def _write_array(fh, arr: np.ndarray, dtype) -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes(order="C"))


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise SnapshotFormatError(f"truncated snapshot: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_array(fh, shape, dtype) -> np.ndarray:
    n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    # A copy: ModelTables.writing() could not unlock an array over the read bytes.
    return np.frombuffer(_read_exact(fh, n_bytes), dtype=dtype).reshape(shape).copy()


def _read_floats(fh, shape, dtype, name: str) -> np.ndarray:
    arr = _read_array(fh, shape, dtype)
    if not np.isfinite(arr).all():
        raise SnapshotFormatError(f"snapshot {name} payload contains NaN or Inf")
    return arr


def _payload_bytes(dim: int, item_dim: int, n_text: int, n_items: int, n_item_clusters: int, itemsize: int) -> int:
    """Bytes from the end of the header to the metadata length, in Python ints
    so that no header value can overflow them."""
    floats = (
        n_text * dim + n_items * item_dim + dim * item_dim + dim + n_item_clusters * dim  # tables
        + 2 * dim * dim + 2 * dim  # encoder
    )
    return floats * itemsize + 4 * (n_text + n_items)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def save_snapshot(snapshot: ModelSnapshot, path) -> None:
    tables = snapshot.tables
    dtype = np.dtype("<f4") if tables.text.precision == "f32" else np.dtype("<f8")
    meta = json.dumps(
        {
            "name": snapshot.name,
            "vocab_words": snapshot.vocab.words,
            "item_ids": snapshot.item_ids,
            "config": snapshot.config,
            "price_edges": snapshot.price_edges,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as raw:
        fh = _Checksummed(raw)
        fh.write(MAGIC)
        fh.write(
            _HEADER.pack(
                FORMAT_VERSION,
                tables.dim,
                tables.item_dim,
                tables.n_text,
                tables.n_items,
                tables.n_item_clusters,
                _PRECISION_CODE[tables.text.precision],
            )
        )
        _write_array(fh, tables.text.data, dtype)
        _write_array(fh, tables.item_raw.data, dtype)
        _write_array(fh, tables.projection.weight, dtype)
        _write_array(fh, tables.projection.bias, dtype)
        _write_array(fh, tables.centroids.data, dtype)
        _write_array(fh, snapshot.cluster_map.assignment(), np.dtype("<u4"))
        for arr in snapshot.encoder.parameter_arrays().values():
            _write_array(fh, arr, dtype)
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        raw.write(struct.pack("<I", fh.crc))


def load_snapshot(path) -> ModelSnapshot:
    with open(path, "rb") as raw:
        fh = _Checksummed(raw)
        magic = _read_exact(fh, 4)
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}; not a model snapshot")
        version, dim, item_dim, n_text, n_items, n_item_clusters, precision = _HEADER.unpack(
            _read_exact(fh, _HEADER.size)
        )
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        if precision not in _PRECISION_DTYPE:
            raise SnapshotFormatError(f"unknown precision code {precision}")
        if dim == 0 or item_dim == 0:
            raise SnapshotFormatError(f"model dims must be at least 1, got d = {dim} and k = {item_dim}")
        dtype = _PRECISION_DTYPE[precision]
        size = os.fstat(fh.fileno()).st_size
        meta_at = len(MAGIC) + _HEADER.size + _payload_bytes(
            dim, item_dim, n_text, n_items, n_item_clusters, dtype.itemsize
        )
        fixed = meta_at + 8 + 4  # all but the metadata: header, payloads, u64 length, u32 checksum
        if fixed > size:
            raise SnapshotFormatError(
                f"truncated snapshot: the header's sizes need {fixed} bytes "
                f"besides the metadata, the file has {size}"
            )

        text = _read_floats(fh, (n_text, dim), dtype, "text table")
        item_raw = _read_floats(fh, (n_items, item_dim), dtype, "item table")
        proj_w = _read_floats(fh, (dim, item_dim), dtype, "projection weight")
        proj_b = _read_floats(fh, (dim,), dtype, "projection bias")
        centroids = _read_floats(fh, (n_item_clusters, dim), dtype, "centroid table")
        assignment = _read_array(fh, (n_text + n_items,), np.dtype("<u4"))
        hidden_w = _read_floats(fh, (dim, dim), dtype, "encoder hidden weight")
        hidden_b = _read_floats(fh, (dim,), dtype, "encoder hidden bias")
        out_w = _read_floats(fh, (dim, dim), dtype, "encoder output weight")
        out_b = _read_floats(fh, (dim,), dtype, "encoder output bias")
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        left = size - fixed
        if meta_len > left:
            raise SnapshotFormatError(f"truncated snapshot: metadata of {meta_len} bytes, {left} left")
        if meta_len < left:
            raise SnapshotFormatError("trailing bytes after the metadata trailer")
        meta_bytes = _read_exact(fh, meta_len)
        (stored,) = struct.unpack("<I", _read_exact(raw, 4))
        if stored != fh.crc:
            raise SnapshotFormatError(
                f"snapshot checksum mismatch: the file says {stored:#010x}, its bytes give {fh.crc:#010x}"
            )
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotFormatError(f"metadata trailer is not UTF-8 JSON: {exc}") from exc
    if not (
        isinstance(meta, dict)
        and _is_str_list(meta.get("vocab_words"))
        and _is_str_list(meta.get("item_ids"))
        and isinstance(meta.get("config", {}), dict)
    ):
        raise SnapshotFormatError(
            "metadata trailer is not an object with vocab_words and item_ids string lists and a config object"
        )
    mode = meta.get("config", {}).get("softmax_mode", DEFAULT_SOFTMAX_MODE)
    if not (isinstance(mode, str) and mode in MODES):
        raise SnapshotFormatError(f"config softmax_mode {mode!r} is not one of {MODES}")
    if len(meta["vocab_words"]) != n_text or len(meta["item_ids"]) != n_items:
        raise SnapshotFormatError(
            f"metadata lists {len(meta['vocab_words'])} words and {len(meta['item_ids'])} item ids; "
            f"the header says {n_text} and {n_items}"
        )
    if not np.array_equal(assignment[:n_text], np.arange(n_text)):
        raise SnapshotFormatError("cluster assignment does not map each text token to its own cluster")

    tables = ModelTables(
        EmbeddingTable(text),
        EmbeddingTable(item_raw),
        ProjectionHead(proj_w, proj_b),
        EmbeddingTable(centroids),
    )
    item_assignment = assignment[n_text:].astype(np.int64) - n_text
    try:
        cluster_map = ClusterMap(int(n_text), item_assignment, int(n_item_clusters))
        vocab = Vocabulary(meta["vocab_words"])
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"inconsistent snapshot: {exc}") from exc
    encoder = EncoderParams(hidden_w, hidden_b, out_w, out_b)
    return ModelSnapshot(
        tables=tables,
        encoder=encoder,
        cluster_map=cluster_map,
        vocab=vocab,
        item_ids=list(meta["item_ids"]),
        config=meta.get("config", {}),
        name=meta.get("name", "model"),
        price_edges=meta.get("price_edges"),
    )
