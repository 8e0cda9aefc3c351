"""Catalog construction: JSONL ingestion, the leave-one-out split, dataset assembly.

The interaction file has one JSON object per line with required fields
``user``, ``item``, ``timestamp`` and optional ``title``, ``brand``,
``price``, ``category``.  Blank lines are skipped.  ``user`` and ``item``
must be strings or integers, an integer standing for its decimal string, and
``timestamp`` and ``price`` must be finite numbers, and ``title``, ``brand``
and ``category`` strings or null.  Items are deduplicated
into the catalog in first-seen order, which fixes the item token indices.
An item's metadata is its first event's, and later events only fill the
fields it still lacks.  Every error in a line names the line.

:class:`Interactions` is one chronological event array with per-user
offsets: user ``u``'s items, sorted by (timestamp, input order), are
``events[offsets[u]:offsets[u + 1]]``.  The split is the users with at least
three events; a user's last event is test, the one before it validation.
A :class:`Dataset` holds the split users' runs as the same two arrays, and
its examples as slices of them, not objects: the history
``events[start:end]`` predicts the target ``events[end]``.
Train examples are the prefixes of a user's train run (``train_starts``,
``train_ends``); a user's validation and test examples end two and one
events before the user's last.  ``train_examples``, ``val_examples`` and
``test_examples`` are the same examples as :class:`SequenceExample` lists,
built on first access.  ``field_tokens`` holds every item's metadata fields
tokenized once, from the same word split that counts the vocabulary, and a
price as the token of its decile bucket over ``price_edges``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DataError
from .tokens import PRICE_BUCKET_COUNT, TokenSpace, Vocabulary, tokenize_text

REQUIRED_FIELDS = ("user", "item", "timestamp")
METADATA_FIELDS = ("title", "brand", "price", "category")


@dataclass
class ItemRecord:
    item_id: str
    title: str | None = None
    brand: str | None = None
    price: float | None = None
    category: str | None = None


class Catalog:
    """Item records in token-index order plus the external-id lookup."""

    def __init__(self, records: list[ItemRecord], index: dict[str, int]):
        self.records = records
        self._index = index  # item id -> its record's position in ``records``

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, item_index: int) -> ItemRecord:
        return self.records[item_index]

    def index_of(self, item_id: str) -> int:
        return self._index[item_id]

    def item_ids(self) -> list[str]:
        return [r.item_id for r in self.records]


@dataclass(frozen=True)
class CatalogStats:
    n_users: int
    n_items: int
    items_per_user: float
    purchases_per_item: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class Interactions:
    catalog: Catalog
    users: list[str]  # first-seen order
    events: np.ndarray  # item indices, user after user, each user's chronological
    offsets: np.ndarray  # (n_users + 1,): user u's items are events[offsets[u]:offsets[u + 1]]

    @property
    def n_events(self) -> int:
        return self.events.size

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
    except (ValueError, RecursionError) as exc:  # an int of too many digits, or nesting too deep
        raise DataError(f"line {line_no}: malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: expected a JSON object")
    for name in REQUIRED_FIELDS:
        if name not in obj:
            raise DataError(f"line {line_no}: missing required field '{name}'")
    return obj


# The name of each JSON value's type.
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "integer", float: "float", list: "array", dict: "object"}


def _id(value, name: str, line_no: int) -> str:
    """A ``user`` or ``item`` id that is not a string: an integer is its
    decimal string, and any other JSON value is a :class:`DataError` naming
    the line, so that ``null`` is not the id "None", nor ``1.0`` another
    item than ``1``."""
    if type(value) is int:  # not bool, a subclass of int
        return str(value)
    raise DataError(f"line {line_no}: {name} must be a string or an integer, got {_JSON_TYPES[type(value)]}")


_TEXT_TYPES = (str, type(None))


def _reject_text_fields(obj: dict, line_no: int):
    """Raise the :class:`DataError`, naming the line and the field, for the
    first of ``title``, ``brand`` and ``category`` that is neither a string
    nor null: ``str()`` of an object title would make words of its braces."""
    for name in ("title", "brand", "category"):
        value = obj.get(name)
        if type(value) not in _TEXT_TYPES:
            raise DataError(f"line {line_no}: {name} must be a string or null, got {_JSON_TYPES[type(value)]}")


def _number(value, name: str, line_no: int) -> float:
    """``value`` as a float; one that does not convert, or is NaN or
    infinite, is a :class:`DataError` naming the line."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DataError(f"line {line_no}: {name} is not a number") from None
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: {name} is not a finite number")
    return value


# The names of an item's missing metadata fields, keyed by which fields are
# None: a new item costs one lookup, not a set built for it.
_MISSING = {
    mask: frozenset(itertools.compress(METADATA_FIELDS, mask))
    for mask in itertools.product((False, True), repeat=len(METADATA_FIELDS))
}


def _missing_fields(record: ItemRecord) -> frozenset[str]:
    return _MISSING[record.title is None, record.brand is None, record.price is None, record.category is None]


def ingest_jsonl(path) -> Interactions:
    """Read an interaction file into one event array of per-user, time-sorted runs.

    Duplicate (user, item, timestamp) lines are retained as distinct events;
    timestamp ties are broken by input order.

    Each stripped line is parsed by itself with the JSON scanner that
    ``json.loads`` runs, and must end where its value ends; a line it
    rejects is parsed again by ``_parse_line``, which raises its error.  An
    item's record is built from its first event; only an item still missing
    a field looks at later events' metadata, to fill it.
    """
    scan = json.JSONDecoder().scan_once
    records: list[ItemRecord] = []
    index: dict[str, int] = {}
    missing: list[frozenset[str]] = []  # per item, its metadata fields still None
    user_codes: dict[str, int] = {}  # user -> its position in first-seen order
    event_users, event_items, event_times = [], [], []  # per event, in input order
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = scan(line, 0)
            user, item, timestamp = obj["user"], obj["item"], obj["timestamp"]
        except (StopIteration, ValueError, RecursionError, TypeError, KeyError):  # bad JSON, not an object, no field
            end = None
        if end != len(line):  # the per-line parser raises json.loads's error, or names the missing field
            obj = _parse_line(line, line_no)
            user, item, timestamp = obj["user"], obj["item"], obj["timestamp"]
        if type(user) is not str:
            user = _id(user, "user", line_no)
        if type(item) is not str:
            item = _id(item, "item", line_no)
        timestamp = _number(timestamp, "timestamp", line_no)
        price = obj.get("price")
        if price is not None:
            price = _number(price, "price", line_no)
        title, brand, category = obj.get("title"), obj.get("brand"), obj.get("category")
        if type(title) not in _TEXT_TYPES or type(brand) not in _TEXT_TYPES or type(category) not in _TEXT_TYPES:
            _reject_text_fields(obj, line_no)
        item_index = index.get(item)
        if item_index is None:
            item_index = index[item] = len(records)
            record = ItemRecord(item, title, brand, price, category)
            records.append(record)
            missing.append(_missing_fields(record))
        elif (gaps := missing[item_index]) and not gaps.isdisjoint(obj):
            # First-seen metadata wins; a later event only fills fields still None.
            record = records[item_index]
            for name in gaps:
                value = price if name == "price" else obj.get(name)
                if value is not None:
                    setattr(record, name, value)
            missing[item_index] = _missing_fields(record)
        event_users.append(user_codes.setdefault(user, len(user_codes)))
        event_items.append(item_index)
        event_times.append(timestamp)
    if not event_users:
        raise DataError(f"{path}: no interaction lines found")
    codes = np.array(event_users, dtype=np.int64)
    # Users in first-seen order, then time; lexsort is stable, so ties keep input order.
    order = np.lexsort((np.array(event_times, dtype=np.float64), codes))
    offsets = np.zeros(len(user_codes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes), out=offsets[1:])
    events = np.array(event_items, dtype=np.int64)[order]
    return Interactions(catalog=Catalog(records, index), users=list(user_codes), events=events, offsets=offsets)


@dataclass
class SplitResult:
    """The users with at least three events: all but the last two are train."""

    users: list[str]
    n_dropped_users: int
    n_events: int  # the kept users' events

    def counts(self) -> tuple[int, int, int]:
        """Train, validation and test event counts."""
        n_users = len(self.users)
        return self.n_events - 2 * n_users, n_users, n_users


@dataclass(frozen=True, slots=True)
class SequenceExample:
    """One next-item prediction instance: item history plus a single target."""

    user: str
    history: tuple[int, ...]  # item indices, chronological
    target: int  # item index

    def __post_init__(self):
        if len(self.history) == 0:
            raise ValueError("history must be non-empty")


def concat_ranges(starts, lengths) -> np.ndarray:
    """``np.arange(s, s + n)`` for each pair of ``starts`` and ``lengths``, concatenated."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = lengths.cumsum()
    return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1] if ends.size else 0)


def _price_edges(catalog: Catalog) -> np.ndarray | None:
    """The inner decile edges of the catalog's prices, or None if no item has
    a price.  A price's bucket is the number of edges at or below it."""
    prices = np.array([r.price for r in catalog.records if r.price is not None], dtype=np.float64)
    if not prices.size:
        return None
    qs = np.linspace(0, 1, PRICE_BUCKET_COUNT + 1)[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.quantile(prices, qs)
    if not np.isfinite(edges).all():
        # Prices of both signs near the float range overflow a difference; halves do not.
        edges = 2.0 * np.quantile(prices / 2.0, qs)
    return edges


@dataclass(frozen=True)
class FieldTokens:
    """Every item's present metadata fields as token segments in one array.

    Segment ``s`` is ``tokens[seg_ptr[s]:seg_ptr[s + 1]]``: the field's
    marker, then its word ids, or the price-bucket token for a price.  Item
    ``i`` owns segments ``item_ptr[i]:item_ptr[i + 1]``, one per field it
    has, in ``METADATA_FIELDS`` order.
    """

    tokens: np.ndarray
    seg_ptr: np.ndarray
    item_ptr: np.ndarray


def _tokenize_fields(catalog: Catalog, vocab_size: int, price_edges: np.ndarray | None):
    """The vocabulary over the catalog's text fields and every item's
    :class:`FieldTokens`, from one word split of each text."""
    markers, lengths, per_item, words = [], [], [], []
    price_segs, prices = [], []
    for record in catalog.records:
        n = 0
        for name in METADATA_FIELDS:
            value = getattr(record, name)
            if value is None:
                continue
            n += 1
            if name == "price":
                price_segs.append(len(lengths))
                prices.append(value)
                lengths.append(1)
            else:
                split = tokenize_text(str(value))
                words += split
                lengths.append(len(split))
            markers.append(name)
        per_item.append(n)
    vocab = Vocabulary.from_words(words, max_size=vocab_size)

    seg_ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64) + 1, out=seg_ptr[1:])
    tokens = np.empty(seg_ptr[-1], dtype=np.int64)
    tokens[seg_ptr[:-1]] = [vocab.field_marker_ids[name] for name in markers]
    is_word = np.ones(tokens.size, dtype=bool)
    is_word[seg_ptr[:-1]] = False
    if prices:
        price_at = seg_ptr[price_segs] + 1
        buckets = np.searchsorted(price_edges, np.asarray(prices, dtype=np.float64), side="right")
        tokens[price_at] = np.asarray(vocab.price_bucket_ids)[buckets]
        is_word[price_at] = False
    tokens[is_word] = np.fromiter(
        map(vocab.word_to_id.get, words, itertools.repeat(vocab.oov_id)), np.int64, count=len(words)
    )
    item_ptr = np.zeros(len(per_item) + 1, dtype=np.int64)
    np.cumsum(per_item, out=item_ptr[1:])
    return vocab, FieldTokens(tokens=tokens, seg_ptr=seg_ptr, item_ptr=item_ptr)


@dataclass
class Dataset:
    """Everything the trainer and evaluator need, derived from one corpus."""

    name: str
    catalog: Catalog
    vocab: Vocabulary
    space: TokenSpace
    price_edges: np.ndarray | None  # inner decile edges of the catalog's prices
    split: SplitResult
    field_tokens: FieldTokens = field(repr=False)
    events: np.ndarray = field(repr=False)  # every split user's items, users in split order
    offsets: np.ndarray = field(repr=False)  # (n_users + 1,): user u's items are events[offsets[u]:offsets[u + 1]]
    train_starts: np.ndarray = field(repr=False)  # per train example, where its history starts in events
    train_ends: np.ndarray = field(repr=False)  # per train example, its target's index in events

    @property
    def n_items(self) -> int:
        return len(self.catalog)

    def train_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every split user's train events, its run but the last two, user
        after user, and how many each user has."""
        sizes = np.diff(self.offsets) - 2
        return self.events[concat_ranges(self.offsets[:-1], sizes)], sizes

    @cached_property
    def train_item_counts(self) -> np.ndarray:
        return np.bincount(self.train_runs()[0], minlength=self.n_items)

    @cached_property
    def _runs(self) -> list[tuple[str, list[int]]]:
        """Each split user's name and items, as a list.  The example lists'
        histories are slices of these, and the items are the catalog's own
        index ints, looked up by id in record order, so no example holds an
        int of its own (at catalog-10k, 19k of them, 0.6 MB)."""
        index_ints = list(map(self.catalog.index_of, self.catalog.item_ids()))
        items = list(map(index_ints.__getitem__, self.events.tolist()))
        bounds = self.offsets.tolist()
        return [(user, items[lo:hi]) for user, lo, hi in zip(self.split.users, bounds, bounds[1:])]

    @cached_property
    def train_examples(self) -> list[SequenceExample]:
        return [
            SequenceExample(user, tuple(run[:j]), run[j]) for user, run in self._runs for j in range(1, len(run) - 2)
        ]

    @cached_property
    def val_examples(self) -> list[SequenceExample]:
        return [SequenceExample(user, tuple(run[:-2]), run[-2]) for user, run in self._runs]

    @cached_property
    def test_examples(self) -> list[SequenceExample]:
        return [SequenceExample(user, tuple(run[:-1]), run[-1]) for user, run in self._runs]


def build_dataset(interactions: Interactions, vocab_size: int = 8192, name: str = "data") -> Dataset:
    if interactions.n_events == 0:
        raise DataError("empty corpus")
    per_user = np.diff(interactions.offsets)
    kept = per_user >= 3
    if not kept.any():
        raise DataError("no user has enough interactions to split")
    lengths = per_user[kept]
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    events = interactions.events[np.repeat(kept, per_user)]
    split = SplitResult(
        users=list(itertools.compress(interactions.users, kept.tolist())),
        n_dropped_users=kept.size - lengths.size,
        n_events=events.size,
    )
    catalog = interactions.catalog
    price_edges = _price_edges(catalog)
    vocab, field_tokens = _tokenize_fields(catalog, vocab_size, price_edges)
    # A user with n events has a train run of n - 2 and n - 3 train examples,
    # the run's prefixes of 1 to n - 3 items.
    n_examples = lengths - 3
    return Dataset(
        name=name,
        catalog=catalog,
        vocab=vocab,
        space=TokenSpace(n_text=len(vocab), n_items=len(catalog)),
        price_edges=price_edges,
        split=split,
        field_tokens=field_tokens,
        events=events,
        offsets=offsets,
        train_starts=np.repeat(offsets[:-1], n_examples),
        train_ends=concat_ranges(offsets[:-1] + 1, n_examples),
    )
