"""Token space shared by text and item IDs.

The output vocabulary is the union of a text vocabulary and the item catalog.
Every token has a *unified ordinal*: text tokens occupy ``[0, n_text)`` and
item tokens occupy ``[n_text, n_text + n_items)``.  All scoring, ranking, and
serialization code speaks ordinals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class TokenSpace:
    """Sizes of the unified token space: text ordinals first, then items."""

    n_text: int
    n_items: int

    @property
    def n_total(self) -> int:
        return self.n_text + self.n_items

    def item_ordinal(self, item_index: int) -> int:
        if not 0 <= item_index < self.n_items:
            raise ValueError(f"item index {item_index} out of range")
        return self.n_text + item_index


OOV_WORD = "<oov>"
PRICE_BUCKET_COUNT = 10

# Fixed prompt rendered around every history; lowercased word-level tokens.
PROMPT_PREFIX_WORDS = (
    "the user has interacted with following items in chronological order".split()
)
PROMPT_QUESTION_WORDS = "which item will the user interact with next".split()
ID_MARKER = "id:"
FIELD_MARKERS = {
    "title": "title:",
    "brand": "brand:",
    "price": "price:",
    "category": "category:",
}


def price_bucket_word(bucket: int) -> str:
    return f"<price:q{bucket}>"


# Every vocabulary starts with these words, so none is smaller.
RESERVED_WORDS = tuple(dict.fromkeys([OOV_WORD, ID_MARKER, *FIELD_MARKERS.values(),
                                      *map(price_bucket_word, range(PRICE_BUCKET_COUNT)),
                                      *PROMPT_PREFIX_WORDS, *PROMPT_QUESTION_WORDS]))
MIN_VOCAB_SIZE = len(RESERVED_WORDS)


def tokenize_text(text: str) -> list[str]:
    """Whitespace-split, lowercased word tokenization."""
    return text.lower().split()


class Vocabulary:
    """Word-level text vocabulary: specials + prompt words + frequent metadata words.

    Words are ranked most-frequent-first (ties broken alphabetically) and the
    total size is capped; anything else maps to the OOV token.
    """

    def __init__(self, words: list[str]):
        self.words = list(words)
        self.word_to_id = {w: i for i, w in enumerate(self.words)}
        if len(self.word_to_id) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")
        if OOV_WORD not in self.word_to_id:
            raise ValueError("vocabulary is missing the OOV token")
        self.oov_id = self.word_to_id[OOV_WORD]
        self.prompt_prefix_ids = [self.word_to_id[w] for w in PROMPT_PREFIX_WORDS]
        self.prompt_question_ids = [self.word_to_id[w] for w in PROMPT_QUESTION_WORDS]
        self.id_marker_id = self.word_to_id[ID_MARKER]
        self.field_marker_ids = {f: self.word_to_id[m] for f, m in FIELD_MARKERS.items()}
        self.price_bucket_ids = [
            self.word_to_id[price_bucket_word(b)] for b in range(PRICE_BUCKET_COUNT)
        ]
        self.prompt_token_ids = frozenset(
            self.prompt_prefix_ids + self.prompt_question_ids + [self.id_marker_id]
        )

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, word: str) -> int:
        return self.word_to_id.get(word, self.oov_id)

    @classmethod
    def from_words(cls, words, max_size: int = 8192) -> "Vocabulary":
        """Build the vocabulary from the metadata strings' words (``tokenize_text``)."""
        if max_size < MIN_VOCAB_SIZE:
            raise ValueError(f"vocab_size must be at least {MIN_VOCAB_SIZE}, got {max_size}")
        counts = Counter(words)
        for w in RESERVED_WORDS:
            counts.pop(w, None)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([*RESERVED_WORDS, *(w for w, _ in ranked[: max_size - MIN_VOCAB_SIZE])])
