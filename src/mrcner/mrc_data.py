"""Assembly of (Context, Query, Answer) triples into model-ready examples.

Word-level tokenization with an [UNK] fallback stands in for subword
tokenization so that token indices in the input are exactly the sentence
token indices the gold spans refer to. An input takes one of two layouts,
context first or query first; a triple without a query (the BIO baseline)
takes the context-first one with an empty query part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import NoneType
from typing import Iterable

import numpy as np

from .corpus import Sentence, are_words, bio_to_spans, dump_json, read_json
from .query import QuerySpec

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

CONTEXT_FIRST = "context-first"
QUERY_FIRST = "query-first"


class MrcDataError(ValueError):
    """Raised for inconsistent triples, coordinates, or sequence budgets."""


@dataclass
class Vocab:
    """Word-level vocabulary with [PAD]/[UNK]/[CLS]/[SEP] at fixed ids 0..3."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if tuple(self.id_to_token[:4]) != SPECIALS:
            raise MrcDataError("vocabulary must start with the four special tokens")
        if set(map(type, self.id_to_token)) != {str}:
            raise MrcDataError("vocabulary tokens must be strings")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise MrcDataError("vocabulary contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        # Literal special-token text in a corpus must not spoof the layout.
        if token in SPECIALS:
            return UNK_ID
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def from_counts(cls, counts: Counter, min_count: int = 1) -> "Vocab":
        """Ids follow (count desc, token asc) order below the specials."""
        kept = [
            tok
            for tok, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            if n >= min_count and tok not in SPECIALS
        ]
        return cls(list(SPECIALS) + kept)


@dataclass(frozen=True)
class SeqConfig:
    """Sequence budget and segment order of the combined input: an example
    holds at most seq_len rows, its context truncated to fit."""

    seq_len: int = 128
    order: str = CONTEXT_FIRST

    def __post_init__(self) -> None:
        if check_field("seq_len", self.seq_len, int) < 4:
            raise MrcDataError("seq_len must be at least 4")
        if self.order not in (CONTEXT_FIRST, QUERY_FIRST):
            raise MrcDataError(f"unknown segment order {self.order!r}")


def check_field(what: str, value, *types: type):
    """`value` if its type is exactly one of `types`, so that a bool is no
    int; else MrcDataError naming `what`."""
    if type(value) not in types:
        names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
        raise MrcDataError(f"{what} must be {names}, got {value!r}")
    return value


def json_spans(what: str, items) -> list[tuple]:
    """The (start, end) of each object in `items`, a JSON list of `what`
    objects; MrcDataError if it is not such a list, KeyError if an object
    lacks a key."""
    return [(s["start"], s["end"]) for s in
            (check_field(what, s, dict) for s in check_field(f"{what}s", items, list))]


@dataclass
class Triple:
    """One (Context, Query, Answer) unit; query is None for the BIO baseline.

    Its fields are checked when it is made, whether read from a file or
    built in code: the ids, entity type and query must have their types; the
    context must be a non-empty list of non-empty tokens without whitespace,
    as a `Sentence`'s are; the answers must be sorted, non-overlapping
    integer spans inside that context. MrcDataError names the first bad one.
    """

    context: list[str]
    query: str | None
    answers: list[tuple[int, int]]
    entity_type: str
    doc_id: str
    sent_id: int

    def __post_init__(self) -> None:
        if not (type(self.context) is list and are_words(self.context)
                and type(self.doc_id) is str and type(self.sent_id) is int
                and type(self.entity_type) is str and type(self.query) in (str, NoneType)):
            self._refuse_fields()
        previous_end = -1
        for start, end in self.answers:
            # bool is an int subclass, but JSON true/false is no index
            if not (type(start) is int and type(end) is int
                    and previous_end < start <= end < len(self.context)):
                raise MrcDataError(
                    f"triple {self.doc_id}/{self.sent_id}: answer ({start!r}, {end!r}) is "
                    f"not an integer span inside its {len(self.context)}-token context after "
                    f"the answer ending at {previous_end} (answers are sorted and do not overlap)"
                )
            previous_end = end

    def _refuse_fields(self) -> None:
        """MrcDataError naming the first field __post_init__ refuses."""
        try:
            check_field("doc_id", self.doc_id, str)
            check_field("sent_id", self.sent_id, int)
            check_field("entity_type", self.entity_type, str)
            check_field("query", self.query, str, NoneType)
            check_field("context", self.context, list)
            bad = next((i for i, tok in enumerate(self.context)
                        if type(tok) is not str or tok.split() != [tok]), None)
            raise MrcDataError("context is empty" if bad is None else
                               f"context token {bad} ({self.context[bad]!r}) is not a "
                               "non-empty string without whitespace")
        except MrcDataError as exc:
            raise MrcDataError(f"triple {self.doc_id}/{self.sent_id}: {exc}") from None

    def to_json(self) -> str:
        record = {
            "context": self.context,
            "query": self.query,
            "answers": [{"start": s, "end": e} for s, e in self.answers],
            "entity_type": self.entity_type,
            "origin": {"doc_id": self.doc_id, "sent_id": self.sent_id},
        }
        return dump_json(record)

    @classmethod
    def from_record(cls, rec: dict, strings: dict | None = None) -> "Triple":
        """The triple of one JSON line's object; KeyError names a missing key,
        MrcDataError a value of the wrong type. Its context tokens, query,
        entity type and doc id are taken from `strings` where an equal string
        is there already, and added to it otherwise."""
        origin = check_field("triple origin", rec["origin"], dict)
        answers = json_spans("triple answer", rec["answers"])
        share = ({} if strings is None else strings).setdefault
        context = rec["context"]
        if type(context) is list:
            try:
                context = list(map(share, context, context))
            except TypeError:  # an unhashable token, which the triple refuses
                pass
        query, entity_type, doc_id = (share(s, s) if type(s) is str else s
                                      for s in (rec["query"], rec["entity_type"], origin["doc_id"]))
        return cls(context, query, answers, entity_type, doc_id, origin["sent_id"])


def triple_from_sentence(
    sentence: Sentence, query: QuerySpec | None, entity_type: str | None = None
) -> Triple:
    """Pair a sentence with a query; answers are the sentence's gold spans of
    the target entity type: the query's type, or `entity_type` for the
    query-free baseline. Without either, MrcDataError."""
    etype = query.entity_type if query is not None else entity_type
    if etype is None:
        raise MrcDataError("a triple without a query needs an entity type")
    spans = bio_to_spans(sentence.labels)  # no surfaces: a triple keeps only offsets
    return Triple(
        context=list(sentence.tokens),
        query=query.text if query is not None else None,
        answers=[(s.start, s.end) for s in spans if s.entity_type == etype],
        entity_type=etype,
        doc_id=sentence.doc_id,
        sent_id=sentence.sent_id,
    )


@dataclass
class MrcExample:
    """An input sequence of only its real rows, at most seq_len of them and
    no padding, with per-context-token start/end target bits; its length,
    `len(input_ids)`, is the one row count the encoder, packs and training
    costs read.

    y_start / y_end are indexed by context position, which by construction
    equals the sentence token index of the (possibly truncated) context.
    They are the example's only record of its kept gold spans: the BIO
    head's targets derive from them (`baseline.bio_targets`).
    """

    input_ids: np.ndarray
    segment_ids: np.ndarray
    context_range: tuple[int, int]
    y_start: np.ndarray
    y_end: np.ndarray
    origin: tuple[str, int, str]
    n_dropped_spans: int = 0

    @property
    def n_context(self) -> int:
        first, last = self.context_range
        return last - first + 1

    @property
    def attention_mask(self) -> np.ndarray:
        """Ones over every row, all of them real. Nothing in mrcner reads it;
        it is kept for `perfbench/tracing.py`, which counts real rows with it."""
        return np.ones(len(self.input_ids), dtype=np.int64)


def example_rows(triple: Triple, cfg: SeqConfig) -> int:
    """The real rows of `triple`'s example under `cfg` (`example_from_triple`,
    which reads its context's length from this): [CLS], the context as far
    as it fits, [SEP], and the query's words and its [SEP] if it has one.
    MrcDataError if the query leaves no row for context."""
    q_rows = 0 if triple.query is None else len(triple.query.split()) + 1
    max_ctx = cfg.seq_len - 2 - q_rows
    if max_ctx < 1:
        raise MrcDataError(
            f"seq_len {cfg.seq_len} leaves no room for context "
            f"(query has {q_rows - 1} tokens)"
        )
    return 2 + min(len(triple.context), max_ctx) + q_rows


def example_from_triple(triple: Triple, vocab: Vocab, cfg: SeqConfig) -> MrcExample:
    """Lay out [CLS] context [SEP] query [SEP] or the query-first variant
    [CLS] query [SEP] context [SEP] in at most seq_len rows, with no
    padding, and place start/end target bits from the answers. A triple
    without a query takes the context-first layout with an empty query
    part: [CLS] context [SEP].

    Context that does not fit is truncated at the tail; answers falling
    wholly or partly past the truncation point are dropped and counted.
    """
    rows = example_rows(triple, cfg)
    has_query = triple.query is not None
    q_part = [vocab.encode(t) for t in triple.query.split()] + [SEP_ID] if has_query else []
    n_ctx = rows - 2 - len(q_part)
    kept = [(s, e) for s, e in triple.answers if e < n_ctx]
    dropped = len(triple.answers) - len(kept)

    ctx_ids = [vocab.encode(t) for t in triple.context[:n_ctx]]
    if cfg.order == CONTEXT_FIRST or not has_query:
        ids = [CLS_ID] + ctx_ids + [SEP_ID] + q_part
        ctx_first = 1
        first_segment = 2 + n_ctx
    else:
        ids = [CLS_ID] + q_part + ctx_ids + [SEP_ID]
        ctx_first = first_segment = 1 + len(q_part)

    segments = [0] * first_segment + [1] * (len(ids) - first_segment)

    y_start = np.zeros(n_ctx, dtype=np.int64)
    y_end = np.zeros(n_ctx, dtype=np.int64)
    for s, e in kept:
        y_start[s] = 1
        y_end[e] = 1
    return MrcExample(
        input_ids=np.asarray(ids, dtype=np.int64),
        segment_ids=np.asarray(segments, dtype=np.int64),
        context_range=(ctx_first, ctx_first + n_ctx - 1),
        y_start=y_start,
        y_end=y_end,
        origin=(triple.doc_id, triple.sent_id, triple.entity_type),
        n_dropped_spans=dropped,
    )


def read_triples(path) -> list[Triple]:
    """The triples of a JSON-lines file; a bad line, or a byte that is not
    UTF-8, is a MrcDataError that names the file and the line. Equal strings
    of one file are one `str` object, so a triple holds a pointer per token
    and the file one string per distinct token."""
    strings: dict[str, str] = {}  # for this call only, unlike sys.intern's table
    return read_json(path, lambda rec: Triple.from_record(rec, strings), MrcDataError, lines=True)


def write_triples(triples: Iterable[Triple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(t.to_json() + "\n")
