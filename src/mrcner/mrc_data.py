"""Assembly of (Context, Query, Answer) triples into model-ready examples.

Word-level tokenization with an [UNK] fallback stands in for subword
tokenization so that token indices in the input are exactly the sentence
token indices the gold spans refer to.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import EntitySpan, Sentence, bio_to_spans
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
    """Padded sequence length and segment order of the combined input."""

    seq_len: int = 128
    order: str = CONTEXT_FIRST

    def __post_init__(self) -> None:
        if self.seq_len < 4:
            raise MrcDataError("seq_len must be at least 4")
        if self.order not in (CONTEXT_FIRST, QUERY_FIRST):
            raise MrcDataError(f"unknown segment order {self.order!r}")


@dataclass
class Triple:
    """One (Context, Query, Answer) unit; query is None for the BIO baseline."""

    context: list[str]
    query: str | None
    answers: list[tuple[int, int]]
    entity_type: str
    doc_id: str
    sent_id: int

    def to_json(self) -> str:
        record = {
            "context": self.context,
            "query": self.query,
            "answers": [{"start": s, "end": e} for s, e in self.answers],
            "entity_type": self.entity_type,
            "origin": {"doc_id": self.doc_id, "sent_id": self.sent_id},
        }
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Triple":
        """Parse one triple; its answers must be sorted, non-overlapping spans
        inside its own context, or MrcDataError names the first bad one."""
        rec = json.loads(line)
        triple = cls(
            context=list(rec["context"]),
            query=rec["query"],
            answers=[(a["start"], a["end"]) for a in rec["answers"]],
            entity_type=rec["entity_type"],
            doc_id=rec["origin"]["doc_id"],
            sent_id=rec["origin"]["sent_id"],
        )
        previous_end = -1
        for start, end in triple.answers:
            if not (isinstance(start, int) and isinstance(end, int)
                    and previous_end < start <= end < len(triple.context)):
                raise MrcDataError(
                    f"triple {triple.doc_id}/{triple.sent_id}: answer ({start!r}, {end!r}) is "
                    f"not an integer span inside its {len(triple.context)}-token context after "
                    f"the answer ending at {previous_end} (answers are sorted and do not overlap)"
                )
            previous_end = end
        return triple


def triple_from_sentence(
    sentence: Sentence, query: QuerySpec | None, entity_type: str | None = None
) -> Triple:
    """Pair a sentence with a query; answers are the sentence's gold spans of
    the target entity type (the query's type, or `entity_type` for the
    query-free baseline)."""
    etype = query.entity_type if query is not None else entity_type
    spans = bio_to_spans(sentence.labels)  # no surfaces: a triple keeps only offsets
    if etype is not None:
        spans = [s for s in spans if s.entity_type == etype]
        entity_type = etype
    else:
        entity_type = spans[0].entity_type if spans else ""
    return Triple(
        context=list(sentence.tokens),
        query=query.text if query is not None else None,
        answers=[(s.start, s.end) for s in spans],
        entity_type=entity_type,
        doc_id=sentence.doc_id,
        sent_id=sentence.sent_id,
    )


@dataclass
class MrcExample:
    """A padded input sequence with per-context-token start/end target bits.

    y_start / y_end are indexed by context position, which by construction
    equals the sentence token index of the (possibly truncated) context.
    """

    input_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    context_range: tuple[int, int]
    y_start: np.ndarray
    y_end: np.ndarray
    gold_spans: list[EntitySpan]
    origin: tuple[str, int, str]
    context_tokens: list[str]
    n_dropped_spans: int = 0

    @property
    def n_context(self) -> int:
        first, last = self.context_range
        return last - first + 1


def example_from_triple(triple: Triple, vocab: Vocab, cfg: SeqConfig) -> MrcExample:
    """Lay out [CLS] context [SEP] query [SEP] (or the query-first variant,
    or [CLS] context [SEP] when the triple carries no query), pad to seq_len,
    and place start/end target bits from the answers.

    Context that does not fit is truncated at the tail; answers falling
    wholly or partly past the truncation point are dropped and counted.
    """
    q_tokens = triple.query.split() if triple.query is not None else None
    overhead = 3 + len(q_tokens) if q_tokens is not None else 2
    max_ctx = cfg.seq_len - overhead
    if max_ctx < 1:
        raise MrcDataError(
            f"seq_len {cfg.seq_len} leaves no room for context "
            f"(query has {len(q_tokens or [])} tokens)"
        )

    ctx_tokens = triple.context[:max_ctx]
    n_ctx = len(ctx_tokens)
    kept = [(s, e) for s, e in triple.answers if e < n_ctx and s < n_ctx]
    dropped = len(triple.answers) - len(kept)

    ctx_ids = [vocab.encode(t) for t in ctx_tokens]
    if q_tokens is None:
        ids = [CLS_ID] + ctx_ids + [SEP_ID]
        ctx_first = 1
        first_segment = len(ids)
    elif cfg.order == CONTEXT_FIRST:
        ids = [CLS_ID] + ctx_ids + [SEP_ID] + [vocab.encode(t) for t in q_tokens] + [SEP_ID]
        ctx_first = 1
        first_segment = 2 + n_ctx
    else:
        ids = [CLS_ID] + [vocab.encode(t) for t in q_tokens] + [SEP_ID] + ctx_ids + [SEP_ID]
        ctx_first = 2 + len(q_tokens)
        first_segment = 2 + len(q_tokens)

    n_real = len(ids)
    segments = [0] * first_segment + [1] * (n_real - first_segment)
    mask = [1] * n_real
    pad = cfg.seq_len - n_real
    ids += [PAD_ID] * pad
    segments += [0] * pad
    mask += [0] * pad

    y_start = np.zeros(n_ctx, dtype=np.int64)
    y_end = np.zeros(n_ctx, dtype=np.int64)
    for s, e in kept:
        y_start[s] = 1
        y_end[e] = 1

    gold = [
        EntitySpan(s, e, triple.entity_type, " ".join(ctx_tokens[s : e + 1])) for s, e in kept
    ]
    return MrcExample(
        input_ids=np.asarray(ids, dtype=np.int64),
        segment_ids=np.asarray(segments, dtype=np.int64),
        attention_mask=np.asarray(mask, dtype=np.int64),
        context_range=(ctx_first, ctx_first + n_ctx - 1),
        y_start=y_start,
        y_end=y_end,
        gold_spans=gold,
        origin=(triple.doc_id, triple.sent_id, triple.entity_type),
        context_tokens=ctx_tokens,
        n_dropped_spans=dropped,
    )


def project_predictions(
    example: MrcExample, spans_in_context_coords: Sequence[tuple[int, int]]
) -> list[EntitySpan]:
    """Re-express context-coordinate (start, end) pairs as typed entity spans.

    Context coordinates are already sentence token indices, so only the
    entity type and surface are attached; out-of-range coordinates raise.
    """
    n_ctx = example.n_context
    etype = example.origin[2]
    out = []
    for s, e in spans_in_context_coords:
        if not (0 <= s <= e < n_ctx):
            raise MrcDataError(f"span ({s}, {e}) outside context of length {n_ctx}")
        out.append(EntitySpan(s, e, etype, " ".join(example.context_tokens[s : e + 1])))
    return out


def read_triples(path) -> list[Triple]:
    with open(path, encoding="utf-8") as fh:
        return [Triple.from_json(line) for line in fh if line.strip()]


def write_triples(triples: Iterable[Triple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(t.to_json() + "\n")
