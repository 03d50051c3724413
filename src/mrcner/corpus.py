"""BIO-labeled corpus handling.

Parses CoNLL-style two-column files into sentences, repairs invalid BIO
sequences (conlleval convention: a dangling I becomes B), and converts
between label sequences and typed entity spans in both directions.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Sequence

VALID_TAGS = ("B", "I", "O")

# Entity type used when a corpus carries bare B/I tags without a -TYPE suffix.
DEFAULT_ENTITY_TYPE = "ENT"


class CorpusError(ValueError):
    """Malformed corpus input: bad line, unknown tag, or inconsistent spans."""


@contextmanager
def open_utf8(path, error: type[Exception]):
    """`path` opened to read as UTF-8 text. A byte that is not UTF-8 raises
    `error` with the file and line of the first such byte; the line is found
    by reading the file's bytes again once decoding has failed, so valid
    input pays nothing for it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise error(f"{path}, line {line}: byte {data[exc.start]:#04x} is not UTF-8 "
                            f"({exc.reason})") from None
            raise


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


# The one JSON decoder, and encoder by `sort_keys`, of every file mrcner reads
# or writes: NaN, Infinity and 1e999 are refused, and so is a non-finite float.
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_finite_float)
_ENCODERS = [json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"),
                              sort_keys=sort_keys) for sort_keys in (False, True)]


def dump_json(value, sort_keys: bool = False) -> str:
    """`value` as compact JSON with non-ASCII characters unescaped."""
    return _ENCODERS[sort_keys].encode(value)


def parse_json(where: str, text: str | bytes, build, error: type[Exception]):
    """`build` of the JSON object `text` holds (bytes are read as UTF-8).
    Text that is not a JSON object, and a KeyError or ValueError from
    `build`, are `error` naming `where`."""
    try:
        value = _DECODER.decode(text if isinstance(text, str) else text.decode("utf-8"))
    except ValueError as exc:
        raise error(f"{where} is not JSON: {exc}") from None
    if type(value) is not dict:
        raise error(f"{where} is not a JSON object")
    try:
        return build(value)
    except KeyError as exc:
        raise error(f"{where}: the record has no {exc} key") from None
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def read_json(path, build, error: type[Exception], lines: bool = False):
    """`parse_json` of the UTF-8 file `path`, or with `lines` a list of it
    for each non-blank line; `error` names the file (and the line)."""
    with open_utf8(path, error) as fh:
        if not lines:
            return parse_json(str(path), fh.read(), build, error)
        return [parse_json(f"{path}, line {number}", line, build, error)
                for number, line in enumerate(fh, 1) if line.strip()]


@dataclass(frozen=True)
class BioLabel:
    """One per-token BIO label. O carries no entity type; B and I always do."""

    tag: str
    entity_type: str | None = None

    def __post_init__(self) -> None:
        if self.tag not in VALID_TAGS:
            raise CorpusError(f"unknown BIO tag {self.tag!r}")
        if self.tag == "O" and self.entity_type is not None:
            raise CorpusError("O label cannot carry an entity type")
        if self.tag != "O" and not self.entity_type:
            raise CorpusError(f"{self.tag} label requires an entity type")

    def to_raw(self) -> str:
        if self.tag == "O":
            return "O"
        return f"{self.tag}-{self.entity_type}"


@dataclass(frozen=True)
class EntitySpan:
    """Inclusive token-index span [start, end] of one typed entity mention."""

    start: int
    end: int
    entity_type: str
    surface: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.end):
            raise CorpusError(f"invalid span bounds ({self.start}, {self.end})")


def are_words(tokens) -> bool:
    """Whether `tokens` holds at least one token, each a non-empty string
    without whitespace. Checked in bulk, as one string: the tokens'
    concatenation is non-empty and splits into itself."""
    try:
        joined = "".join(tokens)
    except TypeError:  # a token that is not a string
        return False
    return all(tokens) and joined.split() == [joined]


@dataclass
class Sentence:
    """A tokenized sentence with one BIO label per token."""

    tokens: list[str]
    labels: list[BioLabel]
    doc_id: str = ""
    sent_id: int = 0

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.labels):
            raise CorpusError(
                f"sentence {self.doc_id}/{self.sent_id}: {len(self.tokens)} tokens "
                f"vs {len(self.labels)} labels"
            )
        if not are_words(self.tokens):
            if not self.tokens:
                raise CorpusError("sentence must contain at least one token")
            for i, tok in enumerate(self.tokens):
                if not tok or tok.split() != [tok]:
                    raise CorpusError(f"token {i} ({tok!r}) is empty or contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)

    def spans(self) -> list[EntitySpan]:
        return bio_to_spans(self.labels, self.tokens)


@dataclass
class ParseReport:
    """Counts accumulated while parsing one input."""

    sentences: int = 0
    tokens: int = 0
    repaired_labels: int = 0
    entity_spans: Counter = field(default_factory=Counter)  # by entity type


# Every BioLabel parse_label has built, by (raw, default_entity_type).
_PARSED_LABELS: dict[tuple[str, str], BioLabel] = {}


def parse_label(raw: str, index: int, default_entity_type: str = DEFAULT_ENTITY_TYPE) -> BioLabel:
    """Parse a raw label string ("O", "B", "I-Chemical", ...) into a BioLabel.

    Bare B/I tags get `default_entity_type`; a -suffix wins when present.
    A corpus holds few distinct labels, so each distinct (raw,
    default_entity_type) is built and validated once and the frozen label is
    kept in a module-level cache for every later token. A raw label that
    fails is never cached: it raises on every occurrence, naming `index`.
    """
    key = (raw, default_entity_type)
    label = _PARSED_LABELS.get(key)
    if label is None:
        if raw == "O":
            label = BioLabel("O")
        else:
            tag, _, suffix = raw.partition("-")
            if tag not in ("B", "I"):
                raise CorpusError(f"unknown tag {raw!r} at token index {index}")
            label = BioLabel(tag, suffix if suffix else default_entity_type)
        _PARSED_LABELS[key] = label
    return label


def repair_bio(
    labels: Sequence[str], default_entity_type: str = DEFAULT_ENTITY_TYPE
) -> tuple[list[BioLabel], int]:
    """Make a label sequence BIO-valid; returns (labels, number of changes).

    Any I whose predecessor (after repair) is not a B or I of the same type
    becomes a B of its own type. Each raw label is parsed first; an unknown
    tag raises naming the offending token index.
    """
    out: list[BioLabel] = []
    repairs = 0
    for i, raw in enumerate(labels):
        lab = parse_label(raw, i, default_entity_type)
        if lab.tag == "I":
            prev = out[i - 1] if i > 0 else None
            if prev is None or prev.tag == "O" or prev.entity_type != lab.entity_type:
                lab = BioLabel("B", lab.entity_type)
                repairs += 1
        out.append(lab)
    return out, repairs


def bio_to_spans(labels: Sequence[BioLabel], tokens: Sequence[str] | None = None) -> list[EntitySpan]:
    """Convert a BIO-valid label sequence into sorted, non-overlapping spans.

    Every maximal B(I)* run of one entity type becomes one span. When
    `tokens` is given, span surfaces are the space-joined token texts.
    """
    spans: list[EntitySpan] = []
    start = None
    etype = None
    for i, lab in enumerate(labels):
        if start is not None and (lab.tag != "I" or lab.entity_type != etype):
            spans.append(_make_span(start, i - 1, etype, tokens))
            start, etype = None, None
        if lab.tag == "B" or (lab.tag == "I" and start is None):
            start, etype = i, lab.entity_type
    if start is not None:
        spans.append(_make_span(start, len(labels) - 1, etype, tokens))
    return spans


def _make_span(start: int, end: int, etype: str, tokens: Sequence[str] | None) -> EntitySpan:
    surface = " ".join(tokens[start : end + 1]) if tokens is not None else ""
    return EntitySpan(start, end, etype, surface)


def spans_to_bio(spans: Sequence[EntitySpan], length: int) -> list[BioLabel]:
    """Exact inverse of bio_to_spans for sorted, non-overlapping span lists."""
    labels: list[BioLabel] = [BioLabel("O")] * length
    prev: EntitySpan | None = None
    for span in spans:
        if span.end >= length:
            raise CorpusError(f"span ({span.start}, {span.end}) exceeds sentence length {length}")
        if prev is not None and span.start <= prev.end:
            raise CorpusError(
                f"overlapping spans ({prev.start}, {prev.end}) and ({span.start}, {span.end})"
            )
        labels[span.start] = BioLabel("B", span.entity_type)
        for i in range(span.start + 1, span.end + 1):
            labels[i] = BioLabel("I", span.entity_type)
        prev = span
    return labels


def parse_conll_with_report(
    lines: Iterable[str],
    doc_id: str = "",
    default_entity_type: str = DEFAULT_ENTITY_TYPE,
) -> tuple[list[Sentence], ParseReport]:
    """Parse CoNLL-style "token<sep>label" lines into sentences.

    A blank line ends a sentence. Each line is split on a tab when it has
    one, otherwise on a whitespace run (the released BioNER files vary).
    Invalid I labels are repaired and counted. Equal tokens of one call are
    one `str` object, so a sentence holds a pointer per token and the call
    one string per distinct token.
    """
    report = ParseReport()
    sentences: list[Sentence] = []
    tokens: list[str] = []
    raw_labels: list[str] = []
    share = {}.setdefault  # each distinct token's first string, for this call only

    def flush() -> None:
        if not tokens:
            return
        labels, repairs = repair_bio(raw_labels, default_entity_type)
        report.repaired_labels += repairs
        sentences.append(Sentence(list(map(share, tokens, tokens)), labels, doc_id=doc_id,
                                  sent_id=len(sentences)))
        report.sentences += 1
        report.tokens += len(tokens)
        tokens.clear()
        raw_labels.clear()

    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise CorpusError(f"line {lineno}: expected two columns (token, label), got {line!r}")
        tokens.append(fields[0])
        raw_labels.append(fields[1])
    flush()
    # One pass over all labels: a Counter.update per sentence costs 2-3x more.
    report.entity_spans.update(
        lab.entity_type for sent in sentences for lab in sent.labels if lab.tag == "B"
    )
    return sentences, report


def parse_conll(
    lines: Iterable[str],
    doc_id: str = "",
    default_entity_type: str = DEFAULT_ENTITY_TYPE,
) -> list[Sentence]:
    sentences, _ = parse_conll_with_report(lines, doc_id, default_entity_type)
    return sentences


def entity_inventory(sentences: Iterable[Sentence]) -> dict[str, list[str]]:
    """Distinct entity surfaces per type, case-sensitive, lexicographically sorted."""
    seen: dict[str, set[str]] = {}
    for sent in sentences:
        for span in sent.spans():
            seen.setdefault(span.entity_type, set()).add(span.surface)
    return {etype: sorted(seen[etype]) for etype in sorted(seen)}


def sentence_to_json(sentence: Sentence) -> str:
    """One-sentence canonical JSON line with tokens, labels, and gold spans."""
    record = {
        "doc_id": sentence.doc_id,
        "sent_id": sentence.sent_id,
        "tokens": sentence.tokens,
        "labels": [lab.to_raw() for lab in sentence.labels],
        "spans": [
            {"start": s.start, "end": s.end, "type": s.entity_type, "surface": s.surface}
            for s in sentence.spans()
        ],
    }
    return dump_json(record)
