"""Seeded synthetic CoNLL corpora for the benchmark workloads.

Filler tokens follow a Zipf law over a fixed-size vocabulary; entity
mentions are 1-3 token phrases typed CHEMICAL whose words are not in that
vocabulary. A share of filler slots (DECOY_RATE) holds an entity word
labelled O instead, so token identity alone does not decide a span: the
model learns the odds of each word over the epochs, and the F1 it reaches
moves with how well it trains instead of sitting at 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ENTITY_TYPE = "CHEMICAL"
# With 5% decoys the workloads' F1 sits at 0.87-0.93 (medians over ten seeds).
DECOY_RATE = 0.05

_ONSETS = "b c d f g h j k l m n p r s t v w z".split()
_VOWELS = "a e i o u".split()
# Filler words strictly alternate consonant and vowel; each entity suffix
# breaks that pattern (a vowel pair or a final consonant), which keeps the two
# vocabularies disjoint by construction.
_ENTITY_SUFFIXES = ("zol", "ine", "rex", "mab", "fen", "tan")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated split."""

    sentences: int
    min_tokens: int
    max_tokens: int
    tokens_per_entity: int  # one entity mention per this many tokens, on average


@dataclass
class CorpusStats:
    sentences: int = 0
    tokens: int = 0
    vocabulary: int = 0
    gold_spans: int = 0

    @property
    def mean_tokens(self) -> float:
        return self.tokens / self.sentences if self.sentences else 0.0

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "tokens": self.tokens,
            "vocabulary": self.vocabulary,
            "gold_spans": self.gold_spans,
            "mean_tokens": round(self.mean_tokens, 3),
        }


def _syllable_words(rng: random.Random, count: int, syllables: tuple[int, int], suffix=()) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        n = rng.randint(*syllables)
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n))
        if suffix:
            word += rng.choice(suffix)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Lexicon:
    """Filler words with Zipf cumulative weights, plus entity phrases."""

    def __init__(self, seed: int, filler_vocab: int, entity_phrases: int, zipf_s: float = 1.1):
        rng = random.Random(f"lexicon:{seed}")
        self.filler = _syllable_words(rng, filler_vocab, (1, 4))
        # Cumulative weights let random.choices bisect instead of summing the
        # raw weights on every call.
        self.cum_weights = list(
            itertools.accumulate(1.0 / (rank + 1) ** zipf_s for rank in range(filler_vocab))
        )
        entity_words = _syllable_words(rng, 3 * entity_phrases, (1, 3), _ENTITY_SUFFIXES)
        words = iter(entity_words)
        self.phrases = [
            tuple(next(words) for _ in range(rng.randint(1, 3))) for _ in range(entity_phrases)
        ]


def generate(spec: CorpusSpec, lexicon: Lexicon, seed: str, stats: CorpusStats) -> str:
    """CoNLL text (token TAB label, blank line between sentences) for one split.

    The same (spec, lexicon, seed) always gives the same text; `stats` is
    updated with what was written.
    """
    rng = random.Random(f"corpus:{seed}")
    blocks = []
    vocab: set[str] = set()
    for _ in range(spec.sentences):
        length = rng.randint(spec.min_tokens, spec.max_tokens)
        n_entities = max(1, round(length / spec.tokens_per_entity))
        phrases = [rng.choice(lexicon.phrases) for _ in range(n_entities)]
        n_filler = max(n_entities + 1, length - sum(len(p) for p in phrases))
        filler = rng.choices(lexicon.filler, cum_weights=lexicon.cum_weights, k=n_filler)
        for i in range(n_filler):
            if rng.random() < DECOY_RATE:
                filler[i] = rng.choice(rng.choice(lexicon.phrases))
        # Entities go into distinct gaps between filler tokens, so no two
        # mentions touch and every mention starts with B.
        slots = sorted(rng.sample(range(1, n_filler), n_entities))
        lines = []
        cursor = 0
        for slot, phrase in zip(slots, phrases):
            lines.extend(f"{w}\tO" for w in filler[cursor:slot])
            lines.extend(f"{w}\t{'B' if i == 0 else 'I'}-{ENTITY_TYPE}" for i, w in enumerate(phrase))
            vocab.update(phrase)
            cursor = slot
        lines.extend(f"{w}\tO" for w in filler[cursor:])
        vocab.update(filler)
        blocks.append("\n".join(lines))
        stats.sentences += 1
        stats.tokens += len(lines)
        stats.gold_spans += n_entities
    stats.vocabulary = len(vocab)
    return "\n\n".join(blocks) + "\n"
