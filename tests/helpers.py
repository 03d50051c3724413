"""Shared corpus and model builders for the test suite."""

import random

from mrcner import model as model_mod
from mrcner.corpus import BioLabel, Sentence
from mrcner.encoder import EncoderConfig
from mrcner.heads import ABLATION, CONDITIONED
from mrcner.mrc_data import CONTEXT_FIRST, SeqConfig, Triple, Vocab

# The worked single-entity sentence used across the data-layer tests.
MELOXICAM_CONLL = (
    "Meloxicam\tB\n"
    "-\tO\n"
    "induced\tO\n"
    "liver\tO\n"
    "toxicity\tO\n"
    ".\tO\n"
)

FILLER_WORDS = [
    "the", "patient", "took", "a", "daily", "dose", "of", "and", "then",
    "reported", "mild", "severe", "after", "treatment", "with", "no",
    "further", "sign", "improvement", "during", "week", "two", "therapy",
    "was", "stopped", "because", "symptoms", "of", "nausea", "resolved",
]

# Entity phrases whose words appear only in their phrase position, so span
# boundaries are decidable from token identity alone (a separable corpus).
ENTITY_PHRASES = [
    ("velcadex",),
    ("orvastin", "forte"),
    ("zebratol", "max", "retard"),
    ("quinaprex",),
    ("lumirol", "plus"),
    ("dexofen",),
    ("carbozine", "ultra"),
    ("mitrazol",),
    ("fluvoxil", "extra", "strength"),
    ("panadrel",),
    ("ketoprex", "duo"),
    ("astemirol",),
]


def make_separable_sentence(rng: random.Random, sent_id: int, entity_type: str = "CHEMICAL") -> Sentence:
    n_entities = rng.randint(1, 2)
    tokens: list[str] = []
    labels: list[BioLabel] = []

    def add_filler(count: int) -> None:
        for _ in range(count):
            tokens.append(rng.choice(FILLER_WORDS))
            labels.append(BioLabel("O"))

    add_filler(rng.randint(2, 4))
    for _ in range(n_entities):
        phrase = rng.choice(ENTITY_PHRASES)
        for i, word in enumerate(phrase):
            tokens.append(word)
            labels.append(BioLabel("B" if i == 0 else "I", entity_type))
        add_filler(rng.randint(2, 4))
    return Sentence(tokens, labels, doc_id="synth", sent_id=sent_id)


def make_separable_corpus(n_sentences: int = 50, seed: int = 7) -> list[Sentence]:
    rng = random.Random(seed)
    return [make_separable_sentence(rng, i) for i in range(n_sentences)]


def corpus_to_conll(sentences) -> str:
    blocks = []
    for sent in sentences:
        blocks.append(
            "\n".join(f"{t}\t{lab.to_raw()}" for t, lab in zip(sent.tokens, sent.labels))
        )
    return "\n\n".join(blocks) + "\n"


def random_bio_sentence(rng: random.Random, max_len: int = 64, max_entities: int = 8,
                        entity_type: str = "CHEMICAL"):
    """A random BIO-valid label sequence as (tag, type) pairs plus its spans."""
    length = rng.randint(1, max_len)
    tags = [("O", None)] * length
    spans = []
    attempts = rng.randint(0, max_entities)
    cursor = 0
    for _ in range(attempts):
        if cursor >= length:
            break
        start = rng.randint(cursor, length - 1)
        end = min(length - 1, start + rng.randint(0, 3))
        spans.append((start, end, entity_type))
        tags[start] = ("B", entity_type)
        for i in range(start + 1, end + 1):
            tags[i] = ("I", entity_type)
        cursor = end + 2
    return tags, spans


# A tiny vocabulary and model for the tests of packed encoding, with every
# head: MRC with either end head, and BIO.
WORDS = [f"w{i}" for i in range(12)]
VOCAB = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + WORDS)
HEADS = [("mrc", CONDITIONED), ("mrc", ABLATION), ("bio-baseline", None)]


def tiny_model(mode, variant, seq_len, order=CONTEXT_FIRST, layers=2, seed=0, dropout=0.0,
               model_dim=8):
    cfg = EncoderConfig(vocab_size=VOCAB.size, layers=layers, model_dim=model_dim, heads=2,
                        ffn_dim=2 * model_dim, max_positions=seq_len, dropout=dropout)
    return model_mod.new_model(mode, variant, cfg, SeqConfig(seq_len, order), VOCAB, seed)


def triple(context_len, query, sent_id, rng, answers=()):
    """A triple of `context_len` random words of WORDS."""
    context = [WORDS[i] for i in rng.integers(0, len(WORDS), context_len)]
    return Triple(context, query, list(answers), "C", "d", sent_id)
