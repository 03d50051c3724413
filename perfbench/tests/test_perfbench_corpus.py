import corpus_gen as cg
from mrcner.corpus import parse_conll

SPEC = cg.CorpusSpec(sentences=40, min_tokens=5, max_tokens=30, tokens_per_entity=6)


def generate(seed, split="train"):
    stats = cg.CorpusStats()
    lexicon = cg.Lexicon(seed, filler_vocab=300, entity_phrases=20)
    return cg.generate(SPEC, lexicon, f"{seed}:{split}", stats), stats


def test_same_seed_gives_identical_bytes():
    first, _ = generate(7)
    second, _ = generate(7)
    assert first.encode() == second.encode()


def test_other_seed_or_split_differs():
    assert generate(7)[0] != generate(8)[0]
    assert generate(7, "train")[0] != generate(7, "dev")[0]


def test_stats_match_what_mrcner_parses():
    text, stats = generate(3)
    sentences = parse_conll(text.splitlines(), default_entity_type=cg.ENTITY_TYPE)
    assert stats.sentences == len(sentences) == SPEC.sentences
    assert stats.tokens == sum(len(s) for s in sentences)
    assert stats.gold_spans == sum(len(s.spans()) for s in sentences)
    assert stats.vocabulary == len({t for s in sentences for t in s.tokens})
    assert all(SPEC.min_tokens <= len(s) for s in sentences)


def test_entity_words_occur_as_filler_only_as_decoys():
    lexicon = cg.Lexicon(5, filler_vocab=2000, entity_phrases=200)
    entity_words = {w for phrase in lexicon.phrases for w in phrase}
    assert entity_words.isdisjoint(lexicon.filler)
    assert all(1 <= len(p) <= 3 for p in lexicon.phrases)
    stats = cg.CorpusStats()
    text = cg.generate(cg.CorpusSpec(400, 10, 30, 6), lexicon, "5:train", stats)
    filler = [line.split("\t") for line in text.splitlines() if line.endswith("\tO")]
    decoys = sum(word in entity_words for word, _ in filler)
    assert 0.03 < decoys / len(filler) < 0.07
