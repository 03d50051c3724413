import itertools
import random

import numpy as np

from mrcner.corpus import EntitySpan
from mrcner.decode import IndexSets, decode_example, extract_indexes, nearest_match
from mrcner.heads import SpanLogits
from mrcner.mrc_data import SeqConfig, Triple, Vocab, example_from_triple
from oracles import nearest_match_literal


def saturated_logits(y_bits, margin=8.0):
    n = len(y_bits)
    logits = np.zeros((n, 2))
    logits[:, 0] = margin
    for i, bit in enumerate(y_bits):
        if bit:
            logits[i] = (-margin, margin)
    return logits


class TestExtractIndexes:
    def test_all_zero_logits_tie_to_class_zero(self):
        sets = extract_indexes(np.zeros((4, 2)), np.zeros((4, 2)))
        assert sets.starts == [] and sets.ends == []

    def test_sign_pattern(self):
        l_start = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, -1.0], [-3.0, 3.0]])
        sets = extract_indexes(l_start, np.zeros((4, 2)))
        assert sets.starts == [0, 3]

    def test_matches_row_scan_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            l_start = rng.normal(size=(9, 2))
            l_end = rng.normal(size=(9, 2))
            sets = extract_indexes(l_start, l_end)
            assert sets.starts == [i for i in range(9) if l_start[i, 1] > l_start[i, 0]]
            assert sets.ends == [j for j in range(9) if l_end[j, 1] > l_end[j, 0]]


class TestNearestMatch:
    def test_disjoint_pairs(self):
        assert nearest_match(IndexSets([2, 7], [4, 9])) == [(2, 4), (7, 9)]

    def test_end_without_start_dropped(self):
        assert nearest_match(IndexSets([], [5])) == []

    def test_nearest_start_wins(self):
        assert nearest_match(IndexSets([2, 3], [5])) == [(3, 5)]

    def test_single_token_span(self):
        assert nearest_match(IndexSets([4], [4])) == [(4, 4)]

    def test_pathological_interleaving(self):
        # ends {3, 4} with starts {2, 7}: 3 claims 2, 4 finds nothing flat.
        assert nearest_match(IndexSets([2, 7], [4, 3])) == [(2, 3)]

    def test_exhaustive_oracle_equivalence(self):
        positions = range(7)
        for starts_bits in itertools.product([0, 1], repeat=7):
            starts = [i for i in positions if starts_bits[i]]
            for ends_bits in itertools.product([0, 1], repeat=7):
                ends = [j for j in positions if ends_bits[j]]
                got = nearest_match(IndexSets(starts, ends))
                assert got == nearest_match_literal(starts, ends)

    def test_output_always_flat_and_sorted(self):
        rng = random.Random(3)
        for _ in range(500):
            starts = sorted(rng.sample(range(20), rng.randint(0, 8)))
            ends = sorted(rng.sample(range(20), rng.randint(0, 8)))
            pairs = nearest_match(IndexSets(starts, ends))
            assert all(s <= e for s, e in pairs)
            assert pairs == sorted(pairs)
            for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
                assert e1 < s2

    def test_idempotent_pairing(self):
        rng = random.Random(5)
        for _ in range(300):
            starts = sorted(rng.sample(range(16), rng.randint(0, 6)))
            ends = sorted(rng.sample(range(16), rng.randint(0, 6)))
            pairs = nearest_match(IndexSets(starts, ends))
            again = nearest_match(IndexSets([s for s, _ in pairs], [e for _, e in pairs]))
            assert again == pairs


def tiny_example(tokens, answers):
    triple = Triple(list(tokens), "none", answers, "CHEMICAL", "d0", 0)
    vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + sorted(set(tokens)))
    return example_from_triple(triple, vocab, SeqConfig(seq_len=32))


class TestDecodeExample:
    def test_single_token_entity_at_zero(self):
        example = tiny_example(["Meloxicam", "-", "induced"], [(0, 0)])
        logits = SpanLogits(saturated_logits(example.y_start), saturated_logits(example.y_end))
        assert decode_example(example, logits) == [
            EntitySpan(0, 0, "CHEMICAL", "Meloxicam")
        ]

    def test_all_zero_logits_decode_to_nothing(self):
        example = tiny_example(["a", "b", "c"], [(1, 2)])
        n = example.n_context
        assert decode_example(example, SpanLogits(np.zeros((n, 2)), np.zeros((n, 2)))) == []

    def test_gold_targets_reproduce_gold_spans(self):
        rng = random.Random(99)
        vocab_words = [f"w{i}" for i in range(30)]
        for _ in range(500):
            length = rng.randint(1, 12)
            tokens = [rng.choice(vocab_words) for _ in range(length)]
            answers = []
            cursor = 0
            while cursor < length and rng.random() < 0.7:
                start = rng.randint(cursor, length - 1)
                end = min(length - 1, start + rng.randint(0, 2))
                answers.append((start, end))
                cursor = end + 2
            example = tiny_example(tokens, answers)
            logits = SpanLogits(
                saturated_logits(example.y_start), saturated_logits(example.y_end)
            )
            decoded = decode_example(example, logits)
            assert [(s.start, s.end) for s in decoded] == answers
            assert decoded == [EntitySpan(s, e, "CHEMICAL", " ".join(tokens[s : e + 1]))
                               for s, e in answers]
