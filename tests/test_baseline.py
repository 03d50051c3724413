import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from mrcner.baseline import (
    BIO_CLASSES,
    BioHeadParams,
    bio_decode,
    bio_head_grads,
    bio_logits,
    bio_targets,
)
from mrcner.corpus import bio_to_spans, repair_bio
from mrcner.heads import HeadError, cross_entropy
from mrcner.mrc_data import SeqConfig, Triple, Vocab, example_from_triple, project_predictions
from oracles import central_difference, relative_error

D = 8
VOCAB = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"])


def bio_example(tokens, answers, etype="CHEMICAL"):
    triple = Triple(list(tokens), None, answers, etype, "d", 0)
    return example_from_triple(triple, VOCAB, SeqConfig(seq_len=16))


def saturated_bio_logits(tags, margin=9.0):
    logits = np.full((len(tags), 3), -margin)
    for i, tag in enumerate(tags):
        logits[i, BIO_CLASSES.index(tag)] = margin
    return logits


class TestBioHead:
    def test_a_variant_has_no_shapes(self):
        with pytest.raises(HeadError, match="no variant"):
            BioHeadParams.shapes(D, "conditioned")

    def test_zero_params_uniform_loss_ln3(self):
        h = np.random.default_rng(0).normal(size=(5, D))
        params = BioHeadParams(np.zeros((D, 3)), np.zeros(3))
        logits = bio_logits(h, params)
        assert not logits.any()
        loss, _ = cross_entropy(logits, np.array([0, 1, 2, 2, 2]))
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_saturated_correct_loss_zero(self):
        targets = np.array([0, 1, 2, 2])
        logits = saturated_bio_logits(["B", "I", "O", "O"], margin=60.0)
        loss, _ = cross_entropy(logits, targets)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_logits_match_matrix_oracle(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, D))
        params = BioHeadParams(rng.normal(size=(D, 3)), rng.normal(size=3))
        logits = bio_logits(h, params)
        for i in range(4):
            for c in range(3):
                manual = sum(h[i, k] * params.w_bio[k, c] for k in range(D)) + params.b_bio[c]
                assert abs(logits[i, c] - manual) <= 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, D))
        params = BioHeadParams(rng.normal(size=(D, 3)), rng.normal(size=3))
        targets = np.array([0, 2, 1, 2, 0])

        def loss():
            l, _ = cross_entropy(bio_logits(h, params), targets)
            return l

        value, dh, grads = bio_head_grads(h, params, targets)
        assert value == pytest.approx(loss(), abs=1e-15)
        for arr, grad in ((params.w_bio, grads["w_bio"]), (params.b_bio, grads["b_bio"]), (h, dh)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for idx in range(flat.size):
                numeric = central_difference(loss, flat, idx)
                assert relative_error(gflat[idx], numeric) <= 1e-6


class TestBioDecode:
    def test_b_then_outside(self):
        ex = bio_example(["Meloxicam", "-", "induced", "liver", "toxicity", "."], [(0, 0)])
        spans = bio_decode(saturated_bio_logits(["B", "O", "O", "O", "O", "O"]), ex)
        assert [(s.start, s.end, s.entity_type) for s in spans] == [(0, 0, "CHEMICAL")]
        assert spans[0].surface == "Meloxicam"

    def test_all_outside(self):
        ex = bio_example(["a", "b", "c"], [])
        assert bio_decode(saturated_bio_logits(["O", "O", "O"]), ex) == []

    def test_dangling_i_opens_a_span(self):
        ex = bio_example(["a", "b", "c"], [])
        spans = bio_decode(saturated_bio_logits(["O", "I", "I"]), ex)
        assert [(s.start, s.end) for s in spans] == [(1, 2)]

    def test_same_spans_as_repairing_first_on_every_short_row(self):
        # Every B/I/O row of length 0-9: an I after an O or at the start opens
        # a span where repair_bio would have made it a B.
        rows = 0
        for n in range(10):
            if n:
                ex = bio_example([f"t{i}" for i in range(n)], [])
            else:  # a triple refuses an empty context, so empty a 1-token example's
                ex = replace(bio_example(["t0"], []), context_range=(1, 0), context_tokens=[])
            for tags in itertools.product(BIO_CLASSES, repeat=n):
                repaired = bio_to_spans(repair_bio(tags)[0])
                want = project_predictions(ex, [(s.start, s.end) for s in repaired])
                assert bio_decode(saturated_bio_logits(tags), ex) == want, tags
                rows += 1
        assert rows == 29_524

    def test_output_valid_for_random_logits(self):
        rng = np.random.default_rng(3)
        ex = bio_example([f"t{i}" for i in range(10)], [])
        for _ in range(200):
            spans = bio_decode(rng.normal(size=(10, 3)), ex)
            for a, b in zip(spans, spans[1:]):
                assert a.end < b.start
            for s in spans:
                assert 0 <= s.start <= s.end < 10


class TestBioTargets:
    def test_targets_from_gold_spans(self):
        ex = bio_example(["a", "b", "c", "d", "e"], [(1, 2), (4, 4)])
        assert [BIO_CLASSES[i] for i in bio_targets(ex)] == ["O", "B", "I", "O", "B"]
