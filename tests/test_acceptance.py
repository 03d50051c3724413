"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mrcner import model as model_mod
from mrcner.cli import main as cli_main
from mrcner.corpus import EntitySpan, bio_to_spans, spans_to_bio
from mrcner.decode import IndexSets, decode_example, nearest_match
from mrcner.encoder import EncoderConfig
from mrcner.heads import SpanLogits, span_loss
from mrcner.metrics import f1_from_pr, format_pct, stars_for, t_test
from mrcner.mrc_data import SeqConfig, Triple, Vocab, example_from_triple, triple_from_sentence
from mrcner.query import QueryStrategy, build_query, render_query
from mrcner.train import TrainConfig, train

from helpers import corpus_to_conll, make_separable_corpus, random_bio_sentence
from oracles import (
    REFERENCE_ROW_F1_EXACT,
    WELCH_FIXTURES,
    central_difference,
    nearest_match_literal,
    relative_error,
    spans_by_run_scan,
)

from mrcner.corpus import BioLabel


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d}: PASS  {description}  ({elapsed:.1f}s)")


def test_01_bio_span_round_trip():
    with criterion(1, "BIO<->span round trip, 1000 random sequences vs run-scan oracle"):
        start = time.monotonic()
        rng = random.Random(417)
        for _ in range(1000):
            tags, _ = random_bio_sentence(rng, max_len=64, max_entities=8)
            labels = [BioLabel(t, e) for t, e in tags]
            spans = bio_to_spans(labels)
            assert [(s.start, s.end, s.entity_type) for s in spans] == spans_by_run_scan(tags)
            assert spans_to_bio(spans, len(labels)) == labels
            assert bio_to_spans(spans_to_bio(spans, len(labels))) == spans
        assert time.monotonic() - start < 5.0


def test_02_f1_arithmetic_reproduces_published_row():
    with criterion(2, "F1 arithmetic on the published P=94.37 / R=94.00 row"):
        f1 = f1_from_pr(94.37, 94.00)
        # The arithmetic itself, pinned against the pre-computed constant.
        assert abs(f1 - REFERENCE_ROW_F1_EXACT) < 1e-9
        # The row's printed P and R are two-decimal roundings, each carrying
        # +-0.005pp of slack; the published F1 = 94.19 must be reachable
        # inside that window at the same +-0.005pp.
        lo = f1_from_pr(94.37 - 0.005, 94.00 - 0.005)
        hi = f1_from_pr(94.37 + 0.005, 94.00 + 0.005)
        assert lo - 0.005 <= 94.19 <= hi + 0.005
        assert lo <= f1 <= hi
        # And the reporting path rounds half away from zero at two decimals.
        assert format_pct(hi / 100.0) == "94.19"


def test_03_model_gradients_match_finite_differences():
    with criterion(3, "finite-difference gradient check, both end-head variants"):
        start = time.monotonic()
        vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(16)])
        cfg = EncoderConfig(vocab_size=vocab.size, layers=2, model_dim=8, heads=2,
                            ffn_dim=16, max_positions=32, dropout=0.0)
        # total real length 16: [CLS] + 10 context + [SEP] + 3 query + [SEP]
        tokens = [f"w{(3 * i) % 16}" for i in range(10)]
        triple = Triple(tokens, "w1 w2 w3", [(0, 2), (5, 5)], "C", "d", 0)
        example = example_from_triple(triple, vocab, SeqConfig(seq_len=24))
        assert len(example.input_ids) == 16

        for variant in ("conditioned", "ablation"):
            mdl = model_mod.new_model("mrc", variant, cfg, SeqConfig(24), vocab, seed=3)

            def scalar_loss():
                (loss,), _ = model_mod.pack_loss_and_grads(mdl, [example], [mdl.zero_grads()[1]])
                return loss

            _, (grads,) = model_mod.pack_loss_and_grads(mdl, [example], [mdl.zero_grads()[1]])
            fd_rng = np.random.default_rng(29)
            for name, arr in mdl.params.items():
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                n_pick = min(200, flat.size)
                picks = fd_rng.choice(flat.size, size=n_pick, replace=False)
                for idx in picks:
                    numeric = central_difference(scalar_loss, flat, int(idx))
                    err = relative_error(gflat[int(idx)], numeric)
                    assert err <= 1e-4, f"{variant} {name}[{idx}] rel err {err:.2e}"
        assert time.monotonic() - start < 60.0


def test_04_nearest_match_exhaustive_oracle_equivalence():
    with criterion(4, "nearest-match equals brute-force rule on all index sets over 0..6"):
        start = time.monotonic()
        subsets = [
            [i for i in range(7) if bits & (1 << i)] for bits in range(128)
        ]
        for starts in subsets:
            for ends in subsets:
                assert nearest_match(IndexSets(starts, ends)) == nearest_match_literal(
                    starts, ends
                )
        assert time.monotonic() - start < 5.0


def test_05_gold_target_decode_identity():
    with criterion(5, "decoding saturated gold-target logits returns gold spans (500 sentences)"):
        rng = random.Random(5150)
        words = [f"tok{i}" for i in range(40)]
        vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + words)
        cfg = SeqConfig(seq_len=48)
        for case in range(500):
            length = rng.randint(1, 20)
            tokens = [rng.choice(words) for _ in range(length)]
            answers = []
            cursor = 0
            while cursor < length and rng.random() < 0.75:
                s = rng.randint(cursor, length - 1)
                e = min(length - 1, s + rng.randint(0, 3))
                answers.append((s, e))
                cursor = e + 2
            triple = Triple(tokens, "none", answers, "CHEMICAL", "d", case)
            example = example_from_triple(triple, vocab, cfg)
            n = example.n_context
            l_start = np.where(example.y_start[:, None] == 1, (-9.0, 9.0), (9.0, -9.0))
            l_end = np.where(example.y_end[:, None] == 1, (-9.0, 9.0), (9.0, -9.0))
            decoded = decode_example(example, SpanLogits(l_start, l_end))
            assert decoded == [EntitySpan(s, e, "CHEMICAL", " ".join(tokens[s : e + 1]))
                               for s, e in answers]
            assert [(s.start, s.end) for s in decoded] == answers


def test_06_overfit_smoke_mrc_and_baseline():
    with criterion(6, "50-sentence overfit to F1=1.0: MRC q3 (both variants) and BIO baseline"):
        start = time.monotonic()
        sentences = make_separable_corpus(50, seed=7)
        vocab_size = len({t for s in sentences for t in s.tokens})
        assert vocab_size <= 200
        from mrcner.corpus import entity_inventory

        inventory = entity_inventory(sentences)
        query = build_query("CHEMICAL", QueryStrategy.parse("q3"), inventory, seed=13)

        for variant in ("conditioned", "ablation"):
            triples = [triple_from_sentence(s, query) for s in sentences]
            cfg = TrainConfig(epochs=200, head_variant=variant, early_stop_f1=1.0, seed=13)
            _, manifest = train(cfg, triples, triples)
            assert manifest.final_metrics["f1"] == 1.0, f"MRC {variant} failed to overfit"
            assert len(manifest.loss_curve) <= 200

        bio_triples = [triple_from_sentence(s, None, entity_type="CHEMICAL") for s in sentences]
        cfg = TrainConfig(epochs=200, mode="bio-baseline", early_stop_f1=1.0, seed=13)
        _, manifest = train(cfg, bio_triples, bio_triples)
        assert manifest.final_metrics["f1"] == 1.0, "BIO baseline failed to overfit"
        assert len(manifest.loss_curve) <= 200
        assert time.monotonic() - start < 600.0


def test_07_pipeline_determinism(tmp_path):
    with criterion(7, "two identical convert->train->predict->evaluate runs, byte-equal metrics"):
        corpus = tmp_path / "corpus.conll"
        corpus.write_text(corpus_to_conll(make_separable_corpus(12, seed=3)))

        def run(tag):
            base = tmp_path / tag
            base.mkdir()
            triples = base / "triples.jsonl"
            ckpt = base / "model.json"
            preds = base / "preds.jsonl"
            metrics = base / "metrics.json"
            for argv in (
                ["convert", "--input", corpus, "--entity-type", "CHEMICAL",
                 "--query-strategy", "q3", "--query-seed", 11, "--out", triples],
                ["train", "--train", triples, "--dev", triples, "--out", ckpt,
                 "--epochs", 4, "--seq-len", 64, "--seed", 11],
                ["predict", "--checkpoint", ckpt, "--triples", triples, "--out", preds],
                ["evaluate", "--gold", triples, "--predictions", preds, "--out", metrics],
            ):
                assert cli_main([str(a) for a in argv]) == 0
            return metrics.read_bytes(), ckpt.read_bytes()

        metrics1, ckpt1 = run("run1")
        metrics2, ckpt2 = run("run2")
        assert metrics1 == metrics2
        assert ckpt1 == ckpt2


def test_08_query_templates_byte_for_byte():
    with criterion(8, "query templates for None/0/3/5/10, incl. the published example string"):
        forced3 = ["sodium", "RA", "cannabis"]
        assert (
            render_query("CHEMICAL", QueryStrategy("sample", 3), forced3)
            == "Can you detect chemical entities like sodium or RA or cannabis ?"
        )
        assert render_query("CHEMICAL", QueryStrategy("none")) == "none"
        assert render_query("CHEMICAL", QueryStrategy("zero")) == "Can you detect chemical entities ?"
        forced5 = ["a1", "b2", "c3", "d4", "e5"]
        assert (
            render_query("DISEASE", QueryStrategy("sample", 5), forced5)
            == "Can you detect disease entities like a1 or b2 or c3 or d4 or e5 ?"
        )
        forced10 = [f"e{i}" for i in range(10)]
        assert render_query("PROTEIN", QueryStrategy("sample", 10), forced10) == (
            "Can you detect protein entities like e0 or e1 or e2 or e3 or e4 "
            "or e5 or e6 or e7 or e8 or e9 ?"
        )
        # build_query must reproduce the rendered template for its own sample
        inventory = {"CHEMICAL": ["RA", "cannabis", "lithium", "sodium"]}
        for name in ("none", "q0", "q3", "q5", "q10"):
            spec = build_query("CHEMICAL", QueryStrategy.parse(name), inventory, seed=2)
            assert spec.text == render_query("CHEMICAL", spec.strategy, spec.sampled_entities)


def test_09_significance_against_frozen_oracle():
    with criterion(9, "Welch t-test matches pre-computed oracle p-values to 1e-6"):
        assert len(WELCH_FIXTURES) >= 5
        for a, b, t_expected, p_expected in WELCH_FIXTURES:
            result = t_test(a, b)
            assert abs(result.p_value - p_expected) <= 1e-6
            assert result.t_statistic == pytest.approx(t_expected, rel=1e-9)
            assert result.stars == stars_for(p_expected)
        # the confidence-interval markers
        assert stars_for(0.02) == "p<0.05"
        assert stars_for(0.002) == "p<0.01"
        assert stars_for(0.2) == "ns"


def test_10_loss_identities():
    with criterion(10, "uniform-logit loss is ln 2 per head and overall; swap symmetry"):
        y_start = np.array([1, 0, 0, 1, 0])
        y_end = np.array([0, 0, 1, 0, 1])
        zeros = np.zeros((5, 2))
        report, _, _ = span_loss(zeros, zeros, y_start, y_end)
        assert abs(report.loss_start - math.log(2)) <= 1e-12
        assert abs(report.loss_end - math.log(2)) <= 1e-12
        assert abs(report.loss - math.log(2)) <= 1e-12

        rng = np.random.default_rng(10)
        for _ in range(20):
            ls, le = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
            ys = rng.integers(0, 2, size=6)
            ye = rng.integers(0, 2, size=6)
            forward_order, _, _ = span_loss(ls, le, ys, ye)
            swapped, _, _ = span_loss(le, ls, ye, ys)
            assert abs(forward_order.loss - swapped.loss) <= 1e-12
