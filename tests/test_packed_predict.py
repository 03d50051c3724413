"""Predict encodes packs of examples; each example must come out as it
does when it is encoded alone.

`model._Packs` orders its input by real rows, ties in input
order, and cuts it into packs of at most `PACK_ROWS` real rows; the encoder
runs attention once per run of consecutive examples with equal real and
kept rows, and its last layer computes only each example's context rows and
the [SEP] after them. These tests check, bit for bit, that the kept rows
equal those of a one-example pack that keeps every row, that predictions
equal one-example packs' for both heads, both end heads, both orders and
the no-query layout, with equal-length examples whose kept rows are equal
or differ, that packs hold the examples in that order and break at
`PACK_ROWS`, and that runs form where they should.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrcner import encoder
from mrcner import model as model_mod
from mrcner.encoder import EncoderError
from mrcner.heads import CONDITIONED
from mrcner.metrics import score
from mrcner.mrc_data import CONTEXT_FIRST, QUERY_FIRST, Triple, example_from_triple
from mrcner.train import evaluate_model, gold_span_index
from helpers import HEADS, VOCAB, WORDS, tiny_model, triple


def record_packs(monkeypatch):
    """The (pack, keep, hidden, tape) of every `encoder.forward` call, in order."""
    calls, forward = [], encoder.forward

    def recording(params, cfg, examples, keep=None, *args, **kwargs):
        hidden, tape = forward(params, cfg, examples, keep, *args, **kwargs)
        calls.append((list(examples), keep, hidden, tape))
        return hidden, tape

    monkeypatch.setattr(encoder, "forward", recording)
    return calls


def in_encoding_order(examples):
    """The examples by ascending real rows, ties in input order."""
    return sorted(examples, key=lambda ex: len(ex.input_ids))


def check_packs(mdl, examples, calls):
    """The packs hold the examples in encoding order, each fills up greedily
    to at most PACK_ROWS real rows (an example with more goes alone), its
    runs are its groups of consecutive examples with equal real and kept
    rows, and every kept row has the bits of the same row in a one-example
    pack."""
    assert [id(ex) for pack, *_ in calls for ex in pack] == [
        id(ex) for ex in in_encoding_order(examples)]
    rows = [[len(ex.input_ids) for ex in pack] for pack, *_ in calls]
    for i, pack_rows in enumerate(rows):
        assert sum(pack_rows) <= model_mod.PACK_ROWS or len(pack_rows) == 1
        if i + 1 < len(rows):
            assert sum(pack_rows) + rows[i + 1][0] > model_mod.PACK_ROWS
    for pack, keep, hidden, tape in calls:
        lengths = [(len(ex.input_ids), k.stop - k.start) for ex, k in zip(pack, keep)]
        assert [e for e, _, _ in tape["runs"]] == [len(list(g)) for _, g in groupby(lengths)]
        first = 0
        for ex, kept in zip(pack, keep):
            assert kept == slice(ex.context_range[0], ex.context_range[1] + 2)
            alone, _ = encoder.forward(mdl.params, mdl.encoder_cfg, [ex])
            n_kept = kept.stop - kept.start
            assert hidden[first : first + n_kept].tobytes() == alone[kept].tobytes()
            first += n_kept
        assert first == hidden.shape[0]


@settings(max_examples=40, deadline=None)
@given(head=st.sampled_from(HEADS), order=st.sampled_from([CONTEXT_FIRST, QUERY_FIRST]),
       layers=st.integers(1, 2), seq_len=st.integers(8, 140),
       # Short contexts repeat lengths, so examples share rows; with queries
       # of different lengths, equal rows may keep unequal rows.
       lengths=st.lists(st.one_of(st.integers(1, 6), st.integers(1, 140)), min_size=1,
                        max_size=10),
       query_words=st.lists(st.integers(0, 3), min_size=10, max_size=10),
       seed=st.integers(0, 2**16))
def test_packs_predict_as_one_example_packs_bit_for_bit(
        head, order, layers, seq_len, lengths, query_words, seed):
    mode, variant = head
    mdl = tiny_model(mode, variant, seq_len, order, layers, seed)
    rng = np.random.default_rng(seed)
    # The BIO head reads the no-query layout, [CLS] context [SEP].
    queries = [" ".join(WORDS[:k]) if mode == "mrc" else None for k in query_words]
    examples = [example_from_triple(triple(n, queries[i], i, rng), VOCAB, mdl.seq_cfg)
                for i, n in enumerate(lengths)]
    with pytest.MonkeyPatch.context() as patch:
        calls = record_packs(patch)
        predicted = model_mod.predict_examples(mdl, examples)
    check_packs(mdl, examples, calls)
    assert predicted == [model_mod.predict_examples(mdl, [ex])[0] for ex in examples]


@pytest.mark.parametrize("mode, variant", HEADS)
def test_packs_break_at_pack_rows(mode, variant):
    # Real rows per example, given out of order. In encoding order the
    # greedy packs hold the shortest three (40, 44 and 44 rows at PACK_ROWS
    # 128: PACK_ROWS, the two 44s a run), then the next two (60 and 65:
    # PACK_ROWS - 3; the 70 after them would overflow it), then the 70, then
    # the longest example alone.
    cap = model_mod.PACK_ROWS
    short = cap // 2 - 24
    third = cap - 3 - (cap // 2 - 4)
    rows = [cap // 2 - 4, (cap - short) // 2, cap + 44, short, third + 5, third,
            (cap - short) // 2]
    mdl = tiny_model(mode, variant, seq_len=max(rows))
    query = "w0" if mode == "mrc" else None
    overhead = 4 if mode == "mrc" else 2  # [CLS], [SEP], then "w0 [SEP]" for MRC
    rng = np.random.default_rng(1)
    examples = [example_from_triple(triple(n - overhead, query, i, rng), VOCAB, mdl.seq_cfg)
                for i, n in enumerate(rows)]
    assert [len(ex.input_ids) for ex in examples] == rows
    with pytest.MonkeyPatch.context() as patch:
        calls = record_packs(patch)
        predicted = model_mod._Packs(mdl, examples).share()
    assert [sum(len(ex.input_ids) for ex in pack) for pack, *_ in calls] == [
        cap, cap - 3, third + 5, cap + 44]
    check_packs(mdl, examples, calls)
    assert predicted == [model_mod.predict_examples(mdl, [ex])[0] for ex in examples]


@pytest.mark.parametrize("mode, variant", HEADS)
def test_a_run_takes_one_attention_call_per_layer(mode, variant, monkeypatch):
    # Contexts of 5 words with a two-word query and of 6 with a one-word
    # query have equal real rows (10) but keep 6 and 7 rows, so they make
    # two runs; BIO examples of equal rows keep equal rows. A shorter example
    # comes first in encoding order and makes a run of one.
    mdl = tiny_model(mode, variant, seq_len=16)
    rng = np.random.default_rng(2)
    if mode == "mrc":
        shapes, runs = [(5, "w0 w1"), (5, "w0 w1"), (3, "w0"), (6, "w0"), (6, "w0")], [1, 2, 2]
    else:
        shapes, runs = [(5, None), (5, None), (3, None), (5, None)], [1, 3]
    examples = [example_from_triple(triple(n, query, i, rng), VOCAB, mdl.seq_cfg)
                for i, (n, query) in enumerate(shapes)]
    softmax, attention_calls = encoder.softmax, []

    def counting(*args, **kwargs):
        attention_calls.append(1)
        return softmax(*args, **kwargs)

    monkeypatch.setattr(encoder, "softmax", counting)
    calls = record_packs(monkeypatch)
    predicted = model_mod._Packs(mdl, examples).share()
    assert [[e for e, _, _ in tape["runs"]] for *_, tape in calls] == [runs]
    assert len(attention_calls) == len(runs) * mdl.encoder_cfg.layers
    monkeypatch.undo()
    check_packs(mdl, examples, calls)
    assert predicted == [model_mod.predict_examples(mdl, [ex])[0] for ex in examples]


@pytest.mark.parametrize("mode, variant", HEADS)
def test_evaluate_model_scores_the_per_example_predictions(mode, variant, monkeypatch):
    mdl = tiny_model(mode, variant, seq_len=40, seed=4)
    rng = np.random.default_rng(5)
    query = "w1 w2" if mode == "mrc" else None
    triples = []
    for i in range(30):
        n = int(rng.integers(1, 30))
        start = int(rng.integers(0, n))
        triples.append(Triple([WORDS[j] for j in rng.integers(0, 12, n)], query,
                              [(start, start)], "C", "d", i))
    examples = [example_from_triple(t, VOCAB, mdl.seq_cfg) for t in triples]
    gold = gold_span_index(triples)
    predicted = {ex.origin: model_mod.predict_examples(mdl, [ex])[0] for ex in examples}
    assert any(predicted.values())

    def refuse(*args, **kwargs):
        raise AssertionError("dev evaluation forked")

    monkeypatch.setattr(model_mod.Helper, "__init__", refuse)
    assert evaluate_model(model_mod._Packs(mdl, examples), gold) == score(gold, predicted)


class TestPackArguments:
    def setup_method(self):
        self.mdl = tiny_model("mrc", CONDITIONED, seq_len=16)
        self.ex = example_from_triple(triple(5, "w0", 0, np.random.default_rng(0)), VOCAB,
                                      self.mdl.seq_cfg)

    def forward(self, examples, keep=None):
        return encoder.forward(self.mdl.params, self.mdl.encoder_cfg, examples, keep)

    def test_an_empty_pack_is_refused(self):
        with pytest.raises(EncoderError, match="at least one example"):
            self.forward([])

    @pytest.mark.parametrize("keep", [[slice(0, 2), slice(0, 2)], [slice(3, 3)], [slice(0, 10)],
                                      [slice(-2, 4)], [slice(None, 4)], [slice(0, 4, 2)]])
    def test_bad_kept_rows_are_refused(self, keep):
        with pytest.raises(EncoderError, match="kept row"):
            self.forward([self.ex], keep)

    def test_backward_takes_whole_packs_and_refuses_kept_row_tapes(self):
        grads = self.mdl.zero_grads()[1]
        for examples in ([self.ex], [self.ex, self.ex]):
            hidden, tape = self.forward(examples)
            assert tape["n"] == 9 * len(examples)
            encoder.backward(self.mdl.params, self.mdl.encoder_cfg, tape, hidden,
                             [grads] * len(examples))
        for examples, keep in (([self.ex, self.ex], [slice(0, 9), slice(1, 7)]),
                               ([self.ex], [slice(1, 7)])):
            hidden, tape = self.forward(examples, keep)
            assert tape["n"] == 9 * len(examples)
            with pytest.raises(EncoderError, match="pack that keeps every row"):
                encoder.backward(self.mdl.params, self.mdl.encoder_cfg, tape, hidden,
                                 [grads] * len(examples))
