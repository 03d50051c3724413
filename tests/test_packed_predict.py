"""Predict encodes packs of examples; each example must come out as it
does when it is encoded alone.

`model.predict_in_process` cuts its input into packs of at most
`PACK_ROWS` real rows, and the encoder's last layer computes only each
example's context rows and the [SEP] after them. These tests check, bit for
bit, that the kept rows equal those of a one-example pack that keeps every
row, that predictions equal one-example packs' for both heads, both end
heads, both orders and the no-query layout, and that packs break at
`PACK_ROWS`.
"""

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
    """The (pack, keep, hidden) of every `encoder.forward` call, in order."""
    calls, forward = [], encoder.forward

    def recording(params, cfg, examples, keep=None, *args, **kwargs):
        hidden, tape = forward(params, cfg, examples, keep, *args, **kwargs)
        calls.append((list(examples), keep, hidden))
        return hidden, tape

    monkeypatch.setattr(encoder, "forward", recording)
    return calls


def check_packs(mdl, examples, calls):
    """The packs hold the examples in order, each fills up greedily to at
    most PACK_ROWS real rows (an example with more goes alone), and every
    kept row has the bits of the same row in a one-example pack."""
    assert [id(ex) for pack, _, _ in calls for ex in pack] == [id(ex) for ex in examples]
    rows = [[len(ex.input_ids) for ex in pack] for pack, _, _ in calls]
    for i, pack_rows in enumerate(rows):
        assert sum(pack_rows) <= model_mod.PACK_ROWS or len(pack_rows) == 1
        if i + 1 < len(rows):
            assert sum(pack_rows) + rows[i + 1][0] > model_mod.PACK_ROWS
    for pack, keep, hidden in calls:
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
       lengths=st.lists(st.integers(1, 140), min_size=1, max_size=10),
       query_words=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_packs_predict_as_one_example_packs_bit_for_bit(
        head, order, layers, seq_len, lengths, query_words, seed):
    mode, variant = head
    mdl = tiny_model(mode, variant, seq_len, order, layers, seed)
    rng = np.random.default_rng(seed)
    # The BIO head reads the no-query layout, [CLS] context [SEP].
    query = " ".join(WORDS[:query_words]) if mode == "mrc" else None
    examples = [example_from_triple(triple(n, query, i, rng), VOCAB, mdl.seq_cfg)
                for i, n in enumerate(lengths)]
    with pytest.MonkeyPatch.context() as patch:
        calls = record_packs(patch)
        predicted = model_mod.predict_examples(mdl, examples)
    check_packs(mdl, examples, calls)
    assert predicted == [model_mod.predict_in_process(mdl, [ex])[0] for ex in examples]


@pytest.mark.parametrize("mode, variant", HEADS)
def test_packs_break_at_pack_rows(mode, variant):
    # Real rows per example; the greedy packs hold the first three
    # (PACK_ROWS rows), then the next two (PACK_ROWS - 3; the 7 rows after
    # them would overflow it), then 7 rows, then the longest example alone.
    cap = model_mod.PACK_ROWS
    rows = [cap // 2 - 28, cap - cap // 2 - 28, 56, 5, cap - 8, 7, cap + 44]
    mdl = tiny_model(mode, variant, seq_len=max(rows))
    query = "w0" if mode == "mrc" else None
    overhead = 4 if mode == "mrc" else 2  # [CLS], [SEP], then "w0 [SEP]" for MRC
    rng = np.random.default_rng(1)
    examples = [example_from_triple(triple(n - overhead, query, i, rng), VOCAB, mdl.seq_cfg)
                for i, n in enumerate(rows)]
    assert [len(ex.input_ids) for ex in examples] == rows
    with pytest.MonkeyPatch.context() as patch:
        calls = record_packs(patch)
        predicted = model_mod.predict_in_process(mdl, examples)
    assert [sum(len(ex.input_ids) for ex in pack) for pack, _, _ in calls] == [
        cap, cap - 3, 7, cap + 44]
    check_packs(mdl, examples, calls)
    assert predicted == [model_mod.predict_in_process(mdl, [ex])[0] for ex in examples]


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
    predicted = {ex.origin: [(s.start, s.end) for s in model_mod.predict_in_process(mdl, [ex])[0]]
                 for ex in examples}
    assert any(predicted.values())

    def refuse(*args, **kwargs):
        raise AssertionError("dev evaluation forked")

    monkeypatch.setattr(model_mod, "ProcessPoolExecutor", refuse)
    assert evaluate_model(mdl, examples, gold) == score(gold, predicted)


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
            encoder.backward(self.mdl.params, self.mdl.encoder_cfg, tape, hidden, grads)
        for examples, keep in (([self.ex, self.ex], [slice(0, 9), slice(1, 7)]),
                               ([self.ex], [slice(1, 7)])):
            hidden, tape = self.forward(examples, keep)
            assert tape["n"] == 9 * len(examples)
            with pytest.raises(EncoderError, match="pack that keeps every row"):
                encoder.backward(self.mdl.params, self.mdl.encoder_cfg, tape, hidden, grads)
