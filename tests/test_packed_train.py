"""Training runs packs of examples; each example's loss and gradients must
come out as they do when it is trained alone.

`train` cuts each batch into `model.packs` of at most `PACK_ROWS` real rows
and runs `model.pack_loss_and_grads` on each, which adds every example's
gradients into one buffer, example by example. These tests check, bit for
bit, that the summed gradients and each example's loss equal those of
one-example packs, for both heads, both end heads, both orders, the
no-query layout, with and without dropout, and that packs break at
`PACK_ROWS`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrcner import encoder
from mrcner import model as model_mod
from mrcner.mrc_data import CONTEXT_FIRST, QUERY_FIRST, example_from_triple
from helpers import HEADS, VOCAB, WORDS, tiny_model, triple

# With 8 columns, stacking the examples' `d @ W.T` products in backward kept
# every bit; with 16 it changed gradients, so the tests use 16.
MODEL_DIM = 16


def train_in_packs(mdl, packs, seeds):
    """(each example's loss, the summed gradient vector) of `packs`, one
    dropout seed per example in `seeds`."""
    flat, grads = mdl.zero_grads()
    losses, done = [], 0
    for pack in packs:
        pack_losses, _ = model_mod.pack_loss_and_grads(
            mdl, pack, True, seeds[done : done + len(pack)], grads)
        losses += pack_losses
        done += len(pack)
    return np.array(losses), flat


def assert_packs_train_as_alone(mdl, examples, seeds):
    """Packs the examples as training does and checks each pack's examples
    pass through backward together; returns the pack sizes."""
    tapes = []
    backward = encoder.backward

    def recording(params, cfg, tape, *args):
        tapes.append(len(tape["rows"]))
        return backward(params, cfg, tape, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "backward", recording)
        packs = list(model_mod.packs(examples))
        losses, flat = train_in_packs(mdl, packs, seeds)
    assert tapes == [len(pack) for pack in packs]
    alone_losses, alone_flat = train_in_packs(mdl, [[ex] for ex in examples], seeds)
    assert losses.tobytes() == alone_losses.tobytes()
    assert flat.tobytes() == alone_flat.tobytes()
    assert flat.any()
    return tapes


@settings(max_examples=40, deadline=None)
@given(head=st.sampled_from(HEADS), order=st.sampled_from([CONTEXT_FIRST, QUERY_FIRST]),
       layers=st.integers(1, 2), dropout=st.sampled_from([0.0, 0.1]),
       seq_len=st.integers(8, 140),
       lengths=st.lists(st.one_of(st.integers(1, 2), st.integers(1, 140)), min_size=1,
                        max_size=10),
       query_words=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_packs_train_as_one_example_packs_bit_for_bit(
        head, order, layers, dropout, seq_len, lengths, query_words, seed):
    mode, variant = head
    mdl = tiny_model(mode, variant, seq_len, order, layers, seed, dropout, MODEL_DIM)
    rng = np.random.default_rng(seed)
    # The BIO head reads the no-query layout, [CLS] context [SEP].
    query = " ".join(WORDS[:query_words]) if mode == "mrc" else None
    examples = [example_from_triple(triple(n, query, i, rng, [(s, s) for s in range(0, n, 3)]),
                                    VOCAB, mdl.seq_cfg)
                for i, n in enumerate(lengths)]
    seeds = [int(s) for s in rng.integers(0, 2**31, len(examples))]
    assert_packs_train_as_alone(mdl, examples, seeds)


@pytest.mark.parametrize("mode, variant", HEADS)
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_training_packs_break_at_pack_rows(mode, variant, dropout):
    # Real rows per example: the shortest examples a head reads (3 rows for
    # BIO, 4 for MRC with an empty query) fill the first pack to exactly
    # PACK_ROWS, the next example starts the second pack, and the longest
    # goes alone.
    cap = model_mod.PACK_ROWS
    short = 3 if mode == "bio-baseline" else 4
    first = [short, 4] * (cap // 8)
    first += [4] * ((cap - sum(first)) // 4)
    assert sum(first) == cap
    rows = first + [short, 4, cap - 10, cap + 5]
    mdl = tiny_model(mode, variant, seq_len=max(rows), seed=2, dropout=dropout,
                     model_dim=MODEL_DIM)
    query = "" if mode == "mrc" else None
    overhead = 3 if mode == "mrc" else 2  # [CLS], [SEP], then the empty query's [SEP]
    rng = np.random.default_rng(3)
    examples = [example_from_triple(triple(n - overhead, query, i, rng, [(0, 0)]), VOCAB,
                                    mdl.seq_cfg)
                for i, n in enumerate(rows)]
    assert [len(ex.input_ids) for ex in examples] == rows
    sizes = assert_packs_train_as_alone(mdl, examples, list(range(len(rows))))
    assert sizes == [len(first), 3, 1]
