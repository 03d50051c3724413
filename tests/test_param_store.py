"""The flat parameter store: layout, snapshots, and training arithmetic that
is bit-identical to summing dense per-example gradients."""

import importlib

import numpy as np
import pytest

from mrcner import model as model_mod
from mrcner.corpus import entity_inventory
from mrcner.encoder import EncoderConfig, init_tensors, param_shapes
from mrcner.heads import HeadError
from mrcner.mrc_data import SeqConfig, Vocab, example_from_triple, triple_from_sentence
from mrcner.query import QueryStrategy, build_query
from helpers import make_separable_corpus
from oracles import dense_reference_training

# `mrcner.train` as an attribute is the re-exported function, not the module.
train_mod = importlib.import_module("mrcner.train")


def separable_triples(mode, n=10):
    sentences = make_separable_corpus(n, seed=4)
    if mode == "bio-baseline":
        return [triple_from_sentence(s, None, entity_type="CHEMICAL") for s in sentences]
    query = build_query("CHEMICAL", QueryStrategy.parse("q3"), entity_inventory(sentences), seed=13)
    return [triple_from_sentence(s, query) for s in sentences]


def tiny_config(**overrides):
    base = dict(seq_len=40, epochs=2, batch_size=3, warmup_steps=3, layers=1, model_dim=8,
                heads=2, ffn_dim=16, seed=5)
    base.update(overrides)
    return train_mod.TrainConfig(**base)


def assert_store_layout(mdl):
    """Every tensor is a view of `flat`, laid out in `params` order."""
    offset = 0
    for name, arr in mdl.params.items():
        assert np.shares_memory(arr, mdl.flat), name
        assert np.array_equal(mdl.flat[offset : offset + arr.size], arr.ravel()), name
        offset += arr.size
    assert offset == mdl.flat.size


def test_new_and_loaded_models_share_one_store(tmp_path):
    cfg = tiny_config()
    triples = separable_triples("mrc", n=3)
    mdl, _ = train_mod.train(cfg, triples, [])
    assert_store_layout(mdl)
    model_mod.save_checkpoint(mdl, tmp_path / "m.ckpt")
    loaded = model_mod.load_checkpoint(tmp_path / "m.ckpt")
    assert_store_layout(loaded)
    assert np.array_equal(loaded.flat, mdl.flat)

    snapshot = model_mod.copy_params(mdl)
    mdl.flat += 1.0
    mdl.flat[...] = snapshot
    assert np.array_equal(mdl.flat, loaded.flat)


@pytest.mark.parametrize(("mode", "variant"), [
    ("mrc", "conditioned"), ("mrc", "ablation"), ("bio-baseline", None),
])
def test_new_model_draws_the_encoder_from_seed_and_the_head_from_the_next(mode, variant):
    vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "b"])
    cfg = EncoderConfig(vocab_size=vocab.size, layers=2, model_dim=8, heads=2, ffn_dim=12,
                        max_positions=16)
    mdl = model_mod.new_model(mode, variant, cfg, SeqConfig(16), vocab, seed=21)
    head_cls = model_mod.HEADS[mode]
    expected = init_tensors(np.random.default_rng(21), param_shapes(cfg))
    head = init_tensors(np.random.default_rng(22), head_cls.shapes(cfg.model_dim, variant))
    expected.update((f"head.{name}", arr) for name, arr in head.items())
    assert list(mdl.params) == list(expected)
    for name, arr in expected.items():
        assert mdl.params[name].tobytes() == arr.tobytes(), name
    for name in head:
        assert getattr(mdl.head, name) is mdl.params[f"head.{name}"], name
    assert (mdl.head.mode, mdl.head.variant) == (mode, variant)
    assert_store_layout(mdl)


def test_new_model_refuses_a_variant_its_head_lacks():
    vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"])
    cfg = EncoderConfig(vocab_size=vocab.size, layers=1, model_dim=8, heads=2, ffn_dim=12)
    with pytest.raises(HeadError, match="the BIO head has no variant, got 'conditioned'"):
        model_mod.new_model("bio-baseline", "conditioned", cfg, SeqConfig(16), vocab, seed=0)
    with pytest.raises(HeadError, match="unknown head variant None"):
        model_mod.new_model("mrc", None, cfg, SeqConfig(16), vocab, seed=0)


@pytest.mark.parametrize("overrides", [
    dict(mode="mrc", head_variant="conditioned", dropout=0.1),
    dict(mode="mrc", head_variant="ablation", seq_len=26),  # 8 context slots after the query
    dict(mode="bio-baseline"),
], ids=["conditioned-dropout", "ablation-truncated", "bio-baseline"])
def test_training_matches_dense_reference_bit_for_bit(monkeypatch, overrides):
    cfg = tiny_config(**overrides)
    triples = separable_triples(cfg.mode)
    optimizers = []

    class RecordingAdam(train_mod.Adam):
        def __init__(self, *args):
            super().__init__(*args)
            optimizers.append(self)

    monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
    trained, _ = train_mod.train(cfg, triples, [])  # no dev data: keeps the last step

    vocab = train_mod.build_vocab_from_triples(triples, cfg.min_count)
    examples = [example_from_triple(t, vocab, cfg.seq_config()) for t in triples]
    repeated = [ex for ex in examples
                if (np.bincount(ex.input_ids) > 1).any()]
    assert repeated, "no context repeats a token id"
    reference = model_mod.new_model(cfg.mode, cfg.model_head_variant(), cfg.encoder_config(vocab.size),
                                    cfg.seq_config(), vocab, cfg.seed)
    initial = model_mod.copy_params(reference)
    shuffle = np.random.default_rng(cfg.seed)
    batches = []
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(len(examples))
        for start in range(0, len(order), cfg.batch_size):
            batches.append([(examples[j], (cfg.seed * 1_000_003 + epoch * 997 + int(j)) % (2**31))
                            for j in order[start : start + cfg.batch_size]])
    m, v = dense_reference_training(reference, batches, cfg)

    assert not np.array_equal(trained.flat, initial)
    for (name, got), (_, expected) in zip(trained.params.items(), reference.params.items()):
        assert np.array_equal(got, expected), name
    (optimizer,) = optimizers
    assert optimizer.step_count == len(batches)
    names = [name for name, _ in reference.params.items()]
    assert np.array_equal(optimizer.m, np.concatenate([m[n].ravel() for n in names]))
    assert np.array_equal(optimizer.v, np.concatenate([v[n].ravel() for n in names]))
