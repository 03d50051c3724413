import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from mrcner.encoder import (
    EncoderConfig,
    EncoderError,
    backward,
    forward,
    gelu,
    gelu_grad,
    init_tensors,
    layer_norm,
    param_shapes,
)
from mrcner.mrc_data import SeqConfig, Triple, Vocab, example_from_triple
from oracles import central_difference, relative_error

VOCAB = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(12)])


def build_example(n_ctx=6, seq_len=24, query="w0 w1 w2"):
    tokens = [f"w{(i * 5) % 12}" for i in range(n_ctx)]
    triple = Triple(tokens, query, [(0, 0)], "C", "d", 0)
    return example_from_triple(triple, VOCAB, SeqConfig(seq_len))


def init_params(cfg, seed):
    return init_tensors(np.random.default_rng(seed), param_shapes(cfg))


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def tiny_config(**overrides):
    base = dict(vocab_size=VOCAB.size, layers=2, model_dim=8, heads=2, ffn_dim=16,
                max_positions=32, dropout=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


# ---------------------------------------------------------------------------
# Straight-line reference: an independent re-implementation of the forward
# pass with per-row python loops, compared against the vectorized version.
# ---------------------------------------------------------------------------

def reference_layer_norm(x, gain, bias):
    out = np.empty_like(x)
    for r in range(x.shape[0]):
        row = x[r]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out[r] = [(v - mu) / math.sqrt(var + 1e-12) * g + b
                  for v, g, b in zip(row, gain, bias)]
    return out


def reference_softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def reference_forward(params, cfg, example):
    n = len(example.input_ids)
    ids = np.asarray(example.input_ids)
    segs = np.asarray(example.segment_ids)
    d, nh, hd = cfg.model_dim, cfg.heads, cfg.head_dim

    x = np.empty((n, d))
    for i in range(n):
        x[i] = (params["tok_emb"][ids[i]] + params["emb_bias"]
                + params["pos_emb"][i] + params["seg_emb"][segs[i]])

    for l in range(cfg.layers):
        pre = f"layer{l}."
        a = reference_layer_norm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        q = a @ params[pre + "wq"] + params[pre + "bq"]
        k = a @ params[pre + "wk"] + params[pre + "bk"]
        v = a @ params[pre + "wv"] + params[pre + "bv"]
        attn_out = np.zeros((n, d))
        for h in range(nh):
            sl = slice(h * hd, (h + 1) * hd)
            for i in range(n):
                scores = [float(q[i, sl] @ k[j, sl]) / math.sqrt(hd) for j in range(n)]
                probs = reference_softmax_row(scores)
                for j in range(n):
                    attn_out[i, sl] += probs[j] * v[j, sl]
        o = attn_out @ params[pre + "wo"] + params[pre + "bo"]
        x = x + o
        b = reference_layer_norm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        f1 = b @ params[pre + "ffn_w1"] + params[pre + "ffn_b1"]
        g = np.vectorize(lambda t: 0.5 * t * (1.0 + math.erf(t / math.sqrt(2.0))))(f1)
        x = x + g @ params[pre + "ffn_w2"] + params[pre + "ffn_b2"]

    return reference_layer_norm(x, params["final_ln_g"], params["final_ln_b"])


class TestConfig:
    @pytest.mark.parametrize("field", ["vocab_size", "layers", "model_dim", "heads", "ffn_dim",
                                       "max_positions"])
    def test_size_below_one_refused(self, field):
        with pytest.raises(EncoderError, match=f"{field} must be at least 1"):
            tiny_config(**{field: 0})

    def test_heads_must_divide_model_dim(self):
        with pytest.raises(EncoderError, match="not divisible by 3 heads"):
            tiny_config(heads=3)

    def test_dropout_of_one_refused(self):
        with pytest.raises(EncoderError, match="dropout"):
            tiny_config(dropout=1.0)


class TestForward:
    def test_zero_weights_collapse_to_layer_normed_embeddings(self):
        # Zero attention and FFN weights (keep embeddings and unit layer-norm
        # gains): both residual branches vanish, so H is just the normed
        # embedding sum.
        cfg = tiny_config(layers=1)
        params = init_params(cfg, seed=0)
        for name, arr in params.items():
            if name.startswith("layer") and not name.endswith("_g"):
                arr[...] = 0.0
        example = build_example()
        hidden, _ = forward(params, cfg, [example])
        n = len(example.input_ids)
        ids = example.input_ids
        segs = example.segment_ids
        emb = (params["tok_emb"][ids] + params["emb_bias"]
               + params["pos_emb"][:n] + params["seg_emb"][segs])
        expected, _, _ = layer_norm(emb, params["final_ln_g"], params["final_ln_b"])
        assert np.allclose(hidden, expected, atol=1e-12)

    def test_matches_straight_line_reference(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=42)
        example = build_example(n_ctx=9, seq_len=16, query="w0 w1")
        hidden, _ = forward(params, cfg, [example])
        expected = reference_forward(params, cfg, example)
        n = len(example.input_ids)
        assert n == 16 - 2  # nearly full window
        err = np.abs(hidden - expected) / np.maximum(np.abs(expected), 1e-12)
        assert err.max() <= 1e-10

    def test_id_out_of_range_raises(self):
        cfg = tiny_config(vocab_size=5)
        params = init_params(cfg, seed=0)
        example = build_example()
        with pytest.raises(EncoderError, match="out of range"):
            forward(params, cfg, [example])

    def test_deterministic_with_dropout_seed(self):
        cfg = tiny_config(dropout=0.2)
        params = init_params(cfg, seed=3)
        example = build_example()
        h1, t1 = forward(params, cfg, [example], dropout_seeds=[77])
        h2, t2 = forward(params, cfg, [example], dropout_seeds=[77])
        assert np.array_equal(h1, h2)
        (g1,) = backward(params, cfg, t1, np.ones_like(h1), [zero_grads(params)])
        (g2,) = backward(params, cfg, t2, np.ones_like(h2), [zero_grads(params)])
        for name in g1:
            assert np.array_equal(g1[name], g2[name])

    def test_dropout_fires_only_given_seeds(self):
        cfg = tiny_config(dropout=0.5)
        params = init_params(cfg, seed=3)
        example = build_example()
        h1, _ = forward(params, cfg, [example], dropout_seeds=[1])
        h2, _ = forward(params, cfg, [example], dropout_seeds=[2])
        assert not np.array_equal(h1, h2)
        unseeded, tape = forward(params, cfg, [example])
        without, _ = forward(params, tiny_config(dropout=0.0), [example])
        assert np.array_equal(unseeded, without) and not tape["dropout"]

    def test_dropout_seeds_are_refused_with_kept_rows(self):
        cfg = tiny_config(dropout=0.5)
        example = build_example()
        with pytest.raises(EncoderError, match="dropout seeds"):
            forward(init_params(cfg, seed=3), cfg, [example], [slice(0, 2)], [1])


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        example = build_example()
        hidden, tape = forward(params, cfg, [example])
        (grads,) = backward(params, cfg, tape, np.zeros_like(hidden), [zero_grads(params)])
        for name, g in grads.items():
            assert not g.any(), name

    def test_gradients_match_finite_differences(self):
        cfg = tiny_config(layers=1, model_dim=8, heads=2, ffn_dim=12)
        params = init_params(cfg, seed=9)
        example = build_example(n_ctx=4, seq_len=12, query="w0 w1")
        rng = np.random.default_rng(17)
        weights = rng.normal(size=(len(example.input_ids), cfg.model_dim))

        def scalar_loss():
            hidden, _ = forward(params, cfg, [example])
            return float((hidden * weights).sum())

        hidden, tape = forward(params, cfg, [example])
        (grads,) = backward(params, cfg, tape, weights, [zero_grads(params)])

        for name, arr in params.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for idx in picks:
                numeric = central_difference(scalar_loss, flat, int(idx))
                assert relative_error(gflat[int(idx)], numeric) <= 1e-4, (
                    f"{name}[{idx}]: analytic {gflat[int(idx)]:.3e} vs {numeric:.3e}"
                )

    def test_gelu_grad_matches_finite_differences(self):
        xs = np.linspace(-3, 3, 41)
        for x in xs:
            arr = np.array([x])
            numeric = central_difference(lambda: float(gelu(arr)[0][0]), arr, 0)
            analytic = gelu_grad(arr, gelu(arr)[1])
            assert relative_error(float(analytic[0]), numeric) <= 1e-6

    def test_shape_mismatch_raises(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        example = build_example()
        _, tape = forward(params, cfg, [example])
        with pytest.raises(EncoderError):
            backward(params, cfg, tape, np.zeros((4, cfg.model_dim + 1)), [zero_grads(params)])

    def test_backward_adds_into_given_buffers(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=6)
        example = build_example(n_ctx=10)  # the query repeats context words w0 and w1
        hidden, tape = forward(params, cfg, [example])
        upstream = np.random.default_rng(8).normal(size=hidden.shape)
        (fresh,) = backward(params, cfg, tape, upstream, [zero_grads(params)])

        n = hidden.shape[0]
        ids = example.input_ids[:n]
        absent = np.setdiff1d(np.arange(cfg.vocab_size), ids)
        assert absent.size and (np.bincount(ids) > 1).any()
        rng = np.random.default_rng(9)
        before = {name: rng.normal(size=arr.shape) for name, arr in params.items()}
        # -0.0 + 0.0 is +0.0, so adding a dense zero row would show in the bytes.
        before["tok_emb"][absent] = -0.0
        buffers = {name: arr.copy() for name, arr in before.items()}
        sinks = [buffers]
        assert backward(params, cfg, tape, upstream, sinks) is sinks

        for name in params:
            assert np.array_equal(buffers[name], before[name] + fresh[name]), name
        assert buffers["tok_emb"][absent].tobytes() == before["tok_emb"][absent].tobytes()
        # Without dropout the pos_emb gradient is the input gradient row by row,
        # so a repeated token's row is the sum of the rows at its positions.
        dx = fresh["pos_emb"][:n]
        for token in np.unique(ids):
            rows = dx[ids == token]
            assert np.array_equal(fresh["tok_emb"][token], functools.reduce(operator.add, rows))


# ---------------------------------------------------------------------------
# The forms the encoder used before GELU kept its cdf on the tape and layer
# norm centred once; the current ones must match them bit for bit.
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MATRICES = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 140)), elements=FINITE)


def gelu_recomputing(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_grad_recomputing(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def layer_norm_two_subtractions(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + 1e-12)
    xhat = (x - mu) * istd
    return gain * xhat + bias, xhat, istd


class TestSameBitsAsRecomputing:
    @given(arrays(np.float64, st.integers(1, 60), elements=FINITE))
    def test_gelu_and_its_gradient(self, x):
        x = np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]])
        with np.errstate(over="ignore", under="ignore"):
            y, cdf = gelu(x)
            assert y.tobytes() == gelu_recomputing(x).tobytes()
            assert gelu_grad(x, cdf).tobytes() == gelu_grad_recomputing(x).tobytes()

    @given(MATRICES, st.data())
    def test_layer_norm(self, x, data):
        x[0, 0] = -0.0
        d = x.shape[1]
        gain = data.draw(arrays(np.float64, d, elements=st.floats(-4, 4)))
        bias = data.draw(arrays(np.float64, d, elements=st.floats(-4, 4)))
        with np.errstate(all="ignore"):
            got = layer_norm(x, gain, bias)
            want = layer_norm_two_subtractions(x, gain, bias)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
