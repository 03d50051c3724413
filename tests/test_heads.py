import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mrcner.encoder import softmax
from mrcner.heads import (
    ABLATION,
    CONDITIONED,
    HeadError,
    SpanHeadParams,
    cross_entropy,
    end_logits,
    span_head_grads,
    span_loss,
    start_logits,
)
from oracles import (
    CE_HAND_LOGITS,
    CE_HAND_MEAN,
    CE_HAND_TARGETS,
    ce_scalar,
    central_difference,
    relative_error,
)

D = 8


def zero_head(variant=CONDITIONED):
    end_dim = D + 2 if variant == CONDITIONED else D
    return SpanHeadParams(
        np.zeros((D, 2)), np.zeros(2), np.zeros((end_dim, 2)), np.zeros(2), variant
    )


def random_head(variant, seed=0):
    rng = np.random.default_rng(seed)
    shapes = SpanHeadParams.shapes(D, variant)
    return SpanHeadParams(**{name: rng.normal(size=shape) for name, shape in shapes.items()},
                          variant=variant)


class TestStartLogits:
    def test_zero_weights_give_zero_logits_uniform_softmax(self):
        logits = start_logits(np.random.default_rng(0).normal(size=(5, D)), zero_head())
        assert not logits.any()
        assert np.allclose(softmax(logits, axis=1), 0.5)

    def test_one_hot_margin(self):
        head = zero_head()
        w = 1.7
        head.w_start[0] = (w, -w)
        h = np.zeros((3, D))
        h[1, 0] = 1.0
        logits = start_logits(h, head)
        assert logits[1, 0] - logits[1, 1] == pytest.approx(2 * w)
        assert not logits[0].any()

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(6, D))
        head = random_head(CONDITIONED, seed=4)
        logits = start_logits(h, head)
        for i in range(6):
            for c in range(2):
                manual = sum(h[i, k] * head.w_start[k, c] for k in range(D)) + head.b_start[c]
                assert abs(logits[i, c] - manual) <= 1e-12


def test_unknown_variant_has_no_shapes():
    with pytest.raises(HeadError, match="unknown head variant 'bogus'"):
        SpanHeadParams.shapes(D, "bogus")


class TestEndLogits:
    def test_ablation_zero_weights(self):
        h = np.random.default_rng(1).normal(size=(4, D))
        assert not end_logits(h, zero_head(ABLATION)).any()

    def test_conditioning_path_isolated(self):
        # With w_end zero except an identity block on the two probability
        # columns, the end logits are exactly softmax(l_start).
        head = zero_head(CONDITIONED)
        head.w_end[D:, :] = np.eye(2)
        h = np.random.default_rng(2).normal(size=(4, D))
        l_start = np.random.default_rng(3).normal(size=(4, 2))
        assert np.allclose(end_logits(h, head, l_start), softmax(l_start, axis=1))

    def test_variants_differ_when_probability_columns_nonzero(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, D))
        cond = random_head(CONDITIONED, seed=5)
        abl = SpanHeadParams(
            cond.w_start.copy(), cond.b_start.copy(), cond.w_end[:D].copy(),
            cond.b_end.copy(), ABLATION,
        )
        l_start = start_logits(h, cond)
        assert not np.allclose(end_logits(h, cond, l_start), end_logits(h, abl))

    def test_conditioned_requires_start_logits(self):
        with pytest.raises(HeadError):
            end_logits(np.zeros((2, D)), zero_head(CONDITIONED))

    def test_conditioning_sensitivity(self):
        # Perturbing l_start must move the conditioned output, never the ablation.
        rng = np.random.default_rng(6)
        h = rng.normal(size=(4, D))
        cond = random_head(CONDITIONED, seed=6)
        abl = random_head(ABLATION, seed=7)
        l1 = rng.normal(size=(4, 2))
        l2 = l1 + rng.normal(size=(4, 2))
        assert not np.allclose(end_logits(h, cond, l1), end_logits(h, cond, l2))
        assert np.array_equal(end_logits(h, abl, l1), end_logits(h, abl, l2))


class TestSpanLoss:
    def test_saturated_correct_logits_drive_loss_to_zero(self):
        y = np.array([1, 0, 0, 1])
        big = np.where(y[:, None] == 1, (-60.0, 60.0), (60.0, -60.0))
        report, _, _ = span_loss(big, big, y, y)
        assert report.loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_ln2(self):
        y = np.array([1, 0, 0])
        report, _, _ = span_loss(np.zeros((3, 2)), np.zeros((3, 2)), y, y)
        assert report.loss_start == pytest.approx(math.log(2), abs=1e-12)
        assert report.loss_end == pytest.approx(math.log(2), abs=1e-12)
        assert report.loss == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_case_matches_scalar_oracle(self):
        logits = np.array(CE_HAND_LOGITS)
        targets = np.array(CE_HAND_TARGETS)
        loss, _ = cross_entropy(logits, targets)
        assert loss == pytest.approx(CE_HAND_MEAN, abs=1e-12)
        recomputed = sum(
            ce_scalar(row, t) for row, t in zip(CE_HAND_LOGITS, CE_HAND_TARGETS)
        ) / 3
        assert loss == pytest.approx(recomputed, abs=1e-12)

    def test_symmetry_in_start_end_roles(self):
        rng = np.random.default_rng(8)
        ls, le = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        ys = np.array([1, 0, 1, 0, 0])
        ye = np.array([0, 0, 1, 1, 0])
        a, _, _ = span_loss(ls, le, ys, ye)
        b, _, _ = span_loss(le, ls, ye, ys)
        assert a.loss == pytest.approx(b.loss, abs=1e-15)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = rng.integers(1, 10)
            ls, le = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            y = rng.integers(0, 2, size=n)
            report, _, _ = span_loss(ls, le, y, y)
            assert report.loss >= 0.0

    def test_zero_rows_raise(self):
        with pytest.raises(HeadError, match="zero rows"):
            span_loss(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int),
                      np.zeros(0, dtype=int))

    def test_logit_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        ls = rng.normal(size=(4, 2))
        le = rng.normal(size=(4, 2))
        ys = np.array([1, 0, 0, 1])
        ye = np.array([0, 1, 0, 1])
        _, dls, dle = span_loss(ls, le, ys, ye)
        for arr, grad in ((ls, dls), (le, dle)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                numeric = central_difference(
                    lambda: span_loss(ls, le, ys, ye)[0].loss, flat, idx
                )
                assert relative_error(gflat[idx], numeric) <= 1e-6


def cross_entropy_two_pass(logits, targets):
    """cross_entropy as it was when its gradient called softmax again."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    neg_log_prob = np.log(np.exp(z).sum(axis=1, keepdims=True)) - z
    loss = float(neg_log_prob[np.arange(n), targets].sum() / n)
    dlogits = softmax(logits, axis=1)
    dlogits[np.arange(n), targets] -= 1.0
    return loss, dlogits / n


@given(st.integers(1, 12), st.integers(2, 4), st.sampled_from([1e-3, 1.0, 30.0, 1e3]), st.data())
def test_cross_entropy_same_bits_as_two_pass(n, classes, scale, data):
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    logits = data.draw(arrays(np.float64, (n, classes), elements=unit)) * scale
    targets = data.draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    loss, grad = cross_entropy(logits, targets)
    want_loss, want_grad = cross_entropy_two_pass(logits, targets)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


class TestHeadGrads:
    @pytest.mark.parametrize("variant", [CONDITIONED, ABLATION])
    def test_full_head_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(5, D))
        head = random_head(variant, seed=11)
        ys = np.array([1, 0, 0, 1, 0])
        ye = np.array([0, 0, 1, 0, 1])

        def loss():
            ls = start_logits(h, head)
            return span_loss(ls, end_logits(h, head, ls), ys, ye)[0].loss

        report, _, dh, grads = span_head_grads(h, head, ys, ye)
        assert report.loss == pytest.approx(loss(), abs=1e-15)
        tensors = {
            "w_start": (head.w_start, grads["w_start"]),
            "b_start": (head.b_start, grads["b_start"]),
            "w_end": (head.w_end, grads["w_end"]),
            "b_end": (head.b_end, grads["b_end"]),
            "h": (h, dh),
        }
        for name, (arr, grad) in tensors.items():
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                numeric = central_difference(loss, flat, idx)
                assert relative_error(gflat[idx], numeric) <= 1e-6, f"{name}[{idx}]"

    def test_conditioned_start_grad_includes_end_path(self):
        # The gradient through the conditioning must differ from the pure-CE
        # start gradient whenever the probability columns are nonzero.
        rng = np.random.default_rng(12)
        h = rng.normal(size=(4, D))
        head = random_head(CONDITIONED, seed=12)
        ys = np.array([1, 0, 1, 0])
        ye = np.array([0, 1, 0, 1])
        _, (l_start, l_end), _, grads = span_head_grads(h, head, ys, ye)
        _, dls_direct, _ = span_loss(l_start, l_end, ys, ye)
        assert not np.allclose(grads["w_start"], h.T @ dls_direct)
