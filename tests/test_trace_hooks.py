"""The benchmark's per-layer tracer must still find every layer it wraps.

`perfbench/tracing.py` wraps mrcner functions by module attribute. A rename
or a call that bypasses the module attribute would leave a layer silently
unmeasured, so this runs a tiny MRC and BIO pipeline through the CLI under
the tracer and checks that every wrapped attribute was called, and so
recorded a span, and that each example passed through its encoder and head
layers (in training and predict, the encoder takes packs of examples).
"""

import importlib.util
from collections import Counter
from pathlib import Path

from mrcner import model as model_mod
from mrcner.cli import main
from helpers import corpus_to_conll, make_separable_corpus

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pipeline(tmp_path, mode, phase):
    """convert -> train -> predict -> evaluate; phase[0] names the running command."""
    corpus = tmp_path / "corpus.conll"
    corpus.write_text(corpus_to_conll(make_separable_corpus(6, seed=2)))
    triples, ckpt = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.ckpt"
    preds = tmp_path / f"{mode}.preds.jsonl"
    tiny = ["--epochs", 1, "--seq-len", 32, "--layers", 1, "--model-dim", 8, "--heads", 2,
            "--ffn-dim", 16, "--mode", mode]
    for argv in (
        ["convert", "--input", corpus, "--entity-type", "CHEMICAL", "--mode", mode,
         "--query-strategy", "q3", "--out", triples],
        ["train", "--train", triples, "--dev", triples, "--out", ckpt, *tiny],
        ["predict", "--checkpoint", ckpt, "--triples", triples, "--out", preds],
        ["evaluate", "--gold", triples, "--predictions", preds, "--out", tmp_path / "m.json"],
    ):
        phase[0] = f"{argv[0]}:{mode}"
        assert main([str(a) for a in argv]) == 0, argv


def count_calls(patches, calls, encoded, phase):
    """Put a call counter, keyed by phase and attribute, in front of each
    traced attribute; `encoded` counts, by phase and attribute, the examples
    in the packs that pass through `encoder.forward` and `encoder.backward`."""
    for namespace, attr, _ in patches:
        traced = getattr(namespace, attr)
        key = f"{namespace.__name__.removeprefix('mrcner.')}.{attr}"

        def counted(*args, _traced=traced, _key=key, **kwargs):
            calls[phase[0], _key] += 1
            if _key == "encoder.forward":
                encoded[phase[0], _key] += len(args[2])
            elif _key == "encoder.backward":
                encoded[phase[0], _key] += len(args[2]["rows"])
            return _traced(*args, **kwargs)

        setattr(namespace, attr, counted)


def test_every_wrapped_layer_records_a_span_and_unwraps(tmp_path, monkeypatch):
    forked, start = Counter(), model_mod.Helper.__init__

    def counting(self, target):
        forked[phase[0]] += 1
        start(self, target)

    monkeypatch.setattr(model_mod.Helper, "__init__", counting)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patches = list(tracer._patches)
    calls, encoded, phase = Counter(), Counter(), [None]
    try:
        count_calls(patches, calls, encoded, phase)
        for mode in ("mrc", "bio-baseline"):
            run_pipeline(tmp_path, mode, phase)
    finally:
        tracer.unwrap_all()

    for namespace, attr, original in patches:
        assert getattr(namespace, attr) is original, attr
    assert patches
    called = {key for _, key in calls}
    wrapped = [f"{ns.__name__.removeprefix('mrcner.')}.{attr}" for ns, attr, _ in patches]
    assert [key for key in wrapped if key not in called] == []
    assert len(tracer.spans) == sum(calls.values())
    assert tracing.misnested(tracer.spans, tracing.self_times(tracer.spans)) == 0

    # Predict's 6 examples are below the fork's minimum, so this process
    # predicts, and the tracer sees, every one of them.
    assert 6 < 2 * model_mod.MIN_WORKER_EXAMPLES
    assert [p for p in forked if p.startswith("predict:")] == []
    # Every example goes through each of its layers, in training and in predict.
    for mode, head_grads, head_decode in (
        ("mrc", ["heads.span_head_grads"], ["heads.start_logits", "heads.end_logits"]),
        ("bio-baseline", ["baseline.bio_head_grads"], ["baseline.bio_decode"]),
    ):
        steps = calls[f"train:{mode}", "model.example_loss_and_grads"]
        assert steps > 0
        assert encoded[f"train:{mode}", "encoder.backward"] == steps, mode
        for key in head_grads:
            assert calls[f"train:{mode}", key] == steps, (mode, key)
        examples = calls[f"predict:{mode}", "model.predict_example"]
        assert examples > 0
        assert encoded[f"predict:{mode}", "encoder.forward"] == examples, mode
        for key in head_decode:
            assert calls[f"predict:{mode}", key] == examples, (mode, key)
