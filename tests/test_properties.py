"""Property tests for CoNLL text -> convert -> triples -> evaluate.

No span is lost or invented between the corpus file and the F1 number:
the answers in the triples are exactly the corpus's spans of the target
type, gold scored against itself is perfect, a sentence key that appears
twice is refused instead of overwritten, truncating a context to the
sequence budget counts every answer it drops, an example holds only its
real rows, which `example_rows` counts from its triple, and its BIO targets
label exactly its kept spans. A checkpoint gives back every parameter bit
for bit, whatever finite float it holds.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrcner import model as model_mod
from mrcner.baseline import CLASS_IDS, bio_targets
from mrcner.cli import main
from mrcner.corpus import EntitySpan, spans_to_bio
from mrcner.encoder import EncoderConfig
from mrcner.mrc_data import (
    CLS_ID,
    CONTEXT_FIRST,
    MrcDataError,
    PAD_ID,
    QUERY_FIRST,
    SPECIALS,
    SeqConfig,
    Triple,
    Vocab,
    example_from_triple,
    example_rows,
    read_triples,
)

TARGET = "CHEMICAL"
# A bare B/I label takes the --entity-type given to convert.
LABEL_TYPES = [TARGET, "Chemical", "DISEASE", None]

segment = st.one_of(
    st.sampled_from(["the", "dose", "of", "was", "O-word"]).map(lambda w: ("O", w)),
    st.tuples(st.sampled_from(LABEL_TYPES), st.integers(1, 3)),
)
corpus = st.lists(st.lists(segment, min_size=1, max_size=8), min_size=1, max_size=6)


def render(sentences):
    """CoNLL text plus the number of spans of the target type it holds."""
    blocks, target_spans = [], 0
    for segments in sentences:
        lines = []
        for seg in segments:
            if seg[0] == "O":
                lines.append(f"{seg[1]}\tO")
                continue
            etype, length = seg
            suffix = f"-{etype}" if etype else ""
            target_spans += etype in (TARGET, None)
            lines.extend(f"e{i}\t{'B' if i == 0 else 'I'}{suffix}" for i in range(length))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n", target_spans


def run(*argv):
    """Exit code, the parsed JSON diagnostic (None on success) and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, json.loads(err.getvalue()) if rc else None, out.getvalue()


def gold_as_predictions(triples_path, out):
    with open(out, "w", encoding="utf-8") as fh:
        for t in read_triples(triples_path):
            spans = [{"start": s, "end": e} for s, e in t.answers]
            record = {"origin": {"doc_id": t.doc_id, "sent_id": t.sent_id},
                      "entity_type": t.entity_type, "spans": spans}
            fh.write(json.dumps(record) + "\n")


@settings(max_examples=40, deadline=None)
@given(corpus, st.sampled_from([("--query-strategy", "q0"), ("--query-strategy", "none"),
                                ("--mode", "bio-baseline")]))
def test_convert_then_evaluate_loses_no_span(sentences, convert_args):
    text, target_spans = render(sentences)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.conll").write_text(text)
        triples = tmp / "t.jsonl"
        rc, diagnostic, summary = run("convert", "--input", tmp / "c.conll", "--entity-type", TARGET,
                             *convert_args, "--out", triples)
        all_spans = sum(seg[0] != "O" for segments in sentences for seg in segments)
        if all_spans and not target_spans:
            assert rc == 1 and not triples.exists()
            assert TARGET not in diagnostic["found_entity_types"]
            return
        assert rc == 0
        summary = json.loads(summary)
        assert summary["answers"] == target_spans
        assert summary["filtered_spans"] == all_spans - target_spans
        loaded = read_triples(triples)
        assert len(loaded) == len(sentences)
        assert sum(len(t.answers) for t in loaded) == target_spans

        preds, metrics = tmp / "p.jsonl", tmp / "m.json"
        gold_as_predictions(triples, preds)
        assert run("evaluate", "--gold", triples, "--predictions", preds, "--out", metrics)[0] == 0
        report = json.loads(metrics.read_text())
        assert report["tp"] == target_spans and report["fp"] == report["fn"] == 0
        assert report["f1"] == (1.0 if target_spans else 0.0)

        doubled_gold, doubled_preds = tmp / "gold2.jsonl", tmp / "p2.jsonl"
        doubled_gold.write_text(triples.read_text() * 2)
        doubled_preds.write_text(preds.read_text() * 2)
        for gold, predicted in ((doubled_gold, preds), (triples, doubled_preds)):
            rc, diagnostic, _ = run("evaluate", "--gold", gold, "--predictions", predicted,
                                 "--out", metrics)
            assert rc == 1 and "duplicate" in diagnostic["message"]


@st.composite
def on_disk_triple(draw):
    """A triple as `Triple.from_record` accepts it: sorted, non-overlapping
    answers inside the context, with or without a query."""
    n = draw(st.integers(1, 24))
    answers, cursor = [], 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=8)):
        start = cursor + gap
        end = start + length - 1
        if end >= n:
            break
        answers.append((start, end))
        cursor = end + 1
    query = draw(st.one_of(st.none(), st.integers(1, 6).map(lambda k: " ".join(["q"] * k))))
    triple = Triple([f"t{i}" for i in range(n)], query, answers, TARGET, "d", 0)
    return Triple.from_record(json.loads(triple.to_json()))


@settings(max_examples=60, deadline=None)
@given(on_disk_triple())
def test_truncation_drops_are_counted_exactly(triple):
    vocab = Vocab(list(SPECIALS))
    overhead = 3 + len(triple.query.split()) if triple.query is not None else 2
    # Every seq_len that leaves room for context, up to well past the whole of it.
    for seq_len in range(max(4, overhead + 1), overhead + len(triple.context) + 3):
        ex = example_from_triple(triple, vocab, SeqConfig(seq_len))
        assert ex.n_context == min(len(triple.context), seq_len - overhead)
        kept = list(zip(np.flatnonzero(ex.y_start).tolist(), np.flatnonzero(ex.y_end).tolist()))
        assert len(triple.answers) == len(kept) + ex.n_dropped_spans
        assert kept == [(s, e) for s, e in triple.answers if e < ex.n_context]
        assert all(0 <= s <= e < ex.n_context for s, e in kept)
        assert int(ex.y_start.sum()) == int(ex.y_end.sum()) == len(kept)


@settings(max_examples=60, deadline=None)
@given(on_disk_triple())
# Adjacent spans, one-token spans, and one cut by truncation.
@example(Triple([f"t{i}" for i in range(7)], "q", [(0, 0), (1, 2), (3, 3), (4, 6)], TARGET, "d", 0))
def test_bio_targets_are_the_kept_spans_labels(triple):
    vocab = Vocab(list(SPECIALS))
    overhead = 3 + len(triple.query.split()) if triple.query is not None else 2
    for order in (CONTEXT_FIRST, QUERY_FIRST):
        for seq_len in range(max(4, overhead + 1), overhead + len(triple.context) + 3):
            ex = example_from_triple(triple, vocab, SeqConfig(seq_len, order))
            kept = [EntitySpan(s, e, TARGET) for s, e in triple.answers if e < ex.n_context]
            labels = spans_to_bio(kept, ex.n_context)
            assert bio_targets(ex).tolist() == [CLASS_IDS[label.tag] for label in labels]


@settings(max_examples=60, deadline=None)
@given(on_disk_triple())
def test_an_example_holds_only_its_real_rows(triple):
    vocab = Vocab(list(SPECIALS) + ["q"] + [f"t{i}" for i in range(24)])
    query_rows = len(triple.query.split()) + 1 if triple.query is not None else 0  # and [SEP]
    overhead = 2 + query_rows
    for order in (CONTEXT_FIRST, QUERY_FIRST):
        for seq_len in range(max(4, overhead + 1), overhead + len(triple.context) + 3):
            ex = example_from_triple(triple, vocab, SeqConfig(seq_len, order))
            n_context = min(len(triple.context), seq_len - overhead)
            n = len(ex.input_ids)
            assert len(ex.segment_ids) == n == 2 + n_context + query_rows <= seq_len
            assert PAD_ID not in ex.input_ids
            assert ex.input_ids[0] == CLS_ID
            # Segment 0 holds [CLS] and the first part with its [SEP]; a
            # query makes a second part, segment 1, so the segments switch
            # once, after the first part.
            if order == CONTEXT_FIRST or triple.query is None:
                first_part = 2 + n_context  # [CLS] context [SEP]
            else:
                first_part = 1 + query_rows  # [CLS] query [SEP]
            assert list(ex.segment_ids) == [0] * first_part + [1] * (n - first_part)
            assert (first_part < n) == (triple.query is not None)


@settings(max_examples=60, deadline=None)
@given(on_disk_triple())
# With a query and without, each cut by the shorter seq_lens.
@example(Triple([f"t{i}" for i in range(9)], "q q", [(7, 8)], TARGET, "d", 0))
@example(Triple([f"t{i}" for i in range(9)], None, [(7, 8)], TARGET, "d", 0))
def test_example_rows_counts_the_built_examples_rows(triple):
    vocab = Vocab(list(SPECIALS))
    for order in (CONTEXT_FIRST, QUERY_FIRST):
        # From the smallest seq_len, which leaves a long query no room, to
        # well past the whole context.
        for seq_len in range(4, len(triple.context) + 12):
            cfg = SeqConfig(seq_len, order)
            try:
                rows = example_rows(triple, cfg)
            except MrcDataError as exc:
                with pytest.raises(MrcDataError) as built:
                    example_from_triple(triple, vocab, cfg)
                assert str(built.value) == str(exc)
                continue
            assert rows == len(example_from_triple(triple, vocab, cfg).input_ids)


# Finite floats, with signed zeros and subnormals drawn on purpose.
parameter_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308]),
)


@st.composite
def tiny_model(draw):
    """A model of either mode with a tiny drawn config, any non-special
    vocabulary words, and its store filled from drawn values."""
    mode = draw(st.sampled_from([model_mod.MODE_MRC, model_mod.MODE_BIO]))
    variant = (draw(st.sampled_from(["conditioned", "ablation"]))
               if mode == model_mod.MODE_MRC else None)
    words = draw(st.lists(st.text(min_size=1, max_size=4).filter(lambda w: w not in SPECIALS),
                          max_size=6, unique=True))
    vocab = Vocab(list(SPECIALS) + words)
    heads = draw(st.integers(1, 2))
    cfg = EncoderConfig(vocab_size=vocab.size, layers=draw(st.integers(1, 2)),
                        model_dim=heads * draw(st.integers(1, 3)), heads=heads,
                        ffn_dim=draw(st.integers(1, 6)), max_positions=draw(st.integers(4, 12)))
    seq_cfg = SeqConfig(draw(st.integers(4, cfg.max_positions)),
                        draw(st.sampled_from([CONTEXT_FIRST, QUERY_FIRST])))
    mdl = model_mod.new_model(mode, variant, cfg, seq_cfg, vocab, seed=0)
    values = draw(st.lists(parameter_value, min_size=1, max_size=64))
    mdl.flat[:] = np.resize(np.array(values), mdl.flat.size)
    return mdl


@settings(max_examples=60, deadline=None)
@given(tiny_model())
def test_checkpoint_round_trip_is_bit_exact(mdl):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        model_mod.save_checkpoint(mdl, first)
        loaded = model_mod.load_checkpoint(first)
        assert loaded.flat.tobytes() == mdl.flat.tobytes()
        model_mod.save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()

        header = json.loads(first.read_bytes().split(b"\n", 1)[0])
        assert header["mode"] == mdl.head.mode and header["head_variant"] == mdl.head.variant
        assert header["encoder_config"] == asdict(mdl.encoder_cfg)
        assert header["seq_config"] == asdict(mdl.seq_cfg)
        assert header["vocab"] == mdl.vocab.id_to_token
