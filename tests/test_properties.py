"""Property tests for CoNLL text -> convert -> triples -> evaluate.

No span is lost or invented between the corpus file and the F1 number:
the answers in the triples are exactly the corpus's spans of the target
type, gold scored against itself is perfect, and a sentence key that
appears twice is refused instead of overwritten.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mrcner.cli import main
from mrcner.mrc_data import read_triples

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
