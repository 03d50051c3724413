import json
import re

import numpy as np
import pytest

from mrcner.mrc_data import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    MrcDataError,
    SeqConfig,
    Triple,
    Vocab,
    example_from_triple,
    read_triples,
    triple_from_sentence,
)
from mrcner.query import QueryStrategy, build_query
from mrcner.train import build_vocab_from_triples

from mrcner.corpus import parse_conll


def chem_query():
    return build_query("CHEMICAL", QueryStrategy("zero"), {}, seed=0)


class TestVocab:
    def test_min_count_one(self, meloxicam_sentence):
        vocab = build_vocab_from_triples(
            [triple_from_sentence(meloxicam_sentence, None, entity_type="CHEMICAL")], 1)
        assert vocab.size == 4 + 6
        assert vocab.encode("Meloxicam") >= 4
        assert vocab.encode("unseen") == UNK_ID

    def test_count_threshold(self):
        sents = parse_conll(["a\tO", "b\tO", "a\tO"])
        triples = [triple_from_sentence(s, None, entity_type="CHEMICAL") for s in sents]
        assert build_vocab_from_triples(triples, 1).size == 6
        assert build_vocab_from_triples(triples, 2).size == 5

    def test_empty_corpus_keeps_specials(self):
        assert build_vocab_from_triples([], 1).size == 4

    def test_ids_ordered_by_count_then_token(self):
        sents = parse_conll(["b\tO", "a\tO", "b\tO", "c\tO"])
        vocab = build_vocab_from_triples(
            [triple_from_sentence(s, None, entity_type="CHEMICAL") for s in sents], 1)
        assert vocab.id_to_token[4:] == ["b", "a", "c"]

    def test_query_tokens_included(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, chem_query())
        assert build_vocab_from_triples([triple], 1).encode("detect") >= 4

    def test_json_round_trip(self, meloxicam_sentence):
        vocab = build_vocab_from_triples(
            [triple_from_sentence(meloxicam_sentence, None, entity_type="CHEMICAL")], 1)
        clone = Vocab(list(vocab.id_to_token))
        assert clone.token_to_id == vocab.token_to_id


class TestMakeExample:
    def test_meloxicam_layout_and_targets(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, chem_query())
        vocab = build_vocab_from_triples([triple], 1)
        ex = example_from_triple(triple, vocab, SeqConfig(32))
        # [CLS] + 6 context + [SEP] + 6 query + [SEP] = 15 rows, no padding
        assert len(ex.input_ids) == len(ex.segment_ids) == 15
        assert ex.input_ids[0] == CLS_ID
        assert ex.context_range == (1, 6)
        assert ex.input_ids[7] == SEP_ID and ex.input_ids[14] == SEP_ID
        assert list(ex.segment_ids) == [0] * 8 + [1] * 7
        assert list(ex.y_start) == [1, 0, 0, 0, 0, 0]
        assert list(ex.y_start) == list(ex.y_end)
        assert ex.origin == (meloxicam_sentence.doc_id, meloxicam_sentence.sent_id, "CHEMICAL")

    def test_no_entities_means_zero_targets(self):
        sent = parse_conll(["liver\tO", "toxicity\tO"])[0]
        vocab = build_vocab_from_triples(
            [triple_from_sentence(sent, None, entity_type="CHEMICAL")], 1)
        ex = example_from_triple(triple_from_sentence(sent, chem_query()), vocab, SeqConfig(32))
        assert not ex.y_start.any() and not ex.y_end.any()

    def test_two_span_target_placement(self):
        triple = Triple(list("abcdefghij"), "none", [(2, 4), (7, 9)], "C", "d", 0)
        ex = example_from_triple(triple, Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"]), SeqConfig(32))
        assert list(np.flatnonzero(ex.y_start)) == [2, 7]
        assert list(np.flatnonzero(ex.y_end)) == [4, 9]
        assert int(ex.y_start.sum()) == int(ex.y_end.sum()) == 2

    def test_no_padding_rows(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, chem_query())
        vocab = build_vocab_from_triples([triple], 1)
        ex = example_from_triple(triple, vocab, SeqConfig(32))
        assert len(ex.input_ids) == 15 and PAD_ID not in ex.input_ids
        first, last = ex.context_range
        assert len(ex.y_start) == last - first + 1

    def test_truncation_drops_and_counts_out_of_window_spans(self):
        tokens = [f"t{i}" for i in range(20)]
        triple = Triple(tokens, "none", [(0, 1), (8, 12), (15, 15)], "C", "d", 0)
        # seq_len 13 - [CLS] - 2x[SEP] - 1 query token = 9 context slots
        ex = example_from_triple(triple, Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"]), SeqConfig(13))
        assert ex.n_context == 9
        assert ex.n_dropped_spans == 2  # (8,12) straddles the cut, (15,15) is past it
        assert list(np.flatnonzero(ex.y_start)) == [0] and list(np.flatnonzero(ex.y_end)) == [1]

    def test_query_longer_than_budget_raises(self):
        triple = Triple(["a"], " ".join(["q"] * 30), [], "C", "d", 0)
        with pytest.raises(MrcDataError, match="seq_len"):
            example_from_triple(triple, Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"]), SeqConfig(16))

    def test_order_flag_shifts_context_only(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, chem_query())
        vocab = build_vocab_from_triples([triple], 1)
        cf = example_from_triple(triple, vocab, SeqConfig(32, "context-first"))
        qf = example_from_triple(triple, vocab, SeqConfig(32, "query-first"))
        assert sorted(cf.input_ids.tolist()) == sorted(qf.input_ids.tolist())
        assert (cf.y_start == qf.y_start).all() and (cf.y_end == qf.y_end).all()
        assert qf.context_range == (8, 13)
        ids_cf = cf.input_ids[cf.context_range[0] : cf.context_range[1] + 1]
        ids_qf = qf.input_ids[qf.context_range[0] : qf.context_range[1] + 1]
        assert (ids_cf == ids_qf).all()

    def test_baseline_layout_has_no_query_segment(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, None, entity_type="CHEMICAL")
        vocab = build_vocab_from_triples([triple], 1)
        ex = example_from_triple(triple, vocab, SeqConfig(16))
        assert len(ex.input_ids) == 8  # [CLS] + 6 + [SEP]
        assert not ex.segment_ids.any()


class TestTripleJson:
    def test_round_trip(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, chem_query())
        clone = Triple.from_record(json.loads(triple.to_json()))
        assert clone == triple

    def test_schema(self, meloxicam_sentence):
        record = json.loads(triple_from_sentence(meloxicam_sentence, chem_query()).to_json())
        assert set(record) == {"context", "query", "answers", "entity_type", "origin"}
        assert record["answers"] == [{"start": 0, "end": 0}]
        assert record["origin"] == {"doc_id": "", "sent_id": 0}

    def test_baseline_triple_has_null_query(self, meloxicam_sentence):
        triple = triple_from_sentence(meloxicam_sentence, None, entity_type="CHEMICAL")
        assert json.loads(triple.to_json())["query"] is None
        assert triple.entity_type == "CHEMICAL"

    @pytest.mark.parametrize("answers, refused", [
        ([(1, 2), (2, 3), (7, 9)], "(2, 3)"),  # overlaps (1, 2); (7, 9) is past the end
        ([(7, 9)], "(7, 9)"),
        ([(3, 4), (0, 1)], "(0, 1)"),
        ([(2, 1)], "(2, 1)"),
        ([(-1, 0)], "(-1, 0)"),
        ([(0, 4.0)], "(0, 4.0)"),
        ([(False, True)], "(False, True)"),  # JSON booleans are no indexes
    ])
    def test_answers_checked_against_own_context(self, answers, refused):
        context = [f"t{i}" for i in range(5)]
        message = re.escape(f"d/4: answer {refused}")
        with pytest.raises(MrcDataError, match=message):
            Triple(context, "q", answers, "C", "d", 4)
        line = json.dumps({"context": context, "query": "q",
                           "answers": [{"start": s, "end": e} for s, e in answers],
                           "entity_type": "C", "origin": {"doc_id": "d", "sent_id": 4}})
        with pytest.raises(MrcDataError, match=message):
            Triple.from_record(json.loads(line))

    def test_query_free_triple_needs_an_entity_type(self, meloxicam_sentence):
        with pytest.raises(MrcDataError, match="entity type"):
            triple_from_sentence(meloxicam_sentence, None)

    def test_other_type_spans_excluded(self):
        sent = parse_conll(["aspirin\tB-CHEMICAL", "headache\tB-DISEASE"])[0]
        triple = triple_from_sentence(sent, chem_query())
        assert triple.answers == [(0, 0)]


GOOD_FIELDS = {"context": ["a", "b"], "query": "q", "answers": [], "entity_type": "C",
               "doc_id": "d", "sent_id": 0}


def triple_line(fields):
    return json.dumps({"context": fields["context"], "query": fields["query"],
                       "answers": fields["answers"], "entity_type": fields["entity_type"],
                       "origin": {"doc_id": fields["doc_id"], "sent_id": fields["sent_id"]}})


class TestTripleFields:
    @pytest.mark.parametrize("field, value, message", [
        ("context", "ab", "triple d/0: context must be list, got 'ab'"),
        ("context", [], "triple d/0: context is empty"),
        ("context", ["a b"], "triple d/0: context token 0 ('a b') is not a non-empty string"),
        ("context", ["a", ""], "triple d/0: context token 1 ('') is not a non-empty string"),
        ("context", ["a", "\u00a0"], "triple d/0: context token 1 ('\\xa0') is not a"),
        ("context", ["a", 5], "triple d/0: context token 1 (5) is not a non-empty string"),
        ("context", ["a", ["b"]], "triple d/0: context token 1 (['b']) is not a non-empty"),
        ("query", 5, "triple d/0: query must be str or null, got 5"),
        ("entity_type", None, "triple d/0: entity_type must be str, got None"),
        ("doc_id", 3, "triple 3/0: doc_id must be str, got 3"),
        ("sent_id", True, "triple d/True: sent_id must be int, got True"),
        ("sent_id", "0", "triple d/0: sent_id must be int, got '0'"),
    ])
    def test_a_bad_field_is_refused_in_code_and_in_a_file(self, tmp_path, field, value, message):
        fields = {**GOOD_FIELDS, field: value}
        with pytest.raises(MrcDataError, match=re.escape(message)):
            Triple(**fields)
        path = tmp_path / "t.jsonl"
        path.write_text(triple_line(GOOD_FIELDS) + "\n\n" + triple_line(fields) + "\n")
        with pytest.raises(MrcDataError, match=re.escape(f"{path}, line 3: {message}")):
            read_triples(path)

    def test_a_context_tuple_is_refused(self):
        with pytest.raises(MrcDataError, match="context must be list"):
            Triple(**{**GOOD_FIELDS, "context": ("a", "b")})

    @pytest.mark.parametrize("line, message", [
        ("{", " is not JSON: "),
        ("[1]", " is not a JSON object"),
        (json.dumps({"context": ["a"]}), ": the record has no 'origin' key"),
        (triple_line({**GOOD_FIELDS, "answers": {"start": 0, "end": 0}}),
         ": triple answers must be list"),
        (triple_line({**GOOD_FIELDS, "answers": [[0, 0]]}), ": triple answer must be dict"),
    ])
    def test_a_line_of_the_wrong_shape_is_refused(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MrcDataError, match=re.escape(f"{path}, line 1{message}")):
            read_triples(path)

    def test_valid_fields_still_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(triple_line({**GOOD_FIELDS, "query": None, "answers": [
            {"start": 1, "end": 1}]}) + "\n")
        assert read_triples(path) == [Triple(["a", "b"], None, [(1, 1)], "C", "d", 0)]
