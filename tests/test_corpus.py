import json
import random

import pytest
from hypothesis import given, strategies as st

from mrcner import corpus
from mrcner.corpus import (
    BioLabel,
    CorpusError,
    EntitySpan,
    Sentence,
    bio_to_spans,
    entity_inventory,
    parse_conll,
    parse_conll_with_report,
    parse_label,
    repair_bio,
    sentence_to_json,
    spans_to_bio,
)
from helpers import MELOXICAM_CONLL, corpus_to_conll, random_bio_sentence
from oracles import bio_label_uncached, spans_by_run_scan


def labels_from_pairs(pairs):
    return [BioLabel(tag, etype) for tag, etype in pairs]


class TestParseConll:
    def test_meloxicam_sentence(self):
        sents = parse_conll(MELOXICAM_CONLL.splitlines(), default_entity_type="CHEMICAL")
        assert len(sents) == 1
        sent = sents[0]
        assert sent.tokens == ["Meloxicam", "-", "induced", "liver", "toxicity", "."]
        assert [lab.tag for lab in sent.labels] == ["B", "O", "O", "O", "O", "O"]
        assert sent.labels[0].entity_type == "CHEMICAL"

    def test_empty_input(self):
        assert parse_conll([]) == []
        assert parse_conll(["", "   ", ""]) == []

    def test_two_sentences_get_consecutive_ids(self):
        text = "a\tO\nb\tO\n\nc\tO\n"
        sents = parse_conll(text.splitlines())
        assert len(sents) == 2
        assert [s.sent_id for s in sents] == [0, 1]

    def test_space_separated_fallback(self):
        sents = parse_conll(["Meloxicam B-CHEMICAL", "works O"])
        assert sents[0].tokens == ["Meloxicam", "works"]
        assert sents[0].labels[0].entity_type == "CHEMICAL"

    def test_wrong_column_count_names_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_conll(["ok\tO", "bad line with spaces\textra\tcolumns"])

    def test_unknown_tag_names_token_index(self):
        with pytest.raises(CorpusError, match="index 1"):
            parse_conll(["a\tO", "b\tQ-CHEMICAL"])

    def test_repairs_are_counted(self):
        text = "a\tO\nb\tI-CHEM\nc\tI-CHEM\n"
        sents, report = parse_conll_with_report(text.splitlines())
        assert report.repaired_labels == 1
        assert [lab.tag for lab in sents[0].labels] == ["O", "B", "I"]

    def test_roundtrip_is_byte_identical(self):
        text = "Meloxicam\tB-CHEMICAL\n-\tO\n\nsodium\tB-CHEMICAL\nworks\tO\n"
        sents = parse_conll(text.splitlines())
        assert corpus_to_conll(sents) == text


class TestRepair:
    def test_dangling_i_becomes_b(self):
        labels, n = repair_bio(["O", "I-CHEM", "I-CHEM"])
        assert [lab.tag for lab in labels] == ["O", "B", "I"]
        assert n == 1

    def test_valid_sequence_untouched(self):
        labels, n = repair_bio(["B-CHEM", "I-CHEM"])
        assert [lab.tag for lab in labels] == ["B", "I"]
        assert n == 0

    def test_rule_applies_position_by_position(self):
        labels, n = repair_bio(["I-CHEM", "O", "I-CHEM"])
        assert [lab.tag for lab in labels] == ["B", "O", "B"]
        assert n == 2

    def test_type_change_starts_new_entity(self):
        labels, n = repair_bio(["B-CHEM", "I-DISEASE"])
        assert [lab.tag for lab in labels] == ["B", "B"]
        assert n == 1

    def test_idempotent(self):
        for raw in (["I-C", "I-C", "O", "I-C"], ["O", "O"], ["B-C", "I-C", "I-C"]):
            once, _ = repair_bio(raw)
            twice, n = repair_bio([lab.to_raw() for lab in once])
            assert twice == once
            assert n == 0

    def test_unknown_tag_raises_with_index(self):
        with pytest.raises(CorpusError, match="index 2"):
            repair_bio(["O", "O", "X-CHEM"])


RAW_LABELS = st.sampled_from(["O", "B", "I", "B-CHEM", "I-CHEM", "I-DIS", "B-DIS", "B-", "I-"])


class TestLabelCache:
    def test_same_raw_label_parses_to_an_equal_label(self):
        for raw in ("O", "B", "I-Chemical", "B-"):
            first = parse_label(raw, 0, "ENT")
            assert parse_label(raw, 5, "ENT") == first == bio_label_uncached(raw, 0, "ENT")
        assert parse_label("B", 0, "DISEASE") == BioLabel("B", "DISEASE")
        assert parse_label("B", 0, "ENT") == BioLabel("B", "ENT")

    def test_unknown_tag_names_its_own_index_every_time(self):
        with pytest.raises(CorpusError, match="'X-C' at token index 1"):
            parse_conll(["a\tO", "b\tX-C"])
        with pytest.raises(CorpusError, match="'X-C' at token index 3"):
            parse_conll(["a\tO", "", "b\tO", "c\tO", "d\tO", "e\tX-C"])
        with pytest.raises(CorpusError, match="'X-C' at token index 0"):
            parse_conll(["a\tX-C", "b\tX-C"])

    @given(st.lists(st.lists(RAW_LABELS, min_size=1, max_size=12), max_size=6),
           st.sampled_from(["ENT", "CHEM"]))
    def test_parse_with_repairs_matches_the_uncached_parse(self, label_rows, default):
        lines = []
        for row in label_rows:
            lines += [f"w{i}\t{raw}" for i, raw in enumerate(row)] + [""]
        cached = parse_conll_with_report(lines, "doc", default)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "parse_label", bio_label_uncached)
            uncached = parse_conll_with_report(lines, "doc", default)
        assert cached == uncached


class TestSpanConversion:
    def test_single_token_entity(self):
        labels = labels_from_pairs(
            [("B", "CHEMICAL"), ("O", None), ("O", None), ("O", None), ("O", None), ("O", None)]
        )
        spans = bio_to_spans(labels, ["Meloxicam", "-", "induced", "liver", "toxicity", "."])
        assert spans == [EntitySpan(0, 0, "CHEMICAL", "Meloxicam")]

    def test_all_outside(self):
        assert bio_to_spans(labels_from_pairs([("O", None)] * 3)) == []

    def test_two_runs(self):
        labels = labels_from_pairs(
            [("B", "C"), ("I", "C"), ("I", "C"), ("O", None), ("B", "C")]
        )
        spans = bio_to_spans(labels)
        assert [(s.start, s.end) for s in spans] == [(0, 2), (4, 4)]

    def test_spans_to_bio_single(self):
        labels = spans_to_bio([EntitySpan(0, 0, "CHEMICAL")], 6)
        assert [lab.tag for lab in labels] == ["B", "O", "O", "O", "O", "O"]

    def test_spans_to_bio_empty(self):
        assert [lab.tag for lab in spans_to_bio([], 3)] == ["O", "O", "O"]

    def test_spans_to_bio_two_runs(self):
        labels = spans_to_bio([EntitySpan(0, 2, "C"), EntitySpan(4, 4, "C")], 5)
        assert [lab.tag for lab in labels] == ["B", "I", "I", "O", "B"]

    def test_overlap_rejected_naming_pair(self):
        with pytest.raises(CorpusError, match=r"\(0, 2\).*\(1, 3\)"):
            spans_to_bio([EntitySpan(0, 2, "C"), EntitySpan(1, 3, "C")], 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(CorpusError, match="exceeds"):
            spans_to_bio([EntitySpan(2, 5, "C")], 4)

    def test_round_trip_against_run_scan_oracle(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            tags, _ = random_bio_sentence(rng)
            labels = labels_from_pairs(tags)
            spans = bio_to_spans(labels)
            expected = spans_by_run_scan(tags)
            assert [(s.start, s.end, s.entity_type) for s in spans] == expected
            # spans -> labels -> spans and labels -> spans -> labels
            assert spans_to_bio(spans, len(labels)) == labels
            assert bio_to_spans(spans_to_bio(spans, len(labels))) == spans


class TestInventory:
    def test_meloxicam_inventory(self, meloxicam_sentence):
        assert entity_inventory([meloxicam_sentence]) == {"CHEMICAL": ["Meloxicam"]}

    def test_no_entities(self):
        sent = Sentence(["a", "b"], [BioLabel("O"), BioLabel("O")])
        assert entity_inventory([sent]) == {}

    def test_duplicates_collapse(self):
        sents = parse_conll(
            ["sodium\tB-CHEMICAL", "works\tO", "", "sodium\tB-CHEMICAL", "helps\tO"]
        )
        assert entity_inventory(sents) == {"CHEMICAL": ["sodium"]}

    def test_case_sensitive(self):
        sents = parse_conll(["Sodium\tB-C", "", "sodium\tB-C"])
        assert entity_inventory(sents) == {"C": ["Sodium", "sodium"]}


class TestValidation:
    def test_o_with_type_rejected(self):
        with pytest.raises(CorpusError):
            BioLabel("O", "CHEMICAL")

    def test_b_without_type_rejected(self):
        with pytest.raises(CorpusError):
            BioLabel("B")

    def test_token_with_whitespace_rejected(self):
        with pytest.raises(CorpusError):
            Sentence(["a b"], [BioLabel("O")])

    def test_length_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            Sentence(["a", "b"], [BioLabel("O")])

    def test_parse_label_suffix_wins(self):
        assert parse_label("B-Chemical", 0, "ENT").entity_type == "Chemical"
        assert parse_label("B", 0, "DISEASE").entity_type == "DISEASE"


@given(st.lists(st.text(alphabet="ab \t\n\u00a0\u2028\x1c", max_size=3) | st.integers(0, 2),
                max_size=4))
def test_bulk_token_check_equals_the_per_token_rule(tokens):
    per_token = bool(tokens) and all(
        type(tok) is str and tok and tok.split() == [tok] for tok in tokens)
    assert corpus.are_words(tokens) == per_token


def test_sentence_json_schema(meloxicam_sentence):
    record = json.loads(sentence_to_json(meloxicam_sentence))
    assert set(record) == {"doc_id", "sent_id", "tokens", "labels", "spans"}
    assert record["spans"] == [
        {"start": 0, "end": 0, "type": "CHEMICAL", "surface": "Meloxicam"}
    ]
    assert record["labels"][0] == "B-CHEMICAL"
