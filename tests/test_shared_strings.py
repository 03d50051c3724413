"""The two readers that turn file text into token lists, the CoNLL parser and
`read_triples`, hold each distinct string of one call once: equal tokens are
one `str` object, and so are the query, entity type and doc id repeated on
every triple. Only identity changes: values and output bytes stay as they
were."""

import json
import random
import tracemalloc

from mrcner.corpus import parse_conll
from mrcner.mrc_data import Triple, read_triples, write_triples


def triples_file(path, lines, tokens_per_line, words, seed=0):
    """A JSON-lines triples file whose contexts draw `tokens_per_line` tokens
    from `words` distinct ones; every line carries the same query."""
    rng = random.Random(seed)
    lexicon = [f"word{i:03d}" for i in range(words)]
    with open(path, "w", encoding="utf-8") as fh:
        for sent_id in range(lines):
            context = [rng.choice(lexicon) for _ in range(tokens_per_line)]
            fh.write(Triple(context, "Can you find chemical entities ?", [(1, 2)], "CHEMICAL",
                            "doc", sent_id).to_json() + "\n")
    return path


def test_equal_strings_on_different_lines_of_a_triples_file_are_one_object(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        json.dumps({"context": ["aspirin", "and", "ibuprofen"], "query": "find drugs like aspirin",
                    "answers": [], "entity_type": "CHEMICAL",
                    "origin": {"doc_id": "pmid1", "sent_id": 0}}) + "\n"
        + json.dumps({"context": ["ibuprofen", "or", "aspirin", "aspirin"],
                      "query": "find drugs like aspirin", "answers": [{"start": 0, "end": 0}],
                      "entity_type": "CHEMICAL", "origin": {"doc_id": "pmid1", "sent_id": 1}})
        + "\n")
    first, second = read_triples(path)
    assert first.context[0] is second.context[2] is second.context[3]
    assert first.context[2] is second.context[0]
    assert first.query is second.query
    assert first.entity_type is second.entity_type
    assert first.doc_id is second.doc_id


def test_every_triple_of_a_file_shares_one_query_object(tmp_path):
    triples = read_triples(triples_file(tmp_path / "t.jsonl", 20, 6, 5))
    assert len({id(t.query) for t in triples}) == 1
    assert len({id(tok) for t in triples for tok in t.context}) == len(
        {tok for t in triples for tok in t.context})


def test_equal_tokens_in_different_sentences_of_one_conll_input_are_one_object():
    lines = ["aspirin\tB-CHEMICAL", "relieves\tO", "pain\tO", "",
             "pain\tO", "after\tO", "aspirin\tB-CHEMICAL", "aspirin\tI-CHEMICAL", ""]
    first, second = parse_conll(lines)
    assert first.tokens[0] is second.tokens[2] is second.tokens[3]
    assert first.tokens[2] is second.tokens[0]
    assert first.tokens == ["aspirin", "relieves", "pain"]
    assert second.tokens == ["pain", "after", "aspirin", "aspirin"]


def test_read_then_write_reproduces_the_file(tmp_path):
    path = triples_file(tmp_path / "t.jsonl", 50, 12, 9)
    write_triples(read_triples(path), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_read_triples_holds_a_pointer_per_token_not_a_string(tmp_path):
    # A string per token occurrence costs ~68 bytes a token; a pointer to a
    # shared string 8, plus each line's own list, answers and triple.
    lines, per_line = 2000, 40
    path = triples_file(tmp_path / "t.jsonl", lines, per_line, 50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        triples = read_triples(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(triples) == lines
    assert held / (lines * per_line) < 24
