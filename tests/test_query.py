import pytest

from mrcner.query import (
    QueryError,
    QueryStrategy,
    build_query,
    render_query,
    type_word,
)

INVENTORY = {
    "CHEMICAL": ["RA", "cannabis", "lithium", "meloxicam", "sodium"],
    "DISEASE": ["anemia", "hepatitis"],
}


class TestTemplates:
    def test_published_example_string(self):
        text = render_query("CHEMICAL", QueryStrategy("sample", 3), ["sodium", "RA", "cannabis"])
        assert text == "Can you detect chemical entities like sodium or RA or cannabis ?"

    def test_zero_strategy(self):
        assert render_query("CHEMICAL", QueryStrategy("zero")) == "Can you detect chemical entities ?"

    def test_none_strategy(self):
        assert render_query("DISEASE", QueryStrategy("none")) == "none"

    def test_type_words(self):
        assert type_word("Chemical/Drug") == "chemical"
        assert type_word("Protein/Gene") == "protein"
        assert type_word("DISEASE") == "disease"
        assert type_word("CellLine") == "cellline"


class TestBuildQuery:
    def test_deterministic(self):
        a = build_query("CHEMICAL", QueryStrategy("sample", 3), INVENTORY, seed=5)
        b = build_query("CHEMICAL", QueryStrategy("sample", 3), INVENTORY, seed=5)
        assert a == b

    def test_seed_changes_sample(self):
        texts = {
            build_query("CHEMICAL", QueryStrategy("sample", 3), INVENTORY, seed=s).text
            for s in range(8)
        }
        assert len(texts) > 1

    def test_membership_and_distinctness(self):
        for seed in range(20):
            spec = build_query("CHEMICAL", QueryStrategy("sample", 3), INVENTORY, seed)
            assert len(spec.sampled_entities) == 3
            assert len(set(spec.sampled_entities)) == 3
            for ent in spec.sampled_entities:
                assert ent in INVENTORY["CHEMICAL"]

    def test_sample_capped_at_inventory_size(self):
        spec = build_query("DISEASE", QueryStrategy("sample", 10), INVENTORY, seed=0)
        assert sorted(spec.sampled_entities) == ["anemia", "hepatitis"]

    def test_template_fidelity(self):
        for name in ("none", "q0", "q3", "q5", "q10"):
            spec = build_query("CHEMICAL", QueryStrategy.parse(name), INVENTORY, seed=3)
            assert render_query("CHEMICAL", spec.strategy, spec.sampled_entities) == spec.text
            assert tuple(spec.text.split()) == spec.tokens

    def test_empty_inventory_raises_with_type(self):
        with pytest.raises(QueryError, match="PROTEIN"):
            build_query("PROTEIN", QueryStrategy("sample", 3), INVENTORY, seed=0)

    def test_multiword_entities_inserted_verbatim(self):
        inv = {"DISEASE": ["breast cancer", "type 2 diabetes"]}
        spec = build_query("DISEASE", QueryStrategy("sample", 2), inv, seed=1)
        for ent in spec.sampled_entities:
            assert ent in spec.text


class TestTokenCount:
    def test_query_zero_has_six_tokens(self):
        spec = build_query("CHEMICAL", QueryStrategy("zero"), INVENTORY, seed=0)
        assert len(spec.tokens) == 6

    def test_query_none_is_one_token(self):
        spec = build_query("CHEMICAL", QueryStrategy("none"), INVENTORY, seed=0)
        assert len(spec.tokens) == 1

    def test_query_three_single_word_entities(self):
        # Template: 6 fixed words + "like" + 3 entities + 2 "or" + "?" = 12.
        # (Counted with the whitespace oracle on the published example string.)
        spec = build_query("CHEMICAL", QueryStrategy("sample", 3), INVENTORY, seed=0)
        assert all(" " not in e for e in spec.sampled_entities)
        assert len(spec.tokens) == 12

    def test_multiword_entities_raise_the_count(self):
        inv = {"DISEASE": ["breast cancer"]}
        spec = build_query("DISEASE", QueryStrategy("sample", 1), inv, seed=0)
        assert len(spec.tokens) == 9  # 8-token single-entity frame + 1 extra word


class TestStrategyParsing:
    def test_parse_names(self):
        assert QueryStrategy.parse("none") == QueryStrategy("none")
        assert QueryStrategy.parse("q0") == QueryStrategy("zero")
        assert QueryStrategy.parse("q3") == QueryStrategy("sample", 3)
        assert QueryStrategy.parse("q10") == QueryStrategy("sample", 10)

    def test_parse_rejects_garbage(self):
        for bad in ("q-1", "q", "three", "Q3"):
            with pytest.raises(QueryError):
                QueryStrategy.parse(bad)

    def test_name_round_trip(self):
        for name in ("none", "q0", "q3", "q5", "q10"):
            assert QueryStrategy.parse(name).name == name
