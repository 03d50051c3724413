"""Query construction for the reading-comprehension framing.

Five strategies: no query at all ("none"), a plain question, or a question
seeded with 3/5/10 known entity surfaces sampled from the corpus inventory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

# Question word for each entity-type family; anything unlisted falls back to
# the lowercased type name.
TYPE_WORDS = {
    "chemical": "chemical",
    "drug": "chemical",
    "chemical/drug": "chemical",
    "disease": "disease",
    "protein": "protein",
    "gene": "protein",
    "protein/gene": "protein",
}


class QueryError(ValueError):
    """Raised when a query cannot be built (e.g. empty inventory)."""


@dataclass(frozen=True)
class QueryStrategy:
    """kind is "none", "zero", or "sample"; k is the sample size for "sample"."""

    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "zero", "sample"):
            raise QueryError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "sample" and self.k < 1:
            raise QueryError("sample strategy requires k >= 1")

    @classmethod
    def parse(cls, name: str) -> "QueryStrategy":
        """Parse a CLI-style name: none, q0, q3, q5, q10 (any qK accepted)."""
        if name == "none":
            return cls("none")
        if name == "q0":
            return cls("zero")
        if name.startswith("q") and name[1:].isdigit() and int(name[1:]) > 0:
            return cls("sample", int(name[1:]))
        raise QueryError(f"unknown query strategy {name!r}")

    @property
    def name(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "zero":
            return "q0"
        return f"q{self.k}"


@dataclass(frozen=True)
class QuerySpec:
    """A rendered query for one entity type plus its sampling provenance."""

    entity_type: str
    strategy: QueryStrategy
    text: str
    tokens: tuple[str, ...]
    sampled_entities: tuple[str, ...]
    seed: int


def type_word(entity_type: str) -> str:
    return TYPE_WORDS.get(entity_type.lower(), entity_type.lower())


def render_query(entity_type: str, strategy: QueryStrategy, entities: Sequence[str] = ()) -> str:
    """Render the query text for the given strategy and (already chosen) entities."""
    if strategy.kind == "none":
        return "none"
    word = type_word(entity_type)
    if strategy.kind == "zero":
        return f"Can you detect {word} entities ?"
    if not entities:
        raise QueryError(f"sample strategy needs at least one entity for {entity_type!r}")
    listed = " or ".join(entities)
    return f"Can you detect {word} entities like {listed} ?"


def build_query(
    entity_type: str,
    strategy: QueryStrategy,
    inventory: Mapping[str, Sequence[str]],
    seed: int,
) -> QuerySpec:
    """Build the query for one entity type.

    For the sampling strategies, min(k, inventory size) distinct surfaces are
    drawn without replacement from the type's inventory, using a generator
    seeded by (seed, entity_type) so a run's queries are reproducible.
    """
    sampled: tuple[str, ...] = ()
    if strategy.kind == "sample":
        pool = list(inventory.get(entity_type, ()))
        if not pool:
            raise QueryError(f"no inventory entities for type {entity_type!r}")
        rng = random.Random(f"{seed}:{entity_type}")
        sampled = tuple(rng.sample(pool, min(strategy.k, len(pool))))
    text = render_query(entity_type, strategy, sampled)
    return QuerySpec(
        entity_type=entity_type,
        strategy=strategy,
        text=text,
        tokens=tuple(text.split()),
        sampled_entities=sampled,
        seed=seed,
    )

