"""NER as machine reading comprehension, at desk scale.

Pipeline: BIO corpora -> (context, query, answer) triples -> a small
trainable transformer with start/end span heads (or a BIO-softmax baseline)
-> nearest-match span decoding -> entity-level F1 with a multi-run t-test
protocol.
"""

from .corpus import BioLabel, EntitySpan, Sentence, bio_to_spans, parse_conll, repair_bio, spans_to_bio
from .query import QuerySpec, QueryStrategy, build_query, render_query
from .mrc_data import MrcExample, SeqConfig, Triple, Vocab, example_from_triple, triple_from_sentence
from .encoder import EncoderConfig
from .heads import LossReport, SpanHeadParams, SpanLogits, span_loss
from .decode import IndexSets, decode_example, extract_indexes, nearest_match
from .metrics import EvalReport, RunStats, SignificanceResult, aggregate, score, t_test
from .train import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "BioLabel", "EntitySpan", "Sentence", "bio_to_spans", "parse_conll", "repair_bio",
    "spans_to_bio", "QuerySpec", "QueryStrategy", "build_query", "render_query",
    "MrcExample", "SeqConfig", "Triple", "Vocab", "example_from_triple",
    "triple_from_sentence", "EncoderConfig", "LossReport", "SpanHeadParams", "SpanLogits",
    "span_loss", "IndexSets", "decode_example", "extract_indexes", "nearest_match",
    "EvalReport", "RunStats", "SignificanceResult", "aggregate", "score", "t_test",
    "TrainConfig", "train",
]
