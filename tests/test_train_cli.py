import argparse
import json
import math
import re
import shutil
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

from mrcner import model as model_mod
from mrcner.cli import CliError, build_parser, main, read_predictions
from mrcner.corpus import entity_inventory
from mrcner.encoder import EncoderConfig, EncoderError
from mrcner.heads import HeadError
from mrcner.model import ModelError
from mrcner.mrc_data import (
    MrcDataError,
    SeqConfig,
    Triple,
    example_from_triple,
    read_triples,
    triple_from_sentence,
    write_triples,
)
from mrcner.query import QueryStrategy, build_query
from mrcner.train import (
    TrainConfig,
    TrainingError,
    build_vocab_from_triples,
    evaluate_model,
    gold_span_index,
    train,
)
from helpers import MELOXICAM_CONLL, corpus_to_conll, make_separable_corpus


def synth_triples(n=12, mode="mrc", strategy="q3", seed=7):
    sentences = make_separable_corpus(n, seed=seed)
    if mode == "mrc":
        query = build_query("CHEMICAL", QueryStrategy.parse(strategy),
                            entity_inventory(sentences), seed=13)
        return [triple_from_sentence(s, query) for s in sentences]
    return [triple_from_sentence(s, None, entity_type="CHEMICAL") for s in sentences]


def quick_config(**overrides):
    base = dict(seq_len=64, epochs=2, batch_size=8, seed=13)
    base.update(overrides)
    return TrainConfig(**base)


def manifest_without_clock(manifest):
    data = asdict(manifest)
    data.pop("wall_clock_sec")
    return data


class TestTraining:
    def test_vocab_built_from_train_split_only(self):
        train_t = synth_triples(6, seed=1)
        vocab = build_vocab_from_triples(train_t, min_count=1)
        dev_only_word = "zzzunseen"
        assert vocab.encode(dev_only_word) == 1  # [UNK]
        assert vocab.encode(train_t[0].context[0]) >= 4

    def test_epochs_zero_keeps_initialization(self):
        triples = synth_triples(6)
        cfg = quick_config(epochs=0)
        mdl, manifest = train(cfg, triples, triples)
        fresh = model_mod.new_model(
            cfg.mode, cfg.head_variant, cfg.encoder_config(mdl.vocab.size),
            cfg.seq_config(), mdl.vocab, cfg.seed,
        )
        for (name, arr), (_, expected) in zip(
            mdl.params.items(), fresh.params.items()
        ):
            assert np.array_equal(arr, expected), name
        assert len(manifest.dev_f1_curve) == 1
        assert manifest.best_epoch == 0

    def test_same_seed_identical_manifests_modulo_wall_clock(self):
        triples = synth_triples(8)
        m1 = train(quick_config(), triples, triples)[1]
        m2 = train(quick_config(), triples, triples)[1]
        assert manifest_without_clock(m1) == manifest_without_clock(m2)

    def test_loss_curve_decreases_on_separable_data(self):
        triples = synth_triples(12)
        _, manifest = train(quick_config(epochs=6), triples, triples)
        assert manifest.loss_curve[-1] < manifest.loss_curve[0]

    def test_mode_mismatch_rejected(self):
        mrc = synth_triples(3, mode="mrc")
        bio = synth_triples(3, mode="bio-baseline")
        with pytest.raises(TrainingError, match="mode mismatch"):
            train(quick_config(mode="bio-baseline"), mrc, mrc)
        with pytest.raises(TrainingError, match="mode mismatch"):
            train(quick_config(mode="mrc"), bio, bio)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(TrainingError, match="unknown config"):
            TrainConfig.from_dict({"learning_rat": 0.1})

    @pytest.mark.parametrize("field, value, error", [
        ("seq_len", 3, MrcDataError), ("heads", 3, EncoderError), ("dropout", 1.0, EncoderError),
    ])
    def test_sequence_and_encoder_rules_apply_when_the_config_is_made(self, field, value, error):
        with pytest.raises(error, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, error, message", [
        ("mode", "bogus", TrainingError, "unknown mode 'bogus'"),
        ("mode", ["mrc"], TrainingError, "unknown mode"),
        ("head_variant", "bogus", HeadError, "unknown head variant 'bogus'"),
        ("head_variant", None, HeadError, "unknown head variant None"),
        ("early_stop_f1", "x", TrainingError, "early_stop_f1"),
        ("early_stop_f1", True, TrainingError, "early_stop_f1"),
    ])
    def test_mode_head_variant_and_stop_target_checked_when_the_config_is_made(
            self, field, value, error, message):
        with pytest.raises(error, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("learning_rate", math.nan, "finite and positive"),
        ("learning_rate", math.inf, "finite and positive"),
        ("learning_rate", 0.0, "finite and positive"),
        ("batch_size", 0, "finite and positive"),
        ("min_count", 0, "finite and positive"),
        ("adam_eps", -1.0, "finite and positive"),
        ("adam_eps", math.inf, "finite and positive"),
        ("epochs", -1, "non-negative"),
        ("warmup_steps", -1, "non-negative"),
        ("beta1", 1.0, r"in \[0, 1\)"),
        ("beta1", -0.1, r"in \[0, 1\)"),
        ("beta2", math.nan, r"in \[0, 1\)"),
        ("early_stop_f1", math.nan, r"in \[0, 1\] or null"),
        ("early_stop_f1", 1.5, r"in \[0, 1\] or null"),
        ("early_stop_f1", -math.inf, r"in \[0, 1\] or null"),
    ])
    def test_a_number_out_of_range_is_refused_naming_the_field(self, field, value, rule):
        with pytest.raises(TrainingError, match=f"config field {field} must be {rule}, got"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "beta1", "beta2", "adam_eps", "dropout",
                                       "early_stop_f1"])
    def test_an_integer_too_large_for_a_float_is_refused_naming_the_field(self, field):
        with pytest.raises(TrainingError, match=f"config field {field} is too large for a float"):
            TrainConfig(**{field: 10**400})

    @pytest.mark.parametrize("epochs, early_stop_f1", [(10, None), (10, 0.7), (0, None)],
                             ids=["best-before-last", "early-stop", "no-epochs"])
    def test_final_metrics_match_a_fresh_dev_evaluation(self, epochs, early_stop_f1):
        train_t, dev_t = synth_triples(20, seed=3), synth_triples(6, seed=8)
        cfg = quick_config(epochs=epochs, early_stop_f1=early_stop_f1, model_dim=16, heads=2,
                           ffn_dim=32, learning_rate=5e-3, batch_size=4)
        mdl, manifest = train(cfg, train_t, dev_t)
        dev = [example_from_triple(t, mdl.vocab, mdl.seq_cfg) for t in dev_t]
        fresh = evaluate_model(mdl, dev, gold_span_index(dev_t))
        assert manifest.final_metrics == asdict(fresh)
        # The run must restore an epoch other than the last one it trained.
        if epochs and early_stop_f1 is None:
            assert manifest.best_epoch < len(manifest.loss_curve) - 1
        if early_stop_f1 is not None:
            assert len(manifest.loss_curve) < epochs

    def test_manifest_records_dataset_hashes(self):
        triples = synth_triples(4)
        _, manifest = train(quick_config(epochs=1), triples, [], {"train": "abc123"})
        assert manifest.dataset_hashes == {"train": "abc123"}
        assert manifest.n_train == 4 and manifest.n_dev == 0


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        triples = synth_triples(6)
        mdl, _ = train(quick_config(epochs=1), triples, triples)
        path = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(mdl, path)
        loaded = model_mod.load_checkpoint(path)
        for (name, arr), (_, arr2) in zip(
            mdl.params.items(), loaded.params.items()
        ):
            assert np.array_equal(arr, arr2), name
        assert loaded.vocab.id_to_token == mdl.vocab.id_to_token
        assert loaded.head.mode == mdl.head.mode and loaded.head.variant == mdl.head.variant

    @staticmethod
    def tiny_model(mode="mrc", variant="conditioned"):
        vocab = build_vocab_from_triples(synth_triples(3), min_count=1)
        cfg = EncoderConfig(vocab_size=vocab.size, layers=1, model_dim=8, heads=2,
                            ffn_dim=16, max_positions=32)
        return model_mod.new_model(mode, variant, cfg, SeqConfig(32), vocab, seed=1)

    @classmethod
    def saved_tiny_model(cls, tmp_path, mode="mrc", variant="conditioned"):
        """The checkpoint's path, its parsed header line and its parameter blob."""
        path = tmp_path / "tiny.ckpt"
        model_mod.save_checkpoint(cls.tiny_model(mode, variant), path)
        header, _, blob = path.read_bytes().partition(b"\n")
        return path, json.loads(header), bytearray(blob)

    @pytest.mark.parametrize(("mode", "variant"), [("mrc", "conditioned"), ("bio-baseline", None)])
    def test_round_trip_keeps_head(self, tmp_path, mode, variant):
        path, _, _ = self.saved_tiny_model(tmp_path, mode, variant)
        loaded = model_mod.load_checkpoint(path)
        assert loaded.head.mode == mode
        assert loaded.head.variant == variant

    def corrupt_and_load(self, tmp_path, edit):
        """Save the tiny model, let `edit(header, blob)` change either part in
        place, write both back and load the result."""
        path, header, blob = self.saved_tiny_model(tmp_path)
        edit(header, blob)
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(blob))
        return model_mod.load_checkpoint(path)

    @staticmethod
    def tensor_bytes(header, name) -> tuple[int, slice]:
        """Index of tensor `name` in the header's list and its byte range in the blob."""
        offset = 0
        for index, (stored, shape) in enumerate(header["tensors"]):
            size = 8 * math.prod(shape)
            if stored == name:
                return index, slice(offset, offset + size)
            offset += size
        raise KeyError(name)

    @classmethod
    def resize(cls, header, blob, name, rows):
        """Give a 2-D tensor `rows` rows, dropping or zero-filling rows of the
        blob so that it stays consistent with the header."""
        index, span = cls.tensor_bytes(header, name)
        old_rows, width = header["tensors"][index][1]
        row_bytes = 8 * width
        header["tensors"][index][1] = [rows, width]
        kept = span.start + min(rows, old_rows) * row_bytes
        blob[kept : span.stop] = bytes(max(rows - old_rows, 0) * row_bytes)

    def test_tok_emb_smaller_than_vocab_rejected(self, tmp_path):
        def edit(header, blob):
            self.resize(header, blob, "tok_emb", header["tensors"][0][1][0] - 5)
        with pytest.raises(ModelError, match="tok_emb"):
            self.corrupt_and_load(tmp_path, edit)

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        def edit(header, blob):
            header["vocab"] = header["vocab"][:-1]
        with pytest.raises(ModelError, match="vocab_size"):
            self.corrupt_and_load(tmp_path, edit)

    def test_extra_tensor_rejected(self, tmp_path):
        def edit(header, blob):
            index, span = self.tensor_bytes(header, "layer0.wq")
            header["tensors"].append(["layer9.wq", header["tensors"][index][1]])
            blob += blob[span]
        with pytest.raises(ModelError, match="layer9.wq"):
            self.corrupt_and_load(tmp_path, edit)

    def test_missing_head_tensor_rejected(self, tmp_path):
        def edit(header, blob):
            index, span = self.tensor_bytes(header, "head.b_end")
            del header["tensors"][index]
            del blob[span]
        with pytest.raises(ModelError, match="head.b_end"):
            self.corrupt_and_load(tmp_path, edit)

    def test_pos_emb_rows_must_match_max_positions(self, tmp_path):
        with pytest.raises(ModelError, match="pos_emb"):
            self.corrupt_and_load(tmp_path, lambda h, b: self.resize(h, b, "pos_emb", 31))

    def test_head_width_must_match_model_dim(self, tmp_path):
        with pytest.raises(ModelError, match="head.w_start"):
            self.corrupt_and_load(tmp_path, lambda h, b: self.resize(h, b, "head.w_start", 9))

    def test_data_length_must_match_stored_shape(self, tmp_path):
        n_bytes = 8 * self.tiny_model().flat.size
        def edit(header, blob):
            del blob[-8:]
        with pytest.raises(ModelError, match=f"holds {n_bytes - 8} parameter bytes.* need {n_bytes}"):
            self.corrupt_and_load(tmp_path, edit)

    def test_one_trailing_byte_rejected(self, tmp_path):
        n_bytes = 8 * self.tiny_model().flat.size
        def edit(header, blob):
            blob.append(0)
        with pytest.raises(ModelError, match=f"holds {n_bytes + 1} parameter bytes.* need {n_bytes}"):
            self.corrupt_and_load(tmp_path, edit)

    def test_seq_len_beyond_max_positions_rejected(self, tmp_path):
        def edit(header, blob):
            header["seq_config"]["seq_len"] = 64
        with pytest.raises(ModelError, match="max_positions"):
            self.corrupt_and_load(tmp_path, edit)

    def test_version_1_document_rejected(self, tmp_path):
        """A v1 checkpoint was one JSON document with every tensor as a float list."""
        mdl = self.tiny_model()
        _, header, _ = self.saved_tiny_model(tmp_path)
        del header["tensors"]
        header["format_version"] = 1
        header["params"] = {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                            for name, arr in mdl.params.items()}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(header, separators=(",", ":")) + "\n")
        with pytest.raises(ModelError, match="unsupported checkpoint version 1"):
            model_mod.load_checkpoint(path)

    @pytest.mark.parametrize("content", [
        pytest.param(lambda header, blob: header, id="no-newline"),
        pytest.param(lambda header, blob: b"tiny model\n" + blob, id="text-first-line"),
        pytest.param(lambda header, blob: header[:-1] + b"\n" + blob, id="cut-header"),
        pytest.param(lambda header, blob: b"\xff" + header + b"\n" + blob, id="not-utf8"),
        pytest.param(lambda header, blob: b"[2]\n" + blob, id="not-an-object"),
    ])
    def test_unreadable_header_line_rejected(self, tmp_path, content):
        path = tmp_path / "tiny.ckpt"
        model_mod.save_checkpoint(self.tiny_model(), path)
        header, _, blob = path.read_bytes().partition(b"\n")
        path.write_bytes(content(header, blob))
        with pytest.raises(ModelError, match="header line"):
            model_mod.load_checkpoint(path)

    def test_predict_refuses_a_truncated_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "tiny.ckpt"
        model_mod.save_checkpoint(self.tiny_model(), path)
        path.write_bytes(path.read_bytes()[:-100])
        triples_path = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples_path)
        assert run_cli("predict", "--checkpoint", path, "--triples", triples_path,
                       "--out", tmp_path / "p.jsonl") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "ModelError"
        assert "parameter bytes" in diagnostic["message"]
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("name, value", [
        ("head.w_start", math.nan), ("head.b_end", -math.inf), ("tok_emb", math.inf),
        ("layer0.ffn_w2", math.nan)])
    def test_predict_refuses_a_checkpoint_with_a_non_finite_parameter(self, tmp_path, capsys,
                                                                     name, value):
        path, header, blob = self.saved_tiny_model(tmp_path)
        _, span = self.tensor_bytes(header, name)
        blob[span.stop - 8 : span.stop] = struct.pack("<d", value)
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(blob))
        triples_path = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples_path)
        assert run_cli("predict", "--checkpoint", path, "--triples", triples_path,
                       "--out", tmp_path / "p.jsonl") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ModelError", "message": f"{path} holds a parameter that is NaN or infinite"}
        assert not (tmp_path / "p.jsonl").exists()

    def test_a_checkpoint_of_huge_finite_parameters_loads(self, tmp_path):
        # Their squares overflow the fast check; each one is finite.
        path, header, blob = self.saved_tiny_model(tmp_path)
        _, span = self.tensor_bytes(header, "head.w_start")
        blob[span] = struct.pack("<d", 1e300) * ((span.stop - span.start) // 8)
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(blob))
        assert model_mod.load_checkpoint(path).params["head.w_start"].max() == 1e300

    @pytest.mark.parametrize("edit, named, saved", [
        pytest.param(lambda h: h.pop("mode"), "lacks 'mode'", ("mrc", "conditioned"),
                     id="no-mode"),
        pytest.param(lambda h: h.pop("vocab"), "lacks 'vocab'", ("mrc", "conditioned"),
                     id="no-vocab"),
        pytest.param(lambda h: h["encoder_config"].update(bogus=1), "encoder_config: .*'bogus'",
                     ("mrc", "conditioned"), id="unknown-encoder-field"),
        pytest.param(lambda h: h.update(seq_config=[1]), "seq_config: .*must be a mapping",
                     ("mrc", "conditioned"), id="seq-config-not-an-object"),
        pytest.param(lambda h: h.update(mode=["mrc"]), "checkpoint mode: .*unhashable",
                     ("mrc", "conditioned"), id="mode-not-a-string"),
        pytest.param(lambda h: h.update(vocab=5), "checkpoint vocab: ",
                     ("mrc", "conditioned"), id="vocab-not-a-list"),
        pytest.param(lambda h: h.update(vocab=h["vocab"][:-1] + [7]),
                     "checkpoint vocab: .*must be strings", ("mrc", "conditioned"),
                     id="vocab-token-not-a-string"),
        pytest.param(lambda h: h["encoder_config"].update(heads=0),
                     "encoder_config: heads must be at least 1", ("mrc", "conditioned"),
                     id="zero-heads"),
        pytest.param(lambda h: h.update(head_variant="bogus"),
                     "head_variant: unknown head variant 'bogus'", ("mrc", "ablation"),
                     id="unknown-span-variant"),
        pytest.param(lambda h: h.update(head_variant="conditioned"),
                     "head_variant: the BIO head has no variant", ("bio-baseline", None),
                     id="variant-on-a-bio-head"),
    ])
    def test_predict_refuses_a_header_key_or_config_field_by_name(self, tmp_path, capsys,
                                                                  edit, named, saved):
        path, header, blob = self.saved_tiny_model(tmp_path, *saved)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(blob))
        triples_path = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples_path)
        assert run_cli("predict", "--checkpoint", path, "--triples", triples_path,
                       "--out", tmp_path / "p.jsonl") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "ModelError"
        assert re.search(named, diagnostic["message"]), diagnostic

    def test_checkpoint_bytes_stable(self, tmp_path):
        triples = synth_triples(5)
        mdl, _ = train(quick_config(epochs=1), triples, triples)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model_mod.save_checkpoint(mdl, p1)
        model_mod.save_checkpoint(model_mod.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCli:
    def test_convert_meloxicam(self, tmp_path, capsys):
        corpus = tmp_path / "mini.conll"
        corpus.write_text(MELOXICAM_CONLL)
        out = tmp_path / "triples.jsonl"
        sentences_out = tmp_path / "sentences.jsonl"
        rc = run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                     "--query-strategy", "q0", "--out", out,
                     "--sentences-out", sentences_out)
        assert rc == 0
        triples = read_triples(out)
        assert len(triples) == 1
        assert triples[0].answers == [(0, 0)]
        assert triples[0].query == "Can you detect chemical entities ?"
        summary = json.loads(capsys.readouterr().out)
        assert summary["sentences"] == 1 and summary["repaired_labels"] == 0
        sentence = json.loads(sentences_out.read_text())
        assert sentence["spans"][0]["surface"] == "Meloxicam"

    @pytest.mark.parametrize("args", [("--query-strategy", "q0"), ("--query-strategy", "none"),
                                      ("--mode", "bio-baseline")])
    def test_convert_entity_type_mismatch_fails(self, tmp_path, capsys, args):
        corpus = tmp_path / "c.conll"
        corpus.write_text("Meloxicam\tB-Chemical\nliver\tB-Disease\ntoxicity\tI-Disease\n")
        out = tmp_path / "t.jsonl"
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       *args, "--out", out) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["found_entity_types"] == ["Chemical", "Disease"]
        assert "'CHEMICAL'" in diagnostic["message"]
        assert not out.exists()

    def test_convert_summary_counts_answers_and_filtered_spans(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("a\tB-CHEMICAL\nb\tB-Disease\nc\tB-CHEMICAL\n\nd\tB-Disease\n")
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--query-strategy", "q0", "--out", tmp_path / "t.jsonl") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["answers"] == 2 and summary["filtered_spans"] == 2

    def test_duplicate_gold_keys_rejected(self, tmp_path, capsys):
        triples = synth_triples(2)
        with pytest.raises(TrainingError, match=r"\('synth', 0, 'CHEMICAL'\)"):
            gold_span_index(triples + triples)
        gold = tmp_path / "gold.jsonl"
        write_triples(triples + triples, gold)
        preds = tmp_path / "empty.jsonl"
        preds.write_text("")
        assert run_cli("evaluate", "--gold", gold, "--predictions", preds,
                       "--out", tmp_path / "m.json") == 1
        assert "duplicate" in json.loads(capsys.readouterr().err)["message"]

    def test_triples_outside_their_context_rejected(self, tmp_path, capsys):
        answers = [{"start": s, "end": e} for s, e in [(1, 2), (2, 3), (7, 9)]]
        bad = {"context": [f"t{i}" for i in range(5)], "query": "q", "answers": answers,
               "entity_type": "C", "origin": {"doc_id": "d", "sent_id": 0}}
        triples = tmp_path / "bad.jsonl"
        triples.write_text(json.dumps(bad) + "\n")
        assert run_cli("train", "--train", triples, "--out", tmp_path / "m.ckpt") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "MrcDataError"
        assert "d/0: answer (2, 3)" in diagnostic["message"]
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_refuses_a_short_seq_len_before_writing(self, tmp_path, capsys):
        triples = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples)
        assert run_cli("train", "--train", triples, "--out", tmp_path / "m.ckpt",
                       "--seq-len", "3") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "MrcDataError" and "seq_len" in diagnostic["message"]
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.manifest.json").exists()

    def test_train_refuses_a_bad_head_variant_before_reading_triples(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"head_variant": "bogus"}))
        # The triples file does not exist: reading it would fail differently.
        assert run_cli("train", "--train", tmp_path / "missing.jsonl", "--out",
                       tmp_path / "m.ckpt", "--config", config) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic == {"error": "HeadError", "message": "unknown head variant 'bogus'"}
        assert not (tmp_path / "m.ckpt").exists()

    def test_duplicate_prediction_keys_rejected(self, tmp_path):
        record = json.dumps({"origin": {"doc_id": "d", "sent_id": 3}, "entity_type": "C",
                             "spans": []})
        preds = tmp_path / "p.jsonl"
        preds.write_text(record + "\n" + record + "\n")
        with pytest.raises(CliError, match=r"line 2: duplicate .* \('d', 3, 'C'\)"):
            read_predictions(preds, {("d", 3, "C"): 4})

    @pytest.mark.parametrize("span", [{"start": "3", "end": 5}, {"start": -1, "end": 2},
                                      {"start": 4, "end": 3}, {"start": 1.0, "end": 2},
                                      {"start": True, "end": 2}])
    def test_bad_prediction_spans_rejected(self, tmp_path, capsys, span):
        gold = tmp_path / "gold.jsonl"
        write_triples(synth_triples(2), gold)
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"origin": {"doc_id": "synth", "sent_id": 1},
                                     "entity_type": "CHEMICAL", "spans": [span]}) + "\n")
        assert run_cli("evaluate", "--gold", gold, "--predictions", preds,
                       "--out", tmp_path / "m.json") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "CliError"
        assert str(preds) in diagnostic["message"]
        assert "('synth', 1, 'CHEMICAL')" in diagnostic["message"]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("line, message", [
        ("{not json", "line 2 is not JSON"),
        ('{"origin": {"doc_id": "", "sent_id": 7}, "entity_type": "C", "spans": []}',
         "line 2: prediction references unknown sentence ('', 7, 'C')"),
        ('[{"spans": []}]', "line 2 is not a JSON object"),
        ('{"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C"}',
         "line 2: the record has no 'spans' key"),
        ('{"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C", "spans": {"a": 1}}',
         "line 2: spans must be list, got {'a': 1}"),
        ('{"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C", "spans": [[0, 1]]}',
         "line 2: span must be dict, got [0, 1]"),
        ('{"origin": ["d", 0], "entity_type": "C", "spans": []}',
         "line 2: prediction origin must be dict"),
        ('{"origin": {"doc_id": "d", "sent_id": "0"}, "entity_type": "C", "spans": []}',
         "line 2: sent_id must be int, got '0'"),
        ('{"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C",'
         ' "spans": [{"start": 5, "end": 9}]}',
         "line 2: sentence ('d', 0, 'C') has span (5, 9), past the end of its 2-token context"),
        ('{"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C",'
         ' "spans": [{"start": 1, "end": 2}]}',
         "line 2: sentence ('d', 0, 'C') has span (1, 2), past the end of its 2-token context"),
    ])
    def test_evaluate_refuses_a_bad_prediction_line_naming_file_and_line(
            self, tmp_path, capsys, line, message):
        gold = tmp_path / "gold.jsonl"
        write_triples([Triple(["a", "b"], "q", [(0, 0)], "C", "d", 0),
                       Triple(["c"], "q", [], "C", "d", 1)], gold)
        preds = tmp_path / "p.jsonl"
        valid = json.dumps({"origin": {"doc_id": "d", "sent_id": 1}, "entity_type": "C",
                            "spans": [{"start": 0, "end": 0}]})
        preds.write_text(valid + "\n" + line + "\n")
        assert run_cli("evaluate", "--gold", gold, "--predictions", preds,
                       "--out", tmp_path / "m.json") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "CliError"
        assert diagnostic["message"].startswith(f"{preds}, {message}")
        assert not (tmp_path / "m.json").exists()

    def test_evaluate_scores_spans_that_end_at_the_last_token(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        write_triples([Triple(["a", "b"], "q", [(0, 1)], "C", "d", 0)], gold)
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"origin": {"doc_id": "d", "sent_id": 0}, "entity_type": "C",
                                     "spans": [{"start": 0, "end": 1}, {"start": 1, "end": 1}]}))
        assert run_cli("evaluate", "--gold", gold, "--predictions", preds,
                       "--out", tmp_path / "m.json") == 0
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert (metrics["tp"], metrics["fp"], metrics["fn"]) == (1, 1, 0)

    def test_predict_refuses_a_string_context_naming_file_and_line(self, tmp_path, capsys):
        triples = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples)
        assert run_cli("train", "--train", triples, "--out", tmp_path / "m.ckpt", "--epochs", "1",
                       "--model-dim", "8", "--heads", "2", "--ffn-dim", "8", "--layers", "1",
                       "--seq-len", "32") == 0
        record = json.loads(triples.read_text().splitlines()[0])
        record["context"] = " ".join(record["context"])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(triples.read_text() + json.dumps(record) + "\n")
        assert run_cli("predict", "--checkpoint", tmp_path / "m.ckpt", "--triples", bad,
                       "--out", tmp_path / "p.jsonl") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "MrcDataError"
        assert diagnostic["message"].startswith(f"{bad}, line 4: triple synth/0: context must be list")
        assert not (tmp_path / "p.jsonl").exists()

    def test_convert_empty_file(self, tmp_path):
        corpus = tmp_path / "empty.conll"
        corpus.write_text("")
        out = tmp_path / "triples.jsonl"
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--query-strategy", "none", "--out", out) == 0
        assert read_triples(out) == []

    def test_convert_reports_repairs(self, tmp_path, capsys):
        corpus = tmp_path / "bad.conll"
        corpus.write_text("liver\tO\ndamage\tI-DISEASE\n")
        out = tmp_path / "t.jsonl"
        assert run_cli("convert", "--input", corpus, "--entity-type", "DISEASE",
                       "--query-strategy", "q0", "--out", out) == 0
        assert json.loads(capsys.readouterr().out)["repaired_labels"] == 1
        assert read_triples(out)[0].answers == [(1, 1)]

    def test_convert_q3_samples_from_inventory_files(self, tmp_path):
        sentences = make_separable_corpus(10, seed=3)
        corpus = tmp_path / "c.conll"
        corpus.write_text(corpus_to_conll(sentences))
        out = tmp_path / "t.jsonl"
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--query-strategy", "q3", "--query-seed", 5, "--out", out) == 0
        triples = read_triples(out)
        inventory = entity_inventory(sentences)["CHEMICAL"]
        query = triples[0].query
        assert query.startswith("Can you detect chemical entities like ")
        assert all(t.query == query for t in triples)  # one query per run
        mentioned = query[len("Can you detect chemical entities like "):-2]
        for ent in mentioned.split(" or "):
            assert ent in inventory

    def test_inventory_from_the_input_itself_matches_a_copy(self, tmp_path):
        corpus = tmp_path / "c.conll"
        corpus.write_text(corpus_to_conll(make_separable_corpus(10, seed=3)))
        other = tmp_path / "other.conll"
        other.write_text(corpus_to_conll(make_separable_corpus(10, seed=4)))
        copy = tmp_path / "copy.conll"
        shutil.copyfile(corpus, copy)
        outputs = []
        for pool in ([corpus, other], [copy, other], [copy]):
            out = tmp_path / f"t{len(outputs)}.jsonl"
            assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                           "--doc-id", "d7", "--query-strategy", "q3",
                           "--inventory-from", *pool, "--out", out) == 0
            outputs.append(out.read_bytes())
        default = tmp_path / "default.jsonl"
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--doc-id", "d7", "--query-strategy", "q3", "--out", default) == 0
        assert outputs[0] == outputs[1]
        assert outputs[2] == default.read_bytes()

    def test_bio_convert_reports_no_strategy(self, tmp_path, capsys):
        corpus = tmp_path / "mini.conll"
        corpus.write_text(MELOXICAM_CONLL)
        out = tmp_path / "t.jsonl"
        # The query strategy belongs to the MRC mode; a BIO run neither
        # parses it nor reports one.
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--mode", "bio-baseline", "--query-strategy", "q7x", "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["strategy"] is None
        assert read_triples(out)[0].query is None

    def test_pipeline_and_mode_mismatch(self, tmp_path, capsys):
        triples_path = tmp_path / "train.jsonl"
        write_triples(synth_triples(8), triples_path)
        ckpt = tmp_path / "model.ckpt"
        rc = run_cli("train", "--train", triples_path, "--dev", triples_path,
                     "--out", ckpt, "--epochs", 2, "--seq-len", 64)
        assert rc == 0
        assert json.loads((tmp_path / "model.ckpt.manifest.json").read_text())["n_train"] == 8

        preds = tmp_path / "preds.jsonl"
        assert run_cli("predict", "--checkpoint", ckpt, "--triples", triples_path,
                       "--out", preds) == 0
        metrics = tmp_path / "metrics.json"
        assert run_cli("evaluate", "--gold", triples_path, "--predictions", preds,
                       "--out", metrics) == 0
        payload = json.loads(metrics.read_text())
        assert set(payload) == {"precision", "recall", "f1", "tp", "fp", "fn"}

        # a baseline-mode checkpoint must refuse MRC triples
        bio_path = tmp_path / "bio.jsonl"
        write_triples(synth_triples(8, mode="bio-baseline"), bio_path)
        bio_ckpt = tmp_path / "bio.ckpt"
        assert run_cli("train", "--train", bio_path, "--out", bio_ckpt,
                       "--mode", "bio-baseline", "--epochs", 1, "--seq-len", 64) == 0
        capsys.readouterr()
        rc = run_cli("predict", "--checkpoint", bio_ckpt, "--triples", triples_path,
                     "--out", tmp_path / "nope.jsonl")
        assert rc == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert "mode mismatch" in diagnostic["message"]

    def test_every_train_flag_is_a_config_field_or_a_path(self):
        """cmd_train copies only TrainConfig fields from the parsed flags, so any
        other flag would be dropped without a word."""
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in subparsers.choices["train"]._actions} - {"help"}
        paths = {"train", "dev", "out", "manifest", "config"}
        assert dests - paths <= {f.name for f in fields(TrainConfig)}
        assert paths <= dests

    def test_train_config_file_with_flag_override(self, tmp_path):
        triples_path = tmp_path / "train.jsonl"
        write_triples(synth_triples(5), triples_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "seq_len": 64, "model_dim": 16,
                                      "heads": 2, "ffn_dim": 32, "dropout": 0}))
        ckpt = tmp_path / "m.ckpt"
        assert run_cli("train", "--train", triples_path, "--out", ckpt,
                       "--config", config, "--epochs", 2) == 0
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag wins
        assert manifest["config"]["model_dim"] == 16
        assert manifest["config"]["dropout"] == 0  # an int is a float field's value

    @pytest.mark.parametrize("config, error, message", [
        ({"epochs": True}, "TrainingError", "config field epochs must be int, got True"),
        ({"min_count": True}, "TrainingError", "config field min_count must be int, got True"),
        ({"seq_len": 32.5}, "TrainingError", "config field seq_len must be int, got 32.5"),
        ({"batch_size": 2.5}, "TrainingError", "config field batch_size must be int, got 2.5"),
        ({"learning_rate": "x"}, "TrainingError",
         "config field learning_rate must be float or int, got 'x'"),
        ({"early_stop_f1": False}, "TrainingError",
         "config field early_stop_f1 must be float or int or null, got False"),
        (["epochs", 1], "CliError", "config.json is not a JSON object"),
        ({"adam_eps": -1.0}, "TrainingError",
         "config field adam_eps must be finite and positive, got -1.0"),
        ({"beta2": 1}, "TrainingError", "config field beta2 must be in [0, 1), got 1"),
        ({"early_stop_f1": 2}, "TrainingError",
         "config field early_stop_f1 must be in [0, 1] or null, got 2"),
        ({"learning_rate": 10**400}, "TrainingError",
         "config field learning_rate is too large for a float"),
    ])
    def test_train_refuses_a_config_value_of_another_type_naming_the_field(
            self, tmp_path, capsys, config, error, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # The triples file does not exist: reading it would fail differently.
        assert run_cli("train", "--train", tmp_path / "missing.jsonl", "--out",
                       tmp_path / "m.ckpt", "--config", path) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == error
        assert message in diagnostic["message"]
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag, value, error, message", [
        ("--early-stop-f1", "nan", "TrainingError",
         "config field early_stop_f1 must be in [0, 1] or null, got nan"),
        ("--learning-rate", "inf", "TrainingError",
         "config field learning_rate must be finite and positive, got inf"),
        ("--dropout", "nan", "EncoderError", "dropout must be in [0, 1), got nan"),
    ])
    def test_train_refuses_a_flag_out_of_range_before_reading_a_file(
            self, tmp_path, capsys, flag, value, error, message):
        # The triples file does not exist: reading it would fail differently.
        assert run_cli("train", "--train", tmp_path / "missing.jsonl", "--out",
                       tmp_path / "m.ckpt", flag, value) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("reader", ["corpus", "inventory"])
    def test_a_line_with_the_wrong_column_count_names_its_file(self, tmp_path, capsys, reader):
        corpus, pool, out = tmp_path / "corpus.conll", tmp_path / "pool.conll", tmp_path / "out"
        text = corpus_to_conll(make_separable_corpus(3))
        corpus.write_text(text)
        lines = text.split("\n")
        lines[4] = "a b c"
        bad = corpus if reader == "corpus" else pool
        bad.write_text("\n".join(lines))
        assert run_cli("convert", "--input", corpus, "--entity-type", "CHEMICAL",
                       "--inventory-from", pool, "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorpusError",
            "message": f"{bad}: line 5: expected two columns (token, label), got 'a b c'"}
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["corpus", "inventory", "triples", "predictions"])
    def test_a_byte_that_is_not_utf8_names_its_file_and_line(self, tmp_path, capsys, reader):
        corpus = tmp_path / "corpus.conll"
        corpus.write_text(corpus_to_conll(make_separable_corpus(3)))
        triples = tmp_path / "t.jsonl"
        write_triples(synth_triples(3), triples)
        preds = tmp_path / "p.jsonl"
        preds.write_text("".join(
            json.dumps({"origin": {"doc_id": t.doc_id, "sent_id": t.sent_id},
                        "entity_type": t.entity_type, "spans": []}) + "\n"
            for t in read_triples(triples)))
        out = tmp_path / "out"
        bad, error, argv = {
            "corpus": (corpus, "CorpusError",
                       ["convert", "--input", corpus, "--entity-type", "CHEMICAL", "--out", out]),
            "inventory": (tmp_path / "pool.conll", "CorpusError",
                          ["convert", "--input", corpus, "--entity-type", "CHEMICAL",
                           "--inventory-from", tmp_path / "pool.conll", "--out", out]),
            "triples": (triples, "MrcDataError", ["train", "--train", triples, "--out", out]),
            "predictions": (preds, "CliError", ["evaluate", "--gold", triples,
                                                "--predictions", preds, "--out", out]),
        }[reader]
        lines = (corpus if reader == "inventory" else bad).read_bytes().split(b"\n")
        lines[2] = lines[2][:2] + b"\xff" + lines[2][2:]
        bad.write_bytes(b"\n".join(lines))
        assert run_cli(*argv) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic == {"error": error, "message": f"{bad}, line 3: byte 0xff is not "
                                                         "UTF-8 (invalid start byte)"}
        assert not out.exists()

    def test_significance_command(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"runs": [88.2, 88.4, 88.3, 88.5, 88.4]}))
        b.write_text(json.dumps({"runs": [89.3, 89.5, 89.2, 89.6, 89.4]}))
        out = tmp_path / "sig.json"
        stats_a = tmp_path / "stats_a.json"
        assert run_cli("significance", "--a", a, "--b", b, "--out", out,
                       "--a-stats-out", stats_a) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"t", "p", "stars"}
        assert payload["stars"] == "p<0.01"
        stats = json.loads(stats_a.read_text())
        assert set(stats) == {"runs", "mean", "std", "max"}

    def test_significance_from_metrics_files(self, tmp_path):
        paths_a, paths_b = [], []
        for i, f1 in enumerate([0.91, 0.92, 0.915]):
            p = tmp_path / f"a{i}.json"
            p.write_text(json.dumps({"f1": f1, "precision": f1, "recall": f1,
                                     "tp": 1, "fp": 0, "fn": 0}))
            paths_a.append(p)
        for i, f1 in enumerate([0.93, 0.94, 0.935]):
            p = tmp_path / f"b{i}.json"
            p.write_text(json.dumps({"f1": f1, "precision": f1, "recall": f1,
                                     "tp": 1, "fp": 0, "fn": 0}))
            paths_b.append(p)
        out = tmp_path / "sig.json"
        assert run_cli("significance", "--a", *paths_a, "--b", *paths_b, "--out", out) == 0
        assert json.loads(out.read_text())["p"] < 0.05

    def test_significance_refuses_a_bare_list_of_runs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([88.2, 88.4, 88.3]))
        b.write_text(json.dumps({"runs": [89.3, 89.5, 89.2]}))
        out = tmp_path / "sig.json"
        assert run_cli("significance", "--a", a, "--b", b, "--out", out) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "EvalError"
        assert str(a) in diagnostic["message"]
        assert not out.exists()

    def test_significance_refuses_runs_that_are_not_a_list(self, tmp_path, capsys):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sig.json"
        a.write_text(json.dumps({"runs": [0.5, 0.6, 0.7]}))
        b.write_text(json.dumps({"runs": 5}))
        assert run_cli("significance", "--a", a, "--b", b, "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "EvalError", "message": f"{b}: runs must be list, got 5"}
        assert not out.exists()

    @pytest.mark.parametrize("runs", [[True, False, True], [0.5, 0.6, "0.7"], [0.5, None, 0.7]])
    def test_significance_refuses_runs_that_are_not_numbers(self, tmp_path, capsys, runs):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"runs": [0.5, 0.6, 0.7]}))
        b.write_text(json.dumps({"runs": runs}))
        out = tmp_path / "sig.json"
        assert run_cli("significance", "--a", a, "--b", b, "--out", out) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "EvalError"
        assert str(b) in diagnostic["message"] and "F1 score must be int or float" in diagnostic["message"]
        assert not out.exists()

    @pytest.mark.parametrize("runs, bad", [([1e300, -1e300, 1e300], 1e300),
                                           ([0.5, 100.5, 0.7], 100.5), ([0.5, 0.6, -0.1], -0.1)])
    def test_significance_refuses_an_f1_outside_0_to_100(self, tmp_path, capsys, runs, bad):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sig.json"
        a.write_text(json.dumps({"runs": runs}))
        b.write_text(json.dumps({"runs": [0.5, 0.6, 0.7]}))
        assert run_cli("significance", "--a", a, "--b", b, "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "EvalError", "message": f"{a}: F1 score {bad!r} is outside [0, 100]"}
        assert not out.exists()

    def test_significance_takes_f1_on_either_scale(self, tmp_path):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sig.json"
        a.write_text(json.dumps({"runs": [0, 0.5, 1]}))
        b.write_text(json.dumps({"runs": [99.5, 100, 100]}))
        assert run_cli("significance", "--a", a, "--b", b, "--out", out) == 0
        assert json.loads(out.read_text())["p"] < 0.05

    @pytest.mark.parametrize("f1", [True, "0.93", [0.93]])
    def test_significance_refuses_a_metrics_f1_that_is_not_a_number(self, tmp_path, capsys, f1):
        paths = []
        for name, value in (("a0", 0.91), ("a1", 0.92), ("b0", 0.94), ("b1", f1)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"f1": value, "tp": 1, "fp": 0, "fn": 0}))
        out = tmp_path / "sig.json"
        assert run_cli("significance", "--a", *paths[:2], "--b", *paths[2:], "--out", out) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "EvalError"
        assert (str(paths[-1]) in diagnostic["message"]
                and "F1 score must be int or float" in diagnostic["message"])
        assert not out.exists()

    def test_errors_exit_nonzero_with_json_diagnostics(self, tmp_path, capsys):
        rc = run_cli("convert", "--input", tmp_path / "missing.conll",
                     "--entity-type", "C", "--out", tmp_path / "x.jsonl")
        assert rc == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "FileNotFoundError"
