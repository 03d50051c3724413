"""Every JSON file mrcner reads or writes goes through one decoder, one
encoder and one reader in `mrcner.corpus`.

So every JSON input fails the same way: a file that is not JSON, that holds
a number JSON has no finite value for (NaN, Infinity, 1e999) or that holds a
byte that is not UTF-8 makes its command exit 1 with the package's own
error class and a message that names the file, and the line of a JSON-lines
file, and the command writes nothing.
"""

import ast
import json
import re
import shutil
from pathlib import Path

import pytest

from mrcner.cli import main
from helpers import corpus_to_conll, make_separable_corpus

SRC = Path(__file__).resolve().parent.parent / "src" / "mrcner"


def run(capsys, *argv):
    """The exit code and the stderr diagnostic (None on success) of one command."""
    capsys.readouterr()
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    return rc, json.loads(err) if rc else None


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of valid inputs, made by the CLI: triples, a checkpoint,
    predictions, a metrics file, a runs file and a train config."""
    d = tmp_path_factory.mktemp("valid")
    (d / "corpus.conll").write_text(corpus_to_conll(make_separable_corpus(4, seed=2)))
    (d / "config.json").write_text(json.dumps({"epochs": 1, "seq_len": 32, "layers": 1,
                                               "model_dim": 8, "heads": 2, "ffn_dim": 16}))
    (d / "runs.json").write_text(json.dumps({"runs": [0.5, 0.6, 0.7]}))
    for argv in (
        ["convert", "--input", d / "corpus.conll", "--entity-type", "CHEMICAL",
         "--query-strategy", "q0", "--out", d / "t.jsonl"],
        ["train", "--train", d / "t.jsonl", "--out", d / "m.ckpt", "--config", d / "config.json"],
        ["predict", "--checkpoint", d / "m.ckpt", "--triples", d / "t.jsonl",
         "--out", d / "p.jsonl"],
        ["evaluate", "--gold", d / "t.jsonl", "--predictions", d / "p.jsonl",
         "--out", d / "metrics.json"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    return d


# input: (the file to spoil, its line to spoil, whether the message names that
# line, the error class, the command with "BAD" for the spoiled file's path)
INPUTS = {
    "triples": ("t.jsonl", 2, True, "MrcDataError",
                ["predict", "--checkpoint", "m.ckpt", "--triples", "BAD"]),
    "predictions": ("p.jsonl", 2, True, "CliError",
                    ["evaluate", "--gold", "t.jsonl", "--predictions", "BAD"]),
    "config": ("config.json", 1, False, "CliError",
               ["train", "--train", "t.jsonl", "--config", "BAD"]),
    "runs": ("runs.json", 1, False, "EvalError",
             ["significance", "--a", "BAD", "--b", "runs.json"]),
    "metrics": ("metrics.json", 1, False, "EvalError",
                ["significance", "--a", "metrics.json", "BAD", "--b", "metrics.json",
                 "metrics.json"]),
    "checkpoint": ("m.ckpt", 1, False, "ModelError",
                   ["predict", "--checkpoint", "BAD", "--triples", "t.jsonl"]),
}

FIRST_NUMBER = re.compile(rb"([:\[] ?)-?\d[\d.eE+-]*")  # after a ':' or a '['


def first_number_to(literal: bytes):
    """A spoil that puts `literal` in place of a line's first number."""
    return lambda line: FIRST_NUMBER.sub(rb"\g<1>" + literal, line, count=1)


# Each spoils one line: the first ':' doubled, the first number replaced by a
# literal that has no finite value, or a 0xff byte put after the first '"'.
SPOILS = {
    "not-json": lambda line: line.replace(b":", b"::", 1),
    "nan": first_number_to(b"NaN"),
    "infinity": first_number_to(b"Infinity"),
    "-infinity": first_number_to(b"-Infinity"),
    "1e999": first_number_to(b"1e999"),
    "0xff-byte": lambda line: line.replace(b'"', b'"\xff', 1),
}


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("name", INPUTS)
def test_a_bad_json_input_names_its_file_and_writes_nothing(valid, tmp_path, capsys, name,
                                                            spoil):
    file, line_number, names_line, error, argv = INPUTS[name]
    for path in valid.iterdir():
        shutil.copy(path, tmp_path)
    bad = tmp_path / f"bad-{file}"
    lines = (tmp_path / file).read_bytes().split(b"\n")
    spoiled = SPOILS[spoil](lines[line_number - 1])
    assert spoiled != lines[line_number - 1]
    lines[line_number - 1] = spoiled
    bad.write_bytes(b"\n".join(lines))
    before = set(tmp_path.iterdir())
    out = tmp_path / "out"
    argv = [bad if a == "BAD" else tmp_path / a if (tmp_path / a).exists() else a
            for a in argv]
    rc, diagnostic = run(capsys, *argv, "--out", out)
    assert rc == 1
    assert diagnostic["error"] == error, diagnostic
    where = f"{bad}, line {line_number}" if names_line else str(bad)
    assert where in diagnostic["message"], diagnostic
    assert set(tmp_path.iterdir()) == before


def test_significance_refuses_a_nan_run(tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sig.json"
    a.write_text('{"runs":[NaN,0.5,0.6]}')
    b.write_text('{"runs":[0.5,0.6,0.7]}')
    rc, diagnostic = run(capsys, "significance", "--a", a, "--b", b, "--out", out)
    assert rc == 1
    assert diagnostic == {"error": "EvalError",
                          "message": f"{a} is not JSON: NaN is not a finite number"}
    assert not out.exists()


def test_exactly_one_module_imports_json():
    """The JSON boundary stays in one module: no other one imports `json`."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "json" for n in names):
                importers.append(path.name)
    assert importers == ["corpus.py"]
