"""`model.predict_examples` shares its examples with one forked helper.

Where `model.fork_cpus` reports two CPUs and the input holds at least
`MIN_WORKER_EXAMPLES` examples per process, predict forks one
`model.Helper`. The two processes take chunks of whole packs, at least
`CHUNK_EXAMPLES` examples each, of the examples in encoding order (ascending
real rows, ties in input order) one at a time, the calling process from the
front and the helper from the back. The output must not depend on the
process count, no helper may outlive the command, an error must be the one
one process raises, the first in encoding order, a helper's death must fail
the command instead of hanging it, and
small inputs, one-CPU or non-Linux machines and threaded callers must not
fork at all. Train's dev evaluation forks no helper of its own: it shares
its dev examples' chunks the same way with train's helper, once per epoch,
so `_Chunks.share` resets its chunk counter on each call. Only `model`
forks and maps shared memory.
"""

import ast
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrcner import model as model_mod
from mrcner.cli import TripleExamples, main
from mrcner.encoder import EncoderError
from mrcner.mrc_data import example_from_triple, read_triples, write_triples
from mrcner.train import _Steps
from helpers import HEADS, corpus_to_conll, make_separable_corpus, tiny_model, triple

SRC = Path(__file__).resolve().parent.parent / "src" / "mrcner"

TINY = ["--seq-len", 48, "--layers", 1, "--model-dim", 8, "--heads", 2, "--ffn-dim", 16,
        "--learning-rate", 1e-2, "--seed", 5]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs `os.sched_getaffinity` reports."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


# Fail a test that hangs (say, waiting for a dead helper) instead of stalling
# the suite.
pytestmark = pytest.mark.usefixtures("deadline")


def spy_on_helpers(monkeypatch):
    """The targets of the helpers forked, in order."""
    start, targets = model_mod.Helper.__init__, []

    def spy(self, target):
        targets.append(target)
        start(self, target)

    monkeypatch.setattr(model_mod.Helper, "__init__", spy)
    return targets


@pytest.fixture
def helpers(monkeypatch):
    return spy_on_helpers(monkeypatch)


@pytest.fixture
def no_helper(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a helper process was forked")
    monkeypatch.setattr(model_mod.Helper, "__init__", refuse)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def convert_corpus(tmp_path, name, n, mode, seed):
    corpus = tmp_path / f"{name}.conll"
    corpus.write_text(corpus_to_conll(make_separable_corpus(n, seed=seed)))
    out = tmp_path / f"{name}-{mode}.jsonl"
    assert run("convert", "--input", corpus, "--entity-type", "CHEMICAL", "--mode", mode,
               "--out", out) == 0
    return out


@pytest.fixture(scope="module", params=["mrc", "bio-baseline"])
def corpus(request, tmp_path_factory):
    """A checkpoint trained on a small split, and a test split big enough
    for two processes."""
    mode = request.param
    tmp_path = tmp_path_factory.mktemp(mode)
    train = convert_corpus(tmp_path, "train", 40, mode, seed=3)
    test = convert_corpus(tmp_path, "test", 500, mode, seed=4)
    ckpt = tmp_path / "model.ckpt"
    assert run("train", "--train", train, "--out", ckpt, "--mode", mode, "--epochs", 8,
               *TINY) == 0
    assert len(read_triples(test)) >= 2 * model_mod.MIN_WORKER_EXAMPLES
    return tmp_path, mode, train, test, ckpt


def chunk_ids(test, ckpt):
    """The sent_ids of each chunk of the test split that predict cuts, in
    encoding order."""
    mdl = model_mod.load_checkpoint(ckpt)
    triples = read_triples(test)
    examples = TripleExamples(triples, mdl.vocab, mdl.seq_cfg)
    return [[triples[i].sent_id for pack in chunk for i in pack]
            for chunk in model_mod._Chunks(mdl, examples, examples.rows).chunks]


def test_predict_output_is_byte_identical_at_one_and_two_workers(corpus, cpus, helpers):
    tmp_path, _, _, test, ckpt = corpus
    outputs = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"pred-{n}.jsonl"
        assert run("predict", "--checkpoint", ckpt, "--triples", test, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert len(helpers) == 1
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(records) == len(read_triples(test))
    assert any(r["spans"] for r in records)


def test_a_short_last_chunk_keeps_input_order(corpus, cpus, helpers):
    _, _, _, test, ckpt = corpus
    mdl = model_mod.load_checkpoint(ckpt)
    examples = [example_from_triple(t, mdl.vocab, mdl.seq_cfg) for t in read_triples(test)[:437]]
    last_chunk = model_mod._Chunks(mdl, examples).chunks[-1]
    assert sum(map(len, last_chunk)) < model_mod.CHUNK_EXAMPLES
    cpus(2)
    assert model_mod.predict_examples(mdl, examples) == [
        model_mod.predict_in_process(mdl, [ex])[0] for ex in examples]
    assert len(helpers) == 1


def test_no_worker_outlives_a_successful_predict(corpus, cpus, helpers, tmp_path):
    _, _, _, test, ckpt = corpus
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0
    assert len(helpers) == 1
    assert_no_child_process()


def fail_on(monkeypatch, failing):
    """Makes `model.predict_example` raise, in either process, for the
    examples whose sent_id is in `failing`."""
    predict_example = model_mod.predict_example

    def fail(*args):
        if args[1].origin[1] in failing:
            raise EncoderError(f"non-finite activations in example {args[1].origin[1]}")
        return predict_example(*args)

    monkeypatch.setattr(model_mod, "predict_example", fail)


def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(
        corpus, cpus, helpers, monkeypatch, capsys, tmp_path):
    _, _, _, test, ckpt = corpus
    failing = chunk_ids(test, ckpt)[-2][0]  # in the helper's second chunk
    fail_on(monkeypatch, {failing})
    cpus(2)
    out = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--triples", test, "--out", out) == 1
    assert len(helpers) == 1
    assert_no_child_process()
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic == {"error": "EncoderError",
                          "message": f"non-finite activations in example {failing}"}
    assert not out.exists()


# The first example of the third of the test examples' chunks, which this
# process takes, fails; in the second case so does the first of the
# second-to-last chunk, which the helper takes second.
@pytest.mark.parametrize("failing", [[2], [2, -2]])
def test_an_error_in_this_processs_chunks_is_raised_as_one_process_raises_it(
        corpus, cpus, helpers, monkeypatch, capsys, tmp_path, failing):
    _, _, _, test, ckpt = corpus
    chunks = chunk_ids(test, ckpt)
    fail_on(monkeypatch, {chunks[i][0] for i in failing})
    cpus(2)
    out = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--triples", test, "--out", out) == 1
    assert len(helpers) == 1
    assert_no_child_process()
    assert json.loads(capsys.readouterr().err) == {
        "error": "EncoderError", "message": f"non-finite activations in example {chunks[2][0]}"}
    assert not out.exists()


def test_an_error_in_this_process_stops_the_helper_taking_chunks(corpus, cpus, helpers,
                                                                   monkeypatch, tmp_path):
    _, _, _, test, ckpt = corpus
    first = chunk_ids(test, ckpt)[0][0]  # the first in encoding order
    predict_example, parent = model_mod.predict_example, os.getpid()
    by_helper = tmp_path / "by-helper"

    def fail_on_first(*args):
        if args[1].origin[1] == first:
            raise EncoderError(f"non-finite activations in example {first}")
        if os.getpid() != parent:
            with open(by_helper, "a") as fh:
                fh.write(f"{args[1].origin[1]}\n")
        return predict_example(*args)

    monkeypatch.setattr(model_mod, "predict_example", fail_on_first)
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 1
    assert len(helpers) == 1
    assert_no_child_process()
    # Left to itself, the helper would take every chunk this process
    # leaves; it stops after the chunk it holds, if any, when this one fails.
    assert len(by_helper.read_text().split() if by_helper.exists() else []) <= 250


def test_a_dead_worker_fails_the_command_instead_of_hanging(
        corpus, cpus, helpers, monkeypatch, capsys, tmp_path):
    _, _, _, test, ckpt = corpus
    dying = chunk_ids(test, ckpt)[-2][0]  # in the helper's second chunk
    predict_example, parent = model_mod.predict_example, os.getpid()

    def die_on_one(*args):
        if args[1].origin[1] == dying:
            if os.getpid() == parent:
                raise AssertionError(f"example {dying} was predicted in the parent")
            os._exit(1)
        return predict_example(*args)

    monkeypatch.setattr(model_mod, "predict_example", die_on_one)
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 1
    assert len(helpers) == 1
    assert_no_child_process()
    assert json.loads(capsys.readouterr().err) == {
        "error": "HelperError", "message": "the helper process exited with status 1"}


def test_one_cpu_never_forks(corpus, cpus, no_helper, tmp_path):
    _, _, _, test, ckpt = corpus
    cpus(1)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0


def test_without_sched_getaffinity_predict_never_forks(corpus, no_helper, monkeypatch, tmp_path):
    _, _, _, test, ckpt = corpus
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0


def test_a_running_thread_keeps_predict_in_process(corpus, cpus, no_helper, tmp_path):
    _, _, _, test, ckpt = corpus
    cpus(2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run("predict", "--checkpoint", ckpt, "--triples", test,
                   "--out", tmp_path / "p.jsonl") == 0
    finally:
        release.set()
        waiter.join()


def test_input_below_the_work_minimum_never_forks(corpus, cpus, no_helper, tmp_path):
    _, _, _, test, ckpt = corpus
    below = tmp_path / "below.jsonl"
    write_triples(read_triples(test)[: 2 * model_mod.MIN_WORKER_EXAMPLES - 1], below)
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", below,
               "--out", tmp_path / "p.jsonl") == 0


def test_train_dev_evaluation_shares_trains_helper(corpus, cpus, helpers, tmp_path):
    _, mode, train, test, _ = corpus
    cpus(2)
    assert run("train", "--train", train, "--dev", test, "--out", tmp_path / "m.ckpt",
               "--mode", mode, "--epochs", 1, *TINY) == 0
    assert [type(target) for target in helpers] == [_Steps]


MIN, CHUNK = model_mod.MIN_WORKER_EXAMPLES, model_mod.CHUNK_EXAMPLES
# Around the fork's minimum: nothing, one example, either side of one
# process's minimum and of two processes', and two sizes a chunk past it.
SIZES = [0, 1, MIN - 1, MIN, 2 * MIN - 1, 2 * MIN, 2 * MIN + 1,
         CHUNK * (2 * MIN // CHUNK + 1), CHUNK * (2 * MIN // CHUNK + 1) + 1]


@settings(max_examples=30, deadline=None)
@given(head=st.sampled_from(HEADS), size=st.sampled_from(SIZES) | st.integers(0, 2 * MIN + CHUNK),
       seed=st.integers(0, 2**16))
def test_predict_examples_on_two_cpus_equals_one_process(head, size, seed):
    mode, variant = head
    mdl = tiny_model(mode, variant, seq_len=24, seed=seed % 3)
    rng = np.random.default_rng(seed)
    query = "w1 w2" if mode == "mrc" else None
    examples = [example_from_triple(triple(int(n), query, i, rng), mdl.vocab, mdl.seq_cfg)
                for i, n in enumerate(rng.integers(1, 20, size))]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked = spy_on_helpers(monkeypatch)
        assert model_mod.predict_examples(mdl, examples) == model_mod.predict_in_process(
            mdl, examples)
    assert len(forked) == (size >= 2 * MIN)
    assert_no_child_process()


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.integers(1, 2 * model_mod.PACK_ROWS), max_size=300))
def test_chunks_are_whole_packs_in_encoding_order(rows):
    chunks = model_mod._Chunks(None, [None] * len(rows), rows).chunks
    order = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    assert [pack for chunk in chunks for pack in chunk] == list(
        model_mod.packs(order, rows.__getitem__))
    for chunk in chunks[:-1]:  # each fills up to CHUNK_EXAMPLES, and no further
        assert sum(map(len, chunk[:-1])) < CHUNK <= sum(map(len, chunk))


def test_one_helper_shares_the_chunks_on_every_call():
    mdl = tiny_model("mrc", "conditioned", seq_len=24)
    rng = np.random.default_rng(0)
    examples = [example_from_triple(triple(int(n), "w1 w2", i, rng), mdl.vocab, mdl.seq_cfg)
                for i, n in enumerate(rng.integers(1, 20, 3 * CHUNK + 1))]
    chunks = model_mod._Chunks(mdl, examples)
    helper = model_mod.Helper(chunks)
    try:
        for _ in range(2):
            assert chunks.share(helper) == model_mod.predict_in_process(mdl, examples)
    finally:
        helper.close()
    assert_no_child_process()


def test_only_model_forks_or_maps_shared_memory():
    """One fork mechanism and one shared-memory allocator: no module but
    `model` imports `mmap` or `multiprocessing`, or calls `os.fork`."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            forks = (isinstance(node, ast.Attribute) and node.attr == "fork"
                     and isinstance(node.value, ast.Name) and node.value.id == "os")
            if forks or any(n.split(".")[0] in ("mmap", "multiprocessing") for n in names):
                users.add(path.name)
    assert users == {"model.py"}
