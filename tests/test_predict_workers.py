"""`model.predict_examples` spreads examples over forked workers.

Predict forks one worker per usable CPU once the input holds at least
`MIN_WORKER_EXAMPLES` examples per worker. The output must not depend on the
worker count, no worker may outlive the command, a worker's failure must
fail the command instead of hanging it, and small inputs, one-CPU or
non-Linux machines, threaded callers and train's dev evaluation must not
fork at all.
"""

import json
import multiprocessing
import os
import signal
import threading

import pytest

from mrcner import model as model_mod
from mrcner.cli import main
from mrcner.encoder import EncoderError
from mrcner.mrc_data import example_from_triple, read_triples
from helpers import corpus_to_conll, make_separable_corpus

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


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that hangs (say, on a pool waiting for a dead worker)
    instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("test still running after 120 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools created, in order."""
    create, created = model_mod.ProcessPoolExecutor, []

    def spy(max_workers, **kwargs):
        created.append(max_workers)
        return create(max_workers, **kwargs)

    monkeypatch.setattr(model_mod, "ProcessPoolExecutor", spy)
    return created


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a process pool was created")
    monkeypatch.setattr(model_mod, "ProcessPoolExecutor", refuse)


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
    for two workers."""
    mode = request.param
    tmp_path = tmp_path_factory.mktemp(mode)
    train = convert_corpus(tmp_path, "train", 40, mode, seed=3)
    test = convert_corpus(tmp_path, "test", 500, mode, seed=4)
    ckpt = tmp_path / "model.ckpt"
    assert run("train", "--train", train, "--out", ckpt, "--mode", mode, "--epochs", 8,
               *TINY) == 0
    assert len(read_triples(test)) >= 2 * model_mod.MIN_WORKER_EXAMPLES
    return tmp_path, mode, train, test, ckpt


def test_predict_output_is_byte_identical_at_one_and_two_workers(corpus, cpus, pools):
    tmp_path, _, _, test, ckpt = corpus
    outputs = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"pred-{n}.jsonl"
        assert run("predict", "--checkpoint", ckpt, "--triples", test, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert pools == [2]
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(records) == len(read_triples(test))
    assert any(r["spans"] for r in records)


def test_a_short_last_chunk_keeps_input_order(corpus, cpus, pools):
    _, _, _, test, ckpt = corpus
    mdl = model_mod.load_checkpoint(ckpt)
    examples = [example_from_triple(t, mdl.vocab, mdl.seq_cfg) for t in read_triples(test)[:437]]
    assert len(examples) % model_mod.CHUNK_EXAMPLES != 0
    cpus(2)
    assert model_mod.predict_examples(mdl, examples) == [
        model_mod.predict_in_process(mdl, [ex])[0] for ex in examples]
    assert pools == [2]


def test_no_worker_outlives_a_successful_predict(corpus, cpus, pools, tmp_path):
    _, _, _, test, ckpt = corpus
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(
        corpus, cpus, pools, monkeypatch, capsys, tmp_path):
    _, _, _, test, ckpt = corpus
    predict_example = model_mod.predict_example

    def fail_on_one(*args):
        if args[1].origin[1] == 450:  # in the 19th of twenty 25-example chunks
            raise EncoderError("non-finite activations in example 450")
        return predict_example(*args)

    monkeypatch.setattr(model_mod, "predict_example", fail_on_one)
    cpus(2)
    out = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--triples", test, "--out", out) == 1
    assert pools == [2]
    assert multiprocessing.active_children() == []
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic == {"error": "EncoderError",
                          "message": "non-finite activations in example 450"}
    assert not out.exists()


def test_a_dead_worker_fails_the_command_instead_of_hanging(
        corpus, cpus, pools, monkeypatch, capsys, tmp_path):
    _, _, _, test, ckpt = corpus
    predict_example, parent = model_mod.predict_example, os.getpid()

    def die_on_one(*args):
        if args[1].origin[1] == 450:  # in the 19th of twenty 25-example chunks
            if os.getpid() == parent:
                raise AssertionError("example 450 was predicted in the parent")
            os._exit(1)
        return predict_example(*args)

    monkeypatch.setattr(model_mod, "predict_example", die_on_one)
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 1
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert json.loads(capsys.readouterr().err)["error"] == "BrokenProcessPool"


def test_one_cpu_never_forks(corpus, cpus, no_pool, tmp_path):
    _, _, _, test, ckpt = corpus
    cpus(1)
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0


def test_without_sched_getaffinity_predict_never_forks(corpus, no_pool, monkeypatch, tmp_path):
    _, _, _, test, ckpt = corpus
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run("predict", "--checkpoint", ckpt, "--triples", test,
               "--out", tmp_path / "p.jsonl") == 0


def test_a_running_thread_keeps_predict_in_process(corpus, cpus, no_pool, tmp_path):
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


def test_input_below_the_work_minimum_never_forks(corpus, cpus, no_pool, tmp_path):
    _, _, train, _, ckpt = corpus
    assert len(read_triples(train)) < 2 * model_mod.MIN_WORKER_EXAMPLES
    cpus(2)
    assert run("predict", "--checkpoint", ckpt, "--triples", train,
               "--out", tmp_path / "p.jsonl") == 0


def test_train_dev_evaluation_stays_in_process(corpus, cpus, no_pool, tmp_path):
    _, mode, train, test, _ = corpus
    cpus(2)
    assert run("train", "--train", train, "--dev", test, "--out", tmp_path / "m.ckpt",
               "--mode", mode, "--epochs", 1, *TINY) == 0
