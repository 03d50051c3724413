"""`train` trains each batch on two CPUs where it may fork, bit for bit.

Where `model.fork_cpus()` reports two CPUs (Linux, two usable CPUs, no
other thread, a BLAS library's included, which `tests/conftest.py` sees to),
`train` forks one helper per call. The helper trains each batch's trailing
examples into gradient slots that this process adds in batch order, and
each process steps a part of Adam's vector, block by block. Batches are cut
by cost, weighed by the two processes' measured speeds. Each epoch's dev
examples are shared as `predict` shares its input: the two processes take
packs of them (`model._Packs`), this one from the front and the helper
from the back. These tests train with the helper and again pinned to one CPU, where none
is forked, and require the same checkpoint and manifest bytes, at any speed
ratio, the same error for an example the helper trains or predicts, and no
process left behind however `train` ends.
"""

import importlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mrcner import model as model_mod
from mrcner.corpus import dump_json
from mrcner.encoder import EncoderError
from mrcner.mrc_data import QUERY_FIRST
from helpers import VOCAB, triple

# `mrcner.train` as an attribute is the function, not the module.
train_mod = importlib.import_module("mrcner.train")

pytestmark = pytest.mark.usefixtures("deadline")

SRC = Path(__file__).resolve().parent.parent / "src"

TINY = dict(layers=2, model_dim=16, heads=2, ffn_dim=32, epochs=2, learning_rate=1e-2, seed=3)


def on_one_cpu(call):
    """call() with this process pinned to the first of its CPUs, restored after."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return call()
    finally:
        os.sched_setaffinity(0, cpus)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_processes():
    """Skips a test where `train` would fork no helper."""
    if model_mod.fork_cpus() < 2:
        pytest.skip("needs two usable CPUs and a process that runs one thread")


@pytest.fixture
def pinned_ratio(monkeypatch):
    """Pins `_Steps.ratio`, the helper's measured seconds per unit of cost
    over this process's, at the value given, and returns the (batch size,
    lead count) of every batch split; each lead count is checked against
    its bounds."""
    leads = []
    start, lead_count = train_mod._Steps.__init__, train_mod._Steps.lead_count

    def pin(ratio):
        monkeypatch.setattr(train_mod, "SPEED_WEIGHT", 0.0)

        def pinned(self, *args):
            start(self, *args)
            self.ratio = ratio

        def checked(self, batch):
            lead = lead_count(self, batch)
            assert max(1, len(batch) - train_mod.MAX_SLOTS) <= lead <= len(batch)
            leads.append((len(batch), lead))
            return lead

        monkeypatch.setattr(train_mod._Steps, "__init__", pinned)
        monkeypatch.setattr(train_mod._Steps, "lead_count", checked)
        return leads

    return pin


@pytest.fixture
def helper_calls(monkeypatch):
    """The names of the `_Steps` methods this process asks the helper to run."""
    calls = []
    call = model_mod.Helper.call

    def recording(self, name, *args):
        calls.append(name)
        call(self, name, *args)

    monkeypatch.setattr(model_mod.Helper, "call", recording)
    return calls


@pytest.fixture
def helpers_forked(monkeypatch):
    """How many training helpers `train` forks."""
    forked = []
    start = model_mod.Helper.__init__

    def counting(self, target):
        forked.append(os.getpid())
        start(self, target)

    monkeypatch.setattr(model_mod.Helper, "__init__", counting)
    return forked


def triples_of(mode, lengths, seed=0):
    """A triple per context length, of random words, with a span every third
    token; MRC triples carry a two-word query."""
    rng = np.random.default_rng(seed)
    query = "w1 w2" if mode == "mrc" else None
    return [triple(n, query, i, rng, [(s, s) for s in range(0, n, 3)])
            for i, n in enumerate(lengths)]


def trained_bytes(config, train_triples, dev_triples, tmp_path):
    """The checkpoint's bytes and the manifest's, without its wall clock."""
    mdl, manifest = train_mod.train(config, train_triples, dev_triples)
    assert_no_child_process()
    ckpt = tmp_path / "m.ckpt"
    model_mod.save_checkpoint(mdl, ckpt)
    record = asdict(manifest)
    del record["wall_clock_sec"]
    return ckpt.read_bytes(), dump_json(record, sort_keys=True)


CASES = {
    "conditioned": dict(mode="mrc", head_variant="conditioned"),
    "ablation": dict(mode="mrc", head_variant="ablation"),
    "bio-baseline": dict(mode="bio-baseline"),
    "dropout": dict(mode="mrc", dropout=0.1),
    "query-first": dict(mode="mrc", order=QUERY_FIRST),
    "batch-1": dict(mode="mrc", batch_size=1),
    "batch-2": dict(mode="bio-baseline", batch_size=2),
    "batch-3": dict(mode="mrc", batch_size=3, dropout=0.1),
    "batch-8": dict(mode="mrc", batch_size=8),
}


@pytest.mark.usefixtures("two_processes")
@pytest.mark.parametrize("case", CASES)
def test_training_with_the_helper_matches_one_cpu(case, tmp_path, helpers_forked):
    overrides = CASES[case]
    config = train_mod.TrainConfig(**{"seq_len": 32, **TINY, **overrides})
    # 13 examples: every batch size above 1 leaves a partial last batch.
    lengths = [3, 17, 5, 9, 22, 4, 12, 7, 25, 6, 15, 3, 11]
    train_triples = triples_of(config.mode, lengths)
    dev_triples = triples_of(config.mode, [8, 14, 5], seed=1)
    forked = trained_bytes(config, train_triples, dev_triples, tmp_path)
    assert len(helpers_forked) == 1
    alone = on_one_cpu(lambda: trained_bytes(config, train_triples, dev_triples, tmp_path))
    assert len(helpers_forked) == 1
    assert forked == alone


@pytest.mark.usefixtures("two_processes")
def test_an_example_longer_than_a_pack_trains_as_on_one_cpu(tmp_path, helpers_forked):
    config = train_mod.TrainConfig(seq_len=160, batch_size=4, **TINY)
    lengths = [6, model_mod.PACK_ROWS + 10, 9, 40, model_mod.PACK_ROWS + 20, 5]
    train_triples = triples_of(config.mode, lengths)
    forked = trained_bytes(config, train_triples, [], tmp_path)
    alone = on_one_cpu(lambda: trained_bytes(config, train_triples, [], tmp_path))
    assert len(helpers_forked) == 1
    assert forked == alone


@pytest.mark.usefixtures("two_processes")
@pytest.mark.parametrize("n_dev", [0, 1, 2, 7])
@pytest.mark.parametrize("mode", ["mrc", "bio-baseline"])
def test_dev_evaluation_with_the_helper_matches_one_cpu(mode, n_dev, tmp_path, pinned_ratio,
                                                        helper_calls, monkeypatch):
    pinned_ratio(1.0)
    # A pack per dev example; training examples then train in packs of one
    # too, which changes no bit.
    monkeypatch.setattr(model_mod, "PACK_ROWS", 1)
    config = train_mod.TrainConfig(seq_len=32, mode=mode, **TINY)
    train_triples = triples_of(mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])
    dev_triples = triples_of(mode, [8, 14, 5, 20, 3, 9, 11][:n_dev], seed=1)
    forked = trained_bytes(config, train_triples, dev_triples, tmp_path)
    # Each of the two epochs' dev evaluations shares its examples' packs.
    assert helper_calls.count("predict") == (2 if n_dev else 0)
    alone = on_one_cpu(lambda: trained_bytes(config, train_triples, dev_triples, tmp_path))
    assert forked == alone


@pytest.mark.usefixtures("two_processes")
@pytest.mark.parametrize("ratio", [0.01, 100.0])
def test_a_pinned_speed_ratio_trains_as_on_one_cpu(ratio, tmp_path, pinned_ratio, helper_calls):
    leads = pinned_ratio(ratio)
    config = train_mod.TrainConfig(seq_len=32, batch_size=4, **TINY)
    train_triples = triples_of(config.mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])
    dev_triples = triples_of(config.mode, [8, 14, 5, 20, 3], seed=1)
    forked = trained_bytes(config, train_triples, dev_triples, tmp_path)
    # A slow helper gets no training example; a fast one all but the first.
    # Dev examples are shared in packs at any ratio.
    assert leads and all(lead == (n if ratio > 1 else 1) for n, lead in leads)
    assert helper_calls.count("predict") == 2
    alone = on_one_cpu(lambda: trained_bytes(config, train_triples, dev_triples, tmp_path))
    assert forked == alone


def first_batch(config, train_triples):
    """The triples of the first batch, in the order they are trained: the
    helper trains the last of them, this process the first."""
    order = np.random.default_rng(config.seed).permutation(len(train_triples))
    return [train_triples[int(j)] for j in order[: config.batch_size]]


def fail_at(monkeypatch, target, fail):
    """Makes `model.example_loss_and_grads` call fail(pid of the caller) for
    the example of `target`; forked processes inherit the patch."""
    step = model_mod.example_loss_and_grads

    def failing(model, example, h_ctx, grads):
        if example.origin[:2] == (target.doc_id, target.sent_id):
            fail(os.getpid())
        return step(model, example, h_ctx, grads)

    monkeypatch.setattr(model_mod, "example_loss_and_grads", failing)


@pytest.mark.usefixtures("two_processes")
@pytest.mark.parametrize("position, where", [(-1, "helper"), (0, "this process")])
def test_an_error_is_raised_as_on_one_cpu(monkeypatch, tmp_path, helpers_forked, position,
                                           where):
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    train_triples = triples_of(config.mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])
    pid_file = tmp_path / "pid"

    def fail(pid):
        pid_file.write_text(str(pid))
        raise EncoderError("non-finite activation after layer 1")

    fail_at(monkeypatch, first_batch(config, train_triples)[position], fail)
    with pytest.raises(EncoderError) as forked:
        train_mod.train(config, train_triples, [])
    assert_no_child_process()
    assert len(helpers_forked) == 1
    assert (int(pid_file.read_text()) == os.getpid()) == (where == "this process")

    with pytest.raises(EncoderError) as alone:
        on_one_cpu(lambda: train_mod.train(config, train_triples, []))
    assert int(pid_file.read_text()) == os.getpid()
    assert str(forked.value) == str(alone.value)


@pytest.mark.usefixtures("two_processes")
def test_an_error_predicting_the_helpers_dev_part_is_raised_as_on_one_cpu(
        monkeypatch, tmp_path, pinned_ratio, helper_calls):
    pinned_ratio(1.0)
    # A pack per dev example; training examples then train in packs of one
    # too, which changes no bit.
    monkeypatch.setattr(model_mod, "PACK_ROWS", 1)
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    train_triples = triples_of(config.mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])
    dev_triples = triples_of(config.mode, [8, 14, 5, 20, 3], seed=1)
    last = dev_triples[3]  # the longest, last in encoding order
    pid_file = tmp_path / "pid"
    decode, parent = model_mod.predict_example, os.getpid()

    def failing(model, example, h_ctx):
        if example.origin[:2] == (last.doc_id, last.sent_id):
            pid_file.write_text(str(os.getpid()))
            raise ValueError(f"cannot decode {example.origin}")
        # The helper takes the last pack first; this process waits for it
        # there, so that it cannot reach that pack first.
        waited = time.monotonic()
        while os.getpid() == parent and not pid_file.exists() and time.monotonic() - waited < 10:
            time.sleep(0.001)
        return decode(model, example, h_ctx)

    monkeypatch.setattr(model_mod, "predict_example", failing)
    with pytest.raises(ValueError) as forked:
        train_mod.train(config, train_triples, dev_triples)
    assert_no_child_process()
    assert helper_calls.count("predict") == 1
    assert int(pid_file.read_text()) != os.getpid()

    with pytest.raises(ValueError) as alone:
        on_one_cpu(lambda: train_mod.train(config, train_triples, dev_triples))
    assert int(pid_file.read_text()) == os.getpid()
    assert type(forked.value) is type(alone.value)
    assert str(forked.value) == str(alone.value)


@pytest.mark.usefixtures("two_processes")
def test_a_helper_that_dies_is_a_helper_error_naming_its_status(monkeypatch, helpers_forked):
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    train_triples = triples_of(config.mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])
    parent = os.getpid()

    def die(pid):
        if pid != parent:
            os._exit(3)

    fail_at(monkeypatch, first_batch(config, train_triples)[-1], die)
    with pytest.raises(model_mod.HelperError, match="^the helper process exited with status 3$"):
        train_mod.train(config, train_triples, [])
    assert_no_child_process()
    assert len(helpers_forked) == 1


@pytest.mark.usefixtures("two_processes")
def test_an_interrupt_stops_and_reaps_the_helper(monkeypatch, helpers_forked):
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    train_triples = triples_of(config.mode, [5, 9, 4, 12, 6, 8, 10, 7, 3, 11])

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(train_mod, "evaluate_model", interrupt)
    with pytest.raises(KeyboardInterrupt):
        train_mod.train(config, train_triples, triples_of(config.mode, [6, 7]))
    assert_no_child_process()
    assert len(helpers_forked) == 1


def test_a_running_thread_keeps_training_in_one_process(helpers_forked):
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        mdl, _ = train_mod.train(config, triples_of(config.mode, [5, 9, 4, 12]), [])
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert helpers_forked == []
    assert mdl.flat.any()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_blas_thread_keeps_train_and_predict_in_one_process():
    # A fresh interpreter whose BLAS may run two threads of its own.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    code = ("import os, numpy; numpy.ones((64, 64)) @ numpy.ones((64, 64)); "
            "from mrcner import model; "
            "print(len(os.listdir('/proc/self/task')), model.fork_cpus())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout.split()
    threads, cpus = int(out[0]), int(out[1])
    if threads == 1:
        pytest.skip("BLAS started no thread of its own")
    assert cpus == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_blas_threads_parked_by_a_fork_keep_train_and_predict_in_one_process():
    # OpenBLAS stops its threads in a process that forks, until its next
    # threaded call, so only OpenBLAS's own count shows them.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    code = ("import os, numpy; "
            "from mrcner import model; "
            "threads = len(os.listdir('/proc/self/task')); "
            "pid = os.fork(); "
            "pid or os._exit(0); "
            "os.waitpid(pid, 0); "
            "print(threads, model.fork_cpus())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout.split()
    threads, cpus = int(out[0]), int(out[1])
    if threads == 1:
        pytest.skip("BLAS started no thread of its own")
    assert cpus == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_forks_no_helper(helpers_forked):
    config = train_mod.TrainConfig(seq_len=32, **TINY)
    on_one_cpu(lambda: train_mod.train(config, triples_of(config.mode, [5, 9, 4]), []))
    assert helpers_forked == []


def test_no_epoch_forks_no_helper(monkeypatch):
    def refused(target):
        raise AssertionError("a helper forked with no epoch to run")

    monkeypatch.setattr(model_mod, "fork_cpus", lambda: 2)
    monkeypatch.setattr(model_mod, "Helper", refused)
    config = train_mod.TrainConfig(seq_len=32, **{**TINY, "epochs": 0})
    _, manifest = train_mod.train(config, triples_of(config.mode, [5, 9, 4]),
                                  triples_of(config.mode, [6, 8], seed=1))
    assert manifest.best_epoch == 0 and len(manifest.dev_f1_curve) == 1


def test_each_process_trains_about_half_of_a_batchs_cost():
    config = train_mod.TrainConfig(seq_len=128, batch_size=64, **TINY)
    mdl = model_mod.new_model(config.mode, config.head_variant,
                              config.encoder_config(VOCAB.size), config.seq_config(), VOCAB,
                              config.seed)
    rows = [10] * 8 + [100, 4, 4, 4] + [10] * 56
    steps = train_mod._Steps(mdl, [SimpleNamespace(input_ids=np.ones(n)) for n in rows],
                             config)
    assert len(steps.slots) == train_mod.MAX_SLOTS
    assert steps.lead_count(list(range(8))) == 4  # equal costs: half each
    assert steps.lead_count([8, 9, 10, 11]) == 1  # the long example outweighs the rest
    assert steps.lead_count([9, 10, 11, 8]) == 3
    assert steps.lead_count([0]) == 1  # nothing for the helper
    # 64 equal costs would leave 32 to the helper, which has 31 slots.
    assert steps.lead_count([*range(12, 68), *range(8)]) == 64 - train_mod.MAX_SLOTS
    # A helper three times as slow per unit of cost gets a quarter of the
    # cost; three times as fast, three quarters.
    steps.ratio = 3.0
    assert steps.lead_count(list(range(8))) == 6
    steps.ratio = 1 / 3
    assert steps.lead_count(list(range(8))) == 2


@pytest.mark.parametrize("part", ["across tok_emb's end", "ragged"])
def test_a_blocked_finish_has_the_bits_of_an_unblocked_one(monkeypatch, part):
    config = train_mod.TrainConfig(seq_len=32, batch_size=4, **TINY)
    examples = [SimpleNamespace(input_ids=np.ones(n)) for n in (5, 9, 4, 12)]

    def finished(block):
        """Parameters, moments, gradient and slots after two steps that
        finish `part` with three slots."""
        monkeypatch.setattr(train_mod, "STEP_BLOCK", block)
        mdl = model_mod.new_model(config.mode, config.head_variant,
                                  config.encoder_config(VOCAB.size), config.seq_config(), VOCAB,
                                  config.seed, model_mod.shared_zeros)
        steps = train_mod._Steps(mdl, examples, config)
        size, rest = steps.grad_flat.size, steps.rest
        cut = {"across tok_emb's end": slice(rest - 100, None),
               "ragged": slice(7, size - 11)}[part]
        rng = np.random.default_rng(0)
        for _ in range(2):
            steps.grad_flat[...] = rng.normal(size=size)
            for flat, _ in steps.slots:
                flat[...] = rng.normal(size=flat.size)
            steps.finish(cut, 3, 4)
        return [mdl.flat, steps.optimizer.m, steps.optimizer.v, steps.grad_flat,
                *(flat for flat, _ in steps.slots)]

    unblocked = finished(10**9)
    blocked = finished(97)
    assert len(unblocked[0]) > 97 * 10
    for whole, in_blocks in zip(unblocked, blocked):
        assert np.array_equal(whole, in_blocks)
