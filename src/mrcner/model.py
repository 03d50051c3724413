"""Full model state (encoder + task head + vocabulary) and its checkpoint file.

The task head is looked up by mode in HEADS: `heads.SpanHeadParams` ("mrc")
or `baseline.BioHeadParams` ("bio-baseline"). Both implement one protocol of
six members: class attributes `mode` and `default_variant` (the variant a
config that names none takes); field `variant` (None for BIO);
`shapes(model_dim, variant)`, the head's tensor names and shapes in
checkpoint order, which refuses a variant the head does not have;
`loss_and_grads(h_ctx, example)` returning (loss, dh_ctx, grads by tensor
name); and `decode(h_ctx, example)` returning entity spans. h_ctx is the
encoder output at the example's context rows. A head is built from its
tensors as keyword arguments plus `variant`.

Parameters live in one store: `ModelState.flat` is a single contiguous
float64 vector holding every trainable tensor in checkpoint order (the
encoder's, then the head's as `head.<name>`), and `ModelState.params` maps
each name to its view, laid out by `flat_store`; the head is built over its
`head.*` views. `flat_store` takes the vector from an allocator of zeroed
vectors, so training can build the store in memory it shares with a forked
helper (`shared_zeros`, the one allocator of shared memory). `new_model`
fills each view with its `encoder.init_tensors` draw (the encoder's from
`seed`, the head's from `seed + 1`), and `load_checkpoint` reads the blob
into `flat`. Gradients use the same layout, so training sums a batch in
one vector. Training cuts a batch's examples into `packs` and runs
`pack_loss_and_grads` on each: one `encoder.forward` of the pack, then
`example_loss_and_grads(model, example, h_ctx, sink)` for each example, the
head's step, given h_ctx, the encoder's rows of the example's context, then
one `encoder.backward` of the pack. Each adds every example's gradients into
that example's gradient sink, one example at a time, in pack order
(embedding gradients only into the rows the example's ids touch): views of
the batch's vector, or of a slot of the helper's (`train`). Adam
(`train.Adam`) stays dense over that vector, and a parameter snapshot is one
vector copy.

Prediction shares no state between examples, so it encodes them in
encoding order: ascending real rows, ties in input order, which puts
equal-length examples side by side in a pack, where the encoder runs
attention once for each run of them. `_Chunks` cuts the examples so
ordered into `packs`, and the packs into chunks of whole packs, at least
CHUNK_EXAMPLES examples each. `predict_examples` (used by `predict`)
shares the chunks with a `Helper`: a process forked from this one, which
inherits the model and the examples and runs methods of a target object for
it (`train` runs its steps on one too). The two processes take the chunks
one at a time, this one from the front and the helper from the back, so the
faster takes more; the helper sends back only spans, and the spans are put
back in input order, so the output is the same in one process or two.
Nothing is forked below 2 * MIN_WORKER_EXAMPLES examples, or where
`fork_cpus` reports one CPU: on a one-CPU machine, where the OS does not
report usable CPUs (no `os.sched_getaffinity` outside Linux), and when the
process runs other threads, which a fork could deadlock; this process then
takes every chunk, as `predict_in_process` does. Each pack is encoded with
one `encoder.forward` call, keeping each example's context rows and the
[SEP] after them, and each example is decoded from its context rows with
`predict_example(model, example, h_ctx)`. The examples' row counts are
given, or read from the examples, so a sequence that builds each example
when it is indexed (`cli.TripleExamples`) is ordered without building it.
Train's dev evaluation forks no helper of its own: where `train` runs its
helper, the two processes share the dev examples' `_Chunks` the same way
(`train.evaluate_model`); `_Chunks.share` resets the chunk counter on each
call, so one helper can share them after every epoch.

A checkpoint (format v2) is one UTF-8 JSON header line, then the
little-endian float64 bytes of `ModelState.flat`. The header holds the mode,
the head variant, the configs, the vocabulary and `tensors`, the
`[name, shape]` pairs in store order, so `head -n1` shows everything but the
numbers. Loading builds the head class, configs, vocabulary and shapes from
the header (a value they refuse is a ModelError naming its key), checks the
header against them and the blob's length against the store, then reads the
blob from the file into a new store, with no other copy of it in memory.
A ModelError about a file names it. Files are byte-stable for a fixed seed.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import multiprocessing
import os
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import baseline, encoder, heads
from .corpus import EntitySpan, dump_json, parse_json
from .encoder import EncoderConfig
from .mrc_data import MrcExample, SeqConfig, Vocab

CHECKPOINT_VERSION = 2

HEADS = {cls.mode: cls for cls in (heads.SpanHeadParams, baseline.BioHeadParams)}
MODE_MRC = heads.SpanHeadParams.mode
MODE_BIO = baseline.BioHeadParams.mode

# Fewest examples per process for `predict_examples` to fork its helper:
# three chunks each. Forking, joining and reaping the helper costs ~1.4 ms,
# and below about six chunks the chunks share the work unevenly. On a shared
# 2-vCPU x86-64 host with one BLAS thread, on the cheapest examples here
# (train-bio-short's first n, about 12 real rows, BIO head, 0.23 ms each in
# process), n = 64 ran 0.62-0.86x as fast forked as in process, 96
# 0.72-1.08x, 128 0.77-1.13x, 144 1.23-1.38x, 160 1.25-1.28x, 200
# 1.24-1.43x and 400 1.53-1.54x (medians of 31 alternating calls, two to
# four runs each). Train's dev evaluation forks nothing: it shares the
# training helper that is already running, so any number of dev examples is
# split.
MIN_WORKER_EXAMPLES = 75

# Fewest examples in each of the chunks that `predict_examples` and its
# helper take one at a time (`_Chunks`), so that a process on a CPU the host
# slows down takes fewer; a chunk takes whole packs until it holds this
# many. On the host above, one call on predict-long's 1,200 test examples
# took a median 1.47 s in chunks of 25 against 1.71 s in two fixed halves
# (four alternating fresh-process rounds of five calls; 1.61 against 1.94 s
# and 1.83 against 1.95 s in two earlier series), and chunks of 100 took
# 1.71 s where chunks of 25 took 1.61. On train-bio-short's and train-mrc's
# examples the two splits ran within 6% of each other. These figures predate
# encoding order and pack-aligned chunks: they were taken on chunks of 25
# examples in input order.
CHUNK_EXAMPLES = 25

# Most real rows in one pack of examples that predict or training encodes
# together (an example with more makes a pack of its own). On a 2-vCPU x86-64
# host (2 MB L2 per core) with one BLAS thread, predicting train-bio-short's
# 1500 examples of 7-16 rows in process ran at a median 1731 examples/s with
# one example per pack, 2990 with packs of at most 96 rows, 3397 with 128,
# 2916 with 192, 2819 with 256 and 2731 with 384 (seven alternating runs
# each); train-mrc's 600 examples of 31-59 rows ran at 954, 959, 1075, 899,
# 859 and 901. Larger packs' arrays leave the cache. Training packs are cut
# from batches (8 examples by default), so they seldom reach the cap.
PACK_ROWS = 128


class ModelError(ValueError):
    """Mode/variant mismatches and malformed checkpoints."""


@dataclass
class ModelState:
    encoder_cfg: EncoderConfig
    seq_cfg: SeqConfig
    vocab: Vocab
    flat: np.ndarray
    params: dict[str, np.ndarray]  # every tensor's view of `flat`, in store order
    head: heads.SpanHeadParams | baseline.BioHeadParams

    def zero_grads(self, zeros=np.zeros) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed gradient vector from `zeros(size)`, laid out like `flat`,
        with its views keyed like `params`."""
        return flat_store({name: arr.shape for name, arr in self.params.items()}, zeros)


def _head_class(mode: str):
    if mode not in HEADS:
        raise ModelError(f"unknown mode {mode!r}")
    return HEADS[mode]


def flat_store(shapes: dict[str, tuple], zeros=np.zeros) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One contiguous float64 vector holding a tensor per name of `shapes`, in
    that order, and a view of it per name. The vector is `zeros(size)`, a
    zeroed one; `train` passes `shared_zeros`."""
    flat = zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return flat, views


def _empty_model(encoder_cfg, seq_cfg, vocab, head_cls, variant, zeros=np.zeros) -> ModelState:
    """A model over a zeroed store from `zeros(size)` of every tensor in
    checkpoint order, head tensors as `head.<name>`; the head is built over
    those views. Refuses a variant the head does not have."""
    shapes = encoder.param_shapes(encoder_cfg)
    head_shapes = head_cls.shapes(encoder_cfg.model_dim, variant)
    shapes.update((f"head.{name}", shape) for name, shape in head_shapes.items())
    flat, params = flat_store(shapes, zeros)
    head = head_cls(**{name: params[f"head.{name}"] for name in head_shapes}, variant=variant)
    return ModelState(encoder_cfg, seq_cfg, vocab, flat, params, head)


def new_model(
    mode: str,
    head_variant: str | None,
    encoder_cfg: EncoderConfig,
    seq_cfg: SeqConfig,
    vocab: Vocab,
    seed: int,
    zeros=np.zeros,
) -> ModelState:
    """A model of `mode` with freshly drawn parameters: the encoder's from
    `seed`, the head's from `seed + 1`, in a store from `zeros(size)`.
    Refuses a variant the head does not have (HeadError)."""
    mdl = _empty_model(encoder_cfg, seq_cfg, vocab, _head_class(mode), head_variant, zeros)
    for is_head, draw_seed in ((False, seed), (True, seed + 1)):
        views = {name: v for name, v in mdl.params.items() if name.startswith("head.") == is_head}
        shapes = {name: v.shape for name, v in views.items()}
        for name, arr in encoder.init_tensors(np.random.default_rng(draw_seed), shapes).items():
            views[name][...] = arr
    return mdl


def packs(items: Iterable, rows=lambda ex: len(ex.input_ids)) -> Iterator[list]:
    """Consecutive items in packs, in order: a pack takes items one at a
    time while it holds at most PACK_ROWS rows (`rows(item)`, an example's
    `len(input_ids)` by default), and an item longer than that makes a pack
    of its own."""
    pack: list = []
    filled = 0
    for item in items:
        n = rows(item)
        if pack and filled + n > PACK_ROWS:
            yield pack
            pack, filled = [], 0
        pack.append(item)
        filled += n
    if pack:
        yield pack


def pack_loss_and_grads(
    model: ModelState,
    pack: Sequence[MrcExample],
    sinks: Sequence[dict],
    dropout_seeds: Sequence[int] | None = None,
) -> tuple[list[float], Sequence[dict]]:
    """Forward, each example's head step (`example_loss_and_grads`), then
    backward, for a pack of examples that keeps every row; `dropout_seeds`
    holds one seed per example, and without them no dropout fires. Each
    example's gradients are added into its gradient sink of `sinks`, one per
    example (see `encoder.backward`; views keyed like `model.params`, e.g.
    from `model.zero_grads()`, which several examples may share). Examples add one at a time in pack order,
    with the bits their gradients have in a pack of their own. Returns (each
    example's loss, sinks)."""
    hidden, tape = encoder.forward(model.params, model.encoder_cfg, pack, None, dropout_seeds)
    grad_h = np.zeros_like(hidden)
    losses = []
    for ex, rows, sink in zip(pack, tape["rows"], sinks):
        ctx = slice(rows.start + ex.context_range[0], rows.start + ex.context_range[1] + 1)
        loss, grad_h[ctx] = example_loss_and_grads(model, ex, hidden[ctx], sink)
        losses.append(loss)
    return losses, encoder.backward(model.params, model.encoder_cfg, tape, grad_h, sinks)


def example_loss_and_grads(
    model: ModelState, example: MrcExample, h_ctx: np.ndarray, grads: dict[str, np.ndarray]
) -> tuple[float, np.ndarray]:
    """The head's step for one example of a pack, given h_ctx, the encoder's
    rows of its context: adds the head's gradients into `grads` and returns
    (loss, the loss's gradient with respect to h_ctx)."""
    loss, dh_ctx, head_grads = model.head.loss_and_grads(h_ctx, example)
    for name, g in head_grads.items():
        grads[f"head.{name}"] += g
    return loss, dh_ctx


def predict_example(model: ModelState, example: MrcExample, h_ctx: np.ndarray):
    """Decode one example into entity spans with the model's head, given
    h_ctx, the encoder's rows of its context."""
    return model.head.decode(h_ctx, example)


def predict_in_process(model: ModelState, examples: Sequence[MrcExample]) -> list[list[EntitySpan]]:
    """The entity spans of every example, in input order, predicted in this
    process in encoding order (`_Chunks`)."""
    return _Chunks(model, examples).share()


def _predict_pack(model: ModelState, pack: list[MrcExample]) -> list[list[EntitySpan]]:
    """Each example's spans. The encoder's last layer computes each
    example's context rows and the [SEP] after them; that row keeps every
    kept slice at two rows or more, so each context row has the bits it has
    when its example is encoded alone."""
    keep = [slice(ex.context_range[0], ex.context_range[1] + 2) for ex in pack]
    hidden, _ = encoder.forward(model.params, model.encoder_cfg, pack, keep)
    out, first = [], 0
    for ex in pack:
        out.append(predict_example(model, ex, hidden[first : first + ex.n_context]))
        first += ex.n_context + 1  # its context rows, then its [SEP]
    return out


def predict_examples(model: ModelState, examples: Sequence[MrcExample],
                     rows: Sequence[int] | None = None) -> list[list[EntitySpan]]:
    """The entity spans of every example, in input order, predicted in
    encoding order (`_Chunks`). `rows` holds each example's real rows,
    `len(input_ids)`, so that a sequence which builds each example when it
    is indexed need not build them to order them; by default they are read
    from the examples.

    With at least 2 * MIN_WORKER_EXAMPLES examples where `fork_cpus`
    reports two CPUs or more, this process forks one `Helper`, which
    inherits the model and the sequence, and the two processes `share` the
    examples' `_Chunks`. Elsewhere this process predicts them all. No
    helper outlives the call.
    """
    chunks = _Chunks(model, examples, rows)
    if len(examples) < 2 * MIN_WORKER_EXAMPLES or fork_cpus() < 2:
        return chunks.share()
    helper = Helper(chunks)
    try:
        return chunks.share(helper)
    finally:
        helper.close()


class _Chunks:
    """The examples in encoding order, ascending real rows with ties in
    input order, cut into `packs` and the packs into chunks of whole packs
    that hold at least CHUNK_EXAMPLES examples each (the last may hold
    fewer), so that equal-length examples share a pack and no chunk ends in
    a part-filled one. One process, or two, take the chunks one at a time
    (`share`), the first from the front and a helper from the back, until
    none is left. `left` holds the index of the first chunk left and one
    past the last, in shared memory made before the fork. Each process
    moves only its own end, so they need no lock: where the ends meet, both
    processes may take the same chunk, and both get the same spans for it.
    An example is built, by indexing `examples`, only when its pack is
    predicted; `rows` holds each one's real rows (by default read from the
    examples)."""

    def __init__(self, model: ModelState, examples: Sequence[MrcExample],
                 rows: Sequence[int] | None = None):
        self.model, self.examples = model, examples
        if rows is None:
            rows = [len(ex.input_ids) for ex in examples]
        order = sorted(range(len(examples)), key=rows.__getitem__)  # stable: ties in input order
        self.chunks: list[list[list[int]]] = []  # each chunk's packs of example indexes
        for pack in packs(order, rows.__getitem__):
            if not self.chunks or sum(map(len, self.chunks[-1])) >= CHUNK_EXAMPLES:
                self.chunks.append([])
            self.chunks[-1].append(pack)
        self.left = shared_zeros(2, np.int64)

    def share(self, helper: Helper | None = None) -> list[list[EntitySpan]]:
        """The spans of every example, in input order, predicted by this
        process and `helper`, if given, whose target's `predict(front)`
        calls this object's. It first resets `left` to every chunk, so one
        helper may share the examples on every call. The error raised is
        the one one process raises, the first in encoding order: this
        process's own, after which the helper takes no more chunks (its
        reply is left unread, so close it), else the helper's, as itself; a
        helper that dies is a HelperError."""
        self.left[:] = 0, len(self.chunks)
        try:
            if helper is not None:
                helper.call("predict", False)
            done = self.predict(True)
            if helper is not None:
                done.update(helper.result())
        finally:
            self.left[0] = self.left[1]  # after an error here, the helper takes no more
        return [done[i] for i in range(len(self.examples))]

    def predict(self, front: bool) -> dict[int, list[EntitySpan]]:
        """The spans of each example of the chunks this process takes from
        the front (or the back), by example index."""
        done = {}
        while self.left[0] < self.left[1]:
            i = int(self.left[0]) if front else int(self.left[1]) - 1
            self.left[1 - front] = i + front  # this process's end, past chunk i
            for pack in self.chunks[i]:
                done.update(zip(pack, _predict_pack(self.model, [self.examples[j] for j in pack])))
        return done


def shared_zeros(size: int, dtype=np.float64) -> np.ndarray:
    """`size` zeros of `dtype` over an anonymous shared mapping, which a
    process forked from this one shares instead of copying."""
    return np.frombuffer(mmap.mmap(-1, size * np.dtype(dtype).itemsize), dtype, size)


class HelperError(RuntimeError):
    """A helper process that died."""


class Helper:
    """A process forked from this one that runs methods of `target`, which
    it inherits through the fork, for this one. `call` sends a method's
    name and arguments; `result` waits for what it returned, and raises here
    what it raised there, or a HelperError naming the helper's exit status
    if it died. The helper exits when the pipe closes: after `close`, which
    also reaps it, or when this process dies. `train` keeps one for a whole
    call, over its `_Steps`; `predict_examples` forks one per call."""

    def __init__(self, target):
        self.target = target
        self._conn, theirs = multiprocessing.Pipe()
        self._pid = os.fork()
        if self._pid == 0:
            status = 1
            try:
                self._conn.close()
                _serve(theirs, target)
                status = 0
            finally:
                os._exit(status)
        theirs.close()

    def call(self, name: str, *args) -> None:
        try:
            self._conn.send((name, args))
        except OSError:
            raise self._died() from None

    def result(self):
        try:
            reply = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _died(self) -> HelperError:
        return HelperError(f"the helper process exited with status {self.close()}")

    def close(self) -> int:
        """Closes the pipe, which ends the helper, reaps it once, and
        returns its exit status."""
        self._conn.close()
        if self._pid is not None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = None
        return self._status


def _serve(conn, target) -> None:
    """Runs each call that arrives on `conn` and sends back what it returned
    or raised, until the pipe closes."""
    while True:
        try:
            name, args = conn.recv()
        except EOFError:
            return
        try:
            result = getattr(target, name)(*args)
        except Exception as exc:  # raised again by the caller
            result = exc
        conn.send(result)


def fork_cpus() -> int:
    """CPUs that processes forked from this one may share: the CPUs this
    process may run on, or 1 where the OS does not say (no
    `os.sched_getaffinity` outside Linux, or no /proc/self/task) and while
    this process runs another thread, native ones included.

    A fork could deadlock on a lock another thread holds. And a BLAS library
    that runs threads of its own runs them in every forked process too,
    where they compete for the CPUs: on a 2-vCPU host whose OpenBLAS ran two
    threads, forked predict of predict-long's 1200 test examples took
    11.5-28.8 s against 4.8-6.0 s in process (1.8-2.0 s forked with one
    BLAS thread), and train-mrc's `train` took 14.5 s with a helper against
    3.3 s without.

    OpenBLAS stops its threads in a process that forks until its next
    threaded call, so after any fork the task list can show one thread
    where BLAS runs two; the thread count OpenBLAS reports
    (`_openblas_threads`) is asked too."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1 or _openblas_threads() > 1:
            return 1
    except OSError:
        return 1
    return len(os.sched_getaffinity(0))


# The thread-count getters of OpenBLAS builds: scipy-openblas's 64-bit one
# (numpy's wheels) and 32-bit one (scipy's), a 64-bit one and the plain one.
_OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads() -> int:
    """The most threads any OpenBLAS library loaded in this process (found
    in /proc/self/maps) will run, or 1 where none exposes a thread-count
    getter."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()}
    most = 1
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                most = max(most, getter())
                break
    return most


def save_checkpoint(model: ModelState, path) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.head.mode,
        "head_variant": model.head.variant,
        "encoder_config": asdict(model.encoder_cfg),
        "seq_config": asdict(model.seq_cfg),
        "vocab": model.vocab.id_to_token,
        "tensors": [[name, list(arr.shape)] for name, arr in model.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(dump_json(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.flat.astype("<f8", copy=False))  # no bytes copy of the store


def _from_header(header: dict, key: str, build):
    """`build(header[key])`; a missing key, or a TypeError or ValueError that
    `build` raises on the value, is a ModelError that names the key."""
    if key not in header:
        raise ModelError(f"checkpoint header lacks {key!r}")
    try:
        return build(header[key])
    except (TypeError, ValueError) as exc:
        raise ModelError(f"checkpoint {key}: {exc}") from None


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint, checking its header against the shapes its configs
    and vocabulary imply and its blob against the store's size, then read
    the blob into a new parameter store and check that every parameter is
    finite. A finite dot product of the store with itself shows that; only
    when it is not (a NaN, an infinity, or values above ~1e154 in magnitude,
    whose squares overflow) is each parameter checked."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ModelError(f"{path} does not start with a header line")
        mdl = parse_json(f"{path}, header line", line, _empty_model_of_header, ModelError)
        n_bytes = 8 * mdl.flat.size
        blob_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if blob_bytes == n_bytes:
            blob_bytes = fh.readinto(memoryview(mdl.flat).cast("B"))
        if blob_bytes != n_bytes:
            raise ModelError(f"{path} holds {blob_bytes} parameter bytes, "
                             f"the model's {mdl.flat.size} float64 values need {n_bytes}")
    if not np.little_endian:
        mdl.flat.byteswap(inplace=True)  # the blob is little-endian
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow falls to the exact check
        square = mdl.flat @ mdl.flat
    if not np.isfinite(square) and not np.isfinite(mdl.flat).all():
        raise ModelError(f"{path} holds a parameter that is NaN or infinite")
    return mdl


def _empty_model_of_header(header: dict) -> ModelState:
    """The zeroed model a checkpoint's header object describes, or ModelError."""
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {header.get('format_version')!r}")

    head_cls = _from_header(header, "mode", _head_class)
    encoder_cfg = _from_header(header, "encoder_config", lambda fields: EncoderConfig(**fields))
    seq_cfg = _from_header(header, "seq_config", lambda fields: SeqConfig(**fields))
    if seq_cfg.seq_len > encoder_cfg.max_positions:
        raise ModelError(f"seq_config.seq_len {seq_cfg.seq_len} exceeds "
                         f"encoder_config.max_positions {encoder_cfg.max_positions}")
    vocab = _from_header(header, "vocab", Vocab)
    if vocab.size != encoder_cfg.vocab_size:
        raise ModelError(f"checkpoint vocabulary has {vocab.size} tokens but "
                         f"encoder_config.vocab_size is {encoder_cfg.vocab_size}")
    mdl = _from_header(header, "head_variant",
                       lambda variant: _empty_model(encoder_cfg, seq_cfg, vocab, head_cls, variant))
    expected = [[name, list(arr.shape)] for name, arr in mdl.params.items()]
    stored = header.get("tensors")
    if stored != expected:
        pairs = zip_longest(stored if isinstance(stored, list) else [], expected,
                            fillvalue="no tensor")
        i, (got, want) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise ModelError(f"checkpoint tensors differ from the model's at position {i}: "
                         f"stored {got}, expected {want}")
    return mdl


def copy_params(model: ModelState) -> np.ndarray:
    return model.flat.copy()
