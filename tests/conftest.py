import os
import signal
import sys
from pathlib import Path

# BLAS runs one thread, as in the benchmark, so that `train` and `predict`
# fork (`model.fork_cpus`: not while BLAS runs threads of its own). BLAS reads
# this once, when numpy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from helpers import MELOXICAM_CONLL  # noqa: E402

from mrcner.corpus import parse_conll  # noqa: E402


@pytest.fixture
def meloxicam_sentence():
    return parse_conll(MELOXICAM_CONLL.splitlines(), default_entity_type="CHEMICAL")[0]


@pytest.fixture
def deadline():
    """Fail a test that still runs after 120 s, instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("test still running after 120 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
