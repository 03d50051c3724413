"""`pyproject.toml` allows `numpy>=1.24`, but the suite runs on whichever
NumPy is installed, so a name that only NumPy 2 has would pass every other
test and fail on 1.x. This test reads `src/` and fails on such a name: an
`ndarray.mT`, a `numpy` function added in 2.0, or the `copy=` keyword of
`numpy.asarray`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mrcner"

# Functions of the `numpy` namespace that NumPy 1.x lacks.
NUMPY_2_ONLY = {"concat", "permute_dims", "astype", "pow", "isdtype", "vecdot",
                "matrix_transpose", "unique_values", "unique_counts", "unique_inverse",
                "unique_all", "cumulative_sum", "cumulative_prod", "bitwise_count"}


def numpy_2_uses(source: str) -> list[str]:
    """Each use in `source` of a name that only NumPy 2 has, with its line."""
    tree = ast.parse(source)
    modules, names = set(), {}  # what `numpy` and its members are called here
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update((a.asname or a.name, a.name) for a in node.names)

    def numpy_name(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in modules else None
        return names.get(node.id) if isinstance(node, ast.Name) else None

    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "mT":
            uses.append(f"line {node.lineno}: .mT")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses += [f"line {node.lineno}: numpy.{a.name}" for a in node.names
                     if a.name in NUMPY_2_ONLY]
        elif numpy_name(node) in NUMPY_2_ONLY:
            uses.append(f"line {node.lineno}: numpy.{numpy_name(node)}")
        elif (isinstance(node, ast.Call) and numpy_name(node.func) == "asarray"
              and any(k.arg == "copy" for k in node.keywords)):
            uses.append(f"line {node.lineno}: numpy.asarray(copy=...)")
    return uses


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_uses_no_name_that_numpy_1_lacks(path):
    assert numpy_2_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nx = np.ones((2, 2)).mT",
    "def f(a):\n    return a.mT",
    *(f"import numpy as np\nf = np.{name}" for name in sorted(NUMPY_2_ONLY)),
    "import numpy\ny = numpy.concat([x, x])",
    "from numpy import unique_counts\n",
    "from numpy import cumulative_sum as cs\ny = cs(x)",
    "import numpy as np\ny = np.asarray(x, copy=False)",
    "from numpy import asarray\ny = asarray(x, dtype=float, copy=None)",
])
def test_the_scan_finds_each_numpy_2_only_use(source):
    assert numpy_2_uses(source)


@pytest.mark.parametrize("source", [
    "import numpy as np\ny = np.concatenate([x, x]).T.swapaxes(-1, -2)",
    "import numpy as np\ny = np.power(x, 2).astype(np.float32, copy=False)",
    "import numpy as np\ny = np.asarray(x, dtype=float)",
    "import numpy as np\ny = np.unique(x, return_inverse=True)",
    "y = concat(x)",  # not numpy's
])
def test_the_scan_passes_names_numpy_1_has(source):
    assert numpy_2_uses(source) == []
