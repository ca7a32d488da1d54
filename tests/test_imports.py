"""The package's import rules, read from its source with `ast`.

`trimatch.verify` imports only the standard library, `errors` and the data
types of `core`, so no certificate check can reach the code that builds
certificates.  And each module uses every name it imports, so code moved
out of a module leaves no import behind.  `import x as x` marks a name a
module only passes on.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimatch"
CORE_TYPES = {"BipartiteGraph", "Hypergraph", "VertexId"}


def verifier_import_faults(source):
    """Each import in `source`, at any depth, that reaches beyond the
    standard library, `.errors` and the data types of `.core`."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            faults += [alias.name for alias in node.names
                       if alias.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level == 0:
                allowed = node.module.split(".")[0] in sys.stdlib_module_names
            else:
                allowed = node.level == 1 and (
                    node.module == "errors" or node.module == "core" and names <= CORE_TYPES
                )
            if not allowed:
                faults.append("." * node.level + f"{node.module or ''}: {sorted(names)}")
    return faults


def unused_imports(source):
    """The names a module's top-level and nested imports bind and it never
    reads, `__future__` features and `x as x` re-exports aside."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is None:
                    bound.add(alias.name.split(".")[0])
                elif alias.asname != alias.name:
                    bound.add(alias.asname)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_the_verifier_imports_no_solver_code():
    assert verifier_import_faults((PACKAGE / "verify.py").read_text()) == []


@pytest.mark.parametrize("line", [
    "from .ears import _slice",
    "from .matching import _hopcroft_karp",
    "from .matching import BipartiteGraph",
    "from .partition import solve",
    "from .generate import random_triple_system",
    "from .formats import parse_certificate",
    "from .oracle import all_tri_partitions",
    "from .cli import main",
    "from . import core",
    "from .core import components",
    "from .core import Hypergraph, _component_blocks",
    "from .core import _shadow_lists",
    "import trimatch.partition",
    "from trimatch.core import Hypergraph",
    "def f():\n    from .matching import _peel",
])
def test_the_verifier_rule_refuses_an_import_of_solver_code(line):
    source = (PACKAGE / "verify.py").read_text() + "\n" + line + "\n"
    assert verifier_import_faults(source) != []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_unused_import_rule_sees_a_leftover():
    source = (PACKAGE / "partition.py").read_text()
    assert unused_imports(source + "\nfrom bisect import bisect_left\n") == ["bisect_left"]
    assert unused_imports(source + "\nfrom itertools import islice as isl\n") == ["isl"]
