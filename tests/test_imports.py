"""The package's import surface.  The exact core stays free of numerics:
the type, word-set, decision and signalling modules import neither numpy
nor the dense oracle.  ``__all__`` is the public API, and the README's
import block runs against it.  The benchmark's layer tracer wraps package
functions by name, so the names it lists must keep resolving.  Every
other public definition in the package has a caller in ``src/`` or
``scripts/``; helpers only tests use live in ``tests/conftest.py``."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import hotypes
import hotypes.oracle

PACKAGE = Path(hotypes.__file__).parent
REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "bench" / "tracing.py"
CORE = ("type_core", "strings", "admissibility", "signalling")
FORBIDDEN = ("numpy", "hotypes.oracle")


def imported_modules(module: str) -> set[str]:
    """Every module a source file imports, relative imports resolved."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "hotypes" + (f".{base}" if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", CORE)
def test_core_module_imports_no_numerics(module):
    for name in imported_modules(module):
        for forbidden in FORBIDDEN:
            assert name != forbidden and not name.startswith(forbidden + "."), (module, name)


def test_the_guard_sees_the_oracle_imports():
    assert {"numpy", "hotypes.strings"} <= imported_modules("oracle")


@pytest.mark.parametrize(
    "run",
    [
        "from hotypes.cli import main\n"
        "assert main(['--json', 'oracle', 'verify', '(A->B)*(C->D)', '--trials', '2']) == 0",
        "import hotypes\n"
        "assert hotypes.verify(hotypes.parse_type('(A->B)*(C->D)'), trials=2).failures == 0",
    ],
    ids=["cli", "library"],
)
def test_sampling_leaves_numpy_random_unimported(run):
    # the samples draw from the standard library's generator
    probe = run + "\nimport sys\nprint('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


PUBLIC = {
    # types and their structure
    "Arrow", "DuplicateLabelError", "Elementary", "IoAnalysis", "Label", "TRIVIAL",
    "Trivial", "TypeExpr", "TypeSyntaxError", "bar", "elementary_systems",
    "io_partition", "k_value", "minimal_enclosing", "parse_type", "relabel_unique",
    "render_type", "tensor",
    # word sets
    "BitWord", "WordSet", "build_D",
    # decisions
    "ContractionSpec", "Reason", "Verdict", "check_composition", "check_contraction",
    "check_equivalence", "check_inclusion",
    # signalling
    "Relation", "SignallingVerdict", "crosscheck", "signalling_matrix", "signals",
    # numerics
    "OperatorMatrix", "SubspaceBasis", "delta_basis", "herm_basis", "link_product",
    "membership", "numeric_contraction", "sample_deterministic", "verify",
}


def test_all_is_the_pinned_api():
    assert len(hotypes.__all__) == len(set(hotypes.__all__))
    assert set(hotypes.__all__) == PUBLIC
    namespace: dict = {}
    exec("from hotypes import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert not any(isinstance(value, ModuleType) for value in namespace.values())


def traced_layers() -> dict[str, list[str]]:
    """``LAYERS`` of the benchmark's tracer, read from its source without
    running it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no LAYERS")


def test_traced_layers_resolve_in_the_package():
    layers = traced_layers()
    assert layers
    for module, functions in layers.items():
        owner = importlib.import_module(f"hotypes.{module}")
        for function in functions:
            assert callable(getattr(owner, function, None)), f"hotypes.{module}.{function}"


def test_benchmark_word_set_probes():
    # the signal workload reads build_D's cache counters; the oracle
    # workload checks the basis of D_x against the counted dimension
    assert callable(hotypes.build_D.cache_info)
    for text, dims in (("(A->B)*(C->D)", {}), ("((A->B)->(C->D))", {}), ("~(A->B)*C", {"A": 3})):
        x = hotypes.parse_type(text, dims)
        words = hotypes.build_D(x)
        assert len(hotypes.oracle.basis_for_words(words)) == hotypes.oracle.basis_dimension(x)


def _referenced_names(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_user():
    """A top-level public function or class of the package is exported,
    traced by the benchmark, or used by another definition in ``src/`` or
    ``scripts/``."""
    traced = {(module, name) for module, names in traced_layers().items() for name in names}
    sources = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    used: set[str] = set()
    public: list[tuple[str, str]] = []
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and not node.name.startswith("_"):
                    public.append((path.stem, node.name))
                # a definition's references to its own name do not count
                used |= _referenced_names(node) - {node.name}
            else:
                used |= _referenced_names(node)
    assert public
    unused = [
        f"hotypes.{module}.{name}"
        for module, name in public
        if name not in hotypes.__all__ and name not in used and (module, name) not in traced
    ]
    assert unused == []


def test_readme_library_block_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from hotypes import" in block
    exec(block, {})
