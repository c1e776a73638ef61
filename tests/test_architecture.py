"""Architectural checks: the modular structure of paper Fig. 5.

The layering is: state < path resolution < file system < POSIX API,
with the checker on top.  Lower layers must not import higher ones —
this is what keeps the file-system semantics "unpolluted by the tricky
details of path resolution" and vice versa.
"""

import ast
import pathlib
import subprocess
import sys

import repro
# The layer table lives with the linter now (``repro lint`` enforces
# it with call-graph depth this AST walk doesn't have); this test keeps
# the cheap import-edge check in tier-1 against the same table.
from repro.analysis.lint import LAYERS, layer_of as _layer_of

SRC = pathlib.Path(repro.__file__).parent


def _imports_of(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_layering_respected():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        my_layer = _layer_of(module)
        if my_layer is None:
            continue
        for imported in _imports_of(path):
            dep_layer = _layer_of(imported)
            if dep_layer is not None and dep_layer > my_layer:
                violations.append(f"{module} -> {imported}")
    assert violations == [], "\n".join(violations)


def test_fsops_never_sees_raw_paths():
    """The file-system module's API is expressed over resolved names:
    no fsops module may call resolve()."""
    for path in sorted((SRC / "fsops").rglob("*.py")):
        for imported in _imports_of(path):
            assert imported != "repro.pathres.resolve", path.name


def test_every_module_has_docstring():
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(SRC)))
    assert missing == [], f"modules without docstrings: {missing}"


def test_public_api_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_model_module_inventory_matches_fig5():
    """The four model modules of Fig. 5 exist as packages."""
    for package in ("state", "pathres", "fsops", "osapi"):
        assert (SRC / package / "__init__.py").exists(), package


def test_import_graph_is_stdlib_only():
    """Importing the package, its CLI and its service loads nothing
    from outside the standard library: every process (shard workers
    and ``repro serve`` included) pays for whatever ``import repro``
    pulls in.  Checked in a fresh interpreter, so modules this test
    process already holds do not mask a new dependency."""
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli, repro.service\n"
        "print('\\n'.join(sorted({name.split('.')[0] for name in "
        "set(sys.modules) - before})))\n")
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=120).stdout.split()
    foreign = [name for name in loaded
               if name != "repro" and not name.startswith("__")
               and name not in sys.stdlib_module_names]
    assert foreign == [], f"non-stdlib modules imported: {foreign}"
