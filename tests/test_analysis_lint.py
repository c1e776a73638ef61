"""The repo-invariant linter: each rule fires on a minimal seeded
violation, stays quiet on the idioms the tree actually uses, and the
whole rule set is clean on the current source tree (the CI gate)."""

import pathlib
import textwrap

import pytest

import repro
from repro.analysis.lint import (ALL_RULES, LAYERS, Finding, layer_of,
                                 lint_paths, render_findings)
from repro.cli import main

SRC = pathlib.Path(repro.__file__).parent


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules_of(findings):
    return [f.rule for f in findings]


# -- layering ---------------------------------------------------------------

def test_layer_table_is_ordered_most_specific_first():
    # layer_of returns the first matching prefix, so any nested prefix
    # must precede its parent ("repro.service.pool" vs "repro.service").
    keys = list(LAYERS)
    for child in keys:
        for parent in keys:
            if child != parent and child.startswith(parent + "."):
                assert keys.index(child) < keys.index(parent)
    assert layer_of("repro.analysis.dead") == LAYERS["repro.analysis"]
    assert layer_of("not.a.repro.module") is None


def test_layering_flags_upward_import(tmp_path):
    path = _write(tmp_path, "repro/fsops/bad.py",
                  "import repro.cli\n")
    findings = lint_paths([path], rules=["layering"])
    assert _rules_of(findings) == ["layering"]
    assert "repro.cli" in findings[0].message


def test_layering_sees_literal_dynamic_imports(tmp_path):
    path = _write(tmp_path, "repro/fsops/bad.py", """\
        import importlib
        mod = importlib.import_module("repro.fuzz.loop")
        other = __import__("repro.api")
    """)
    findings = lint_paths([path], rules=["layering"])
    assert _rules_of(findings) == ["layering", "layering"]


def test_layering_allows_downward_import(tmp_path):
    path = _write(tmp_path, "repro/osapi/fine.py",
                  "from repro.fsops import attr\n")
    assert lint_paths([path], rules=["layering"]) == []


# -- lock-discipline --------------------------------------------------------

_LOCKED_CLASS = """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def put(self, item):
            with self._lock:
                self._items.append(item)

        def {name}(self, item):
            {body}
"""


def test_lock_discipline_flags_unguarded_mutation(tmp_path):
    path = _write(tmp_path, "repro/core/box.py", _LOCKED_CLASS.format(
        name="leak", body="self._items.append(item)"))
    findings = lint_paths([path], rules=["lock-discipline"])
    assert _rules_of(findings) == ["lock-discipline"]
    assert "Box.leak" in findings[0].message


def test_lock_discipline_accepts_guarded_mutation(tmp_path):
    path = _write(tmp_path, "repro/core/box.py", _LOCKED_CLASS.format(
        name="also_put",
        body="with self._lock:\n                self._items.append(item)"))
    assert lint_paths([path], rules=["lock-discipline"]) == []


#: Method bodies that hold the lock inside a compound statement.
_NESTED_LOCKED = {
    "try-finally": "try:\n                pass\n            finally:\n"
                   "                with self._lock:\n"
                   "                    self._items.discard(item)",
    "if": "if item:\n                with self._lock:\n"
          "                    self._items.append(item)",
    "for": "for _ in range(item):\n                with self._lock:\n"
           "                    self._items.append(item)",
}


@pytest.mark.parametrize("kind", sorted(_NESTED_LOCKED))
def test_lock_discipline_accepts_guarded_mutation_in_compound_statement(
        tmp_path, kind):
    path = _write(tmp_path, "repro/core/box.py", _LOCKED_CLASS.format(
        name="nested", body=_NESTED_LOCKED[kind]))
    assert lint_paths([path], rules=["lock-discipline"]) == []


def test_lock_discipline_flags_unguarded_mutation_in_try_once(tmp_path):
    path = _write(tmp_path, "repro/core/box.py", _LOCKED_CLASS.format(
        name="leak", body="try:\n                self._items.append(item)"
                          "\n            finally:\n                pass"))
    findings = lint_paths([path], rules=["lock-discipline"])
    assert _rules_of(findings) == ["lock-discipline"]
    assert "Box.leak" in findings[0].message


def test_lock_discipline_private_helper_called_under_lock(tmp_path):
    """Interprocedural refinement: a private method whose every call
    site holds the lock is itself lock-held-only, so its unguarded
    mutations are fine."""
    path = _write(tmp_path, "repro/core/box.py", """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._push(item)

            def _push(self, item):
                self._items.append(item)
    """)
    assert lint_paths([path], rules=["lock-discipline"]) == []


def test_lock_discipline_public_method_never_qualifies(tmp_path):
    """A *public* method is callable from anywhere, so being called
    under the lock in-class does not make its body lock-held-only."""
    path = _write(tmp_path, "repro/core/box.py", """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items.append(item)
                    self.push(item)

            def push(self, item):
                self._items.append(item)
    """)
    findings = lint_paths([path], rules=["lock-discipline"])
    assert _rules_of(findings) == ["lock-discipline"]
    assert "Box.push" in findings[0].message


# -- determinism ------------------------------------------------------------

def test_determinism_flags_unseeded_random(tmp_path):
    path = _write(tmp_path, "repro/gen/bad.py", """\
        import random
        value = random.choice([1, 2, 3])
    """)
    findings = lint_paths([path], rules=["determinism"])
    assert _rules_of(findings) == ["determinism"]
    assert "random.choice" in findings[0].message


def test_determinism_accepts_seeded_random_instances(tmp_path):
    path = _write(tmp_path, "repro/gen/fine.py", """\
        import random
        rng = random.Random(7)
        value = rng.choice([1, 2, 3])
    """)
    assert lint_paths([path], rules=["determinism"]) == []


def test_determinism_requires_sorted_json_in_byte_stable_modules(
        tmp_path):
    source = """\
        import json
        def dump(payload):
            return json.dumps(payload{extra})
    """
    bad = _write(tmp_path, "repro/store/bad.py",
                 source.format(extra=""))
    findings = lint_paths([bad], rules=["determinism"])
    assert _rules_of(findings) == ["determinism"]
    assert "sort_keys" in findings[0].message

    good = _write(tmp_path, "repro/store/good.py",
                  source.format(extra=", sort_keys=True"))
    assert lint_paths([good], rules=["determinism"]) == []

    # Outside byte-stable modules unsorted dumps are fine.
    free = _write(tmp_path, "repro/cli2.py", source.format(extra=""))
    assert lint_paths([free], rules=["determinism"]) == []


# -- pickle-safety ----------------------------------------------------------

def test_pickle_safety_flags_locks_and_lambdas_in_wire_modules(
        tmp_path):
    path = _write(tmp_path, "repro/store/records.py", """\
        import threading
        GUARD = threading.Lock()
        KEY = lambda row: row.name
    """)
    findings = lint_paths([path], rules=["pickle-safety"])
    assert sorted(_rules_of(findings)) == ["pickle-safety",
                                           "pickle-safety"]


def test_pickle_safety_ignores_non_wire_modules(tmp_path):
    path = _write(tmp_path, "repro/core/coverage2.py", """\
        import threading
        GUARD = threading.Lock()
    """)
    assert lint_paths([path], rules=["pickle-safety"]) == []


# -- clause-consistency -----------------------------------------------------

def test_clause_consistency_flags_undeclared_cover(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from repro.core.coverage import cover
        def f():
            cover("totally.unknown.clause")
    """)
    findings = lint_paths([path], rules=["clause-consistency"])
    assert _rules_of(findings) == ["clause-consistency"]
    assert "undeclared" in findings[0].message


def test_clause_consistency_flags_orphan_declare(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from repro.core.coverage import declare
        declare("my.orphan.clause")
    """)
    findings = lint_paths([path], rules=["clause-consistency"])
    assert _rules_of(findings) == ["clause-consistency"]
    assert "no cover() site" in findings[0].message


def test_clause_consistency_flags_platform_contradicting_analysis(
        tmp_path):
    # The dead-clause analysis proves link.either_resolution
    # unreachable on linux; annotating it for linux is a lie.
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from repro.core.coverage import declare
        declare("osapi.link.either_resolution",
                platforms=("linux", "posix"))
    """)
    findings = lint_paths([path], rules=["clause-consistency"])
    assert _rules_of(findings) == ["clause-consistency"]
    assert "'linux'" in findings[0].message


def test_clause_consistency_accepts_declared_and_covered(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from repro.core.coverage import cover, declare
        declare("local.pair.clause")
        def f():
            cover("local.pair.clause")
    """)
    assert lint_paths([path], rules=["clause-consistency"]) == []


# -- unused-import ----------------------------------------------------------

def test_unused_import_flags_names_nothing_reads(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        import os
        import json as codec
        from typing import (Dict,
                            List)

        def f(items: List[int]) -> int:
            return len(items)
    """)
    findings = lint_paths([path], rules=["unused-import"])
    assert _rules_of(findings) == ["unused-import"] * 3
    assert [(f.line, f.message.split()[0]) for f in findings] == [
        (1, "'os'"), (2, "'codec'"), (3, "'Dict'")]


def test_unused_import_accepts_reads_annotations_and_exports(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from __future__ import annotations
        import os.path
        from typing import Optional
        from repro.core.errors import Errno
        from repro.core.values import Ok

        __all__ = ["Ok", "f"]

        def f(name: Optional[str]) -> bool:
            return os.path.exists(name or Errno.ENOENT.name)
    """)
    assert lint_paths([path], rules=["unused-import"]) == []


def test_unused_import_pragma_suppresses_one_name(tmp_path):
    path = _write(tmp_path, "repro/fsops/extra.py", """\
        from repro.core.errors import (
            Errno)  # lint: ignore[unused-import]
        from repro.core.values import Ok
    """)
    findings = lint_paths([path], rules=["unused-import"])
    assert [(f.line, f.message.split()[0]) for f in findings] == [
        (3, "'Ok'")]


def test_unused_import_exempts_package_reexports(tmp_path):
    path = _write(tmp_path, "repro/fsops/__init__.py",
                  "from repro.core.values import Ok\n")
    assert lint_paths([path], rules=["unused-import"]) == []
    module = _write(tmp_path, "repro/fsops/extra.py",
                    "from repro.core.values import Ok\n")
    assert _rules_of(lint_paths([module], rules=["unused-import"])) == [
        "unused-import"]


# -- pragmas, rendering, the driver -----------------------------------------

def test_pragma_suppresses_finding_on_its_line(tmp_path):
    path = _write(tmp_path, "repro/fsops/bad.py",
                  "import repro.cli  # lint: ignore[layering]\n")
    assert lint_paths([path], rules=["layering"]) == []
    # The pragma is rule-specific.
    other = _write(tmp_path, "repro/fsops/worse.py",
                   "import repro.cli  # lint: ignore[determinism]\n")
    assert _rules_of(lint_paths([other],
                                rules=["layering"])) == ["layering"]


def test_syntax_errors_become_findings(tmp_path):
    path = _write(tmp_path, "repro/fsops/broken.py", "def f(:\n")
    findings = lint_paths([path], rules=["layering"])
    assert _rules_of(findings) == ["syntax"]


def test_render_findings_formats():
    assert render_findings([]) == "lint: clean"
    text = render_findings([Finding("layering", "a.py", 3, "boom")])
    assert "a.py:3: [layering] boom" in text
    assert "1 finding(s)" in text


def test_findings_sorted_by_path_and_line(tmp_path):
    _write(tmp_path, "repro/fsops/a.py",
           "import repro.cli\nimport repro.api\n")
    _write(tmp_path, "repro/fsops/b.py", "import repro.fuzz\n")
    findings = lint_paths([tmp_path / "repro"], rules=["layering"])
    keys = [(f.path, f.line) for f in findings]
    assert keys == sorted(keys)
    assert len(findings) == 3


# -- the CI gate ------------------------------------------------------------

def test_source_tree_is_lint_clean():
    assert lint_paths([SRC], rules=ALL_RULES) == []


def test_cli_lint_exit_codes(tmp_path, capsys):
    _write(tmp_path, "repro/fsops/bad.py", "import repro.cli\n")
    assert main(["lint", str(tmp_path / "repro")]) == 1
    assert "[layering]" in capsys.readouterr().out

    findings_json = tmp_path / "findings.json"
    dead_json = tmp_path / "dead.json"
    assert main(["lint", str(SRC / "util"),
                 "--json", str(findings_json),
                 "--dead-report", str(dead_json)]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert findings_json.read_text().strip() == "[]"
    assert '"platforms"' in dead_json.read_text()


def test_cli_lint_script_explains_verdict(tmp_path, capsys):
    doomed = tmp_path / "doomed.txt"
    doomed.write_text("@type script\n"
                      "read 9 1\n"
                      'stat "/nope"\n')
    well = tmp_path / "well.txt"
    well.write_text("@type script\n"
                    'mkdir "/d" 0o755\n')
    assert main(["lint-script", str(doomed)]) == 1
    out = capsys.readouterr().out
    assert "doomed" in out
    assert "fd 9" in out
    assert main(["lint-script", str(well)]) == 0
    assert "well-formed" in capsys.readouterr().out
