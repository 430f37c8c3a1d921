"""The package ships only what runs: every name platelab exports is used
outside the unit tests, and the numerical modules import neither the output
layer nor the CLI."""

import ast
import inspect
import re
from pathlib import Path

import platelab

ROOT = Path(__file__).resolve().parent.parent


def _caller_files():
    """The files whose calls count: the package, the scripts, the benchmark
    and the acceptance tests, but not the unit tests."""
    files = [p for p in sorted((ROOT / "src" / "platelab").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def test_every_export_has_a_caller():
    lines = [line for p in _caller_files()
             for line in p.read_text(encoding="utf-8").splitlines()]
    exported = [name for name, obj in vars(platelab).items()
                if not name.startswith("_") and not inspect.ismodule(obj)]
    uncalled = set()
    for name in exported:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.add(name)
    assert sorted(uncalled) == []


def test_numerical_core_imports_no_output_layer():
    # output formats and the CLI sit above the numerical modules
    for name in ("discretization", "model", "energy", "integrator", "barrier",
                 "attractor_lab"):
        text = (ROOT / "src" / "platelab" / f"{name}.py").read_text(encoding="utf-8")
        imports = re.findall(r"^\s*(?:from\s+\S+\s+)?import\s+.*$", text, re.M)
        assert not [line for line in imports if re.search(r"\b(reporting|cli)\b", line)], name


def test_every_keyword_parameter_is_set_by_a_caller():
    # a keyword parameter that no caller sets is a fixed value in disguise
    calls = {}
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for name, obj in vars(platelab).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        params = list(inspect.signature(obj).parameters.values())
        for pos, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            if not any(any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg in (None, p.name) for k in call.keywords)
                       or (p.kind is not p.KEYWORD_ONLY and len(call.args) > pos)
                       for call in calls.get(name, [])):
                unset.append(f"{name}({p.name})")
    assert not unset, "keyword parameters no caller sets: " + ", ".join(unset)


def test_every_import_is_used():
    # the package, the scripts and the tests; the benchmark keeps its own
    files = [p for p in sorted((ROOT / "src" / "platelab").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{path.relative_to(ROOT)}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unused, "imports never used: " + ", ".join(unused)
