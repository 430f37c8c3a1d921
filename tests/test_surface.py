"""The package ships only what runs: every name platelab exports is used
outside the unit tests, and the numerical modules import neither the output
layer nor the CLI."""

import inspect
import re
from pathlib import Path

import platelab

ROOT = Path(__file__).resolve().parent.parent
# the strong-attractor probes that `sweep` is to report (ROADMAP item 4)
AWAITING_CALLERS = {"absorbing_time", "regularity_probe"}


def test_every_export_has_a_caller():
    files = [p for p in sorted((ROOT / "src" / "platelab").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
    exported = [name for name, obj in vars(platelab).items()
                if not name.startswith("_") and not inspect.ismodule(obj)]
    uncalled = set()
    for name in exported:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.add(name)
    assert sorted(uncalled - AWAITING_CALLERS) == []


def test_numerical_core_imports_no_output_layer():
    # output formats and the CLI sit above the numerical modules
    for name in ("discretization", "model", "energy", "integrator", "barrier",
                 "attractor_lab"):
        text = (ROOT / "src" / "platelab" / f"{name}.py").read_text(encoding="utf-8")
        imports = re.findall(r"^\s*(?:from\s+\S+\s+)?import\s+.*$", text, re.M)
        assert not [line for line in imports if re.search(r"\b(reporting|cli)\b", line)], name
