"""Documentation coverage: docstrings on public items, live repo paths.

Walks every module under :mod:`repro` and asserts that public modules,
classes, functions and methods are documented — the library's deliverable
includes doc comments on every public item.  The prose documents must
also name only scripts and files that exist.
"""

import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_documented(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; checked at its home module
        if not member.__doc__:
            undocumented.append(name)
        if inspect.isclass(member):
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not attr.__doc__:
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public members: {undocumented}"
    )


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ROADMAP.md and CHANGES.md are history, and perfbench/README.md belongs
# to the benchmark: all three may name files that are gone.
DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:tools|benchmarks|perfbench|examples)/[\w./*-]*"
)


def test_referenced_repo_paths_exist():
    missing = []
    for document in DOCUMENTS:
        path = os.path.join(REPO_ROOT, document)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                for reference in REPO_PATH.findall(line):
                    pattern = os.path.join(REPO_ROOT, reference.rstrip("."))
                    if not glob.glob(pattern):
                        missing.append(f"{document}:{number}: {reference}")
    assert not missing, "documents name missing paths:\n" + "\n".join(missing)
