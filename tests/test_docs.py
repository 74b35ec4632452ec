"""Each contract has one home, and the documentation keeps it there.

Every public callable and class carries its own docstring; a module
docstring says in at most 12 lines what the module owns; README's entry for
each module names exactly that module's ``__all__``; and no comment or
docstring under ``src/cdwtunnel`` carries a measured timing, which belongs
with its measurement in CHANGES.md.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import cdwtunnel

SRC = Path(cdwtunnel.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
MODULES = ["numerics", "potential", "wavefunctional", "tunneling", "transport", "fitting", "verify", "cli"]
SOURCES = sorted(SRC.glob("*.py"))
# a duration with its unit, the timer, or the interpreter or CPU it ran on
TIMING = re.compile(r"\d\s*(?:ns|[µμu]s|ms)\b|timeit|CPython|\bCPUs?\b|Xeon|EPYC|Ryzen")


def _module(name):
    return importlib.import_module(f"cdwtunnel.{name}")


def _prose(path):
    """(line, text) of every comment and docstring in the source file ``path``."""
    source = path.read_text(encoding="utf-8")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc


def _readme_entries():
    """{module: the bare names in backticks} of each entry under README's "What it provides"."""
    section = README.read_text(encoding="utf-8").split("\n## What it provides\n", 1)[1].split("\n## ", 1)[0]
    entries = {}
    for block in re.split(r"\n(?=- \*\*)", section):
        head = re.match(r"- \*\*(\w+)\*\*", block)
        if head:
            entry = block.split("\n\n", 1)[0]
            entries[head.group(1)] = set(re.findall(r"`([A-Za-z_]\w*)`", entry))
    return entries


@pytest.mark.parametrize("name", MODULES)
def test_every_public_callable_has_a_written_docstring(name):
    module = _module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    docs = {
        node.name: ast.get_docstring(node)
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }
    # a dataclass's generated __doc__ (its signature) does not count: the docstring is in the source
    assert [n for n in module.__all__ if callable(getattr(module, n)) and not docs.get(n)] == []


def test_readme_names_exactly_each_module_public_list():
    entries = _readme_entries()
    assert sorted(entries) == sorted(MODULES)
    for name in MODULES:
        public = set(_module(name).__all__)
        assert (sorted(public - entries[name]), sorted(entries[name] - public)) == ([], []), name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_docstring_is_at_most_12_lines(path):
    doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or ""
    assert len([line for line in doc.splitlines() if line.strip()]) <= 12


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_comment_or_docstring_carries_a_measured_timing(path):
    hits = [(line, m.group()) for line, text in _prose(path) for m in TIMING.finditer(text)]
    assert hits == []


@pytest.mark.parametrize(
    "text, timed",
    [
        ("took 1.3-1.6 us against 0.43 us", True),
        ("in 358-378 ns", True),
        ("20-25 ms of a command", True),
        ("(timeit minima; CPython 3.11, 2-CPU Xeon)", True),
        ("4 ulp of c_v, 16 ulp of their norm", False),
        ("the 12 significant digits and 2 m*", False),
    ],
)
def test_the_timing_pattern_reads_durations_not_numbers(text, timed):
    assert bool(TIMING.search(text)) is timed
