"""The package exports only what the library reads or the paper defines:
every name in ``duotoc.__all__`` is read somewhere in ``src/duotoc`` or is
listed under "Paper content" in the README."""

import ast
import os
import re

import duotoc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "duotoc")


def _library_reads() -> set:
    """Every name that a module of src/duotoc other than __init__.py loads,
    as a bare name or an attribute, outside the body of the function or
    class that defines it; imports, definitions and the string entries of
    ``__all__`` are no reads."""
    reads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                visit(ast.parse(fh.read()), frozenset())
    return reads


def _paper_content() -> set:
    """The names in backquotes in the README's "Paper content" section."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = re.search(r"^### Paper content\n(.*?)(?=^#)", text, re.M | re.S)
    assert section, "README.md has no '### Paper content' section"
    return set(re.findall(r"`(\w+)`", section.group(1)))


def test_every_export_has_a_reader_or_is_paper_content():
    reads, paper = _library_reads(), _paper_content()
    unread = sorted(name for name in duotoc.__all__
                    if name not in reads and name not in paper)
    assert unread == [], f"exported, read nowhere in src/duotoc, not paper content: {unread}"


def test_paper_content_names_are_exported():
    stale = sorted(_paper_content() - set(duotoc.__all__))
    assert stale == [], f"README paper content names no export: {stale}"


def test_oracle_imports_only_the_gate_and_the_input_rules():
    """The oracle is the ground truth, so it shares no code with the
    transfer side beyond the gate: of the package it imports ``gates`` and
    ``opalg`` alone."""
    with open(os.path.join(SRC, "oracle.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import ..., or from . import x
                imported |= ({node.module} if node.module
                             else {alias.name for alias in node.names})
            elif node.module.split(".")[0] == "duotoc":
                imported.add(node.module.partition(".")[2] or "duotoc")
        elif isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[2] or "duotoc"
                         for alias in node.names
                         if alias.name.split(".")[0] == "duotoc"}
    assert imported <= {"gates", "opalg"}, sorted(imported)
    assert imported, "oracle.py imports nothing of the package?"
