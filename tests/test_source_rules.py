"""Rules on the source of src/gridauth, checked by the tier-1 suite.

- It imports only itself and the standard library.
- No string literal in it holds ``\\s``, ``\\w`` or ``\\d`` (or their
  negations): both grammars are ASCII, but in a str pattern these classes
  also match Unicode spaces, letters and digits.
- It imports nothing it does not use.  Names that ``__init__`` lists in
  ``__all__`` are re-exports, and a quoted annotation counts as a use.
- Every function, class and method it defines (but dunders) is read
  outside its own definition: in src/gridauth, whose ``__init__``
  re-exports do not count, or in perfbench.  API that only tests use
  belongs under tests/.

Each file is parsed once for all the rules.  A failing rule lists each
violation as ``<path>:<line>: <what>``.

Run as a script (``python tests/test_source_rules.py``), it prints
src/gridauth's code budget instead: the lines, total and code (without
blanks, comments and docstrings), of each module and in all.
"""

from __future__ import annotations

import ast
import collections
import functools
import io
import pathlib
import re
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/gridauth"

#: an unescaped backslash class: one that an even run of backslashes precedes
_UNICODE_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\[sSwWdD]")


@functools.cache
def _modules(root: str) -> tuple:
    """``(path, text, tree)`` of each module directly under ``root``, the
    path as the repository names it."""
    modules = []
    for file in sorted((ROOT / root).glob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        text = file.read_text(encoding="utf-8")
        modules.append((path, text, ast.parse(text, path)))
    return tuple(modules)


def _report(bad: list) -> None:
    assert not bad, "\n" + "\n".join(bad)


def test_standard_library_only():
    bad = []
    for path, _, tree in _modules(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                top = name.partition(".")[0]
                if top != "gridauth" and top not in sys.stdlib_module_names:
                    bad.append(f"{path}:{node.lineno}: import {name}")
    _report(bad)


def test_ascii_only_regex_classes():
    _report([
        f"{path}:{node.lineno}: {node.value!r}"
        for path, _, tree in _modules(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _UNICODE_CLASS.search(node.value)
    ])


def test_no_unused_imports():
    bad = []
    for path, _, tree in _modules(PACKAGE):
        imported = {}  # bound name -> line of its import
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(e.value for e in node.value.elts)  # re-exported names
            # a name may be used only inside a quoted annotation
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                                if isinstance(n, ast.Name))
        bad += [f"{path}:{line}: {name} is imported but never used"
                for name, line in sorted(imported.items(), key=lambda item: item[1])
                if name not in used]
    _report(bad)


def test_no_test_only_names():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []  # (path, name, first line, last line) of each function, class and method
    used = collections.defaultdict(list)  # name -> (path, line) of each read
    for root in (PACKAGE, "perfbench"):
        for path, _, tree in _modules(root):
            for node in ast.walk(tree):
                if root == PACKAGE and isinstance(node, defs) and not node.name.startswith("__"):
                    defined.append((path, node.name, node.lineno, node.end_lineno))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.alias) and not path.endswith("/__init__.py"):
                    used[node.name].append((path, node.lineno))  # __init__ re-exports do not count
                elif (root == "perfbench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used[node.value].append((path, node.lineno))  # spans.py names methods as strings
    # a read inside the definition itself, such as a recursive call, does not count
    _report([f"{path}:{first}: {name} is used only by tests" for path, name, first, last in defined
             if all(p == path and first <= line <= last for p, line in used[name])])


def code_budget() -> list:
    """One line per module of src/gridauth, then one for the package."""
    lines, total, code = [], 0, 0
    for path, text, tree in _modules(PACKAGE):
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        tokens = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
                tokens.update(range(tok.start[0], tok.end[0] + 1))
        n, c = len(text.splitlines()), len(tokens - docstrings)
        lines.append(f"{path}: {n} lines, {c} code lines")
        total += n
        code += c
    return [*lines, f"{PACKAGE}: {total} lines, {code} code lines"]


if __name__ == "__main__":
    print("\n".join(code_budget()))
