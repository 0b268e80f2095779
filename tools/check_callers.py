#!/usr/bin/env python3
"""CI gate: every public definition under ``src/repro`` is named outside tests.

Lists the public top-level functions and classes, and the public
methods of top-level classes, defined under ``src/repro``; a name is
public when it does not start with an underscore.  Each must be named
somewhere outside ``tests/``: as an ``ast.Name`` or ``ast.Attribute`` in
a module under ``src/repro``, ``examples/``, ``tools/``, ``perfbench/``
or ``benchmarks/``, or as a word in ``configs/*.toml`` (where builder
configs name their functions).  Import statements and ``__all__``
strings are not names, so a package ``__init__.py`` re-export does not
count.  Dunders are exempt, and so are decorated classes, which the
algorithm registry reaches.  ``KEEP`` lists the rest that stay on
purpose.

The check guards against regrowth; it does not prove that a name is
used.  A definition counts as named when *any* attribute or variable
anywhere shares its name (``reset``, ``clear``, ``route`` and the
like), whether or not that reference reaches it.

Run:  python tools/check_callers.py [repo-root]
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

#: Directories (relative to the repo root) whose Python names count.
NAMING_DIRS = ("src/repro", "examples", "tools", "perfbench", "benchmarks")

#: Public definitions that only tests name, kept on purpose, with why:
#: dropping them would make tests re-implement them.
KEEP = {
    "LinearArray": (
        "the 1-D test topology behind the line_machine fixture, which 17 "
        "test modules use for hand-computable hop counts and timings"
    ),
    "list_algorithms": "tests enumerate the algorithm registry through it",
}

WORD_RE = re.compile(r"\w+")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(src: pathlib.Path) -> list:
    """``(path, line, qualified name, name)`` of every checked definition."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name):
                    found.append((path, node.lineno, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                if _is_public(node.name) and not node.decorator_list:
                    found.append((path, node.lineno, node.name, node.name))
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _is_public(item.name):
                        found.append((
                            path, item.lineno,
                            f"{node.name}.{item.name}", item.name,
                        ))
    return found


def names_outside_tests(root: pathlib.Path) -> set:
    """Every name and attribute used outside ``tests/``, plus config words."""
    names = set()
    for directory in NAMING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    for path in sorted((root / "configs").glob("*.toml")):
        names.update(WORD_RE.findall(path.read_text()))
    return names


def unnamed_definitions(root: pathlib.Path) -> list:
    """``(path, line, qualified name)`` of definitions only tests name."""
    named = names_outside_tests(root) | set(KEEP)
    definitions = public_definitions(root / "src/repro")
    return [
        (path.relative_to(root), line, qualified)
        for path, line, qualified, name in definitions
        if name not in named
    ]


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(".")
    if not (root / "src/repro").is_dir():
        print(f"error: no src/repro under {root}", file=sys.stderr)
        return 2
    unnamed = unnamed_definitions(root)
    if unnamed:
        print(
            "public definitions no module outside tests/ names "
            "(delete them, or add them to KEEP with a reason):",
            file=sys.stderr,
        )
        for path, line, qualified in unnamed:
            print(f"  {path}:{line}: {qualified}", file=sys.stderr)
        return 1
    print("callers ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
