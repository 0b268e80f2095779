#!/usr/bin/env python3
"""CI gate: nothing under ``src/repro`` exists only for ``tests/``.

Two passes over the code outside ``tests/`` — the modules under
``src/repro``, ``examples/``, ``tools/``, ``perfbench/`` and
``benchmarks/``, and ``configs/*.toml``:

1. **Names.**  Lists the public top-level functions and classes, and
   the public methods of top-level classes, defined under
   ``src/repro``; a name is public when it does not start with an
   underscore.  Each must be named outside ``tests/``: as an
   ``ast.Name`` or ``ast.Attribute`` in one of those modules, or as a
   word in ``configs/*.toml`` (where builder configs name their
   functions).  Import statements and ``__all__`` strings are not
   names, so a package ``__init__.py`` re-export does not count.
   Dunders are exempt, and so are decorated classes, which the
   algorithm registry reaches.  ``KEEP`` lists the rest that stay on
   purpose.
2. **Defaults.**  Every defaulted parameter of every ``def`` under
   ``src/repro`` (methods and nested functions included) must be set
   by some call outside ``tests/``: by keyword, by position (after
   ``self`` for a method; a class call sets its ``__init__``), through
   ``*args`` or ``**kwargs``, or through ``functools.partial``.  The
   builder functions that configs name with ``builder =`` are exempt:
   the runner calls them as ``builder(quick)``.  ``KEEP_PARAMS`` lists
   the rest that stay on purpose.

Both passes guard against regrowth; neither proves use.  Calls are
matched to definitions by name alone, so a definition counts as named,
and a parameter as set, when *any* reference or call anywhere shares
the name (``reset``, ``clear``, ``run`` and the like), whether or not
it reaches that definition.

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
    "route_nodes": (
        "the node view of the one dimension order each topology writes; "
        "tests hold the closed-form distance and the hop-by-hop reference "
        "routes to it"
    ),
}

#: Defaulted parameters that no call outside tests sets, kept on
#: purpose, with why.  Keyed ``qualified.name(param=)``.
KEEP_PARAMS = {
    "Tracer.__init__(limit=)": (
        "a safety cap on a trace's memory; tests exercise truncation"
    ),
    "FaultyIO.__init__(sleep=)": (
        "a fake clock, so tests of stall faults do not sleep"
    ),
    "ResultCache.gc_stale_tmp(max_age_s=)": (
        "temp-file garbage collection; tests force an age"
    ),
    "ReliableComm.__init__(timeout_us=)": (
        "failure detection: tests shorten the ACK budget to force retries"
    ),
    "ReliableComm.__init__(max_retries=)": (
        "failure detection: tests set the retries before a peer is "
        "presumed failed"
    ),
    "ReliableComm.__init__(backoff_factor=)": (
        "failure detection: the budget's growth per retry, tuned with the "
        "other two; tests check its validation"
    ),
    "predict_broadcast_time(seed=)": (
        "the oracle's T3D-mapping input, which the differential grid passes"
    ),
    "hypercube(params=)": (
        "set through the functools.partial factory in machine_from_spec"
    ),
    "run_experiment(quick=)": (
        "set through pytest-benchmark's kwargs in benchmarks/conftest.py"
    ),
}

WORD_RE = re.compile(r"\w+")
BUILDER_RE = re.compile(r'^builder\s*=\s*"([\w.]+):(\w+)"', re.MULTILINE)


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


def defaulted_parameters(src: pathlib.Path) -> list:
    """``(path, line, qualified name, call name, param, index)`` of every
    defaulted parameter under ``src``.

    ``index`` is the position a call's arguments fill (``self`` not
    counted), ``None`` for a keyword-only parameter; the call name of
    an ``__init__`` is its class's.
    """
    found = []

    def visit(node, path, prefix, in_class, class_name):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, path, f"{prefix}{item.name}.", True, item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{prefix}{item.name}"
                decorators = {
                    getattr(d, "id", getattr(d, "attr", None))
                    for d in item.decorator_list
                }
                static = "staticmethod" in decorators
                offset = 1 if in_class and not static else 0
                call = class_name if item.name == "__init__" else item.name
                args = item.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((path, item.lineno, qualified, call,
                                  positional[index].arg, index - offset))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((path, item.lineno, qualified, call,
                                      arg.arg, None))
                visit(item, path, f"{qualified}.", False, None)
            else:
                visit(item, path, prefix, in_class, class_name)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "",
              False, None)
    return found


def _callee(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls_outside_tests(root: pathlib.Path) -> dict:
    """``{call name: (positions filled, keywords, *args?, **kwargs?)}``
    over every call outside ``tests/``, ``functools.partial`` included."""
    calls = {}
    for directory in NAMING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                if name is None:
                    continue
                positions, keywords, star, kwargs = calls.get(
                    name, (0, frozenset(), False, False)
                )
                calls[name] = (
                    max(positions, sum(
                        not isinstance(a, ast.Starred) for a in args
                    )),
                    keywords | {k.arg for k in node.keywords if k.arg},
                    star or any(isinstance(a, ast.Starred) for a in args),
                    kwargs or any(k.arg is None for k in node.keywords),
                )
    return calls


def unset_parameters(root: pathlib.Path) -> list:
    """``(path, line, qualified(param=))`` of defaults no call sets."""
    calls = calls_outside_tests(root)
    builders = set()
    for path in sorted((root / "configs").glob("*.toml")):
        for module, function in BUILDER_RE.findall(path.read_text()):
            builders.add((module.replace(".", "/") + ".py", function))
    unset = []
    for path, line, qualified, call, param, index in defaulted_parameters(
        root / "src/repro"
    ):
        relative = path.relative_to(root)
        label = f"{qualified}({param}=)"
        if (str(relative.relative_to("src")), qualified) in builders:
            continue
        positions, keywords, star, kwargs = calls.get(
            call, (0, frozenset(), False, False)
        )
        by_position = index is not None and (index < positions or star)
        if param in keywords or kwargs or by_position:
            continue
        if label not in KEEP_PARAMS:
            unset.append((relative, line, label))
    return unset


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(".")
    if not (root / "src/repro").is_dir():
        print(f"error: no src/repro under {root}", file=sys.stderr)
        return 2
    failed = False
    for found, message in (
        (unnamed_definitions(root),
         "public definitions no module outside tests/ names "
         "(delete them, or add them to KEEP with a reason):"),
        (unset_parameters(root),
         "defaulted parameters no call outside tests/ sets "
         "(make them constants, or add them to KEEP_PARAMS with a reason):"),
    ):
        if found:
            failed = True
            print(message, file=sys.stderr)
            for path, line, qualified in found:
                print(f"  {path}:{line}: {qualified}", file=sys.stderr)
    if failed:
        return 1
    print("callers ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
