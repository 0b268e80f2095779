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
   ``*args`` or ``**kwargs``, or through ``functools.partial``.  Two
   rules keep forwarding from hiding an unset default:

   * a call inside a def never sets that def's own defaults;
   * ``g(x=x)``, passing the innermost enclosing def's defaulted ``x``
     on, sets ``g``'s ``x`` only once that ``x`` is itself set — a
     fixpoint, in which ``KEEP_PARAMS`` entries and the builder
     functions configs name count as set.

   The builder functions that configs name with ``builder =`` are
   exempt: the runner calls them as ``builder(quick)``.
   ``KEEP_PARAMS`` lists the rest that stay on purpose.

Both passes guard against regrowth; neither proves use.  Calls are
matched to definitions by name alone, so a definition counts as named,
and a parameter as set, when *any* reference or call anywhere shares
the name (``reset``, ``clear``, ``run`` and the like), whether or not
it reaches that definition.  For example, ``Engine.run(until=)`` counts
as set because ``machine.run(program)`` passes ``Machine.run`` one
positional argument, and a name cannot tell the two ``run`` apart.

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


def _defs(node, prefix="", class_name=None):
    """``(def node, qualified name, enclosing class name or None)`` of
    every def under ``node``, outer defs first."""
    for item in ast.iter_child_nodes(node):
        if isinstance(item, ast.ClassDef):
            yield from _defs(item, f"{prefix}{item.name}.", item.name)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = f"{prefix}{item.name}"
            yield item, qualified, class_name
            yield from _defs(item, f"{qualified}.")
        else:
            yield from _defs(item, prefix, class_name)


def _defaulted(fn: ast.AST) -> list:
    """``(param, index)`` of ``fn``'s defaulted parameters; ``index`` is
    the parameter's position, ``None`` for a keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [
        (positional[index].arg, index)
        for index in range(first, len(positional))
    ] + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def defaulted_parameters(root: pathlib.Path) -> list:
    """``(path, line, qualified name, call name, param, index)`` of every
    defaulted parameter under ``src/repro``, ``path`` relative to
    ``root``.

    ``index`` is the position a call's arguments fill (``self`` not
    counted), ``None`` for a keyword-only parameter; the call name of
    an ``__init__`` is its class's.
    """
    found = []
    for path in sorted((root / "src/repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, qualified, class_name in _defs(tree):
            decorators = {
                getattr(d, "id", getattr(d, "attr", None))
                for d in fn.decorator_list
            }
            offset = (
                1 if class_name and "staticmethod" not in decorators else 0
            )
            call = class_name if fn.name == "__init__" else fn.name
            for param, index in _defaulted(fn):
                found.append((
                    path.relative_to(root), fn.lineno, qualified, call, param,
                    None if index is None else index - offset,
                ))
    return found


def _callee(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls_outside_tests(root: pathlib.Path) -> dict:
    """``{call name: [(positions filled, keywords, *args?, **kwargs?,
    inside, forwards), ...]}`` over every call outside ``tests/``,
    ``functools.partial`` included.

    ``inside`` holds the ``(path, qualified name)`` of every def around
    the call.  ``forwards`` maps each keyword whose value is a
    defaulted parameter of the innermost such def to ``(path,
    qualified name, param)``.
    """
    calls = {}

    def scan(node, path, inside, defaults):
        for child in ast.iter_child_nodes(node):
            qualified = qualified_of.get(id(child))
            if qualified is not None:
                scan(child, path, inside | {(path, qualified)},
                     {param: (path, qualified, param)
                      for param, _index in _defaulted(child)})
                continue
            if isinstance(child, ast.Call):
                record(child, inside, defaults)
            scan(child, path, inside, defaults)

    def record(node, inside, defaults):
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name is None:
            return
        calls.setdefault(name, []).append((
            sum(not isinstance(a, ast.Starred) for a in args),
            frozenset(k.arg for k in node.keywords if k.arg),
            any(isinstance(a, ast.Starred) for a in args),
            any(k.arg is None for k in node.keywords),
            inside,
            {
                k.arg: defaults[k.value.id]
                for k in node.keywords
                if k.arg and isinstance(k.value, ast.Name)
                and k.value.id in defaults
            },
        ))

    for directory in NAMING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            qualified_of = {
                id(fn): qualified for fn, qualified, _class in _defs(tree)
            }
            scan(tree, path.relative_to(root), frozenset(), {})
    return calls


def unset_parameters(root: pathlib.Path) -> list:
    """``(path, line, qualified(param=))`` of defaults no call sets."""
    calls = calls_outside_tests(root)
    builders = set()
    for path in sorted((root / "configs").glob("*.toml")):
        for module, function in BUILDER_RE.findall(path.read_text()):
            builders.add((module.replace(".", "/") + ".py", function))
    params = defaulted_parameters(root)
    checked = {(path, qualified, param)
               for path, _line, qualified, _call, param, _index in params}
    # Set so far: KEEP_PARAMS entries and builder parameters, then every
    # parameter some call sets, until a pass adds none.
    is_set = {
        (path, qualified, param)
        for path, _line, qualified, _call, param, _index in params
        if f"{qualified}({param}=)" in KEEP_PARAMS
        or (str(path.relative_to("src")), qualified) in builders
    }

    def sets(call, param, index) -> bool:
        positions, keywords, star, kwargs, _inside, forwards = call
        if kwargs or (index is not None and (index < positions or star)):
            return True
        if param not in keywords:
            return False
        source = forwards.get(param)
        return source is None or source not in checked or source in is_set

    changed = True
    while changed:
        changed = False
        for path, _line, qualified, call_name, param, index in params:
            key = (path, qualified, param)
            if key not in is_set and any(
                (path, qualified) not in call[4] and sets(call, param, index)
                for call in calls.get(call_name, ())
            ):
                is_set.add(key)
                changed = True
    return [
        (path, line, f"{qualified}({param}=)")
        for path, line, qualified, _call, param, _index in params
        if (path, qualified, param) not in is_set
    ]


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
