"""The docs CI gates in ``tools/`` work, and the repo passes them."""

from __future__ import annotations

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"


def run_tool(name: str, *args: str) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCheckDocstrings:
    def test_repo_passes(self):
        proc = run_tool("check_docstrings.py", str(REPO / "src"))
        assert proc.returncode == 0, proc.stderr
        assert "docstrings ok" in proc.stdout

    def test_missing_docstring_fails(self, tmp_path):
        (tmp_path / "documented.py").write_text('"""Has one."""\n')
        (tmp_path / "bare.py").write_text("x = 1\n")
        (tmp_path / "_private.py").write_text("y = 2\n")  # exempt
        proc = run_tool("check_docstrings.py", str(tmp_path))
        assert proc.returncode == 1
        assert "bare.py" in proc.stderr
        assert "_private.py" not in proc.stderr


class TestCheckCallers:
    def test_repo_passes(self):
        proc = run_tool("check_callers.py", str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert "callers ok" in proc.stdout

    def test_def_only_a_test_names_fails(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from repro.mod import only_tested\n"
            '__all__ = ["only_tested"]\n'
        )
        (package / "mod.py").write_text(
            "def used():\n    return Holder().run()\n\n"
            "def only_tested():\n    pass\n\n"
            "def from_config():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class Holder:\n"
            "    def __init__(self):\n        pass\n\n"
            "    def run(self):\n        pass\n\n"
            "    def idle(self):\n        pass\n\n"
            "@register\n"
            "class Registered:\n    pass\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from repro.mod import used\nused()\n"
        )
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "01-x.toml").write_text(
            'builder = "repro.mod:from_config"\n'
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.mod import Holder, only_tested\n"
            "only_tested()\nHolder().idle()\n"
        )
        proc = run_tool("check_callers.py", str(tmp_path))
        assert proc.returncode == 1
        flagged = [
            line.rsplit(": ", 1)[1]
            for line in proc.stderr.splitlines()[1:]
        ]
        assert flagged == ["only_tested", "Holder.idle"]

    def test_default_nothing_sets_fails(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "def used(a, by_position=1, by_keyword=2):\n    pass\n\n"
            "def spread(a, by_kwargs=0):\n    pass\n\n"
            "def bound(a, by_partial=0):\n    pass\n\n"
            "def planted(a, only_tested=0):\n    pass\n\n"
            "def from_config(quick=False):\n    pass\n\n"
            "class Holder:\n"
            "    def __init__(self, size=3):\n        pass\n\n"
            "    def run(self, step=0, unset=1):\n"
            "        def inner(depth=0):\n            pass\n"
            "        return inner()\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from functools import partial\n"
            "from repro.mod import Holder, bound, planted, spread, used\n"
            "used(0, 1)\nused(0, by_keyword=5)\nspread(0, **{})\n"
            "partial(bound, by_partial=1)\nplanted(0)\n"
            "Holder(4).run(2)\n"
        )
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "01-x.toml").write_text(
            'builder = "repro.mod:from_config"\n'
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.mod import Holder, planted\n"
            "planted(0, only_tested=1)\nHolder().run(unset=2)\n"
        )
        proc = run_tool("check_callers.py", str(tmp_path))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("defaulted parameters no call")
        flagged = [line.rsplit(": ", 1)[1] for line in lines[1:]]
        assert flagged == [
            "planted(only_tested=)", "Holder.run(unset=)",
            "Holder.run.inner(depth=)",
        ]

    @staticmethod
    def forwarding_tree(tmp_path, call):
        """``A.run`` forwards its ``until`` to ``B.run``; ``walk`` sets
        its own ``depth`` recursively; ``examples/`` calls ``call``."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "class B:\n"
            "    def run(self, until=None):\n        return until\n\n"
            "class A:\n"
            "    def __init__(self):\n        self.engine = B()\n\n"
            "    def run(self, until=None):\n"
            "        return self.engine.run(until=until)\n\n"
            "def walk(n, depth=0):\n"
            "    return depth if n == 0 else walk(n - 1, depth=depth + 1)\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            f"from repro.mod import A, walk\nwalk(3)\n{call}\n"
        )
        (tmp_path / "configs").mkdir()
        return run_tool("check_callers.py", str(tmp_path))

    def test_forwarding_and_self_calls_do_not_hide_an_unset_default(
        self, tmp_path
    ):
        proc = self.forwarding_tree(tmp_path, "A().run()")
        assert proc.returncode == 1
        flagged = [
            line.rsplit(": ", 1)[1] for line in proc.stderr.splitlines()[1:]
        ]
        assert flagged == ["B.run(until=)", "A.run(until=)", "walk(depth=)"]

    def test_forwarding_a_set_default_sets_the_callee(self, tmp_path):
        proc = self.forwarding_tree(tmp_path, "A().run(until=3)\nwalk(3, 1)")
        assert proc.returncode == 0, proc.stderr


class TestCheckLinks:
    def test_repo_passes(self):
        proc = run_tool("check_links.py", str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert "links ok" in proc.stdout

    def test_broken_link_fails(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[good](docs/real.md) [bad](docs/missing.md)\n"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "real.md").write_text("ok\n")
        proc = run_tool("check_links.py", str(tmp_path))
        assert proc.returncode == 1
        assert "missing.md" in proc.stderr
        assert "real.md" not in proc.stderr

    def test_external_and_anchor_links_are_skipped(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[web](https://example.com/x) [anchor](#section)\n"
        )
        proc = run_tool("check_links.py", str(tmp_path))
        assert proc.returncode == 0
