"""Guards for the strict-typing surface: annotations, py.typed, packaging.

mypy and ruff are dev-requirements that may be absent in a minimal runtime
environment, so the tests that invoke them skip when the tool is not
importable (CI installs requirements-dev.txt and runs them for real).  The
annotation-completeness check needs only the stdlib ``ast`` module and always
runs: it pins the strict-typing sweep so an unannotated signature cannot land
even where mypy is unavailable.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

HAS_MYPY = importlib.util.find_spec("mypy") is not None
HAS_RUFF = importlib.util.find_spec("ruff") is not None
HAS_TOMLLIB = sys.version_info >= (3, 11)


def unannotated_signatures() -> list[str]:
    """Every function parameter / return in src/repro missing an annotation."""
    missing: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(REPO_ROOT).as_posix()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            ordered = args.posonlyargs + args.args + args.kwonlyargs
            for index, arg in enumerate(ordered):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(f"{rel}:{node.lineno} parameter {arg.arg!r} of {node.name}")
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None and vararg.annotation is None:
                    missing.append(f"{rel}:{node.lineno} *{vararg.arg} of {node.name}")
            if node.returns is None:
                missing.append(f"{rel}:{node.lineno} return type of {node.name}")
    return missing


class TestAnnotationCompleteness:
    def test_every_signature_in_src_repro_is_annotated(self):
        missing = unannotated_signatures()
        assert missing == [], "\n".join(missing)


class TestTypingPackaging:
    def test_py_typed_marker_exists(self):
        assert (SRC / "py.typed").is_file()

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib requires Python >= 3.11")
    def test_pyproject_ships_marker_and_lint_script(self):
        import tomllib

        payload = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert payload["project"]["scripts"]["hydra-lint"] == "repro.lint.cli:main"
        assert "py.typed" in payload["tool"]["setuptools"]["package-data"]["repro"]

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib requires Python >= 3.11")
    def test_mypy_config_is_strict(self):
        import tomllib

        payload = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        mypy = payload["tool"]["mypy"]
        assert mypy["strict"] is True
        assert mypy["packages"] == ["repro"]
        overridden = set()
        for override in payload["tool"]["mypy"]["overrides"]:
            overridden.update(override["module"])
        assert {"scipy.*", "networkx.*"} <= overridden


class TestCheckerRunners:
    @pytest.mark.skipif(not HAS_MYPY, reason="mypy not installed (CI runs it)")
    def test_mypy_strict_passes(self):
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.skipif(not HAS_RUFF, reason="ruff not installed (CI runs it)")
    def test_ruff_check_passes(self):
        result = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "."],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
