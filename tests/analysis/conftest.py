"""Fixtures shared by the analysis tests."""

import contextlib
import io
import os

import pytest

from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture(scope="session")
def src_lint_via_cli():
    """``repro lint src`` with every rule, run once per session:
    ``(exit code, stdout)``.  Linting all of ``src`` takes seconds, and
    two tests assert on it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", os.path.join(REPO_ROOT, "src")])
    return code, out.getvalue()
