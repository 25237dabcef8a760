"""Session-wide fixtures shared across test packages."""

import contextlib
import io
import pathlib

import pytest


@pytest.fixture(scope="session")
def own_source_check_cli():
    """``(exit code, stdout)`` of one ``repro check`` CLI run on src/repro.

    The whole-tree scan takes seconds, so the exit-code and output
    contract is exercised by this single run.
    """
    from repro.cli import main

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(src)])
    return code, out.getvalue()
