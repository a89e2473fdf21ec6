"""The package version is declared in two files, and they must agree."""

from __future__ import annotations

import re
from pathlib import Path

import repro


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is missing on Python 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)
