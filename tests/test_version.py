from pathlib import Path

import pytest

import symvar


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert symvar.__version__ == tomllib.load(fh)["project"]["version"]
