import sys
from pathlib import Path

import pytest

import qflab as qf


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_is_the_package_version():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert meta["project"]["version"] == qf.__version__
