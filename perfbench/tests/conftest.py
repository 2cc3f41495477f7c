import argparse
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from run import MZ_MODULES  # noqa: E402


@pytest.fixture(scope="session")
def mz_modules():
    return {name: importlib.import_module(f"mahlerzeta.{name}") for name in MZ_MODULES}


@pytest.fixture(scope="session")
def mz(mz_modules):
    return argparse.Namespace(**mz_modules)
