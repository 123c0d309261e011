import os
import random
from pathlib import Path

import pytest

from betaprefix import BetaContext

# Some tests run ``python -m betaprefix`` in a subprocess; let it import the
# package from this checkout, as pytest's ``pythonpath`` setting does for the
# test process itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return random.Random(0xBE7A)


def make_ctx(beta, **kw):
    return BetaContext(beta, **kw)


@pytest.fixture
def ctx15():
    return BetaContext("1.5")
