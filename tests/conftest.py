import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from morphlab import polytools


@pytest.fixture
def sign_counts(monkeypatch):
    """A one-element list counting the Sturm sign-variation counts
    (polytools.sign_variations calls) made while the test runs."""
    calls = [0]
    inner = polytools.sign_variations

    def counted(chain, x):
        calls[0] += 1
        return inner(chain, x)

    monkeypatch.setattr(polytools, "sign_variations", counted)
    return calls
