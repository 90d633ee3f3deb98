import pytest

from serieswitness.spaces import FiniteSupportVector, SpaceSpec


def test_invalid_spaces():
    with pytest.raises(ValueError):
        SpaceSpec("euclidean")


def test_stored_entries_are_never_zero():
    with pytest.raises(ValueError):
        FiniteSupportVector(((1, 0.0),))
