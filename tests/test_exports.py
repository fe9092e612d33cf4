"""The package's public names."""

import fuzzyrel


def test_no_export_is_listed_twice():
    assert len(set(fuzzyrel.__all__)) == len(fuzzyrel.__all__)


def test_every_export_resolves():
    assert [name for name in fuzzyrel.__all__ if not hasattr(fuzzyrel, name)] == []


def test_folded_records_are_not_exported():
    for name in ("ProximityMatrix", "AttributeConfig"):
        assert name not in fuzzyrel.__all__
        assert not hasattr(fuzzyrel, name)
