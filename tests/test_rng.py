"""Stream-key contracts."""

from filterlab import rng


def test_tags_are_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(tags) > 1
    assert len(set(tags.values())) == len(tags), tags
