"""The package's public surface."""

import ncfsieve


def test_all_names_resolve_once():
    # a name left in __all__ after its definition is deleted fails here,
    # not at a user's `from ncfsieve import *`
    names = ncfsieve.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(ncfsieve, name)]
    assert missing == []
