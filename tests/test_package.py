"""The package's public surface."""

from pathlib import Path

import ncfsieve


def test_all_names_resolve_once():
    # a name left in __all__ after its definition is deleted fails here,
    # not at a user's `from ncfsieve import *`
    names = ncfsieve.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(ncfsieve, name)]
    assert missing == []


def test_no_module_reads_the_environment():
    # every bound is a fixed constant of sieving.ROUTES; no knob lifts one
    readers = [
        path.name
        for path in sorted(Path(ncfsieve.__file__).parent.glob("*.py"))
        if "environ" in (text := path.read_text()) or "getenv" in text
    ]
    assert readers == []
