"""The package's public surface."""

import subprocess
import sys
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


def test_import_loads_no_dataclasses_or_inspect():
    # every command is a fresh process, which pays for each module the
    # package imports; dataclasses alone brings in inspect, ast, dis and
    # tokenize, about 1 MB of resident memory that nothing here needs
    src = Path(ncfsieve.__file__).resolve().parent.parent
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import ncfsieve.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
