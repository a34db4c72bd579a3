"""The docs name only what exists.

Every backticked ``repro.…`` dotted name in README.md, DESIGN.md and
EXPERIMENTS.md must import (its longest module prefix) and resolve
attribute by attribute; every backticked ``src/``, ``tests/`` or
``benchmarks/`` path (up to a ``::`` test id or a ``[…]`` parameter)
must match a file or directory.
"""

import glob
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _spans():
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            yield doc, span


NAMES = sorted({
    (doc, m.group(0)) for doc, span in _spans()
    if (m := re.match(r"repro(?:\.[A-Za-z_]\w*)+", span))
})
PATHS = sorted({
    (doc, m.group(0)) for doc, span in _spans()
    if (m := re.match(r"(?:src|tests|benchmarks)/[^\s:`()\[,]*", span))
})


def resolve(name: str):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_dotted_names_resolve():
    bad = []
    for doc, name in NAMES:
        try:
            resolve(name)
        except (ImportError, AttributeError) as err:
            bad.append(f"{doc}: `{name}` ({err})")
    assert NAMES
    assert not bad, "\n".join(bad)


def test_paths_exist():
    bad = [f"{doc}: `{path}`" for doc, path in PATHS if not glob.glob(str(ROOT / path))]
    assert PATHS
    assert not bad, "\n".join(bad)
