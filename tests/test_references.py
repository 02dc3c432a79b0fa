"""Every dotted ``module.name`` the prose names must exist.

README.md and the docstrings and comments of ``src/exchkit`` name private
helpers such as ``measures._marginal`` or ``represent._grid_mixture``; a
rename that misses one of them leaves a stale name that no other test sees.
perfbench/README.md documents the benchmark and is left out.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exchkit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
# ``measures._marginal`` or ``exchkit.measures._marginal``, but not a
# file name (``measures.py``) or an attribute of something else (``self.cli.x``)
REFERENCE = re.compile(
    r"(?<![\w.])(?:exchkit\.)?(%s)\.(?!py\b)([A-Za-z_]\w*)" % "|".join(MODULES)
)


def _references() -> set[tuple[str, str]]:
    refs = set()
    for path in (ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))):
        refs.update(REFERENCE.findall(path.read_text(encoding="utf-8")))
    return refs


def test_dotted_references_resolve():
    refs = _references()
    assert len(refs) >= 10  # the pattern still finds the references
    missing = sorted(
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"exchkit.{module}"), name)
    )
    assert not missing, f"stale references: {missing}"


def test_reference_pattern():
    found = REFERENCE.findall(
        "``measures._marginal``, :func:`~exchkit.represent._grid_mixture`, "
        "measures.py, self.cli.main, exchkit.ratlp"
    )
    assert found == [("measures", "_marginal"), ("represent", "_grid_mixture")]
