"""Every dotted ``module.name`` and ``Class.attr`` the prose names must exist.

README.md and the docstrings, comments and messages of ``src/exchkit`` name
private helpers such as ``measures._marginal`` or
``represent._grid_mixture``, and members of public classes such as
``ExchangeableLaw.weights``; a rename that misses one of them leaves a
stale name that no other test sees.  perfbench/README.md documents the
benchmark and is left out.
"""

import dataclasses
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


PUBLIC = importlib.import_module("exchkit")
CLASSES = {
    name: getattr(PUBLIC, name)
    for name in PUBLIC.__all__
    if isinstance(getattr(PUBLIC, name), type)
}
# ``SymmetricFunction.value`` or ``measures.ExchangeableLaw.weights``, but
# not ``self.law.weights`` or a longer class name that ends in one of these
ATTRIBUTE = re.compile(r"(?<!\w)(%s)\.([A-Za-z_]\w*)" % "|".join(CLASSES))


def _references(pattern=REFERENCE) -> set[tuple[str, str]]:
    refs = set()
    for path in (ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))):
        refs.update(pattern.findall(path.read_text(encoding="utf-8")))
    return refs


def _has_attribute(cls: type, name: str) -> bool:
    """``cls.name`` exists, counting a dataclass field without a default,
    which is an attribute of instances only."""
    if hasattr(cls, name):
        return True
    return dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)}


def test_dotted_references_resolve():
    refs = _references()
    assert len(refs) >= 10  # the pattern still finds the references
    missing = sorted(
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"exchkit.{module}"), name)
    )
    assert not missing, f"stale references: {missing}"


def test_class_attribute_references_resolve():
    refs = _references(ATTRIBUTE)
    assert len(refs) >= 10  # the pattern still finds the references
    missing = sorted(
        f"{cls}.{name}" for cls, name in refs if not _has_attribute(CLASSES[cls], name)
    )
    assert not missing, f"stale references: {missing}"


def test_attribute_pattern():
    found = ATTRIBUTE.findall(
        "``SymmetricFunction.value``, :attr:`~exchkit.measures.ExchangeableLaw.weights`, "
        "self.law.weights, MyExchangeableLaw.weights"
    )
    assert found == [("SymmetricFunction", "value"), ("ExchangeableLaw", "weights")]
    assert _has_attribute(CLASSES["ExchangeableLaw"], "weights")
    assert not _has_attribute(CLASSES["SymmetricFunction"], "from_values")


def test_reference_pattern():
    found = REFERENCE.findall(
        "``measures._marginal``, :func:`~exchkit.represent._grid_mixture`, "
        "measures.py, self.cli.main, exchkit.ratlp"
    )
    assert found == [("measures", "_marginal"), ("represent", "_grid_mixture")]
