"""Every test starts with exchkit's memo caches empty.

The caches (urn columns, count-pattern inversion tables, type lists, the
last optimal tableau of each total-variation program) live for the whole
process, so without this a cap or cache test, or a count of pivots, would
pass or fail by which tests ran before it.  The benchmark empties them the same way
before each pass.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _empty_memo_caches():
    """Empty every functools memo cache in exchkit's modules."""
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "exchkit" or key.startswith("exchkit.")):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
