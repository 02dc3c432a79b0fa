"""The resource cap and its environment variable."""

import pytest

from exchkit.caps import DEFAULT_RESOURCE_CAP, resource_cap
from exchkit.errors import InputError


def test_cap_variable_takes_ascii_digits_only(monkeypatch):
    monkeypatch.delenv("EXCHKIT_CAP", raising=False)
    assert resource_cap() == DEFAULT_RESOURCE_CAP
    monkeypatch.setenv("EXCHKIT_CAP", "50")
    assert resource_cap() == 50
    # int() would read each of the first six as a number
    for raw in (" 5_0 ", "5_0", "+50", " 50", "50\n", "\u0665\u0660", "", "5e1", "0x32"):
        monkeypatch.setenv("EXCHKIT_CAP", raw)
        with pytest.raises(InputError, match="^EXCHKIT_CAP: bad integer string"):
            resource_cap()
    for raw in ("0", "-3"):
        monkeypatch.setenv("EXCHKIT_CAP", raw)
        with pytest.raises(InputError, match="^EXCHKIT_CAP: must be positive"):
            resource_cap()
