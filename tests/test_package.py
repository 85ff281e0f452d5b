"""The package's public surface."""

import qforage


def test_every_exported_name_resolves():
    assert [name for name in qforage.__all__ if not hasattr(qforage, name)] == []
