"""The package's public surface."""

import types
from pathlib import Path

import qforage


def test_every_exported_name_resolves():
    assert [name for name in qforage.__all__ if not hasattr(qforage, name)] == []


def test_root_exports_its_modules_and_nothing_else():
    package = Path(qforage.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if not path.stem.startswith("_"))
    exported = sorted(name for name in qforage.__all__ if name != "__version__")
    assert exported == modules
    assert "__version__" in qforage.__all__
    assert all(isinstance(getattr(qforage, name), types.ModuleType) for name in exported)
