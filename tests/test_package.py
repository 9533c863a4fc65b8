"""The package's public surface: ``zerocert.__all__`` names exactly what it exports."""

import types

import zerocert


def test_all_names_resolve_and_star_import_works():
    assert len(set(zerocert.__all__)) == len(zerocert.__all__)
    for name in zerocert.__all__:
        assert hasattr(zerocert, name), name
    namespace = {}
    exec("from zerocert import *", namespace)
    assert set(zerocert.__all__) <= set(namespace)


def test_all_lists_every_public_attribute():
    public = {
        name for name, value in vars(zerocert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(zerocert.__all__)
