"""The package's public names."""

import maxsurf


def test_every_public_name_resolves_and_star_import_binds_it():
    names = maxsurf.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(maxsurf, name)] == []
    namespace = {}
    exec("from maxsurf import *", namespace)
    assert [name for name in names
            if namespace.get(name) is not getattr(maxsurf, name)] == []
