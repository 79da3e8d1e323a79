"""The package surface: the export list in rigidity/__init__.py is sound."""

from collections import Counter

import rigidity


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from rigidity import *", namespace)
    assert set(rigidity.__all__) <= set(namespace)


def test_export_list_has_no_duplicates():
    repeated = [name for name, n in Counter(rigidity.__all__).items() if n > 1]
    assert repeated == []


def test_every_export_resolves_on_the_package():
    missing = [name for name in rigidity.__all__ if not hasattr(rigidity, name)]
    assert missing == []
