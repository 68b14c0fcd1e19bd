"""The package's public names: ``__all__`` lists what a star-import binds."""

import scgarch


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from scgarch import *", namespace)
    assert [name for name in scgarch.__all__ if name not in namespace] == []


def test_all_is_sorted_without_repeats():
    assert scgarch.__all__ == sorted(set(scgarch.__all__))
