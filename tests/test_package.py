"""The package's public surface."""

import tropnewton


def test_every_exported_name_resolves():
    missing = [name for name in tropnewton.__all__
               if not hasattr(tropnewton, name)]
    assert missing == []
