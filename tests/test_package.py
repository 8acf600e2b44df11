"""Package surface: every exported name exists."""

import spde_lab


def test_all_exports_resolve():
    missing = [name for name in spde_lab.__all__ if not hasattr(spde_lab, name)]
    assert missing == []
