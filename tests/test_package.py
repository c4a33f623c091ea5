"""The package namespace: every exported name resolves."""

import pqlucas


def test_all_names_resolve():
    missing = [name for name in pqlucas.__all__ if not hasattr(pqlucas, name)]
    assert missing == []
