"""The package's exported names."""

from __future__ import annotations

import diamaug


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry would make ``from diamaug import *`` raise
    missing = [name for name in diamaug.__all__ if not hasattr(diamaug, name)]
    assert missing == []
