import cmtrf


def test_every_exported_name_resolves():
    missing = [name for name in cmtrf.__all__ if not hasattr(cmtrf, name)]
    assert missing == []
