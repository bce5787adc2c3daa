import earlab


def test_every_export_resolves_once():
    names = earlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(earlab, name)]
    assert missing == []
    # obstruction names are KernelObstruction.pattern, not tables of their own
    for gone in ("extend_obstruction", "restrict_obstruction"):
        assert gone not in names
        assert not hasattr(earlab, gone)
