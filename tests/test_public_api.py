import disagg


def test_all_is_sorted_unique_and_resolves():
    names = disagg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(disagg, name), name
