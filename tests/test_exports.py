import blprs


def test_every_exported_name_resolves_once():
    names = blprs.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(blprs, n)] == []
