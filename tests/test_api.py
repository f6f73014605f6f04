import qgraph as qg


def test_public_names_resolve_and_are_unique():
    assert len(qg.__all__) == len(set(qg.__all__))
    assert [name for name in qg.__all__ if not hasattr(qg, name)] == []
