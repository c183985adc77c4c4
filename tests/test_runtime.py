from toepspec.runtime import parallel_map


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert parallel_map(lambda x: -x, [3, 1]) == [-3, -1]
