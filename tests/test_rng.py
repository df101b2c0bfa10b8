import pytest

from degtree import RandomSource


def test_same_seed_same_stream():
    a = RandomSource(123)
    b = RandomSource(123)
    assert [a.next_below(10) for _ in range(200)] == [
        b.next_below(10) for _ in range(200)
    ]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.next_below(100) for _ in range(50)] != [
        b.next_below(100) for _ in range(50)
    ]


def test_draws_stay_in_range():
    source = RandomSource(99)
    for bound in (1, 2, 3, 7, 100, 12345):
        draws = [source.next_below(bound) for _ in range(300)]
        assert all(0 <= d < bound for d in draws)
    assert all(RandomSource(5).next_below(1) == 0 for _ in range(10))


def test_invalid_bound():
    source = RandomSource(0)
    with pytest.raises(ValueError):
        source.next_below(0)
    with pytest.raises(ValueError):
        source.next_below(-4)


def test_entropy_seed_is_recorded():
    a = RandomSource()
    b = RandomSource()
    assert 0 <= a.seed < 2**64
    assert a.seed != b.seed  # 2**-64 collision chance
    replay = RandomSource(a.seed)
    assert [a.next_below(50) for _ in range(20)] == [
        replay.next_below(50) for _ in range(20)
    ]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # masking would silently replay another seed's stream
    with pytest.raises(ValueError, match=r"2\*\*64"):
        RandomSource(seed)


def test_batch_words_match_scalar_words():
    scalar = RandomSource(77)
    batched = RandomSource(77)
    expected = [scalar.next_word() for _ in range(64)]
    assert batched.next_words(64).tolist() == expected

    # interleaving scalar and batch calls keeps one stream
    scalar = RandomSource(31)
    mixed = RandomSource(31)
    expected = [scalar.next_word() for _ in range(15)]
    got = [mixed.next_word() for _ in range(3)]
    got += mixed.next_words(10).tolist()
    got += [mixed.next_word() for _ in range(2)]
    assert got == expected


def test_rewind_unconsumes_a_batch():
    source = RandomSource(5)
    words = source.next_words(10).tolist()
    source.rewind(10)
    assert [source.next_word() for _ in range(10)] == words
    with pytest.raises(ValueError):
        source.rewind(11)
    with pytest.raises(ValueError):
        source.rewind(-1)


def test_rejection_discards_top_words():
    # 2**64 mod 3 == 1, so the largest word is the single rejected value
    # for bound 3; a scripted source must skip it and use the next word.
    class Scripted(RandomSource):
        def __init__(self, words):
            super().__init__(0)
            self._script = list(words)

        def next_word(self):
            return self._script.pop(0)

    source = Scripted([2**64 - 1, 5])
    assert source.next_below(3) == 5 % 3
    assert source._script == []  # both words consumed


def test_next_below_roughly_uniform():
    source = RandomSource(2024)
    buckets = [0, 0, 0, 0]
    n = 12000
    for _ in range(n):
        buckets[source.next_below(4)] += 1
    expected = n / 4
    chi_square = sum((b - expected) ** 2 / expected for b in buckets)
    # 0.999 quantile of chi-square with 3 degrees of freedom
    assert chi_square < 16.27, buckets
