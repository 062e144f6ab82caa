"""Tests for seeded RNG streams."""

from repro.sim.rng import RngStream, SeedSequenceFactory


def test_same_seed_same_stream_reproduces():
    a = RngStream(42, "video")
    b = RngStream(42, "video")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    a = RngStream(42, "video")
    b = RngStream(42, "network")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RngStream(1, "x")
    b = RngStream(2, "x")
    assert a.random() != b.random()


def test_factory_caches_streams():
    factory = SeedSequenceFactory(7)
    assert factory.stream("a") is factory.stream("a")


def test_factory_fork_is_independent():
    factory = SeedSequenceFactory(7)
    fork = factory.fork("salt")
    assert factory.stream("a").random() != fork.stream("a").random()


def test_adding_stream_does_not_perturb_others():
    """Drawing from one stream must not change another's sequence."""
    f1 = SeedSequenceFactory(9)
    seq_before = [f1.stream("main").random() for _ in range(5)]

    f2 = SeedSequenceFactory(9)
    _ = [f2.stream("other").random() for _ in range(100)]
    seq_after = [f2.stream("main").random() for _ in range(5)]
    assert seq_before == seq_after


def test_distribution_helpers_cover_ranges():
    rng = RngStream(3, "dist")
    assert 0.0 <= rng.uniform(0, 1) <= 1.0
    assert rng.exponential(1.0) >= 0.0
    assert rng.pareto(2.0) >= 0.0
    assert rng.lognormal(0, 0.5) > 0.0
