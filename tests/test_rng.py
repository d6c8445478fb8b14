import numpy as np

from lexifuse.rng import RngStream, stream_for


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
        np.testing.assert_array_equal(a.numpy().standard_normal(20), b.numpy().standard_normal(20))

    def test_different_seeds_differ(self):
        assert RngStream(1).uniform() != RngStream(2).uniform()

    def test_integers_in_range(self):
        s = RngStream(3)
        draws = [s.integers(5, 9) for _ in range(200)]
        assert set(draws) <= {5, 6, 7, 8}

    def test_permutation_deterministic(self):
        p1 = RngStream(4).permutation(10)
        p2 = RngStream(4).permutation(10)
        np.testing.assert_array_equal(p1, p2)
        assert sorted(p1.tolist()) == list(range(10))


class TestSplitting:
    def test_split_is_order_independent(self):
        parent = RngStream(7)
        child_before = parent.split("worker").uniform()
        parent2 = RngStream(7)
        for _ in range(100):
            parent2.uniform()  # consume the parent stream
        child_after = parent2.split("worker").uniform()
        assert child_before == child_after

    def test_split_path_matters(self):
        # streams at ("a","b") and ("x","b") must differ
        assert (
            stream_for(0, "a", "b").uniform() != stream_for(0, "x", "b").uniform()
        )

    def test_distinct_keys_distinct_streams(self):
        parent = RngStream(11)
        xs = {parent.split(k).uniform() for k in ["w1", "w2", "w3", 4, 5]}
        assert len(xs) == 5

    def test_child_differs_from_parent(self):
        parent = RngStream(13)
        child = parent.split(0)
        assert parent.uniform() != child.uniform()

    def test_string_and_int_keys_reproducible(self):
        a = stream_for(1, "epoch", 3).uniform()
        b = stream_for(1, "epoch", 3).uniform()
        assert a == b
