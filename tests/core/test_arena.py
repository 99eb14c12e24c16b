"""Tests for the arena wait queues and shared destination routing."""

import pickle
from collections import defaultdict
import numpy as np
import pytest

from repro.core.arena import ArrayArena, RecordQueue
from repro.core.routing import route_by_dest


class TestArrayArena:
    def test_push_and_view(self):
        a = ArrayArena(capacity=2)
        a.push(np.array([1, 2, 3]))
        a.push(np.array([4]))
        assert a.view().tolist() == [1, 2, 3, 4]
        assert len(a) == 4

    def test_growth_is_amortised(self):
        """Many small pushes trigger only O(log n) reallocations."""
        a = ArrayArena(capacity=1)
        caps = set()
        for i in range(5000):
            a.push(np.array([i]))
            caps.add(len(a._buf))
        assert a.view().tolist() == list(range(5000))
        # doubling from 1 to >=5000 passes through at most ~13 capacities
        assert len(caps) <= 15

    def test_keep_compacts(self):
        a = ArrayArena()
        a.push(np.arange(10))
        a.keep(np.arange(10) % 3 == 0)
        assert a.view().tolist() == [0, 3, 6, 9]

    def test_keep_empty_mask(self):
        a = ArrayArena()
        a.push(np.arange(4))
        a.keep(np.zeros(4, dtype=bool))
        assert len(a) == 0

    def test_clear(self):
        a = ArrayArena()
        a.push(np.arange(7))
        a.clear()
        assert len(a) == 0
        a.push(np.array([42]))
        assert a.view().tolist() == [42]

    def test_pickle_roundtrip_is_compact(self):
        a = ArrayArena(capacity=4096)
        a.push(np.arange(3))
        b = pickle.loads(pickle.dumps(a))
        assert b.view().tolist() == [0, 1, 2]
        # only the live prefix travels: restored capacity is the live size
        assert len(b._buf) == 3
        b.push(np.array([9]))
        assert b.view().tolist() == [0, 1, 2, 9]


@pytest.fixture(params=["ram"])
def make_arena():
    """An empty :class:`ArrayArena` (one param, so the case ids name it)."""
    return lambda: ArrayArena(capacity=2)


class TestKeep:
    """``keep`` selects with ``np.compress``: the same rows, in the same
    order, as ``view()[mask]``."""

    @pytest.mark.parametrize(
        "mask",
        [[], [False] * 5, [True] * 5, [True, False, False, True, True]],
        ids=["empty", "all-false", "all-true", "mixed"],
    )
    def test_keeps_masked_rows_in_order(self, make_arena, mask):
        a = make_arena()
        values = np.arange(100, 100 + len(mask), dtype=np.int64)
        a.push(values)
        mask = np.array(mask, dtype=bool)
        a.keep(mask)
        assert a.view().tolist() == values[mask].tolist()
        a.push(np.array([7]))
        assert a.view().tolist() == values[mask].tolist() + [7]

    def test_mid_density_mask_matches_indexing(self, make_arena):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 40, 10_000)
        mask = rng.random(len(values)) < 0.5
        a = make_arena()
        a.push(values)
        a.keep(mask)
        assert np.array_equal(a.view(), values[mask])

    @pytest.mark.parametrize("length", [3, 5])
    def test_mask_of_another_length_raises(self, make_arena, length):
        a = make_arena()
        a.push(np.arange(4))
        with pytest.raises(ValueError, match="mask has"):
            a.keep(np.ones(length, dtype=bool))
        assert a.view().tolist() == [0, 1, 2, 3]


class TestShrink:
    """A ``keep`` that leaves survivors under a quarter of the capacity
    gives the rest back, reallocating to twice the survivors."""

    def test_drain_shrinks_to_twice_the_survivors(self):
        a = ArrayArena()
        a.push(np.arange(100_000))
        assert len(a._buf) >= 100_000
        mask = np.zeros(100_000, dtype=bool)
        mask[::1000] = True
        a.keep(mask)
        assert a.view().tolist() == list(range(0, 100_000, 1000))
        assert len(a._buf) == 200
        a.push(np.array([-1]))
        assert a.view().tolist()[-2:] == [99_000, -1]

    @pytest.mark.parametrize("kept", [0, 1, 16])
    def test_small_survivors_keep_the_minimum_capacity(self, kept):
        a = ArrayArena()
        a.push(np.arange(10_000))
        a.keep(np.arange(10_000) < kept)
        assert a.view().tolist() == list(range(kept))
        assert len(a._buf) == 64

    def test_capacity_stays_within_four_times_the_rows(self):
        """Over drains that each keep a different share, the capacity never
        exceeds four times the live rows (or 64), and the rows are those
        indexing would keep."""
        rng = np.random.default_rng(11)
        a, ref = ArrayArena(capacity=1), np.empty(0, dtype=np.int64)
        for _ in range(60):
            batch = rng.integers(0, 1 << 30, int(rng.integers(0, 5_000)))
            a.push(batch)
            ref = np.concatenate([ref, batch])
            mask = rng.random(len(ref)) < rng.choice([0.01, 0.2, 0.5, 0.95])
            a.keep(mask)
            ref = ref[mask]
            assert np.array_equal(a.view(), ref)
            assert len(a._buf) <= max(4 * len(ref), 64)

    def test_shrunk_arena_pickles_its_live_rows(self):
        a = ArrayArena()
        a.push(np.arange(50_000))
        a.keep(np.arange(50_000) % 5_000 == 0)
        b = pickle.loads(pickle.dumps(a))
        assert b.view().tolist() == list(range(0, 50_000, 5_000))
        assert len(b._buf) == 10
        b.push(np.array([1]))
        assert b.view().tolist()[-1] == 1


class TestRecordQueue:
    def test_push_and_columns(self):
        q = RecordQueue(2, capacity=2)
        q.push(np.array([1, 2]), np.array([10, 20]))
        q.push(np.array([3]), np.array([30]))
        t, k = q.columns()
        assert t.tolist() == [1, 2, 3]
        assert k.tolist() == [10, 20, 30]
        assert q.column(1).tolist() == [10, 20, 30]
        assert len(q) == 3 and q.ncols == 2

    def test_keep_applies_to_all_columns(self):
        q = RecordQueue(3)
        q.push(np.arange(6), np.arange(6) * 10, np.arange(6) * 100)
        q.keep(np.arange(6) % 2 == 1)
        a, b, c = q.columns()
        assert a.tolist() == [1, 3, 5]
        assert b.tolist() == [10, 30, 50]
        assert c.tolist() == [100, 300, 500]

    def test_wrong_batch_count_raises(self):
        q = RecordQueue(2)
        with pytest.raises(ValueError):
            q.push(np.array([1]))

    def test_unequal_batch_lengths_raise(self):
        q = RecordQueue(2)
        with pytest.raises(ValueError):
            q.push(np.array([1, 2]), np.array([1]))

    def test_ncols_validation(self):
        with pytest.raises(ValueError):
            RecordQueue(0)

    def test_clear(self):
        q = RecordQueue(2)
        q.push(np.array([1]), np.array([2]))
        q.clear()
        assert len(q) == 0

    def test_pickle_roundtrip(self):
        q = RecordQueue(2)
        q.push(np.array([1, 2]), np.array([10, 20]))
        r = pickle.loads(pickle.dumps(q))
        assert [c.tolist() for c in r.columns()] == [[1, 2], [10, 20]]
        r.push(np.array([3]), np.array([30]))
        assert len(r) == 3


class TestRouteByDest:
    def test_groups_by_destination(self):
        out = defaultdict(list)
        records = np.array([10, 11, 12, 13, 14])
        dests = np.array([2, 0, 2, 1, 0])
        route_by_dest(out, records, dests)
        merged = {d: np.concatenate(chunks).tolist() for d, chunks in out.items()}
        assert merged == {0: [11, 14], 1: [13], 2: [10, 12]}

    def test_stable_within_destination(self):
        """Batch order is preserved inside each destination's chunk."""
        out = defaultdict(list)
        records = np.arange(100)
        dests = records % 3
        route_by_dest(out, records, dests)
        for d in range(3):
            got = np.concatenate(out[d])
            assert got.tolist() == sorted(got.tolist())

    def test_appends_to_existing_outbox(self):
        out = defaultdict(list)
        out[1].append(np.array([99]))
        route_by_dest(out, np.array([5]), np.array([1]))
        assert np.concatenate(out[1]).tolist() == [99, 5]

    def test_empty_records_is_noop(self):
        out = defaultdict(list)
        route_by_dest(out, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert out == {}

    def test_structured_records(self):
        dtype = np.dtype([("t", "i8"), ("a", "i8")])
        rec = np.zeros(4, dtype=dtype)
        rec["t"] = [1, 2, 3, 4]
        out = defaultdict(list)
        route_by_dest(out, rec, np.array([1, 0, 1, 0]))
        assert np.concatenate(out[0])["t"].tolist() == [2, 4]
        assert np.concatenate(out[1])["t"].tolist() == [1, 3]

    @pytest.mark.parametrize("batch", ["empty", "one-dest", "multi-dest"])
    def test_outbox_matches_sort_path(self, batch):
        """The one-destination shortcut fills the outbox as the sort would."""
        rng = np.random.default_rng(7)
        m = {"empty": 0, "one-dest": 500, "multi-dest": 500}[batch]
        rec = np.zeros(m, dtype=np.dtype([("t", "i8"), ("a", "i8")]))
        rec["t"] = rng.integers(0, 1 << 40, m)
        rec["a"] = np.arange(m)
        dests = np.full(m, 3) if batch == "one-dest" else rng.integers(0, 4, m)

        # the general path: stable argsort, then one chunk per destination
        expected = defaultdict(list)
        if m:
            order = np.argsort(dests, kind="stable")
            for d in np.unique(dests).tolist():
                expected[d].append(rec[order][dests[order] == d])

        out = defaultdict(list)
        route_by_dest(out, rec, dests)
        assert sorted(out) == sorted(expected)
        for d, chunks in expected.items():
            assert len(out[d]) == len(chunks) == 1
            assert out[d][0].dtype == rec.dtype
            assert out[d][0].tobytes() == chunks[0].tobytes()
