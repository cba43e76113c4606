"""Ingestion, filtering, splitting, tensor construction, and serialization."""

import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_log
from oracles import brute_force_kcore
from seqrec.data import (
    DataError,
    InteractionLog,
    ParseError,
    boundary_for_count,
    build_positional_tensor,
    core_filter,
    ingest_log,
    load_split,
    save_split,
    timepoint_split,
)


def _stream(text):
    return io.BytesIO(text.encode())


_GZIP_LOG = gzip.compress(b"user,item,timestamp\n"
                          + b"".join(b"u%d,i%d,%d\n" % (t % 7, t % 5, t) for t in range(300)))


class TestIngest:
    def test_three_rows_two_users(self):
        log = ingest_log(_stream("user,item,timestamp\nu1,a,1\nu1,b,2\nu2,a,3\n"))
        assert log.n_users == 2
        assert log.n_items <= 3
        assert len(log) == 3

    def test_duplicate_pair_keeps_earliest(self):
        log = ingest_log(_stream("user,item,timestamp\nu1,i1,5\nu1,i1,9\n"))
        assert len(log) == 1
        assert log.timestamps[0] == 5

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            ingest_log(_stream("user,item,timestamp\na,b\n"))

    def test_unparsable_timestamp_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            ingest_log(_stream("user,item,timestamp\nu,i,1\nu,j,xyz\n"))

    def test_empty_source(self):
        with pytest.raises(ParseError, match="empty"):
            ingest_log(_stream(""))
        with pytest.raises(ParseError, match="empty"):
            ingest_log(_stream("user,item,timestamp\n"))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            ingest_log(_stream("user,item,timestamp\nu,i,-3\n"))

    @pytest.mark.parametrize("value", ["inf", "1e400", "1e30", "9223372036854775808"])
    def test_out_of_range_timestamp_names_line(self, value):
        with pytest.raises(ParseError, match="line 3: .*out of range"):
            ingest_log(_stream(f"user,item,timestamp\nu,i,1\nu,j,{value}\n"))

    def test_rating_column_ignored(self):
        log = ingest_log(_stream("user,item,rating,timestamp\nu,i,5.0,7\n"))
        assert len(log) == 1
        assert log.timestamps[0] == 7

    def test_headerless_with_column_indices(self):
        log = ingest_log(_stream("u1\ti1\t4\nu1\ti2\t2\n"), delimiter="\t",
                         user_col=0, item_col=1, time_col=2, header=False)
        assert len(log) == 2
        # sorted by (user, timestamp)
        assert list(log.timestamps) == [2, 4]

    def test_gzip_detected(self):
        payload = gzip.compress(b"user,item,timestamp\nu,i,1\nu,j,2\n")
        log = ingest_log(io.BytesIO(payload))
        assert len(log) == 2

    @pytest.mark.parametrize("cut", [2, 20, -4])
    def test_truncated_gzip_is_parse_error(self, tmp_path, cut):
        # -4 keeps the whole deflate stream but drops part of the size trailer
        path = tmp_path / "events.csv.gz"
        path.write_bytes(_GZIP_LOG[:cut])
        with pytest.raises(ParseError, match="gzip"):
            ingest_log(path)

    @pytest.mark.parametrize("offset, junk", [(2, b"\x07"), (12, b"\xff\xff\xff\xff")])
    def test_corrupt_gzip_is_parse_error(self, offset, junk):
        # an unknown compression method, then damaged deflate data
        payload = bytearray(_GZIP_LOG)
        payload[offset:offset + len(junk)] = junk
        with pytest.raises(ParseError, match="gzip"):
            ingest_log(io.BytesIO(bytes(payload)))

    @pytest.mark.parametrize("compress", [False, True])
    def test_caller_stream_left_open(self, compress):
        payload = b"user,item,timestamp\nu,i,1\nu,j,2\n"
        stream = io.BytesIO(gzip.compress(payload) if compress else payload)
        assert len(ingest_log(stream)) == 2
        assert not stream.closed
        stream.seek(0)
        assert stream.read(2) == (b"\x1f\x8b" if compress else b"us")

    @pytest.mark.parametrize("compress", [False, True])
    def test_path_source_closed(self, tmp_path, monkeypatch, compress):
        payload = b"user,item,timestamp\nu,i,1\nu,j,2\n"
        path = tmp_path / "events.csv"
        path.write_bytes(gzip.compress(payload) if compress else payload)
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open",
                            lambda *a, **k: opened.append(real_open(*a, **k)) or opened[-1])
        assert len(ingest_log(path)) == 2
        assert len(opened) == 1 and opened[0].closed

    def test_indices_dense_and_sorted(self):
        log = ingest_log(_stream(
            "user,item,timestamp\nb,y,9\na,x,1\nb,x,3\na,y,2\n"))
        assert set(log.users) == {0, 1}
        assert set(log.items) == {0, 1}
        order = np.lexsort((log.timestamps, log.users))
        assert list(order) == list(range(len(log)))


def _in_user_time_order(log):
    # a stable sort leaves an ordered log as it is
    return np.array_equal(np.lexsort((log.timestamps, log.users)), np.arange(len(log)))


class TestEventOrder:
    """Every log holds its events in (user, time) order, ties in arrival order."""

    def test_shuffled_rows_give_the_ordered_arrays(self):
        rng = np.random.default_rng(3)
        rows = [(u, int(j), t) for u in range(6) for t, j in enumerate(rng.permutation(8)[:5])]
        ordered = make_log(rows, 6, 8)
        shuffled = make_log([rows[i] for i in rng.permutation(len(rows))], 6, 8)
        assert _in_user_time_order(ordered) and _in_user_time_order(shuffled)
        for name in ("users", "items", "timestamps"):
            assert np.array_equal(getattr(shuffled, name), getattr(ordered, name))

    def test_ties_keep_arrival_order(self):
        log = make_log([(1, 0, 5), (0, 2, 5), (0, 1, 5), (0, 3, 4), (0, 0, 5)])
        assert log.users.tolist() == [0, 0, 0, 0, 1]
        assert log.items.tolist() == [3, 2, 1, 0, 0]
        assert log.timestamps.tolist() == [4, 5, 5, 5, 5]

    def test_ordered_events_are_not_copied(self):
        users, items, times = (np.array(col, dtype=np.int64) for col in
                               ([0, 0, 1, 2], [1, 0, 0, 1], [3, 3, 1, 2]))
        log = InteractionLog(users=users, items=items, timestamps=times,
                             user_map={}, item_map={}, n_users=3, n_items=2)
        assert log.users is users and log.items is items and log.timestamps is times

    def test_logs_from_every_step_are_ordered(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [(u, j, int(rng.integers(20))) for u in range(8) for j in range(6)
                if rng.random() < 0.7]
        text = "".join(f"u{u},i{j},{t}\n" for u, j, t in
                       (rows[i] for i in rng.permutation(len(rows))))
        log = ingest_log(_stream("user,item,timestamp\n" + text))
        kcore = core_filter(log, 2)
        split = timepoint_split(kcore, 8, 14)
        save_split(split, tmp_path / "split.npz")
        back = load_split(tmp_path / "split.npz")
        reversed_log = log.replace_events(log.users[::-1], log.items[::-1],
                                          log.timestamps[::-1])
        for part in (log, kcore, split.train, split.validation, split.test,
                     back.train, back.validation, back.test, reversed_log):
            assert _in_user_time_order(part)


class TestCoreFilter:
    def test_user_below_threshold_removed(self):
        # one heavy item shared by everyone; u0 has only 4 interactions
        rows = [(0, j, t) for t, j in enumerate([0, 1, 2, 3])]
        rows += [(u, j, 10 + u) for u in range(1, 7) for j in range(5)]
        log = make_log(rows)
        out = core_filter(log, 5)
        assert 0 not in set(out.users) or out.n_users < log.n_users
        assert all(np.bincount(out.users, minlength=out.n_users) >= 5)
        assert all(np.bincount(out.items, minlength=out.n_items) >= 5)

    def test_already_kcore_unchanged(self):
        rows = [(u, j, u * 10 + j) for u in range(3) for j in range(3)]
        log = make_log(rows)
        out = core_filter(log, 2)
        assert len(out) == len(log)
        assert sorted(zip(out.users, out.items)) == sorted(zip(log.users, log.items))

    def test_cascade_matches_brute_force(self):
        # removing u0 drops item 3 below threshold, which cascades to u3
        rows = [(0, 3, 0),
                (1, 0, 1), (1, 1, 2),
                (2, 0, 3), (2, 1, 4),
                (3, 3, 5), (3, 0, 6)]
        log = make_log(rows)
        out = core_filter(log, 2)
        oracle = brute_force_kcore(log.users, log.items, 2)
        assert len(out) == len(oracle)

    def test_empty_fixed_point(self):
        log = make_log([(0, 0, 0), (1, 1, 1)])
        with pytest.raises(DataError, match="k-core empty"):
            core_filter(log, 2)

    def test_maps_redensified(self):
        rows = [(0, 0, 0),
                (1, 1, 1), (1, 2, 2),
                (2, 1, 3), (2, 2, 4)]
        log = make_log(rows)
        out = core_filter(log, 2)
        assert out.n_users == 2 and out.n_items == 2
        assert set(out.users) == {0, 1}
        assert set(out.items) == {0, 1}

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=60),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_oracle(self, pairs, k):
        # dedupe pairs as ingest would
        pairs = list(dict.fromkeys(pairs))
        rows = [(u, j, t) for t, (u, j) in enumerate(pairs)]
        log = make_log(rows)
        oracle = brute_force_kcore(log.users, log.items, k)
        if not oracle:
            with pytest.raises(DataError):
                core_filter(log, k)
            return
        out = core_filter(log, k)
        assert len(out) == len(oracle)
        # the surviving multiset of timestamps identifies surviving events
        kept_times = {t for t, (u, j) in enumerate(pairs)
                      if (u, j) in set(oracle)}
        assert set(out.timestamps) == kept_times


class TestTimepointSplit:
    def test_direct_partition(self):
        log = make_log([(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)])
        split = timepoint_split(log, 3, 4)
        assert list(split.train.timestamps) == [1, 2]
        assert list(split.validation.timestamps) == [3]
        assert list(split.test.timestamps) == [4]

    def test_boundary_goes_to_later_split(self):
        log = make_log([(0, 0, 1), (0, 1, 3), (1, 0, 5)])
        split = timepoint_split(log, 3, 5)
        assert 3 in split.validation.timestamps
        assert 3 not in split.train.timestamps
        assert 5 in split.test.timestamps

    def test_parts_partition_the_log(self):
        rows = [(u, j, u * 3 + j) for u in range(4) for j in range(3)]
        log = make_log(rows)
        split = timepoint_split(log, 4, 8)
        total = len(split.train) + len(split.validation) + len(split.test)
        assert total == len(log)

    def test_empty_part_named(self):
        log = make_log([(0, 0, 1), (0, 1, 5)])
        with pytest.raises(DataError, match="validation"):
            timepoint_split(log, 2, 3)
        with pytest.raises(DataError, match="train"):
            timepoint_split(log, 1, 5)
        with pytest.raises(DataError, match="test"):
            timepoint_split(log, 2, 9)

    def test_counting_boundary_helper(self):
        rng = np.random.default_rng(0)
        rows = [(int(rng.integers(20)), int(rng.integers(10)), t)
                for t in range(500)]
        log = make_log(rows)
        t_test = boundary_for_count(log, 50)
        tail = int((log.timestamps >= t_test).sum())
        assert tail <= 50
        # one step earlier would exceed the requested tail size
        assert int((log.timestamps >= t_test - 1).sum()) > 50

    def test_counting_boundary_skips_tied_timestamps(self):
        log = make_log([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 3)])
        assert boundary_for_count(log, 2) == 3
        assert boundary_for_count(log, 3) == 2
        assert boundary_for_count(log, 4) == 1

    def test_counting_boundary_past_the_log_when_nothing_fits(self):
        log = make_log([(0, 0, 1), (0, 1, 3), (1, 0, 3)])
        assert boundary_for_count(log, 0) == 4
        t = boundary_for_count(log, 1)
        assert t == 4
        with pytest.raises(DataError, match="test"):
            timepoint_split(log, 2, t)
        with pytest.raises(DataError, match="tail"):
            boundary_for_count(log, -1)

    def test_split_sizes_match_counting_oracle(self):
        rng = np.random.default_rng(1)
        times = rng.integers(0, 1000, size=400)
        rows = [(int(rng.integers(30)), int(rng.integers(15)), int(t)) for t in times]
        log = make_log(rows)
        split = timepoint_split(log, 400, 700)
        assert len(split.train) == int((times < 400).sum())
        assert len(split.validation) == int(((times >= 400) & (times < 700)).sum())
        assert len(split.test) == int((times >= 700).sum())


class TestPositionalTensor:
    def test_short_history_right_aligned(self):
        log = make_log([(0, 0, 1), (0, 1, 2), (0, 2, 3)], n_items=3)
        x = build_positional_tensor(log, 5)
        assert list(x.items) == [0, 1, 2]
        assert list(x.positions) == [3, 4, 5]

    def test_exact_length_no_padding(self):
        log = make_log([(0, 0, 1), (0, 1, 2), (0, 2, 3)], n_items=3)
        x = build_positional_tensor(log, 3)
        assert list(x.positions) == [1, 2, 3]

    def test_long_history_truncated_to_most_recent(self):
        rows = [(0, j, j) for j in range(7)]
        log = make_log(rows, n_items=7)
        x = build_positional_tensor(log, 5)
        assert list(x.items) == [2, 3, 4, 5, 6]
        assert list(x.positions) == [1, 2, 3, 4, 5]

    def test_per_user_invariants(self):
        rng = np.random.default_rng(2)
        rows = []
        for u in range(12):
            items = rng.permutation(9)[: rng.integers(1, 9)]
            rows += [(u, int(j), t) for t, j in enumerate(items)]
        K = 4
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        # sorted rows, the same rows unsorted, users 3, 7 and 12-14 without
        # events, and an empty log
        logs = [make_log(rows, n_items=9), make_log(shuffled, n_items=9),
                make_log([r for r in rows if r[0] not in (3, 7)], 15, 9), make_log([], 15, 9)]
        tensors = [build_positional_tensor(log, K) for log in logs]
        for log, x in zip(logs, tensors):
            assert x.shape == (log.n_users, 9, K)
            assert all(a.dtype == np.int64 for a in (x.users, x.items, x.positions))
            assert (np.diff(x.users) >= 0).all()
            for u in range(log.n_users):
                mine = log.users == u
                expected = log.items[mine][np.argsort(log.timestamps[mine])][-K:]
                sel = x.users == u
                assert list(x.items[sel]) == list(expected)
                assert list(x.positions[sel]) == list(range(K - len(expected) + 1, K + 1))
        for name in ("users", "items", "positions"):
            assert np.array_equal(getattr(tensors[0], name), getattr(tensors[1], name))

    def test_deterministic(self):
        rows = [(u, j, u + j) for u in range(5) for j in range(4)]
        log = make_log(rows)
        a = build_positional_tensor(log, 3)
        b = build_positional_tensor(log, 3)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.positions, b.positions)

    def test_timestamp_ties_broken_by_ingestion_order(self):
        log = make_log([(0, 2, 5), (0, 1, 5), (0, 0, 5)], n_items=3)
        x = build_positional_tensor(log, 3)
        assert list(x.items) == [2, 1, 0]

    @given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_positions_contiguous_property(self, length, K, seed):
        rng = np.random.default_rng(seed)
        items = rng.integers(0, 50, size=length)
        rows = [(0, int(j), t) for t, j in enumerate(items)]
        # positional encoding permits repeated items within one user only if
        # they were deduplicated upstream; emulate that here
        rows = list({j: (0, j, t) for (_, j, t) in rows}.values())
        log = make_log(rows, n_users=1, n_items=50)
        x = build_positional_tensor(log, K)
        n_i = min(len(rows), K)
        assert sorted(x.positions) == list(range(K - n_i + 1, K + 1))


class TestSerialization:
    def test_split_round_trip(self, tmp_path):
        log = ingest_log(_stream("user,item,timestamp\nu1,a,1\nu1,b,2\nu2,a,3\nu2,b,4\n"))
        split = timepoint_split(log, 3, 4)
        path = tmp_path / "split.npz"
        save_split(split, path)
        back = load_split(path)
        assert back.t_valid == 3 and back.t_test == 4
        for part in ("train", "validation", "test"):
            a, b = getattr(split, part), getattr(back, part)
            assert np.array_equal(a.users, b.users)
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.timestamps, b.timestamps)
            assert b.n_users == a.n_users and b.n_items == a.n_items
            assert b.user_map == {"u1": 0, "u2": 1}
            assert b.item_map == {"a": 0, "b": 1}

    def test_version_check(self, tmp_path):
        log = make_log([(0, 0, 1), (0, 1, 2), (1, 0, 3)])
        path = tmp_path / "split.npz"
        save_split(timepoint_split(log, 2, 3), path)
        import json

        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["version"] = 99
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(DataError, match="version"):
            load_split(path)
