"""Tests for the hybrid live overlay engine."""

import pytest

from repro.algorithms.temporal_dijkstra import DijkstraPlanner
from repro.errors import LiveEventError, UnknownTripError
from repro.live import (
    EventFeed,
    ExtraTrip,
    LiveOverlayEngine,
    TimedEvent,
    TripCancellation,
    TripDelay,
    replay,
    synthetic_feed,
)


@pytest.fixture
def engine(route_graph):
    eng = LiveOverlayEngine(route_graph)
    eng.preprocess()
    return eng


def assert_matches_oracle(engine, graph, t_lo=0, t_hi=260, step=65):
    """Engine answers must equal temporal Dijkstra on the overlay."""
    oracle = DijkstraPlanner(engine.overlay)
    for u in range(graph.n):
        for v in range(graph.n):
            if u == v:
                continue
            for t in range(t_lo, t_hi, step):
                a = engine.earliest_arrival(u, v, t)
                b = oracle.earliest_arrival(u, v, t)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.arr == b.arr, (u, v, t)
                a = engine.latest_departure(u, v, t)
                b = oracle.latest_departure(u, v, t)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.dep == b.dep, (u, v, t)
                a = engine.shortest_duration(u, v, t, t + 200)
                b = oracle.shortest_duration(u, v, t, t + 200)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.duration == b.duration, (u, v, t)


class TestNoEvents:
    def test_all_queries_fast_path(self, engine, route_graph):
        assert_matches_oracle(engine, route_graph)
        assert engine.stats.fallbacks == 0
        assert engine.stats.fast_path_rate == 1.0

    def test_generation_starts_at_one(self, engine):
        assert engine.generation == 1


class TestWithEvents:
    def test_delays_and_cancellations_exact(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)
        engine.apply_event(TripDelay(trip_id=trip_ids[0], delay=40))
        engine.apply_event(
            TripDelay(trip_id=trip_ids[1], delay=25, from_stop=1)
        )
        engine.apply_event(TripCancellation(trip_id=trip_ids[2]))
        assert_matches_oracle(engine, route_graph)
        assert engine.stats.queries > 0

    def test_extra_trip_exact(self, engine, route_graph):
        engine.apply_event(
            ExtraTrip(stops=(0, 5, 9), times=((0, 10), (40, 45), (80, 80)))
        )
        assert_matches_oracle(engine, route_graph)

    def test_generation_bumps_on_every_swap(self, engine, route_graph):
        trip_id = sorted(route_graph.trips)[0]
        g0 = engine.generation
        eid = engine.apply_event(TripDelay(trip_id=trip_id, delay=30))
        assert engine.generation == g0 + 1
        engine.clear_event(eid)
        assert engine.generation == g0 + 2

    def test_clear_restores_static_answers(self, engine, route_graph):
        ttl_answers = {}
        for u in range(route_graph.n):
            journey = engine.earliest_arrival(u, (u + 1) % route_graph.n, 0)
            ttl_answers[u] = journey.arr if journey else None
        eid = engine.apply_event(
            TripCancellation(trip_id=sorted(route_graph.trips)[0])
        )
        engine.clear_event(eid)
        assert engine.patch.is_empty()
        for u in range(route_graph.n):
            journey = engine.earliest_arrival(u, (u + 1) % route_graph.n, 0)
            assert (journey.arr if journey else None) == ttl_answers[u]

    def test_unknown_trip_rejected_eagerly(self, engine):
        with pytest.raises(UnknownTripError):
            engine.apply_event(TripCancellation(trip_id=10**9))
        assert engine.events() == []

    def test_clear_unknown_id_rejected(self, engine):
        with pytest.raises(LiveEventError):
            engine.clear_event(424242)

    def test_clear_all(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)[:3]
        for trip_id in trip_ids:
            engine.apply_event(TripDelay(trip_id=trip_id, delay=10))
        assert engine.clear_all() == 3
        assert engine.events() == []
        assert engine.patch.is_empty()


class TestClock:
    def test_pending_event_invisible_until_apply_at(
        self, engine, route_graph
    ):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(
            TripDelay(trip_id=trip_id, delay=60, apply_at=100,
                      expires_at=200)
        )
        assert engine.patch.is_empty()  # now == 0 < apply_at
        engine.advance_to(150)
        assert not engine.patch.is_empty()
        engine.advance_to(250)
        assert engine.patch.is_empty()
        assert engine.events() == []  # expired events are dropped

    def test_clock_cannot_move_backwards(self, engine):
        engine.advance_to(100)
        with pytest.raises(LiveEventError):
            engine.advance_to(50)

    def test_taint_report_follows_clock(self, engine, route_graph):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(
            TripCancellation(trip_id=trip_id, apply_at=100)
        )
        assert engine.taint_report().num_tainted == 0
        engine.advance_to(100)
        assert engine.taint_report().num_tainted > 0


class TestFeeds:
    def test_replay_drives_clock_and_events(self, engine, route_graph):
        feed = synthetic_feed(route_graph, rate=0.4, seed=5)
        assert len(feed) > 0
        played = list(replay(engine, feed))
        assert len(played) == len(feed)
        assert engine.now == feed.records[-1].at
        assert_matches_oracle(engine, route_graph)

    def test_replay_until(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)[:2]
        feed = EventFeed(
            [
                TimedEvent(10, TripDelay(trip_id=trip_ids[0], delay=5)),
                TimedEvent(90, TripDelay(trip_id=trip_ids[1], delay=5)),
            ]
        )
        played = list(replay(engine, feed, until=50))
        assert len(played) == 1

    def test_feed_json_round_trip(self, route_graph):
        feed = synthetic_feed(
            route_graph, rate=0.3, seed=8, extra_share=0.5, duration=600
        )
        assert EventFeed.from_json(feed.to_json()).records == feed.records

    def test_malformed_feed_rejected(self):
        with pytest.raises(LiveEventError):
            EventFeed.from_json("{not json")
        with pytest.raises(LiveEventError):
            EventFeed.from_json('{"at": 3}')
        with pytest.raises(LiveEventError):
            EventFeed.from_json('[{"event": {"kind": "cancel"}}]')

    def test_bad_rate_rejected(self, route_graph):
        with pytest.raises(LiveEventError):
            synthetic_feed(route_graph, rate=2.0)


class TestFeedRobustness:
    """A long-running consumer must survive a misbehaving feed."""

    def test_tolerant_from_json_skips_and_counts(self):
        import json

        text = json.dumps(
            [
                {"at": 5, "event": {"kind": "cancel", "trip_id": 0}},
                {"at": 7},  # missing event payload
                "garbage",  # not even an object
                {"at": 9, "event": {"kind": "warp"}},  # unknown kind
            ]
        )
        with pytest.warns(UserWarning):
            feed = EventFeed.from_json(text, strict=False)
        assert len(feed) == 1
        assert feed.skipped == 3
        # The envelope itself must still be well-formed.
        with pytest.raises(LiveEventError):
            EventFeed.from_json("{not json", strict=False)
        with pytest.raises(LiveEventError):
            EventFeed.from_json('{"at": 3}', strict=False)

    def test_strict_from_json_still_raises(self):
        with pytest.raises(LiveEventError):
            EventFeed.from_json('[{"at": 7}]')

    def test_replay_skips_out_of_order_and_rejected(
        self, engine, route_graph
    ):
        trip = sorted(route_graph.trips)[0]
        engine.advance_to(50)
        feed = EventFeed(
            [
                # Announced behind the engine clock: out of order.
                TimedEvent(10, TripDelay(trip_id=trip, delay=5)),
                # Unknown trip: the engine rejects it on apply.
                TimedEvent(60, TripDelay(trip_id=10**9, delay=5)),
                # Healthy record.
                TimedEvent(70, TripDelay(trip_id=trip, delay=5)),
            ]
        )
        with pytest.warns(UserWarning):
            played = list(replay(engine, feed))
        assert [at for at, _, _ in played] == [70]
        assert engine.feed_skipped == 2
        assert engine.now == 70

    def test_replay_raise_mode_fails_fast(self, engine, route_graph):
        trip = sorted(route_graph.trips)[0]
        engine.advance_to(50)
        feed = EventFeed([TimedEvent(10, TripDelay(trip_id=trip, delay=5))])
        with pytest.raises(LiveEventError):
            list(replay(engine, feed, on_error="raise"))
        assert engine.feed_skipped == 0

    def test_replay_rejects_bad_on_error(self, engine):
        with pytest.raises(ValueError):
            list(replay(engine, EventFeed(), on_error="ignore"))


class TestStats:
    def test_counters_add_up(self, engine, route_graph):
        feed = synthetic_feed(route_graph, rate=0.3, seed=1)
        for _ in replay(engine, feed):
            pass
        assert_matches_oracle(engine, route_graph)
        stats = engine.stats
        assert stats.queries == stats.fast_path + stats.fallbacks
        snapshot = stats.snapshot()
        assert snapshot["queries"] == stats.queries
        stats.reset()
        assert stats.queries == 0


class TestCertificate:
    """The cache's proof and the query's decision are one function:
    ``static_answer_valid`` must predict ``last_query_fast_path``."""

    @staticmethod
    def _query_stream(engine, graph, rng, count):
        """Answer ``count`` seeded queries of every type, checking the
        certificate against the routing decision of each."""
        from repro.query import QUERY_TYPES, QueryRequest

        for _ in range(count):
            kind = rng.choice(QUERY_TYPES)
            u = rng.randrange(graph.n)
            v = u if rng.random() < 0.1 else rng.randrange(graph.n)
            t = rng.randrange(21600, 79200)
            t_end = t + rng.randrange(0, 10800)
            before = (engine.stats.snapshot(), engine.metrics.snapshot())
            # The cache certifies LDP entries by their one time, the
            # arrival deadline.
            certified = engine.static_answer_valid(
                kind, u, v, t_end if kind == "ldp" else t, t_end
            )
            assert (
                engine.stats.snapshot(), engine.metrics.snapshot()
            ) == before, "a certification sweep was counted as a query"
            engine.plan(QueryRequest(kind, u, v, t=t, t_end=t_end))
            assert certified == engine.last_query_fast_path, (
                kind, u, v, t, t_end,
            )

    @pytest.mark.parametrize("seed", [5, 23])
    def test_certificate_equals_fast_path(self, seed):
        import random

        from repro.datasets import load_dataset

        graph = load_dataset("Austin")
        engine = LiveOverlayEngine(graph)
        engine.preprocess()
        rng = random.Random(seed)
        self._query_stream(engine, graph, rng, 80)  # empty patch
        assert engine.stats.fallbacks == 0
        feed = synthetic_feed(
            graph, rate=0.2, seed=seed, cancel_share=0.3, extra_share=0.5
        )
        for step, _ in enumerate(replay(engine, feed)):
            if step % 10 == 0:
                self._query_stream(engine, graph, rng, 15)
        self._query_stream(engine, graph, rng, 80)
        stats = engine.stats
        assert stats.fast_path and stats.fallback_taint
        assert stats.fallback_improvement and stats.fallback_flood

    def test_fast_path_answers_count_in_metrics(self, engine, route_graph):
        """Under an active patch each fast-path answer is one counted
        query with a counted label scan, as on the static planner."""
        from repro.core import TTLPlanner

        static = TTLPlanner(route_graph, index=engine.index)
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(TripDelay(trip_id=trip_id, delay=40))
        assert not engine.patch.is_empty()
        scanned = 0
        for u in range(route_graph.n):
            for v in range(route_graph.n):
                if u == v:
                    continue
                live_before = engine.metrics.snapshot()
                static_before = static.metrics.snapshot()
                engine.earliest_arrival(u, v, 0)
                if not engine.last_query_fast_path:
                    continue
                static.earliest_arrival(u, v, 0)
                live_after = engine.metrics.snapshot()
                static_after = static.metrics.snapshot()
                for counter in ("queries", "labels_scanned",
                                "sketches_generated"):
                    assert (
                        live_after[counter] - live_before[counter]
                        == static_after[counter] - static_before[counter]
                    ), (counter, u, v)
                assert live_after["queries"] == live_before["queries"] + 1
                scanned += (
                    live_after["labels_scanned"]
                    - live_before["labels_scanned"]
                )
        assert engine.stats.fast_path > 0 and scanned > 0

    def test_same_station_is_fast_path(self, engine, route_graph):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(TripCancellation(trip_id=trip_id))
        for u in range(route_graph.n):
            for v in range(route_graph.n):
                if u == v:
                    continue
                engine.earliest_arrival(u, v, 0)
                if not engine.last_query_fast_path:
                    break
            else:
                continue
            break
        assert not engine.last_query_fast_path
        engine.shortest_duration(3, 3, 10, 20)
        assert engine.last_query_fast_path
        assert engine.static_answer_valid("profile", 3, 3, 10, 20)
