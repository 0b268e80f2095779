"""Unit tests for the FIFO store (inbox/matching semantics)."""

from __future__ import annotations

from repro.simulator import Engine, Store


def run_consumer(engine, store, predicate=None):
    """Spawn a process that gets one item and returns it."""

    def consumer():
        item = yield store.get(predicate)
        return item

    return engine.process(consumer())


class TestStoreBasics:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.put("a")
        p = run_consumer(engine, store)
        engine.run()
        assert p.value == "a"

    def test_get_then_put_wakes_getter(self):
        engine = Engine()
        store = Store(engine)
        p = run_consumer(engine, store)

        def producer():
            yield engine.timeout(3.0)
            store.put("later")

        engine.process(producer())
        engine.run()
        assert p.value == "later"

    def test_fifo_item_order(self):
        engine = Engine()
        store = Store(engine)
        for item in ("x", "y", "z"):
            store.put(item)
        consumers = [run_consumer(engine, store) for _ in range(3)]
        engine.run()
        assert [c.value for c in consumers] == ["x", "y", "z"]

    def test_fifo_getter_order(self):
        engine = Engine()
        store = Store(engine)
        consumers = [run_consumer(engine, store) for _ in range(3)]

        def producer():
            for item in ("1", "2", "3"):
                yield engine.timeout(1.0)
                store.put(item)

        engine.process(producer())
        engine.run()
        assert [c.value for c in consumers] == ["1", "2", "3"]

    def test_len_counts_unclaimed(self):
        engine = Engine()
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        run_consumer(engine, store)
        engine.run()
        assert len(store) == 1


class TestFilteredGet:
    def test_filter_skips_non_matching(self):
        engine = Engine()
        store = Store(engine)
        store.put(("tagA", 1))
        store.put(("tagB", 2))
        p = run_consumer(engine, store, predicate=lambda it: it[0] == "tagB")
        engine.run()
        assert p.value == ("tagB", 2)
        assert len(store) == 1
        rest = run_consumer(engine, store)
        engine.run()
        assert rest.value == ("tagA", 1)

    def test_waiting_filtered_getter_ignores_mismatches(self):
        engine = Engine()
        store = Store(engine)
        p = run_consumer(engine, store, predicate=lambda it: it == "want")

        def producer():
            yield engine.timeout(1.0)
            store.put("junk")
            yield engine.timeout(1.0)
            store.put("want")

        engine.process(producer())
        engine.run()
        assert p.value == "want"
        assert len(store) == 1
        rest = run_consumer(engine, store)
        engine.run()
        assert rest.value == "junk"

    def test_matching_same_filter_preserves_order(self):
        # MPI non-overtaking: same-(src, tag) messages arrive in order.
        engine = Engine()
        store = Store(engine)
        store.put(("s0", "first"))
        store.put(("s0", "second"))
        match = lambda it: it[0] == "s0"  # noqa: E731
        a = run_consumer(engine, store, match)
        b = run_consumer(engine, store, match)
        engine.run()
        assert a.value == ("s0", "first")
        assert b.value == ("s0", "second")

    def test_unmatched_getter_stays_parked(self):
        engine = Engine()
        store = Store(engine)
        event = store.get(lambda it: False)
        store.put("ignored")
        engine.run()
        assert not event.triggered
        assert store.cancel(event)  # it was still parked
        assert not store.cancel(event)
