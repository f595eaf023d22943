"""Event queue ordering, merging, and time/microstep advancement."""

import logging
import random
from fractions import Fraction

import pytest

from de_fixpoint.errors import EmptyQueue, NotAtMicrostepBoundary, NotReady
from de_fixpoint.events import EMPTY_QUEUE, Event, EventQueue, QueueEntry
from de_fixpoint.model import PortRef
from de_fixpoint.values import IntVal, StringVal

from conftest import load_model, started


def ev(actor, port, val=0):
    return Event(PortRef((actor,), port), IntVal(val))


def drain(queue):
    """Pop everything, returning [(time_from_start, microstep, events)]."""
    out = []
    elapsed = Fraction(0)
    microstep = 0
    while queue.entries:
        t, m = queue.entries[0].tag()
        if t > 0:
            queue = queue.advance_time(t)
            elapsed += t
            microstep = 0
        elif m > 0:
            queue = queue.advance_microstep()
            microstep += m
        events, queue = queue.pop_ready()
        out.append((elapsed, microstep, events))
    return out


def test_pop_orders_by_time_then_microstep_regardless_of_add_order():
    rng = random.Random(7)
    tags = [(Fraction(t, 4), m) for t in range(4) for m in range(3)]
    for trial in range(25):
        shuffled = tags[:]
        rng.shuffle(shuffled)
        queue = EMPTY_QUEUE
        for i, (t, m) in enumerate(shuffled):
            queue = queue.add(t, m, ev("a", f"p{i}"))
            entry_tags = [e.tag() for e in queue.entries]
            assert all(a < b for a, b in zip(entry_tags, entry_tags[1:]))
        seen = [(t, m) for t, m, _ in drain(queue)]
        assert seen == sorted(tags)


def test_same_tag_events_merge_into_one_batch():
    queue = EMPTY_QUEUE.add(1, 0, ev("a", "p")).add(1, 0, ev("b", "q"))
    assert len(queue.entries) == 1
    (batch,) = [events for _, _, events in drain(queue)]
    assert {e.target.port for e in batch} == {"p", "q"}


def test_batch_events_sorted_by_target():
    queue = EMPTY_QUEUE.add(0, 0, ev("b", "q")).add(0, 0, ev("a", "p"))
    events, _ = queue.pop_ready()
    assert [e.target.actor[0] for e in events] == ["a", "b"]


def test_same_port_same_tag_replaces_and_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="de_fixpoint.events"):
        queue = EMPTY_QUEUE.add(1, 0, ev("a", "p", 1)).add(1, 0, ev("a", "p", 2))
    assert any("superseded" in r.message for r in caplog.records)
    events, _ = queue.advance_time(1).pop_ready()
    assert [e.value for e in events] == [IntVal(2)]


def test_same_port_different_tag_coexists(caplog):
    with caplog.at_level(logging.WARNING, logger="de_fixpoint.events"):
        queue = EMPTY_QUEUE.add(1, 0, ev("a", "p", 1)).add(1, 1, ev("a", "p", 2))
    assert not caplog.records
    assert len(queue.entries) == 2


def test_advance_time_is_additive():
    queue = EMPTY_QUEUE.add(Fraction(3, 2), 0, ev("a", "p"))
    one_hop = queue.advance_time(Fraction(3, 2))
    two_hops = queue.advance_time(Fraction(1, 2)).advance_time(1)
    assert one_hop == two_hops
    assert one_hop.entries[0].tag() == (Fraction(0), 0)


def test_advance_time_zero_is_identity():
    queue = EMPTY_QUEUE.add(0, 2, ev("a", "p"))
    assert queue.advance_time(0) is queue


def test_advance_past_head_rejected():
    queue = EMPTY_QUEUE.add(1, 0, ev("a", "p"))
    with pytest.raises(NotReady):
        queue.advance_time(2)


def test_advance_time_blocked_by_pending_microstep():
    queue = EMPTY_QUEUE.add(0, 1, ev("a", "p")).add(1, 0, ev("b", "q"))
    with pytest.raises(NotAtMicrostepBoundary):
        queue.advance_time(1)


def test_advance_microstep_shifts_only_time_zero_entries():
    queue = (
        EMPTY_QUEUE.add(0, 2, ev("a", "p"))
        .add(0, 5, ev("b", "q"))
        .add(1, 2, ev("c", "r"))
    )
    queue = queue.advance_microstep()
    assert [e.tag() for e in queue.entries] == [
        (Fraction(0), 0),
        (Fraction(0), 3),
        (Fraction(1), 2),
    ]


def test_advance_microstep_requires_time_zero_positive_microstep():
    with pytest.raises(EmptyQueue):
        EMPTY_QUEUE.advance_microstep()
    ready = EMPTY_QUEUE.add(0, 0, ev("a", "p"))
    with pytest.raises(NotReady):
        ready.advance_microstep()
    later = EMPTY_QUEUE.add(1, 0, ev("a", "p"))
    with pytest.raises(NotReady):
        later.advance_microstep()


def test_pop_ready_requires_due_head():
    with pytest.raises(EmptyQueue):
        EMPTY_QUEUE.pop_ready()
    queue = EMPTY_QUEUE.add(0, 1, ev("a", "p"))
    with pytest.raises(NotReady):
        queue.pop_ready()


def test_negative_inputs_rejected():
    with pytest.raises(Exception):
        EMPTY_QUEUE.add(-1, 0, ev("a", "p"))
    with pytest.raises(ValueError):
        EMPTY_QUEUE.add(0, -1, ev("a", "p"))


def test_queues_with_same_future_are_equal():
    # Built along different histories, equal once the futures coincide.
    a = EMPTY_QUEUE.add(2, 0, ev("a", "p")).advance_time(1)
    b = EMPTY_QUEUE.add(1, 0, ev("a", "p"))
    assert a == b
    assert hash(a) == hash(b)


def test_summary_lists_relative_tags_and_counts():
    queue = EMPTY_QUEUE.add(1, 0, ev("a", "p")).add(1, 0, ev("b", "q")).add(2, 1, ev("c", "r"))
    assert queue.summary() == [(Fraction(1), 0, 2), (Fraction(2), 1, 1)]


def test_value_kinds_sort_within_batch():
    # Same actor/port is impossible in one batch, but sort_key must still
    # order mixed value kinds deterministically for distinct ports.
    e1 = Event(PortRef(("a",), "p"), StringVal("x"))
    e2 = Event(PortRef(("a",), "q"), IntVal(3))
    queue = EMPTY_QUEUE.add(0, 0, e1).add(0, 0, e2)
    events, _ = queue.pop_ready()
    assert [e.target.port for e in events] == ["p", "q"]


# The engine's flat queue against this one. -----------------------------------

TOP = "FlatTrafficLight"
CLOCK = Event(PortRef((TOP, "Clock"), "output"), IntVal(1))
LIGHT = Event(PortRef((TOP, "CarLight"), "Cgrn"), IntVal(1))
LATER = Event(CLOCK.target, IntVal(2))


@pytest.mark.parametrize(
    "entries",
    [
        # out of tag order
        [(2, 0, (CLOCK,)), (1, 0, (LIGHT,))],
        # one tag split over two entries
        [(1, 0, (CLOCK,)), (1, 0, (LIGHT,))],
        # two events for one port at one tag: the later one stays
        [(1, 0, (CLOCK, LATER))],
    ],
    ids=["unsorted", "split", "duplicate-port"],
)
def test_a_state_reads_a_hand_built_queue_as_add_builds_it(entries, caplog):
    top = load_model("flat_traffic_light.model")
    expected = EMPTY_QUEUE
    with caplog.at_level(logging.WARNING, logger="de_fixpoint.events"):
        for time, microstep, events in entries:
            for event in events:
                expected = expected.add(time, microstep, event)
        added = [r.getMessage() for r in caplog.records]
        caplog.clear()
        queue = EventQueue(tuple(QueueEntry(Fraction(t), m, events) for t, m, events in entries))
        state = started(top, queue=queue)
    # ``started`` reads the queue through ``events.schedule``, the engine's
    # queue: it orders and merges as add does, and reports a replaced event
    # as add reports it.
    assert [r.getMessage() for r in caplog.records] == added
    assert state == started(top, queue=expected)
    assert state.queue == expected
    assert state.queue.summary() == state.queue_summary()
