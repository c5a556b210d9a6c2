"""Bounded prefetch queue."""

from repro.checkpoint import state as codec
from repro.memory import PrefetchQueue


def test_fifo_order():
    queue = PrefetchQueue(capacity=4)
    queue.push(1, "a")
    queue.push(2, "b")
    assert queue.pop() == (1, "a")
    assert queue.pop() == (2, "b")
    assert queue.pop() is None


def test_capacity_rejects_new_requests():
    queue = PrefetchQueue(capacity=2)
    queue.push(1)
    queue.push(2)
    queue.push(3)
    assert queue.drops == 1
    assert queue.pop() == (1, None)
    assert queue.pop() == (2, None)
    assert queue.pop() is None


def test_len_and_clear():
    queue = PrefetchQueue(capacity=8)
    for i in range(5):
        queue.push(i)
    assert len(queue) == 5
    queue.clear()
    assert len(queue) == 0


def test_restore_refills_the_same_deque():
    """Restore keeps the queue's deque, so a holder of it (the cycle
    loop, the front end) sees the restored entries."""
    queue = PrefetchQueue(capacity=8)
    queue.push(1, "a")
    state = codec.snapshot(queue)
    other = PrefetchQueue(capacity=8)
    held = other._queue
    other.push(9)
    codec.restore(other, state)
    assert other._queue is held
    assert list(held) == [(1, "a")]
    assert codec.snapshot(other) == state
