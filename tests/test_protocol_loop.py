"""Protocol event loop: FIFO, timers, blocking admission, core pin; strict cluster config."""

import os
import sys
import threading
import time

import pytest

from dtx.nettransport import ProtocolLoop
from dtx.workload import ClusterConfig, ConfigError


def run_fn(item):
    item.fn()


def wait_for(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.001)


def run_concurrent_producers(producers=4, per_producer=500):
    """Submit (producer, i) tuples from several threads; return them in handled order."""
    seen = []
    loop = ProtocolLoop(run_fn)
    loop.start()

    def produce(p):
        for i in range(per_producer):
            loop.submit(lambda v=(p, i): seen.append(v))

    threads = [threading.Thread(target=produce, args=(p,)) for p in range(producers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the producers as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    loop.stop()  # drains everything queued before it
    assert not loop.thread.is_alive()
    return seen


def test_every_submitted_item_processed_exactly_once():
    seen = run_concurrent_producers()
    assert sorted(seen) == [(p, i) for p in range(4) for i in range(500)]


def test_fifo_per_producer():
    seen = run_concurrent_producers()
    for p in range(4):
        assert [i for q, i in seen if q == p] == list(range(500))


def test_timers_fire_on_loop_thread_in_deadline_order():
    fired = []
    loop = ProtocolLoop(run_fn)
    loop.start()
    for name, delay in (("c", 0.06), ("a", 0.02), ("b", 0.04)):
        loop.set_timer(delay, lambda n=name: fired.append((n, threading.get_ident())))
    loop.cancel_timer(loop.set_timer(0.03, lambda: fired.append(("cancelled", None))))
    wait_for(lambda: len(fired) == 3)
    time.sleep(0.05)  # the cancelled timer's deadline is long past
    loop.stop()
    assert [n for n, _ in fired] == ["a", "b", "c"]
    assert {ident for _, ident in fired} == {loop.thread.ident}


def test_timer_item_carries_its_due_time():
    stamps = []
    loop = ProtocolLoop(lambda item: stamps.append((item.enqueued_at, time.monotonic())))
    loop.start()
    armed = time.monotonic()
    loop.set_timer(0.02, None)
    wait_for(lambda: stamps)
    loop.stop()
    due, ran = stamps[0]
    assert armed + 0.02 <= due <= ran


def test_full_queue_blocks_producer_and_counts_backpressure():
    gate = threading.Event()
    handled = []

    def handler(item):
        gate.wait(timeout=10.0)
        handled.append(item.fn)

    loop = ProtocolLoop(handler)
    loop.start()
    total = ProtocolLoop.CAPACITY + 2
    producer = threading.Thread(target=lambda: [loop.submit(i) for i in range(total)])
    producer.start()
    wait_for(lambda: loop.backpressured > 0)
    assert producer.is_alive() and not handled  # blocked, nothing dropped
    gate.set()
    producer.join(timeout=10.0)
    assert not producer.is_alive()
    loop.stop()
    assert handled == list(range(total))
    assert loop.backpressured >= 1


def test_submit_after_stop_is_dropped():
    handled = []
    loop = ProtocolLoop(run_fn)
    loop.start()
    loop.submit(lambda: handled.append(1))
    loop.stop()
    loop.submit(lambda: handled.append(2))
    assert handled == [1] and not loop.thread.is_alive()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or 0 not in os.sched_getaffinity(0),
    reason="needs CPU affinity support and core 0",
)
def test_protocol_core_pins_the_loop_thread():
    cfg = ClusterConfig.parse("member = 0 127.0.0.1:1\nprotocol_core = 0")
    assert cfg.protocol_core == 0
    seen = []
    loop = ProtocolLoop(run_fn, core=cfg.protocol_core)
    loop.start()
    loop.submit(lambda: seen.append(os.sched_getaffinity(0)))
    loop.stop()
    assert seen == [{0}]


@pytest.mark.parametrize(
    "line",
    [
        "bakend = file-sync",  # misspelt key: must not silently run mapped-flush
        "stage = protocol cores=99",  # the removed per-stage syntax
        f"protocol_core = {max(99, os.cpu_count() or 1)}",
        "protocol_core = -1",
        "protocol_core = one",
        "gc_period = fast",
    ],
    ids=["misspelt-key", "stage-line", "core-out-of-range", "negative-core", "core-not-int",
         "period-not-float"],
)
def test_cluster_config_rejects_unknown_keys_and_bad_cores(line):
    with pytest.raises(ConfigError):
        ClusterConfig.parse(f"member = 0 127.0.0.1:1\n{line}")
