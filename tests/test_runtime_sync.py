"""Tests for the emulated device-side synchronization (paper Fig. 11)."""

import threading
import time

import pytest

from repro.errors import AbortedError, RuntimeClusterError
from repro.runtime.sync import (
    AbortCell,
    AtomicCell,
    DeviceLock,
    DeviceSemaphore,
    SpinConfig,
)

FAST = SpinConfig(timeout=2.0)


class TestAtomicCell:
    def test_load_store(self):
        cell = AtomicCell(5)
        assert cell.load() == 5
        cell.store(9)
        assert cell.load() == 9

    def test_cas_success_returns_old(self):
        cell = AtomicCell(0)
        assert cell.compare_and_swap(0, 1) == 0
        assert cell.load() == 1

    def test_cas_failure_leaves_value(self):
        cell = AtomicCell(7)
        assert cell.compare_and_swap(0, 1) == 7
        assert cell.load() == 7

    def test_exchange(self):
        cell = AtomicCell(3)
        assert cell.exchange(8) == 3
        assert cell.load() == 8

    def test_add_returns_previous(self):
        cell = AtomicCell(10)
        assert cell.add(5) == 10
        assert cell.load() == 15

    def test_concurrent_cas_increments_exactly_once_each(self):
        cell = AtomicCell(0)
        hits = []

        def worker():
            # CAS-loop increment.
            while True:
                old = cell.load()
                if cell.compare_and_swap(old, old + 1) == old:
                    hits.append(1)
                    return

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cell.load() == 16
        assert len(hits) == 16


class TestDeviceLock:
    def test_lock_unlock(self):
        lock = DeviceLock(FAST)
        lock.lock()
        lock.unlock()

    def test_context_manager(self):
        with DeviceLock(FAST):
            pass

    def test_unlock_without_lock_raises(self):
        with pytest.raises(RuntimeClusterError, match="not held"):
            DeviceLock(FAST).unlock()

    def test_mutual_exclusion(self):
        lock = DeviceLock(FAST)
        counter = {"n": 0}

        def worker():
            for _ in range(200):
                with lock:
                    value = counter["n"]
                    counter["n"] = value + 1

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["n"] == 1600

    def test_timeout_on_contention(self):
        lock = DeviceLock(SpinConfig(timeout=0.05))
        lock.lock()
        with pytest.raises(RuntimeClusterError, match="timed out"):
            lock.lock()


class TestDeviceSemaphore:
    def test_post_then_wait(self):
        sem = DeviceSemaphore(4, spin=FAST)
        sem.post()
        sem.wait()
        assert sem.count() == 0

    def test_count_tracks_outstanding(self):
        sem = DeviceSemaphore(4, spin=FAST)
        sem.post()
        sem.post()
        assert sem.count() == 2
        sem.wait()
        assert sem.count() == 1

    def test_total_posted_monotonic(self):
        sem = DeviceSemaphore(4, spin=FAST)
        sem.post()
        sem.wait()
        sem.post()
        assert sem.total_posted() == 2
        assert sem.count() == 1

    def test_wait_blocks_until_post(self):
        sem = DeviceSemaphore(2, spin=FAST)
        result = []

        def consumer():
            sem.wait()
            result.append("got")

        t = threading.Thread(target=consumer)
        t.start()
        assert not result  # nothing posted yet (best-effort check)
        sem.post()
        t.join(timeout=2.0)
        assert result == ["got"]

    @pytest.mark.no_sanitize  # deliberately times out: terminal block is the point
    def test_post_blocks_at_capacity(self):
        sem = DeviceSemaphore(1, spin=SpinConfig(timeout=0.1))
        sem.post()
        with pytest.raises(RuntimeClusterError, match="post timed out"):
            sem.post()

    def test_bounded_buffer_flow_control(self):
        """post blocks until wait frees a slot (receive-buffer management)."""
        sem = DeviceSemaphore(1, spin=FAST)
        sem.post()
        done = []

        def producer():
            sem.post()  # blocks until consumer waits
            done.append("posted")

        t = threading.Thread(target=producer)
        t.start()
        sem.wait()
        t.join(timeout=2.0)
        assert done == ["posted"]

    def test_check_is_non_consuming(self):
        sem = DeviceSemaphore(4, spin=FAST)
        sem.post()
        sem.post()
        sem.check(2)
        assert sem.count() == 2  # nothing consumed

    def test_check_blocks_until_threshold(self):
        sem = DeviceSemaphore(8, spin=FAST)
        seen = []

        def checker():
            sem.check(3)
            seen.append(sem.total_posted())

        t = threading.Thread(target=checker)
        t.start()
        sem.post()
        sem.post()
        sem.post()
        t.join(timeout=2.0)
        assert seen and seen[0] >= 3

    def test_check_counts_total_posts_not_current(self):
        """check gates on cumulative enqueues even after waits consumed
        them — exactly what gradient queuing needs."""
        sem = DeviceSemaphore(4, spin=FAST)
        sem.post()
        sem.wait()
        sem.post()
        sem.check(2)  # 2 total posts happened even though count == 1

    def test_wait_timeout(self):
        sem = DeviceSemaphore(1, spin=SpinConfig(timeout=0.05))
        with pytest.raises(RuntimeClusterError, match="wait timed out"):
            sem.wait()

    @pytest.mark.no_sanitize  # deliberately times out: terminal block is the point
    def test_post_blocks_until_timeout_then_names_itself(self):
        """post on a full buffer spins for the configured duration and
        the error identifies both the semaphore and the operation."""
        timeout = 0.2
        sem = DeviceSemaphore(
            1, spin=SpinConfig(timeout=timeout), name="rx.t0"
        )
        sem.post()
        started = time.monotonic()
        with pytest.raises(
            RuntimeClusterError, match=r"semaphore 'rx\.t0': post timed out"
        ):
            sem.post()
        assert time.monotonic() - started >= timeout * 0.9

    @pytest.mark.no_sanitize  # deliberately times out: terminal block is the point
    def test_check_timeout_names_threshold(self):
        sem = DeviceSemaphore(
            4, spin=SpinConfig(timeout=0.05), name="enq"
        )
        sem.post()
        with pytest.raises(
            RuntimeClusterError, match=r"semaphore 'enq': check\(3\) timed out"
        ):
            sem.check(3)

    def test_invalid_capacity(self):
        with pytest.raises(RuntimeClusterError):
            DeviceSemaphore(0)

    def test_producer_consumer_pipeline(self):
        sem = DeviceSemaphore(4, spin=FAST)
        consumed = []

        def producer():
            for _ in range(50):
                sem.post()

        def consumer():
            for i in range(50):
                sem.wait()
                consumed.append(i)

        threads = [
            threading.Thread(target=producer),
            threading.Thread(target=consumer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert len(consumed) == 50
        assert sem.count() == 0


class TestAbortCell:
    def test_first_trigger_wins(self):
        abort = AbortCell()
        assert not abort.is_set()
        assert abort.trigger("gpu 3 crashed")
        assert not abort.trigger("gpu 5 crashed too")
        assert abort.is_set()
        assert abort.reason == "gpu 3 crashed"

    def test_raise_if_set(self):
        abort = AbortCell()
        abort.raise_if_set()  # no-op while clear
        abort.trigger("boom")
        with pytest.raises(AbortedError, match="cluster aborted: boom"):
            abort.raise_if_set()

    def test_to_error_carries_reason_and_diagnostics(self):
        abort = AbortCell()
        abort.register_dump("phases", lambda: "gpu 0: idle")
        spin = SpinConfig(timeout=1.0, abort=abort)
        sem = DeviceSemaphore(4, spin=spin, name="rx")
        sem.post()
        abort.trigger("watchdog")
        err = abort.to_error()
        assert err.reason == "watchdog"
        assert "-- phases --" in err.diagnostics
        assert "gpu 0: idle" in err.diagnostics
        assert "rx: count=1/4 total_posted=1" in err.diagnostics

    def test_failing_dump_source_does_not_break_diagnostics(self):
        abort = AbortCell()

        def broken():
            raise ValueError("nope")

        abort.register_dump("bad", broken)
        abort.register_dump("good", lambda: "fine")
        text = abort.diagnostics()
        assert "<dump failed" in text
        assert "fine" in text

    def test_spin_exits_early_on_abort(self):
        """A blocked wait leaves the spin as soon as the flag is set —
        long before its own 5 s timeout."""
        abort = AbortCell()
        sem = DeviceSemaphore(
            2, spin=SpinConfig(timeout=5.0, abort=abort)
        )
        failures = []

        def consumer():
            try:
                sem.wait()
            except AbortedError:
                failures.append("aborted")

        t = threading.Thread(target=consumer)
        started = time.monotonic()
        t.start()
        time.sleep(0.05)
        abort.trigger("peer died")
        t.join(timeout=2.0)
        assert failures == ["aborted"]
        assert time.monotonic() - started < 2.0

    def test_timeout_triggers_abort_for_peers(self):
        """The first semaphore to time out flips the shared flag so
        every other primitive exits immediately after."""
        abort = AbortCell()
        spin = SpinConfig(timeout=0.05, abort=abort)
        sem = DeviceSemaphore(1, spin=spin, name="starved")
        with pytest.raises(RuntimeClusterError, match="wait timed out"):
            sem.wait()
        assert abort.is_set()
        assert "starved" in abort.reason and "wait timed out" in abort.reason

    def test_peek_is_lock_free(self):
        """peek must work even while another thread holds the device
        lock — that is what makes the diagnostic dump deadlock-proof."""
        sem = DeviceSemaphore(4, spin=SpinConfig(timeout=1.0))
        sem.post()
        sem._lock.lock()  # simulate a kernel dying with the lock held
        try:
            assert sem.peek() == (1, 1)
        finally:
            sem._lock.unlock()
