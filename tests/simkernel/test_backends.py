"""Event-store accounting and run-loop equivalence tests.

The kernel keeps one pending-entry store (see
:mod:`repro.simkernel.backends`) and two loops over it: the fast loop
and the sanitizer loop.  The differential fuzz here replays seeded random
schedules — timers, cancels, urgent priorities, same-instant bursts,
nested spawns, far-future timers — through both loops and asserts
identical execution order, final clock, and process values.
"""

import random

import pytest

from repro.simkernel import Simulator


class TestCancelledAccounting:
    """Regression: lazy-delete counters must track reality exactly."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_cancel_after_fire_does_not_inflate_counter(self, sim):
        handles = [sim.call_in(0.1 * (i + 1), lambda: None) for i in range(10)]
        sim.run()
        for handle in handles:
            handle.cancel()  # fired long ago: pure no-op
        assert sim.backend.pending() == 0
        assert sim.backend._cancelled == 0

    def test_double_cancel_counts_once(self, sim):
        handle = sim.call_in(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.backend.pending() == 0
        assert sim.backend._cancelled == 1
        sim.run()
        assert sim.backend._cancelled == 0

    def test_repr_excludes_cancelled_handles(self, sim):
        sim.call_in(1.0, lambda: None).cancel()
        sim.call_in(2.0, lambda: None)
        assert "pending=1" in repr(sim)
        assert sim.backend.pending() == 1

    def test_pending_and_storage_diverge_until_pop(self, sim):
        live = sim.call_in(1.0, lambda: None)
        sim.call_in(2.0, lambda: None).cancel()
        assert sim.backend.pending() == 1
        assert sim.backend.storage_size() == 2
        sim.run()
        assert live.cancelled is False
        assert sim.backend.pending() == 0
        assert sim.backend.storage_size() == 0

    def test_mass_cancel_triggers_compaction(self, sim):
        handles = [sim.call_in(1e6 + i, lambda: None) for i in range(500)]
        for handle in handles:
            handle.cancel()
        # Lazy deletion must not retain all 500 dead entries.
        assert sim.backend.storage_size() < 500
        assert sim.backend.pending() == 0
        sim.run()
        assert sim.backend.storage_size() == 0

    def test_compact_removes_every_dead_entry(self, sim):
        keep = sim.call_in(5.0, lambda: None)
        for i in range(10):
            sim.call_in(1.0 + i, lambda: None).cancel()
        sim.backend.compact()
        assert sim.backend.storage_size() == 1
        assert sim.backend.pending() == 1
        sim.run()
        assert not keep.cancelled

    def test_peek_skips_cancelled_heads(self, sim):
        sim.call_in(1.0, lambda: None).cancel()
        sim.call_in(2.0, lambda: None)
        assert sim.peek() == 2.0


def _fuzz_workload(sim, seed, log):
    """Drive one seeded random schedule; append markers to ``log``.

    Pure simulation — all randomness comes from ``seed``, so two runs
    through different loops see byte-identical schedules.  Mixes every
    scheduling shape the kernel supports: zero-delay (same-instant
    bursts), near and far-future timers, cancels (before and after
    firing), urgent interrupts, nested spawns, and events triggered from
    timer callbacks.
    """
    rng = random.Random(seed)
    handles = []

    def tick(tag):
        log.append((sim.now, tag))

    def worker(wid, depth):
        total = 0.0
        for step in range(rng.randint(2, 6)):
            choice = rng.random()
            if choice < 0.35:
                # Same-instant burst: several zero-delay timeouts queued
                # at one (time, priority) frontier.
                yield sim.timeout(0.0, value=step)
                tick(("burst", wid, step))
            elif choice < 0.6:
                delay = rng.choice([0.25, 1.0, 7.5, 80.0, 200.0])
                yield sim.timeout(delay, value=delay)
                total += delay
                tick(("slept", wid, step, delay))
            elif choice < 0.75 and depth < 2:
                child = sim.spawn(worker((wid, step), depth + 1))
                yield child
                tick(("joined", wid, step, child.value))
            elif choice < 0.9:
                when = sim.now + rng.choice([0.5, 3.0, 66.0])
                handle = sim.call_at(when, lambda w=wid, s=step: tick(("timer", w, s)))
                handles.append(handle)
                yield sim.timeout(rng.choice([0.1, 1.0, 70.0]))
                tick(("armed", wid, step))
            else:
                ev = sim.event()
                sim.call_in(
                    rng.choice([0.0, 0.125, 4.0]),
                    lambda e=ev, s=step: e.succeed(s * 2),
                )
                value = yield ev
                tick(("event", wid, step, value))
            if handles and rng.random() < 0.4:
                victim = handles.pop(rng.randrange(len(handles)))
                victim.cancel()  # may already have fired: both are legal
                tick(("cancelled", wid, step))
        return total

    roots = [sim.spawn(worker(i, 0)) for i in range(rng.randint(3, 6))]
    return roots


def _run_fuzz(seed, sanitize=False):
    sim = Simulator(sanitize=sanitize)
    log = []
    roots = _fuzz_workload(sim, seed, log)
    sim.run()
    log.append(("final", sim.now, [p.value for p in roots]))
    assert sim.backend.pending() == 0
    return log


class TestDifferentialFuzz:
    """Identical execution through both run loops for seeded schedules."""

    # The fuzz arms same-instant timers from independent processes on
    # purpose; the sanitizer rightly flags those ties, which are not what
    # this test is about.
    @pytest.mark.filterwarnings("ignore::repro.simkernel.DeterminismWarning")
    @pytest.mark.parametrize("seed", range(25))
    def test_sanitizer_loop_matches_fast_loop(self, seed):
        assert _run_fuzz(seed, sanitize=True) == _run_fuzz(seed)

    @pytest.mark.parametrize("sanitize", [False, True], ids=["fast", "sanitized"])
    def test_run_until_deadline_matches(self, sanitize):
        """Stopping at a deadline and resuming reproduces the
        uninterrupted fast-loop run, marker for marker."""
        log = []
        sim = Simulator(sanitize=sanitize)
        _fuzz_workload(sim, 42, log)
        sim.run(until=3.0)
        assert sim.now == 3.0
        cut = list(log)
        assert cut and all(t <= 3.0 for t, *_ in cut)
        sim.run()
        assert log == _run_fuzz(42)[:-1]
