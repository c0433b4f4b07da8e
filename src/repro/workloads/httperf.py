"""An httperf-like HTTP workload generator (Mosberger & Jin, as cited).

Used two ways in the paper's evaluation:

* **Figure 7**: a stream of requests against one VM's Apache while the VMM
  reboots, plotting the moving average throughput of 50 requests;
* **Figure 8(b)**: 10 concurrent client processes requesting 10 000
  512 KB files exactly once each, before and after the reboot.

The client resolves its target service *per request* through a lookup
callable, because a cold reboot replaces the service object; requests
against an unreachable or missing service count as failures and are
retried after a short back-off — which is exactly how a real client's
throughput collapses to zero during downtime and recovers after it.

Completions are stored columnar (parallel times/paths/nbytes/latency
lists), mirroring the trace engine: the serving loop allocates no
per-request object, analyses read :attr:`Httperf.completion_times`
directly, and the classic list-of-:class:`Completion` view is
materialized lazily on first access.

Two client models live here:

* :class:`Httperf` — **exact** mode, one simulated event chain per
  request; the semantic reference.
* :class:`FluidHttperf` + :class:`FluidCoordinator` — **fluid** mode:
  ``sessions`` closed-loop clients are a single number, advanced at
  aggregation ticks by a per-simulator coordinator that solves a
  processor-sharing rate model (numpy-vectorized across clients) against
  the live hardware objects, re-reading a client's inputs only after one
  of the objects they came from signalled a change.  A million concurrent
  sessions is one array slot; cross-validated against exact mode in
  ``tests/workloads/test_fluid.py``.
"""

from __future__ import annotations

import functools
import math
import typing
from bisect import bisect_left, bisect_right

import numpy

from repro.errors import ReproError, ServiceError, WorkloadError
from repro.guest.services import Service
from repro.simkernel import ChangeSignal, Process, Simulator


class Completion:
    """One successfully served request (immutable by convention).

    A plain ``__slots__`` class: views are materialized lazily from the
    columnar store, and the frozen-dataclass ``__init__`` costs several
    times a direct store.
    """

    __slots__ = ("time", "path", "nbytes", "latency")

    def __init__(self, time: float, path: str, nbytes: int, latency: float) -> None:
        self.time = time
        self.path = path
        self.nbytes = nbytes
        self.latency = latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Completion(time={self.time!r}, path={self.path!r}, "
            f"nbytes={self.nbytes!r}, latency={self.latency!r})"
        )


class Httperf:
    """A concurrent HTTP client against one (re-resolvable) service."""

    def __init__(
        self,
        sim: Simulator,
        lookup: typing.Callable[[], Service],
        paths: typing.Iterable[str],
        concurrency: int = 10,
        retry_interval_s: float = 0.25,
        each_path_once: bool = False,
        name: str = "httperf",
    ) -> None:
        if concurrency < 1:
            raise ReproError("concurrency must be >= 1")
        if retry_interval_s <= 0:
            raise ReproError("retry interval must be positive")
        self.sim = sim
        self.lookup = lookup
        self.name = name
        self.concurrency = concurrency
        self.retry_interval_s = retry_interval_s
        self.each_path_once = each_path_once
        self._paths = list(paths)
        if not self._paths:
            raise ReproError("httperf needs at least one path")
        self._cursor = 0
        self._stopped = False
        self._workers: list[Process] = []
        # Columnar completion log.  Times are non-decreasing: workers
        # append at the simulated instant the reply lands, and the clock
        # never runs backwards — which is what lets the window queries
        # below use bisect instead of a full scan.
        self._times: list[float] = []
        self._req_paths: list[str] = []
        self._nbytes: list[int] = []
        self._latency: list[float] = []
        self._view: list[Completion] = []
        self.failures = 0
        self._metric_latency = sim.metrics.histogram(
            "httperf.request_latency", client=name
        )
        self._metric_errors = sim.metrics.counter("httperf.errors", client=name)

    # -- control ----------------------------------------------------------------

    def start(self) -> "Httperf":
        """Launch the worker processes; returns self for chaining."""
        if self._workers:
            raise ReproError(f"{self.name} already started")
        self._workers = [
            self.sim.spawn(self._worker(), name=f"{self.name}.w{i}")
            for i in range(self.concurrency)
        ]
        return self

    def stop(self) -> None:
        """Kill all workers (pending requests are abandoned)."""
        self._stopped = True
        for worker in self._workers:
            if worker.is_alive:
                worker.kill()

    @property
    def done(self) -> bool:
        """True when every worker has finished (each-path-once mode)."""
        return bool(self._workers) and all(not w.is_alive for w in self._workers)

    def wait(self) -> typing.Any:
        """An event that fires when all workers finish."""
        return self.sim.all_of(self._workers)

    # -- the client loop -----------------------------------------------------------

    def _next_path(self) -> str | None:
        if self.each_path_once:
            if self._cursor >= len(self._paths):
                return None
            path = self._paths[self._cursor]
            self._cursor += 1
            return path
        path = self._paths[self._cursor % len(self._paths)]
        self._cursor += 1
        return path

    def _worker(self) -> typing.Generator:
        sim = self.sim
        lookup = self.lookup
        tappend = self._times.append
        pappend = self._req_paths.append
        nappend = self._nbytes.append
        lappend = self._latency.append
        while not self._stopped:
            path = self._next_path()
            if path is None:
                return
            while not self._stopped:
                issued = sim._now
                try:
                    nbytes = yield from lookup().handle_request(path=path)
                except (ServiceError, ReproError):
                    self.failures += 1
                    self._metric_errors.inc()
                    yield sim.timeout(self.retry_interval_s)
                    continue
                now = sim._now
                tappend(now)
                pappend(path)
                nappend(nbytes)
                lappend(now - issued)
                self._metric_latency.observe(now - issued)
                break

    # -- measurement -----------------------------------------------------------------

    @property
    def completions(self) -> list[Completion]:
        """The served requests as :class:`Completion` views.

        Materialized lazily from the columnar log and cached by length;
        treat the returned list as read-only.
        """
        view = self._view
        missing = len(self._times) - len(view)
        if missing:
            start = len(view)
            times, paths = self._times, self._req_paths
            nbytes, latency = self._nbytes, self._latency
            view.extend(
                Completion(times[i], paths[i], nbytes[i], latency[i])
                for i in range(start, len(times))
            )
        return view

    @property
    def completion_times(self) -> list[float]:
        """Raw non-decreasing completion timestamps (read-only)."""
        return self._times

    @property
    def bytes_served(self) -> int:
        return sum(self._nbytes)

    def _window(self, since: float, until: float) -> tuple[int, int]:
        """Index range [lo, hi) of completions with since <= time <= until."""
        return bisect_left(self._times, since), bisect_right(self._times, until)

    def mean_rate(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean completions/second over a window."""
        lo, hi = self._window(since, until)
        if hi - lo < 2:
            return 0.0
        span = self._times[hi - 1] - self._times[lo]
        return (hi - lo - 1) / span if span > 0 else float("inf")

    def mean_byte_rate(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean payload bytes/second over a window."""
        lo, hi = self._window(since, until)
        if hi - lo < 2:
            return 0.0
        span = self._times[hi - 1] - self._times[lo]
        return sum(self._nbytes[lo : hi - 1]) / span if span > 0 else float("inf")

    def throughput_timeline(self, window: int = 50) -> list[tuple[float, float]]:
        """The paper's Figure 7 series: at each completion, the average
        throughput (req/s) of the last ``window`` completions."""
        points: list[tuple[float, float]] = []
        times = self._times
        for i in range(window, len(times)):
            span = times[i] - times[i - window]
            if span > 0:
                points.append((times[i], window / span))
        return points


# -- fluid mode --------------------------------------------------------------------

_RESOURCES = 4
"""Waterfill resource axes: CPU (core-seconds), memory bus (bytes), disk
(bytes), NIC (bytes) — the four pools one Apache request touches."""

_PROBE_FIELDS = (
    "demand",
    "cpu cost",
    "membus cost",
    "disk cost",
    "nic cost",
    "cpu capacity",
    "membus capacity",
    "disk capacity",
    "nic capacity",
    "payload",
    "resident",
)
"""The float fields of a :class:`FluidProbe`, in column order."""


class FluidProbe(typing.NamedTuple):
    """One client's rate-model inputs, read off the live objects.

    Costs and capacities are per :data:`_RESOURCES` axis.  ``watched``
    holds the change signals of every object the reading depended on:
    until one of them fires, probing again returns the same values.
    """

    guest: typing.Any
    machine: typing.Any
    demand: float
    costs: tuple[float, float, float, float]
    capacities: tuple[float, float, float, float]
    payload: float
    resident: float
    watched: tuple[ChangeSignal, ...]

    def values(self) -> tuple[float, ...]:
        """The float fields, in :data:`_PROBE_FIELDS` order."""
        return (
            self.demand, *self.costs, *self.capacities, self.payload, self.resident
        )


class FluidHttperf:
    """``sessions`` closed-loop HTTP clients as one fluid quantity.

    Instead of simulating each request, the client's throughput over each
    aggregation tick is the closed-loop asymptote ``sessions / L1``
    (``L1`` = one request's unloaded latency read off the live hardware
    objects), throttled by the owning machine's resource capacities when
    several clients share it (see :meth:`FluidCoordinator._account`).
    Reachability is resolved through the same ``lookup`` exact mode
    resolves per request, so downtime shows up as zero-rate ticks and
    retry-paced failures, quantized to the tick length.

    :meth:`_probe` reads the rate model's inputs; the coordinator keeps
    its result in per-client columns and re-runs it only after something
    it read signalled a change (see :class:`FluidCoordinator`).  The tick
    log and the running totals behind :attr:`total_completed`,
    :attr:`bytes_served`, :attr:`failures` and :attr:`downtime_s` live in
    the coordinator's columns too.

    Everything is accounted in plain float rate * dt arithmetic from
    simulation state only — runs are bit-deterministic for a fixed seed,
    and identical no matter which process (or shard) hosts the client.
    """

    def __init__(
        self,
        coordinator: "FluidCoordinator",
        lookup: typing.Callable[[], Service],
        paths: typing.Iterable[str],
        sessions: int,
        retry_interval_s: float = 0.25,
        name: str = "fluid",
    ) -> None:
        if sessions < 1:
            raise ReproError("sessions must be >= 1")
        if retry_interval_s <= 0:
            raise ReproError("retry interval must be positive")
        self.coordinator = coordinator
        self.sim = coordinator.sim
        self.lookup = lookup
        self.name = name
        self.sessions = sessions
        self.retry_interval_s = retry_interval_s
        self._paths = list(paths)
        if not self._paths:
            raise ReproError("fluid httperf needs at least one path")
        self._warm_cursor = 0
        self._metric_completed = self.sim.metrics.counter(
            "fluid.completed_requests", client=name
        )
        self._metric_errors = self.sim.metrics.counter(
            "fluid.failed_requests", client=name
        )
        self._index = coordinator.register(self)

    # -- per-tick model ---------------------------------------------------------

    def _probe(self) -> FluidProbe | None:
        """Resolve the service and read the rate model's inputs.

        ``None`` when the service is unresolved or unreachable.  Reads
        only; the coordinator decides what to keep.
        """
        try:
            service = self.lookup()
        except ReproError:
            return None
        guest = service.guest
        if not service.reachable or guest is None:
            return None
        try:
            machine = guest.machine
            filesystem = guest.filesystem
            page_cache = guest.page_cache
            total = 0
            cached = 0
            for path in self._paths:
                size = filesystem.size_of(path)
                total += size
                cached += min(page_cache.cached_bytes(path), size)
        except ReproError:
            return None
        if total <= 0:
            return None
        payload = total / len(self._paths)
        resident = cached / total
        cpu_s = guest.profile.services.request_cpu_s
        nic = machine.nic
        nic_bw = nic.spec.bandwidth * nic.degradation_factor
        mem_bw = machine.membus.capacity
        disk_bw = machine.disk.spec.read_bw
        mem_bytes = resident * payload
        disk_bytes = (1.0 - resident) * payload
        solo_latency = (
            cpu_s
            + mem_bytes / mem_bw
            + disk_bytes / disk_bw
            + payload / nic_bw
            + nic.spec.latency_s
        )
        return FluidProbe(
            guest,
            machine,
            self.sessions / solo_latency,
            (cpu_s, mem_bytes, disk_bytes, payload),
            (float(machine.cpu.cores), mem_bw, disk_bw, nic_bw),
            payload,
            resident,
            (
                service.changed,
                guest.changed,
                guest.vmm.changed,
                nic.changed,
                page_cache.changed,
                filesystem.changed,
            ),
        )

    def _warm(self, guest: typing.Any, budget_bytes: float) -> None:
        """Re-warm the page cache at the modeled miss rate.

        Exact mode's misses repopulate the cache one request at a time
        (``read_file`` inserts what it fetched from disk); mirror that by
        inserting the tick's modeled disk bytes into the corpus in cursor
        order, so a cache-cold window after a cold reboot recovers instead
        of persisting forever.
        """
        budget = int(budget_bytes)
        paths = self._paths
        filesystem = guest.filesystem
        page_cache = guest.page_cache
        for _ in range(len(paths)):
            if budget <= 0:
                return
            path = paths[self._warm_cursor % len(paths)]
            missing = filesystem.size_of(path) - page_cache.cached_bytes(path)
            if missing > 0:
                take = min(missing, budget)
                page_cache.insert(path, take)
                budget -= take
                if take < missing:
                    return
            self._warm_cursor += 1

    # -- control -----------------------------------------------------------------

    def stop(self) -> None:
        """Account the final partial tick and stop the coordinator."""
        self.coordinator.finalize()

    # -- measurement -------------------------------------------------------------

    @property
    def total_completed(self) -> float:
        """Modeled request completions over the whole run (fractional)."""
        return float(self.coordinator._completed[self._index])

    @property
    def bytes_served(self) -> float:
        return float(self.coordinator._bytes[self._index])

    @property
    def failures(self) -> float:
        """Modeled failed (retry-paced) requests over the whole run."""
        return float(self.coordinator._failures[self._index])

    @property
    def downtime_s(self) -> float:
        """Accounted seconds the service was unreachable."""
        return float(self.coordinator._downtime[self._index])

    def _window(self, since: float, until: float) -> dict[str, float]:
        """Every windowed statistic from one pass over the tick log.

        Tick row k covers ``[t[k] - dt[k], t[k]]``; the window takes each
        row's overlap with ``[since, until]``, up to the first row that
        starts at or after ``until``.  Requests, failures and downtime
        sum their terms sequentially in tick order (``add.accumulate``
        adds left to right like ``sum()``, unlike ``numpy.sum``'s
        pairwise order); an empty window sums to ``sum([])``'s int 0.
        """
        ticks, spans, rates, ups = self.coordinator._tick_log(self._index)
        lo = int(numpy.searchsorted(ticks, since, side="left"))
        ends = ticks[lo:]
        starts = ends - spans[lo:]
        past = numpy.flatnonzero(starts >= until)
        hi = int(past[0]) if len(past) else len(ends)
        overlap = numpy.minimum(ends[:hi], until) - numpy.maximum(starts[:hi], since)
        kept = overlap > 0
        overlap = overlap[kept]
        up = ups[lo : lo + hi][kept]
        served = rates[lo : lo + hi][kept] * overlap
        failed = numpy.where(up, 0.0, self.sessions / self.retry_interval_s) * overlap
        down = overlap[~up]
        total = _running_sum(overlap)
        done = _running_sum(served)
        downtime = _running_sum(down)
        return {
            "requests": done,
            "failures": _running_sum(failed),
            "mean_rate": done / total if total > 0 else 0.0,
            "downtime_s": downtime,
            "availability": 1.0 - downtime / total if total > 0 else 1.0,
        }

    def requests(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Modeled completions inside a window."""
        return self._window(since, until)["requests"]

    def failures_in(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Modeled failed requests inside a window."""
        return self._window(since, until)["failures"]

    def downtime(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Seconds inside a window the service was unreachable."""
        return self._window(since, until)["downtime_s"]

    def availability(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Reachable fraction of the accounted window (1.0 if empty)."""
        return self._window(since, until)["availability"]

    def mean_rate(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean completions/second over a window (downtime included)."""
        return self._window(since, until)["mean_rate"]

    def throughput_timeline(self) -> list[tuple[float, float]]:
        """Per-tick (end time, req/s) points — the fluid Figure 7 series."""
        ticks, _, rates, _ = self.coordinator._tick_log(self._index)
        return list(zip(ticks.tolist(), rates.tolist()))

    def window_summary(self, since: float, until: float) -> dict[str, float]:
        """The cross-validation row for one observation window."""
        return self._window(since, until)


def _running_sum(terms: numpy.ndarray) -> float:
    """``sum(terms.tolist())``, bit for bit: a left-to-right sum."""
    if not len(terms):
        return 0
    return float(numpy.add.accumulate(terms)[-1])


def _grown(column: numpy.ndarray, size: int) -> numpy.ndarray:
    """``column`` zero-padded to ``size`` rows."""
    grown = numpy.zeros((size,) + column.shape[1:], dtype=column.dtype)
    grown[: len(column)] = column
    return grown


class FluidCoordinator:
    """Advances every registered :class:`FluidHttperf` at aggregation ticks.

    One per simulator.  Ticks land on the **absolute** grid (multiples of
    ``tick_s``), not at offsets from when the coordinator started: two
    simulations that build at different instants (a serial fleet vs. one
    of its shards) therefore account the same wall-aligned intervals, and
    windowed queries over a common span agree bit-for-bit.

    Each tick solves a per-machine waterfill: clients demand their
    closed-loop rate; every machine scales its residents' demands by one
    factor so no resource (CPU, memory bus, disk, NIC) exceeds capacity —
    the fluid analogue of :class:`~repro.simkernel.sharing.SharedPool`'s
    proportional sharing.  Summation order is registration order, so
    results are deterministic.

    **Incremental probes.**  Each client's last :class:`FluidProbe` lives
    in numpy columns (up flag, machine slot, demand, costs, capacities,
    payload, residency).  A tick re-probes only the clients marked dirty
    since the last one, then runs the waterfill and commits the tick as
    vector updates over all clients.  A client is dirty when it is new,
    when its last probe found the service unresolved or unreachable, or
    when an object its last probe read fired its
    :class:`~repro.simkernel.ChangeSignal`: the service, the guest, the
    guest's hypervisor (membership), the host NIC (up, down,
    degradation), the page cache — the client's own cache re-warming
    included — or the filesystem.  A steady tick therefore costs
    O(changed clients) in Python plus one numpy solve.

    **Columns.**  Tick rows are kept once per tick for all clients
    (end time, length, rates, up flags); per-client running totals are
    float64 vectors updated elementwise, which performs exactly the IEEE
    operations of a per-client ``+=``.  A client's first row covers only
    the part of its first tick after it registered.

    **Sanitizer.**  Under ``REPRO_SANITIZE=1`` every tick re-probes every
    clean client from scratch and compares the result with the cached
    columns bit for bit, and :meth:`finalize` replays each client's tick
    ledger against its running totals; a mismatch raises
    :class:`~repro.errors.WorkloadError`.
    """

    _COLUMNS = (
        "_up",
        "_slot",
        "_demand",
        "_costs",
        "_caps",
        "_payload",
        "_resident",
        "_fail_rate",
        "_completed",
        "_bytes",
        "_failures",
        "_downtime",
    )
    """The per-client numpy columns; row i belongs to client i."""

    def __init__(self, sim: Simulator, tick_s: float = 1.0) -> None:
        if tick_s <= 0:
            raise ReproError("fluid tick must be positive")
        self.sim = sim
        self.tick_s = tick_s
        self._clients: list[FluidHttperf] = []
        self._proc: Process | None = None
        self._last = sim.now
        self._stopped = False
        # Cached probe results.
        self._up = numpy.zeros(0, dtype=bool)
        self._slot = numpy.zeros(0, dtype=numpy.intp)
        self._demand = numpy.zeros(0)
        self._costs = numpy.zeros((0, _RESOURCES))
        self._caps = numpy.zeros((0, _RESOURCES))
        self._payload = numpy.zeros(0)
        self._resident = numpy.zeros(0)
        self._guests: list[typing.Any] = []
        self._watched: list[tuple[ChangeSignal, ...]] = []
        self._watchers: list[typing.Callable[[], None]] = []
        self._dirty: set[int] = set()
        self._machines: dict[typing.Any, int] = {}
        """Machine -> waterfill slot, in first-probe order."""
        # Running totals.
        self._fail_rate = numpy.zeros(0)
        self._completed = numpy.zeros(0)
        self._bytes = numpy.zeros(0)
        self._failures = numpy.zeros(0)
        self._downtime = numpy.zeros(0)
        # The tick log.
        self._first: list[int] = []
        """Each client's first tick row (-1 until it has one)."""
        self._first_dt: list[float] = []
        self._waiting: list[tuple[int, float]] = []
        """(client, registration time) for clients without a tick row yet."""
        self._payloads: list[list[tuple[int, float]]] = []
        """Per client, (first tick row, payload) whenever a probe changed it."""
        self._tick_end: list[float] = []
        self._tick_dt: list[float] = []
        self._tick_rate: list[numpy.ndarray] = []
        self._tick_up: list[numpy.ndarray] = []
        self._stacked: tuple[int, numpy.ndarray, ...] | None = None
        """The tick rows as matrices, rebuilt when a tick was added."""

    def register(self, client: FluidHttperf) -> int:
        """Add a client and return its column index; starts the tick
        process on the first register."""
        if self._stopped:
            raise ReproError("fluid coordinator already finalized")
        index = len(self._clients)
        if index == len(self._up):
            size = max(16, 2 * index)
            for name in self._COLUMNS:
                setattr(self, name, _grown(getattr(self, name), size))
        self._clients.append(client)
        self._fail_rate[index] = client.sessions / client.retry_interval_s
        self._guests.append(None)
        self._watched.append(())
        self._watchers.append(functools.partial(self._dirty.add, index))
        self._dirty.add(index)
        self._first.append(-1)
        self._first_dt.append(0.0)
        self._waiting.append((index, self.sim.now))
        self._payloads.append([])
        if self._proc is None:
            self._last = self.sim.now
            self._proc = self.sim.spawn(self._run(), name="fluid.coordinator")
        return index

    def _run(self) -> typing.Generator:
        sim = self.sim
        tick = self.tick_s
        while not self._stopped:
            target = (math.floor(sim.now / tick) + 1) * tick
            yield sim.timeout(target - sim.now)
            self._account(sim.now)

    # -- probes ------------------------------------------------------------------

    def _refresh(self, index: int) -> None:
        """Re-probe one client into its columns and re-aim its watcher."""
        watcher = self._watchers[index]
        for signal in self._watched[index]:
            signal.unwatch(watcher)
        probe = self._clients[index]._probe()
        if probe is None:
            # Unresolved or unreachable: probe again next tick.
            self._up[index] = False
            self._guests[index] = None
            self._watched[index] = ()
            self._dirty.add(index)
            return
        self._up[index] = True
        self._slot[index] = self._machines.setdefault(
            probe.machine, len(self._machines)
        )
        self._demand[index] = probe.demand
        self._costs[index] = probe.costs
        self._caps[index] = probe.capacities
        self._payload[index] = probe.payload
        self._resident[index] = probe.resident
        self._guests[index] = probe.guest
        self._watched[index] = probe.watched
        for signal in probe.watched:
            signal.watch(watcher)
        payloads = self._payloads[index]
        if not payloads or payloads[-1][1] != probe.payload:
            payloads.append((len(self._tick_end), probe.payload))

    def _cross_check(self) -> None:
        """Sanitizer: every clean client's cached probe equals a fresh
        one, bit for bit.

        Dirty clients are skipped: they are re-probed before their
        columns are next read.  Right after a tick's refresh the only
        dirty clients are the unreachable ones.
        """
        dirty = self._dirty
        for index, client in enumerate(self._clients):
            if index in dirty:
                continue
            fresh = client._probe()
            cached_up = bool(self._up[index])
            if (fresh is not None) != cached_up:
                self._desync(index, "up", cached_up, fresh is not None)
            if fresh is None:
                continue
            slot = int(self._slot[index])
            if self._machines.get(fresh.machine) != slot:
                self._desync(index, "machine slot", slot, fresh.machine)
            if fresh.guest is not self._guests[index]:
                self._desync(index, "guest", self._guests[index], fresh.guest)
            if fresh.watched != self._watched[index]:
                self._desync(
                    index, "watched signals", self._watched[index], fresh.watched
                )
            cached = (
                float(self._demand[index]),
                *self._costs[index].tolist(),
                *self._caps[index].tolist(),
                float(self._payload[index]),
                float(self._resident[index]),
            )
            for field, old, new in zip(_PROBE_FIELDS, cached, fresh.values()):
                if old.hex() != float(new).hex():
                    self._desync(index, field, old, new)

    def _desync(
        self, index: int, field: str, cached: typing.Any, fresh: typing.Any
    ) -> typing.NoReturn:
        raise WorkloadError(
            f"fluid client {self._clients[index].name!r} (#{index}): cached "
            f"{field} {cached!r} but a fresh probe reads {fresh!r}: a change "
            "to an object its last probe read was not signalled"
        )

    # -- ticks -------------------------------------------------------------------

    def _account(self, until: float) -> None:
        start = self._last
        if until <= start:
            return
        self._last = until
        count = len(self._clients)
        if not count:
            return
        if self._dirty:
            dirty = sorted(self._dirty)
            self._dirty.clear()
            for index in dirty:
                self._refresh(index)
        if self.sim.sanitizer is not None:
            self._cross_check()
        up = self._up[:count].copy()
        demand = numpy.where(up, self._demand[:count], 0.0)
        slots = self._slot[:count]
        machines = len(self._machines)
        if machines:
            load = numpy.zeros((_RESOURCES, machines))
            for axis in range(_RESOURCES):
                numpy.add.at(load[axis], slots, demand * self._costs[:count, axis])
            capacity = numpy.ones((_RESOURCES, machines))
            capacity[:, slots[up]] = self._caps[:count][up].T
            # An axis nobody stresses (fully-resident corpus: zero disk
            # bytes) has load 0; the discarded division overflows, so
            # silence it rather than special-case the mask.
            with numpy.errstate(over="ignore", divide="ignore"):
                ratio = numpy.where(
                    load > 0.0, capacity / numpy.maximum(load, 1e-300), numpy.inf
                )
            scale = numpy.minimum(ratio.min(axis=0), 1.0)
            rates = demand * scale[slots]
        else:
            rates = demand
        self._commit(start, until, rates, up)

    def _commit(
        self, start: float, until: float, rates: numpy.ndarray, up: numpy.ndarray
    ) -> None:
        """Account the tick [start, until] for every client at once."""
        count = len(rates)
        full = until - start
        dt: float | numpy.ndarray = full
        row = len(self._tick_end)
        if self._waiting:
            # A client's first row starts where it registered; one that
            # registered at the tick's very end waits for the next tick.
            dt = numpy.full(count, full)
            waiting: list[tuple[int, float]] = []
            for index, since in self._waiting:
                span = until - max(start, since)
                if span > 0:
                    self._first[index] = row
                    self._first_dt[index] = span
                    dt[index] = span
                else:
                    dt[index] = 0.0
                    waiting.append((index, since))
            self._waiting = waiting
        payload = self._payload[:count]
        done = rates * dt
        fail = numpy.where(up, 0.0, self._fail_rate[:count] * dt)
        self._completed[:count] += done
        self._bytes[:count] += done * payload
        self._failures[:count] += fail
        self._downtime[:count] += numpy.where(up, 0.0, dt)
        self._tick_end.append(until)
        self._tick_dt.append(full)
        self._tick_rate.append(rates)
        self._tick_up.append(up)
        resident = self._resident[:count]
        cold = numpy.flatnonzero(up & (resident < 1.0))
        if len(cold):
            budgets = done * (1.0 - resident) * payload
            for index in cold.tolist():
                self._clients[index]._warm(self._guests[index], float(budgets[index]))
        if self.sim.metrics.enabled:
            first = self._first
            for index, (served, failed, is_up) in enumerate(
                zip(done.tolist(), fail.tolist(), up.tolist())
            ):
                if first[index] < 0:
                    continue
                client = self._clients[index]
                if is_up:
                    client._metric_completed.inc(served)
                else:
                    client._metric_errors.inc(failed)

    def _tick_log(
        self, index: int
    ) -> tuple[numpy.ndarray, numpy.ndarray, numpy.ndarray, numpy.ndarray]:
        """One client's tick rows as (end times, lengths, rates, up flags)."""
        first = self._first[index]
        if first < 0:
            empty = numpy.zeros(0)
            return empty, empty, empty, numpy.zeros(0, dtype=bool)
        rows = len(self._tick_end)
        if self._stacked is None or self._stacked[0] != rows:
            width = len(self._tick_rate[-1])
            rates = numpy.zeros((rows, width))
            ups = numpy.zeros((rows, width), dtype=bool)
            for row, (rate, up) in enumerate(zip(self._tick_rate, self._tick_up)):
                rates[row, : len(rate)] = rate
                ups[row, : len(up)] = up
            self._stacked = (
                rows, numpy.array(self._tick_end), numpy.array(self._tick_dt),
                rates, ups,
            )
        _, ends, spans, rates, ups = self._stacked
        spans = spans[first:].copy()
        spans[0] = self._first_dt[index]
        return ends[first:], spans, rates[first:, index], ups[first:, index]

    def _check_conservation(self) -> None:
        """Sanitizer: replay every client's tick ledger, in order, against
        its running totals; they must agree exactly."""
        for index, client in enumerate(self._clients):
            _, spans, rates, ups = (
                column.tolist() for column in self._tick_log(index)
            )
            fail_rate = float(self._fail_rate[index])
            payloads = self._payloads[index]
            cursor = 0
            payload = 0.0
            completed = served = failures = downtime = 0.0
            for offset, (span, rate, is_up) in enumerate(zip(spans, rates, ups)):
                row = self._first[index] + offset
                while cursor < len(payloads) and payloads[cursor][0] <= row:
                    payload = payloads[cursor][1]
                    cursor += 1
                if is_up:
                    done = rate * span
                    completed += done
                    served += done * payload
                else:
                    failures += fail_rate * span
                    downtime += span
            for field, ledger, total in (
                ("total_completed", completed, client.total_completed),
                ("bytes_served", served, client.bytes_served),
                ("failures", failures, client.failures),
                ("downtime_s", downtime, client.downtime_s),
            ):
                if ledger != total:
                    raise WorkloadError(
                        f"fluid client {client.name!r} (#{index}): {field} is "
                        f"{total!r} but its tick ledger sums to {ledger!r}"
                    )

    def finalize(self) -> None:
        """Account the trailing partial tick and stop; idempotent.

        Under the runtime sanitizer, also checks request conservation
        (see :meth:`_check_conservation`).
        """
        if self._stopped:
            return
        self._account(self.sim.now)
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        for watcher, watched in zip(self._watchers, self._watched):
            for signal in watched:
                signal.unwatch(watcher)
        self._watched = [() for _ in self._clients]
        if self.sim.sanitizer is not None:
            self._check_conservation()
