"""The benchmark's three workloads.

Each workload is a closed loop with one client: :meth:`Workload.step`
issues the next request only after the previous one completed. The
inputs come from the seed alone. A step returns its latency samples,
the work it completed and a check that verifies the outputs against an
oracle; the harness runs checks outside the timed region.

* ``cell-day`` — one owner's cell: 1 Hz meter acquisition (store
  ingest, AEAD bundle seal, vault push) plus three owner range queries
  per simulated quarter-hour.
* ``fleet-oneshot`` — one-shot federated queries over a key-lifecycle
  fleet, alternating the flat and the tree coordinator, with epoch
  rotations and revocations between queries.
* ``standing-tenants`` — many standing subscriptions over one fleet,
  driven one window slide at a time, with an epoch rotation every
  second window.

The host's cores slow down in bursts that other tenants of the machine
cause, so every timed sample is also expressed in *reference units*: its
time over the time of a fixed pure-Python loop (:func:`reference_loop`)
read around and, for long samples, inside it (:class:`HostSpeed`). A
slow spell slows the sample and the reference loop alike, and the ratio
stays put.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.commons.anonymize import is_k_anonymous
from repro.core import TrustedCell
from repro.errors import IntegrityError
from repro.fedquery import (
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    open_records,
    open_release,
    recipient_key,
    seed_stream_data,
    tenant_specs,
)
from repro.fedquery.coordinator import OUTCOME_COMPLETE
from repro.fedquery.spec import TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON
from repro.hardware import SMART_TOKEN, SMARTPHONE, NandFlash
from repro.infrastructure import CloudProvider, Network
from repro.sim import World
from repro.store import Between, Catalog, Query
from repro.store.encoding import encode_records
from repro.store.query import Aggregate
from repro.sync import VaultClient
from repro.workloads.energy import HouseholdSimulator

_perf = time.perf_counter

SECONDS_PER_DAY = 86_400


#: Iterations of the reference loop: about 1 ms at full speed on a
#: 2.1 GHz Xeon core with Python 3.11.
REFERENCE_ITERATIONS = 8000


def reference_loop() -> None:
    """The benchmark's unit of host speed: a fixed pure-Python loop of
    dict updates that calls no ``repro`` code."""
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        table[i % 997] = table.get(i % 997, 0) + i


class HostSpeed:
    """Readings of the reference loop's time, taken between timed work.

    A step reads before its first timed sample and after each one, and
    may read inside a long sample too (:meth:`busy` then takes the
    readings' own time back out of the sample). :meth:`over` gives the
    host's speed during an interval: the median of the readings inside
    it and the nearest one on each side.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._times: list[float] = []

    def read(self) -> None:
        started = _perf()
        reference_loop()
        ended = _perf()
        self._starts.append(started)
        self._ends.append(ended)
        self._times.append(ended - started)

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self._starts, start),
                bisect.bisect_right(self._ends, end))

    def busy(self, start: float, end: float) -> float:
        """Time spent reading inside ``[start, end]``."""
        low, high = self._inside(start, end)
        return sum(self._times[low:high])

    def over(self, start: float, end: float) -> float:
        low, high = self._inside(start, end)
        return statistics.median(self._times[max(low - 1, 0):high + 1])


@dataclass
class Step:
    """What one closed-loop iteration did: the host-time interval of
    each latency sample and of the step's work (see :class:`HostSpeed`
    for how the harness turns them into timings)."""

    samples: list[tuple[float, float]]
    work: float
    work_interval: tuple[float, float]
    attempted: int
    check: Callable[[], int]


def _dp_bound(spec: FedQuerySpec, roster_size: int) -> float:
    """A bound the distributed Laplace noise exceeds with probability
    e^-30: 30 noise scales (sensitivity 1) plus each cell's rounding
    to the spec's fixed-point scale."""
    return 30.0 / spec.epsilon + roster_size / spec.scale


def _at_scale(value: float, scale: int) -> int:
    return round(value * scale)


class Workload:
    """One workload: set-up, closed-loop steps, final checks."""

    name = ""
    #: Steps per traced/untraced block of a traced run: a whole cycle
    #: of the workload's request mix and key events, so traced and
    #: untraced steps see the same mix (see :meth:`key_events`).
    block = 1
    #: Set-ups per untraced run; the run reports their median.
    setup_repeats = 3
    #: Steps until the workload's inputs run out; the harness then
    #: starts over on a fresh set-up (``None``: they never run out).
    pass_steps: int | None = None
    #: Peak RSS is read after this many steps (or at the end of a
    #: shorter run), so it measures a fixed amount of work.
    rss_steps = 1
    #: This workload's names for the generic metric stems ``latency``
    #: and ``throughput``.
    labels: dict[str, str] = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.speed = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, index: int) -> Step:
        """Run request ``index`` of the pass (``index < pass_steps``)."""
        raise NotImplementedError

    def key_events(self, index: int) -> tuple[str, ...]:
        """The key-lifecycle events step ``index`` runs besides its
        request, by schedule alone."""
        return ()

    def finish(self) -> tuple[int, int]:
        """End-of-run checks: ``(attempted, failed)``."""
        return 0, 0


# -- cell-day -----------------------------------------------------------------


class CellDay(Workload):
    """One owner's cell over simulated 1 Hz meter days.

    Set-up loads one day of history into a ``Catalog`` on the smart-
    token flash geometry (ordered index on ``t``, 128-page cache). Each
    step is one quarter-hour: ingest 900 samples, seal them as one AEAD
    bundle, push the bundle to the cloud vault, then run the owner's
    three queries — the last 15 minutes of rows (cache-resident), the
    last hour's sum and count (cache-resident) and the last six hours'
    (larger than the cache, so it reads from flash).
    """

    name = "cell-day"
    block = 1
    setup_repeats = 7  # a short set-up: more repeats steady its median
    rss_steps = 24
    labels = {"latency": "owner_query", "throughput": "ingest_records"}

    STEP_S = 900
    WINDOWS_S = (900, 3600, 6 * 3600)
    CACHE_PAGES = 128
    VERIFY_EVERY = 8
    PIN = "0000"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.history_s = 6 * 3600 if smoke else SECONDS_PER_DAY
        self.pass_steps = 16 if smoke else 480

    def setup(self) -> None:
        self._simulator = HouseholdSimulator(
            random.Random(self.seed), sample_period=1)
        capacity = self.history_s + self.pass_steps * self.STEP_S
        # The oracle: every generated sample, in time order.
        self._t = np.empty(capacity, dtype=np.int64)
        self._w = np.empty(capacity, dtype=np.float64)
        self._n = 0
        self._day = -1
        self._day_rows: list[tuple[str, dict]] = []
        self._day_offset = 0
        history = self._take(self.history_s)
        timings = SMART_TOKEN.flash
        # ~52 encoded bytes per sample; 1.5x headroom for the log.
        pages = math.ceil(capacity * 52 * 1.5 / (timings.page_size - 8))
        blocks = math.ceil(pages / timings.pages_per_block) + 4
        flash = NandFlash(
            timings, blocks * timings.pages_per_block * timings.page_size)
        self.catalog = Catalog(
            flash, page_cache_bytes=self.CACHE_PAGES * timings.page_size)
        self.meter = self.catalog.collection("meter")
        self.meter.create_ordered_index("t")
        self.meter.insert_many(history)
        world = World(seed=self.seed)
        self.cell = TrustedCell(world, "owner-cell", SMARTPHONE)
        self.cell.register_user("owner", self.PIN)
        self.session = self.cell.login("owner", self.PIN)
        self.vault = VaultClient(self.cell, CloudProvider(world))

    def _take(self, count: int) -> list[tuple[str, dict]]:
        """The next ``count`` samples of the simulated meter trace."""
        rows: list[tuple[str, dict]] = []
        while len(rows) < count:
            if self._day_offset == len(self._day_rows):
                self._day += 1
                self._day_rows = self._simulator.simulate_day(
                    self._day).records()
                self._day_offset = 0
            take = min(count - len(rows),
                       len(self._day_rows) - self._day_offset)
            rows.extend(
                self._day_rows[self._day_offset:self._day_offset + take])
            self._day_offset += take
        start = self._n
        self._t[start:start + count] = [record["t"] for _, record in rows]
        self._w[start:start + count] = [record["w"] for _, record in rows]
        self._n += count
        return rows

    def step(self, index: int) -> Step:
        rows = self._take(self.STEP_S)
        records = [record for _, record in rows]
        object_id = f"meter-{index:06d}"
        self.speed.read()
        started = _perf()
        self.meter.insert_many(rows)
        frames = encode_records(records)
        self.cell.store_frames(self.session, object_id, frames)
        report = self.vault.push_many([object_id])
        ingested = _perf()
        self.speed.read()
        now = int(self._t[self._n - 1]) + 1
        samples = []
        results = []
        for window in self.WINDOWS_S:
            query = self._query(now - window, now - 1, listing=window
                                == self.WINDOWS_S[0])
            started_query = _perf()
            results.append(self.catalog.query(query))
            samples.append((started_query, _perf()))
            self.speed.read()
        verify = index % self.VERIFY_EVERY == 0

        def check() -> int:
            failed = int(report.pushed != [object_id])
            for window, result in zip(self.WINDOWS_S, results):
                failed += not self._matches_oracle(now - window, result)
            if verify:
                failed += not self._round_trips(object_id, frames)
            return failed

        return Step(samples, work=len(rows), work_interval=(started, ingested),
                    attempted=1 + len(results) + verify, check=check)

    @staticmethod
    def _query(low: int, high: int, *, listing: bool) -> Query:
        where = Between("t", low, high)
        if listing:
            return Query("meter", where=where, order_by="t")
        return Query("meter", where=where,
                     aggregates=[Aggregate("sum", "w"), Aggregate("count")])

    def _matches_oracle(self, low: int, result) -> bool:
        start = int(np.searchsorted(self._t[:self._n], low))
        t = self._t[start:self._n]
        w = self._w[start:self._n]
        if result.rows and "sum(w)" in result.rows[0]:
            row = result.rows[0]
            expected = float(w.sum())
            return (row["count(*)"] == len(t) and abs(row["sum(w)"] - expected)
                    <= 1e-9 * max(1.0, abs(expected)))
        return (len(result.rows) == len(t)
                and np.array_equal([row["t"] for row in result.rows], t)
                and np.array_equal([row["w"] for row in result.rows], w))

    def _round_trips(self, object_id: str, frames: list[bytes]) -> bool:
        envelope = self.vault.verified_fetch(object_id)
        key = self.cell.tee.keys.key_for(object_id, envelope.version)
        opened, _ = envelope.open_bundle(key)
        return opened == frames


# -- fleet-oneshot ------------------------------------------------------------


class FleetOneshot(Workload):
    """One-shot federated queries over one key-lifecycle fleet.

    Queries alternate between the flat coordinator and the coordinator
    tree (about sqrt(N) regions) over the same fleet, and cycle the
    exact, DP and k-anonymous transforms; the hour window of each
    energy query is drawn from the seed. Every few queries the fleet
    rotates its key epoch; less often it revokes a cell, which agrees
    fresh ring edges.

    A block of 12 steps holds two cycles of the request mix and three
    rotations. A revocation ends every second block, so revocations
    fall alternately in traced and untraced blocks.
    """

    name = "fleet-oneshot"
    block = 12  # flat/tree x exact/dp/kanon, twice; 3 epoch rotations
    rss_steps = 120
    labels = {"latency": "oneshot_query", "throughput": "oneshot_queries"}

    NEIGHBORS = 8
    ROTATE_EVERY = 4
    MAX_REVOCATIONS = 6
    PURPOSES = {"load-forecast", "study"}
    TRANSFORMS = (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.cells = 16 if smoke else 96
        self.revoke_every = 6 if smoke else 2 * self.block

    def setup(self) -> None:
        self.world = World(seed=self.seed)
        self.network = Network(self.world)
        self.fleet = build_fleet(
            self.world, self.network, self.cells, purposes=set(self.PURPOSES),
            key_lifecycle=True, ring_neighbors=self.NEIGHBORS)
        self.coordinators = (
            Coordinator(self.world, self.network, neighbors=self.NEIGHBORS),
            HierarchicalCoordinator(
                self.world, self.network,
                regions=max(1, round(math.sqrt(self.cells))),
                neighbors=self.NEIGHBORS),
        )
        self._rng = random.Random(self.seed)
        self._revocations = 0

    def _spec(self, transform: str) -> FedQuerySpec:
        if transform == TRANSFORM_KANON:
            return FedQuerySpec(
                recipient="institute", purpose="study", transform=transform,
                collection="profile", k=5)
        low = self._rng.randrange(24)
        high = min(23, low + self._rng.randrange(6))
        return FedQuerySpec(
            recipient="utility" if transform == TRANSFORM_EXACT
            else "institute",
            purpose="load-forecast", transform=transform,
            collection="energy", where=Between("hour", low, high),
            value_field="watts",
            # DP needs fine fixed point so the noise shares survive.
            scale=1000 if transform == TRANSFORM_DP else 10, epsilon=2.0)

    def key_events(self, index: int) -> tuple[str, ...]:
        events = ()
        if index % self.ROTATE_EVERY == self.ROTATE_EVERY - 1:
            events += ("rotate",)
        if index % self.revoke_every == self.revoke_every - 1:
            events += ("revoke",)
        return events

    def step(self, index: int) -> Step:
        coordinator = self.coordinators[index % 2]
        spec = self._spec(self.TRANSFORMS[(index // 2) % 3])
        events = self.key_events(index)
        revoke = None
        if "revoke" in events and self._revocations < self.MAX_REVOCATIONS:
            revoke = self._rng.choice(self.fleet.roster)
            self._revocations += 1
        self.speed.read()
        started = _perf()
        if "rotate" in events:
            self.fleet.advance_epoch()
        if revoke is not None:
            self.fleet.revoke(revoke)
        roster = self.fleet.roster
        queried = _perf()
        result = coordinator.run(spec, roster)
        done = _perf()
        self.speed.read()
        return Step([(queried, done)], work=1, work_interval=(started, done),
                    attempted=1,
                    check=lambda: int(not self._correct(spec, roster, result)))

    def _correct(self, spec: FedQuerySpec, roster: list[str], result) -> bool:
        if result.outcome != OUTCOME_COMPLETE:
            return False
        if spec.transform == TRANSFORM_KANON:
            key = recipient_key(spec.recipient, self.fleet.secret)
            released = open_release(result, key, k=spec.k)
            wrong = recipient_key(spec.recipient, b"not-the-fleet-secret")
            try:
                open_records(wrong, result.sealed_records[0][1])
            except IntegrityError:
                rejected = True
            else:
                rejected = False
            return (rejected and is_k_anonymous(released, spec.k)
                    and len(released) == len(
                        self.fleet.local_rows(spec, roster)))
        truth = self.fleet.ground_truth(spec, roster)
        if spec.transform == TRANSFORM_DP:
            return abs(result.value - truth) <= _dp_bound(spec, len(roster))
        return _at_scale(result.value, spec.scale) \
            == _at_scale(truth, spec.scale)


# -- standing-tenants ---------------------------------------------------------


class _TimedResults(dict):
    """A subscription's result map that stamps the host time each
    window result lands (the handle's ``results`` is the reply
    channel the coordinator writes)."""

    def __init__(self, stamps: dict, tenant: int) -> None:
        super().__init__()
        self._stamps = stamps
        self._tenant = tenant

    def __setitem__(self, index, result) -> None:
        self._stamps[(self._tenant, index)] = _perf()
        super().__setitem__(index, result)


class StandingTenants(Workload):
    """Standing subscriptions of many tenants over one fleet.

    A key-lifecycle fleet (ring degree k) seeded with the energy and
    employment streams serves ``tenant_specs`` subscriptions on 900 s
    tumbling windows over 300 s field units. Tenants subscribed at one
    of the three field-unit phases of the window, so a third of them
    close a window every 300 s; each step drives the simulation through
    one such close. The fleet rotates its key epoch halfway through
    every second slide, as ``run_traffic(..., rotate_epoch_every=2)``
    schedules it. A window's latency is the host time from the moment
    the simulation reaches its close to the moment its result settles
    at the coordinator. A pass is four windows of every subscription,
    twelve steps.
    """

    name = "standing-tenants"
    block = 6  # three phases x one epoch rotation per two windows
    rss_steps = 12  # one pass
    labels = {"latency": "standing_window",
              "throughput": "standing_windows"}

    WIDTH_S = 900
    FIELD_S = 300
    PHASES = WIDTH_S // FIELD_S
    ROTATE_EVERY = 2
    CHECKS_PER_STEP = 2
    #: Simulation events between host-speed readings inside a step
    #: (a step runs ~800 of them in 0.3 s).
    EVENTS_PER_READING = 100
    #: Windows per subscription. The cells' window scans read the whole
    #: growing stream, so a step costs more the later it comes; a short
    #: pass, started over while the run lasts, makes every run time the
    #: same steps however fast the host is.
    windows = 4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.cells, self.neighbors, self.tenants = (
            (12, 4, 16) if smoke else (24, 8, 48))
        self.pass_steps = self.windows * self.PHASES
        self.clauses = [
            WindowClause(width_s=self.WIDTH_S, windows=self.windows,
                         field_seconds=self.FIELD_S,
                         origin_s=phase * self.FIELD_S)
            for phase in range(self.PHASES)
        ]

    def setup(self) -> None:
        self.world = World(seed=self.seed)
        self.network = Network(self.world)
        self.fleet = build_fleet(
            self.world, self.network, self.cells, key_lifecycle=True,
            ring_neighbors=self.neighbors)
        seed_stream_data(self.fleet, units=(self.windows + 1) * self.PHASES,
                         field_seconds=self.FIELD_S)
        # The coordinator must mask at the fleet's ring degree: a cell
        # holds keys for its agreed ring edges only.
        self.coordinator = StandingCoordinator(
            self.world, self.network, neighbors=self.neighbors)
        loop = self.world.loop
        self._closed_at: dict[int, float] = {}
        # Scheduled before any subscription, so at a close instant the
        # stamp runs before the cells' window-close events.
        for index in range(self.windows * self.PHASES):
            loop.schedule_at(
                self._close_s(index),
                lambda i=index: self._closed_at.__setitem__(i, _perf()),
                label=f"perfbench close stamp {index}")
        for at_s in self._rotations_s():
            loop.schedule_at(at_s, self.fleet.advance_epoch,
                             label=f"perfbench epoch rotation at {at_s}s")
        self._settled: dict[tuple[int, int], float] = {}
        self.specs = tenant_specs(self.tenants)
        self.subscriptions = []
        for tenant, spec in enumerate(self.specs):
            sub = self.coordinator.subscribe(
                spec, self.fleet.roster, self.clauses[tenant % self.PHASES])
            sub.results = _TimedResults(self._settled, tenant)
            self.subscriptions.append(sub)
        loop.run_until(self.world.now)  # deliver the subscriptions

    def _close_s(self, index: int) -> int:
        """Sim time of step ``index``'s window close."""
        return self.WIDTH_S + index * self.FIELD_S

    def _until_s(self, index: int) -> int:
        """Sim time step ``index`` drives the simulation to."""
        return self._close_s(index) + self.FIELD_S - 1

    def _rotations_s(self) -> list[int]:
        """Sim times of the epoch rotations: halfway through the slide
        after every ``ROTATE_EVERY``-th window of the first clause."""
        first = self.clauses[0]
        return [first.window_span_s(window)[1] + first.slide // 2
                for window in range(self.ROTATE_EVERY - 1, self.windows,
                                    self.ROTATE_EVERY)]

    def key_events(self, index: int) -> tuple[str, ...]:
        after_s = self._until_s(index - 1) if index else -1
        return tuple("rotate" for at_s in self._rotations_s()
                     if after_s < at_s <= self._until_s(index))

    def step(self, index: int) -> Step:
        phase, window = index % self.PHASES, index // self.PHASES
        tenants = list(range(phase, self.tenants, self.PHASES))
        before = len(self._settled)
        loop = self.world.loop
        close_s = self._close_s(index)
        self.speed.read()
        started = _perf()
        # Every event of the close runs in one simulated second; reading
        # the host's speed between chunks of them does not change their
        # order.
        loop.run_until(close_s - 1)
        while loop.run_until(close_s, max_events=self.EVENTS_PER_READING) \
                == self.EVENTS_PER_READING:
            self.speed.read()
        loop.run_until(self._until_s(index))
        done = _perf()
        self.speed.read()
        closed_at = self._closed_at[index]
        samples = [(closed_at, self._settled[(tenant, window)])
                   for tenant in tenants if (tenant, window) in self._settled]
        sampled = [tenants[(index * self.CHECKS_PER_STEP + offset)
                           % len(tenants)]
                   for offset in range(self.CHECKS_PER_STEP)]

        def check() -> int:
            failed = 0
            for tenant in tenants:
                result = self.subscriptions[tenant].results.get(window)
                failed += (result is None
                           or result.outcome != OUTCOME_COMPLETE)
            for tenant in sampled:
                failed += not self._window_correct(tenant, window)
            return failed

        return Step(samples, work=len(self._settled) - before,
                    work_interval=(started, done), attempted=len(tenants),
                    check=check)

    def _window_correct(self, tenant: int, window: int) -> bool:
        sub = self.subscriptions[tenant]
        result = sub.results.get(window)
        if result is None:
            return False
        wspec = sub.window.windowed_spec(sub.spec, window)
        if sub.spec.transform == TRANSFORM_KANON:
            key = recipient_key(sub.spec.recipient, self.fleet.secret)
            opened = sum(len(open_records(key, blob))
                         for _, blob in result.sealed_records or ()
                         if blob)
            return opened == len(self.fleet.local_rows(wspec, sub.roster))
        truth = self.fleet.ground_truth(wspec, sub.roster)
        if sub.spec.transform == TRANSFORM_DP:
            return abs(result.value - truth) <= _dp_bound(
                sub.spec, len(sub.roster))
        return _at_scale(result.value, sub.spec.scale) \
            == _at_scale(truth, sub.spec.scale)

    def finish(self) -> tuple[int, int]:
        """Re-run the first and last settled window of an exact tenant
        as one-shot queries: the totals must match the standing ones
        bit for bit."""
        exact = [tenant for tenant, spec in enumerate(self.specs)
                 if spec.transform == TRANSFORM_EXACT]
        pairs = []
        for tenant in exact[:1] + exact[-1:]:
            driven = sorted(window for t, window in self._settled
                            if t == tenant)
            if driven:
                pairs.append((tenant, driven[0] if not pairs else driven[-1]))
        if not pairs:
            return 0, 0
        checker = Coordinator(self.world, self.network,
                              address="perfbench-oneshot-check",
                              neighbors=self.neighbors)
        failed = 0
        for tenant, window in pairs:
            sub = self.subscriptions[tenant]
            standing = sub.results[window]
            oneshot = checker.run(
                sub.window.windowed_spec(sub.spec, window), sub.roster)
            failed += not (oneshot.outcome == OUTCOME_COMPLETE
                           and oneshot.value == standing.value)
        return len(pairs), failed


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (CellDay, FleetOneshot, StandingTenants)
}
