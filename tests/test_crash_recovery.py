"""Coordinator crash recovery: the write-ahead journal under fire.

Three layers of assurance, all driven by the seeded simulator:

* scenario tests (:func:`repro.faults.scenario.run_crash_scenario`):
  an injected :class:`~repro.faults.plan.CrashSpec` kills a flat
  coordinator, a regional coordinator, or the tree root at a chosen
  query phase; the run must end ``complete`` with a field total
  bit-for-bit equal to the crash-free control — recovery, not retry
  luck;
* a property-style sweep that crashes each level — the flat
  coordinator, the tree root, one region — *after every single record
  of its journal* (the ``on_append`` durability hook fires right after
  the "disk write"), restarts it, and requires an identical outcome
  plus an empty leakage audit at every index;
* a directory-service crash mid-rotation, which must still converge
  every cell to the new epoch after replaying its notice journal.
"""

import pytest

from repro.faults import CrashSpec, FaultPlan
from repro.faults.scenario import run_crash_scenario

FLAT = "fq-coordinator"
ROOT = "fq-root"
REGION = "fq-root.r1"


def _flat(seed, crash=None, **kwargs):
    return run_crash_scenario(seed, topology="flat", crash=crash, **kwargs)


def _tree(seed, crash=None, **kwargs):
    return run_crash_scenario(seed, topology="tree", crash=crash, **kwargs)


class TestFlatCrashRecovery:
    @pytest.mark.parametrize("phase", ("fanout", "collect", "recover"))
    def test_crash_at_phase_recovers_to_control_total(self, phase):
        control = _flat(21)
        crashed = _flat(21, CrashSpec(
            FLAT, at_phase=phase, restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        # bit-for-bit: re-asks hit the cells' cached partials, so the
        # resumed query reassembles the identical field total
        assert crashed["field_total"] == control["field_total"]
        assert crashed["participants"] == control["participants"]
        assert not crashed["raw_in_journal"]
        assert not crashed["raw_in_view"]

    def test_timed_crash_recovers(self):
        control = _flat(22)
        crashed = _flat(22, CrashSpec(FLAT, at_time=1.0, restart_after_s=20.0))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_crash_runs_are_deterministic(self):
        spec = CrashSpec(FLAT, at_phase="collect", restart_after_s=30.0)
        assert _flat(23, spec) == _flat(23, spec)

    def test_quiet_control_sees_no_crash_machinery(self):
        row = _flat(24)
        assert row["crashes"] == 0
        assert row["faults_injected"] == 0
        assert row["reasks"] == 0
        assert row["outcome"] == "complete"
        assert row["journal_records"] > 0  # the journal is always on


class TestTreeCrashRecovery:
    @pytest.mark.parametrize("phase", ("fanout", "collect", "recover"))
    def test_root_crash_at_phase_recovers(self, phase):
        control = _tree(31)
        crashed = _tree(31, CrashSpec(
            ROOT, at_phase=phase, restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]
        assert not crashed["raw_in_journal"]

    def test_region_crash_with_restart_recovers(self):
        control = _tree(32)
        crashed = _tree(32, CrashSpec(
            REGION, at_phase="collect", restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_root_failover_respawns_dead_region(self):
        # no scheduled restart: the root's retry ladder is the failure
        # detector, and its respawn brings the region back from the
        # region's own journal
        control = _tree(33)
        crashed = _tree(33, CrashSpec(
            REGION, at_phase="collect", restart_after_s=None,
        ))
        assert crashed["crashes"] == 1
        assert crashed["respawns"] >= 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_crash_plus_offline_cells_is_survivor_exact(self):
        crashed = _tree(34, CrashSpec(
            REGION, at_phase="collect", restart_after_s=30.0,
        ), offline_cells=2)
        assert crashed["outcome"] == "partial"
        assert crashed["demoted"] == 2
        assert crashed["survivor_exact"]
        assert not crashed["raw_in_journal"]
        assert not crashed["raw_in_view"]


class TestCrashAfterEveryJournalRecord:
    """The WAL property: no append index is a bad time to die.

    Swept at every level of the machine: the flat coordinator, the tree
    root (crashed after each record of its own journal) and one region
    (``regions[1]``, crashed after each of its records), each with and
    without offline cells at the end of the roster.
    """

    N_CELLS = 10
    NEIGHBORS = 4
    TREE_CELLS = 24
    REGIONS = 3
    # Records the crashed level journals per query, by offline cells.
    TREE_RECORDS = {"root": {0: 5, 2: 9}, "region": {0: 10, 2: 12}}

    @staticmethod
    def _spec():
        from repro.fedquery import FedQuerySpec
        from repro.fedquery.spec import TRANSFORM_EXACT
        from repro.store.query import Between

        return FedQuerySpec(
            recipient="utility", purpose="load-forecast",
            transform=TRANSFORM_EXACT, collection="energy",
            where=Between("hour", 18, 21), value_field="watts", scale=10,
        )

    def _run(self, level, offline, crash_index=None):
        """One query; optionally crash ``level`` after record ``crash_index``
        and restart it 30 s later. Returns the result, the fleet, the
        crashed level's journal and every journal in the system."""
        from repro.fedquery import (
            Coordinator,
            HierarchicalCoordinator,
            build_fleet,
            build_fleet_sharded,
        )
        from repro.infrastructure import Network
        from repro.sim import World

        world = World(seed=41)
        network = Network(world)
        if level == "flat":
            fleet = build_fleet(world, network, self.N_CELLS,
                                purposes={"load-forecast"},
                                ring_neighbors=self.NEIGHBORS)
            coordinator = Coordinator(world, network,
                                      neighbors=self.NEIGHBORS,
                                      horizon_slack_s=300)
            target, journals = coordinator, [coordinator.journal]
        else:
            fleet = build_fleet_sharded(world, network, self.TREE_CELLS,
                                        shards=self.REGIONS,
                                        purposes={"load-forecast"},
                                        ring_neighbors=self.NEIGHBORS)
            coordinator = HierarchicalCoordinator(
                world, network, regions=self.REGIONS,
                neighbors=self.NEIGHBORS, horizon_slack_s=300,
            )
            target = coordinator if level == "root" \
                else coordinator.regions[1]
            journals = [coordinator.journal] + [
                region.journal for region in coordinator.regions
            ]
        for name in fleet.roster[len(fleet.roster) - offline:] \
                if offline else []:
            network.set_online(name, False)
        if crash_index is not None:
            def crash_after(index, record):
                if index != crash_index:
                    return
                # the record hit the log; the process dies before it
                # can act on it (deferred so the in-flight handler and
                # run()'s own fan-out finish their current step first)
                world.loop.schedule_at(world.now, target.crash,
                                       label="test.crash")
                world.loop.schedule_in(30.0, target.restart,
                                       label="test.restart")

            target.journal.on_append = crash_after
        result = coordinator.run(self._spec(), fleet.roster)
        return result, fleet, target.journal, journals

    @pytest.mark.parametrize("offline", (0, 2))
    @pytest.mark.parametrize("level", ("flat", "root", "region"))
    def test_crash_after_each_record_always_recovers(self, level, offline):
        from repro.crypto import shamir
        from repro.fedquery import journal_elements

        control, _, journal, _ = self._run(level, offline)
        assert control.outcome == ("complete" if not offline else "partial")
        records = len(journal)
        if level == "flat":
            # start + one partial per cell + done
            assert records > self.N_CELLS
        else:
            assert records == self.TREE_RECORDS[level][offline]
        spec = self._spec()
        for crash_index in range(records):
            result, fleet, _, journals = self._run(level, offline, crash_index)
            assert result.outcome == control.outcome, crash_index
            assert result.field_total == control.field_total, crash_index
            raw = {
                shamir.encode_signed(round(float(
                    fleet.catalogs[name].query(spec.local_query()).scalar()
                ) * spec.scale))
                for name in fleet.roster
            }
            for each in journals:
                assert not raw & journal_elements(each), crash_index


class TestDirectoryServiceCrash:
    def _fleet(self, n, seed):
        from repro.crypto.keys import KeyRing
        from repro.infrastructure.network import Network
        from repro.keymgmt import DirectoryService, KeyClient, KeyDirectory
        from repro.sim.world import World

        world = World(seed=seed)
        network = Network(world)
        directory = KeyDirectory(
            rng=world.rng("keymgmt.directory"), neighbors=4)
        clients = {}
        for i in range(n):
            name = f"cell-{i:04d}"
            directory.enroll(name, KeyRing.generate(world.rng(f"km.{name}")))
            clients[name] = KeyClient(world, network, name)
        directory.activate()
        service = DirectoryService(world, network, directory)
        return world, service, clients

    def test_rotation_survives_directory_crash(self):
        world, service, clients = self._fleet(8, 51)
        tag = service.advance_epoch()
        # die mid-ack-collection, restart, replay the notice journal
        world.loop.schedule_at(2.0, service.crash, label="test.crash")
        world.loop.schedule_in(32.0, service.restart, label="test.restart")
        world.loop.run_until(world.now + 900)
        status = service.rotations[tag]
        assert status.complete
        assert not status.exhausted
        assert all(client.epoch == 1 for client in clients.values())

    def test_revocation_survives_directory_crash(self):
        world, service, clients = self._fleet(8, 52)
        tag = service.revoke("cell-0003")
        world.loop.schedule_at(2.0, service.crash, label="test.crash")
        world.loop.schedule_in(32.0, service.restart, label="test.restart")
        world.loop.run_until(world.now + 900)
        status = service.rotations[tag]
        assert status.complete
        for name, client in clients.items():
            if name == "cell-0003":
                continue
            assert "cell-0003" in client.excluded, name
            assert client.epoch == 1, name

    def test_completed_rotation_replays_as_complete(self):
        world, service, clients = self._fleet(6, 53)
        tag = service.advance_epoch()
        world.loop.run_until(world.now + 600)
        assert service.rotations[tag].complete
        # a crash after convergence must not resurrect the rotation
        service.crash()
        service.restart()
        status = service.rotations[tag]
        assert status.complete
        assert not status.pending
