"""Unit tests for the cluster, load balancer, and rolling rejuvenation."""

import pytest

from repro.cluster import (
    Cluster,
    LoadBalancer,
    MigrationRejuvenator,
    RollingRejuvenator,
    live_migrate,
)
from repro.config import small_testbed
from repro.errors import ClusterError, ReproError
from repro.guest.services import Service
from repro.scenario import HostSpec, ScenarioSpec, VMSpec, WorkloadSpec
from repro.scenario import build_scenario
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def started_cluster(sim, size=2, spare=False, services=("ssh",)):
    cluster = Cluster(
        sim, size=size, vms_per_host=1, services=services,
        profile=small_testbed(), spare=spare,
    )
    sim.run(sim.spawn(cluster.start()))
    return cluster


class TestCluster:
    def test_validation(self, sim):
        with pytest.raises(ClusterError):
            Cluster(sim, size=0)
        with pytest.raises(ClusterError):
            Cluster(sim, size=1, vms_per_host=0)

    def test_start_brings_all_hosts_up(self, sim):
        cluster = started_cluster(sim, size=3)
        assert len(cluster.services()) == 3
        for host in cluster.hosts:
            assert host.started

    def test_spare_host_has_no_vms(self, sim):
        cluster = started_cluster(sim, spare=True)
        assert cluster.spare is not None
        assert cluster.spare.vm_count == 0

    def test_host_lookup(self, sim):
        cluster = started_cluster(sim)
        assert cluster.host("host0").name == "host0"
        with pytest.raises(ClusterError):
            cluster.host("nope")

    def test_hosts_have_independent_hardware(self, sim):
        cluster = started_cluster(sim)
        assert cluster.host("host0").machine is not cluster.host("host1").machine


def scan_first(cluster, vm_name, service_name):
    """The brute-force resolution the replica index replaces: the first
    services() entry whose guest is ``vm_name``."""
    for candidate in cluster.services(service_name):
        if candidate.guest is not None and candidate.guest.name == vm_name:
            return candidate
    return None


def resolve_through(cluster, proc, vm_name, service_name, step_s=0.5):
    """Step ``proc`` to completion, checking ``replica`` against the scan
    at every step; returns the distinct answers in the order seen."""
    sim = cluster.sim
    seen = []
    while True:
        found = cluster.replica(vm_name, service_name)
        assert found is scan_first(cluster, vm_name, service_name)
        if not seen or seen[-1] is not found:
            seen.append(found)
        if not proc.is_alive:
            return seen
        sim.run(until=sim.now + step_s)


class TestReplicaIndex:
    """``Cluster.replica`` returns exactly the scan's first match through
    every path that changes where a service lives."""

    def test_warm_reboot_keeps_the_same_object(self, sim):
        cluster = started_cluster(sim, size=2)
        before = cluster.replica("host0-vm0", "sshd")
        proc = sim.spawn(cluster.host("host0").reboot("warm"))
        seen = resolve_through(cluster, proc, "host0-vm0", "sshd")
        assert seen == [before, None, before]

    def test_cold_reboot_resolves_the_new_service_object(self, sim):
        cluster = started_cluster(sim, size=2)
        before = cluster.replica("host0-vm0", "sshd")
        proc = sim.spawn(cluster.host("host0").reboot("cold"))
        first, gap, after = resolve_through(cluster, proc, "host0-vm0", "sshd")
        assert (first, gap) == (before, None)
        assert after is not before and after.is_up

    def test_checkpoint_boot_resolves_the_restored_service(self, sim):
        cluster = started_cluster(sim, size=2)
        before = cluster.replica("host1-vm0", "sshd")
        proc = sim.spawn(
            cluster.host("host1").reboot_guest(
                "host1-vm0", checkpoint_processes=True
            )
        )
        first, gap, after = resolve_through(cluster, proc, "host1-vm0", "sshd")
        assert (first, gap) == (before, None)
        assert after is not before and after.restored_from_checkpoint

    def test_live_migration_follows_the_vm_to_the_spare(self, sim):
        cluster = started_cluster(sim, size=2, spare=True)
        before = cluster.replica("host0-vm0", "sshd")
        proc = sim.spawn(
            live_migrate(cluster.host("host0"), cluster.spare, "host0-vm0")
        )
        assert resolve_through(cluster, proc, "host0-vm0", "sshd") == [before]
        assert before.guest.vmm is cluster.spare.vmm
        assert cluster.host("host0").require_vmm().domus == []

    def test_rebind_alone_invalidates(self, sim):
        """A guest adopted by an already-registered domain is visible at
        once: ``rebind`` is the only signal between the two lookups."""
        cluster = started_cluster(sim, size=1, spare=True)
        source, spare = cluster.host("host0"), cluster.spare
        service = cluster.replica("host0-vm0", "sshd")
        guest = service.guest
        domain = sim.run(
            sim.spawn(
                spare.require_vmm().create_domain(
                    "host0-vm0", guest.memory_bytes
                )
            )
        )
        guest.mark_dead()
        source.require_vmm().destroy_domain("host0-vm0")
        assert cluster.replica("host0-vm0", "sshd") is None
        guest.rebind(spare.require_vmm(), domain)
        assert cluster.replica("host0-vm0", "sshd") is service
        assert scan_first(cluster, "host0-vm0", "sshd") is service

    def test_absent_vm_resolves_to_none_and_the_lookup_raises(self):
        built = build_scenario(
            ScenarioSpec(
                name="replica-absent",
                hosts=(HostSpec(count=2, vms=(VMSpec(services=("ssh",)),)),),
                workloads=(
                    WorkloadSpec(kind="prober", vm="host0-vm0", service="ssh"),
                ),
            )
        )
        cluster = built.cluster
        lookup = built.workloads[0].client.lookup
        assert cluster.replica("nope", "sshd") is None
        assert lookup() is cluster.replica("host0-vm0", "sshd")
        host = cluster.host("host0")
        host.guest("host0-vm0").mark_dead()
        host.require_vmm().destroy_domain("host0-vm0")
        assert cluster.replica("host0-vm0", "sshd") is None
        assert scan_first(cluster, "host0-vm0", "sshd") is None
        with pytest.raises(ReproError, match="no live sshd replica"):
            lookup()

    def test_sanitizer_catches_a_missed_invalidation(self, monkeypatch):
        """Planted defect: Service.start stops signalling its new guest,
        so the index still misses the restarted service; the sanitizer's
        cross-check must name the mismatch."""

        def attach_silently(service, guest):
            service.guest = guest

        sim = Simulator(sanitize=True)
        cluster = started_cluster(sim, size=2)
        monkeypatch.setattr(Service, "_attach", attach_silently)
        proc = sim.spawn(cluster.host("host0").reboot("cold"))
        mismatch = "host0-vm0.*sshd.*not signalled"
        with pytest.raises(ClusterError, match=mismatch):
            resolve_through(cluster, proc, "host0-vm0", "sshd")


class TestLoadBalancer:
    def test_round_robin_over_reachable(self, sim):
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        picks = [lb.pick().guest.name for _ in range(4)]
        assert set(picks) == {"host0-vm0", "host1-vm0"}
        assert lb.dispatched == 4

    def test_skips_unreachable_host(self, sim):
        cluster = started_cluster(sim, size=2)
        guest = cluster.host("host0").guest("host0-vm0")
        sim.run(sim.spawn(guest.run_suspend_handler()))
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        picks = {lb.pick().guest.name for _ in range(4)}
        assert picks == {"host1-vm0"}

    def test_no_replicas_raises(self, sim):
        lb = LoadBalancer(sim, lambda: [])
        with pytest.raises(ClusterError):
            lb.pick()
        assert lb.rejected == 1

    def test_all_down_raises(self, sim):
        cluster = started_cluster(sim, size=1)
        guest = cluster.host("host0").guest("host0-vm0")
        sim.run(sim.spawn(guest.run_suspend_handler()))
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        with pytest.raises(ClusterError):
            lb.pick()

    def test_dispatch_serves_request(self, sim):
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        result = sim.run(sim.spawn(lb.dispatch(payload_bytes=128)))
        assert result == 128


class TestRollingRejuvenation:
    def test_all_hosts_rebooted(self, sim):
        cluster = started_cluster(sim, size=3)
        rejuvenator = RollingRejuvenator(cluster, strategy="warm", settle_s=1)
        sim.run(sim.spawn(rejuvenator.run()))
        assert [r.host for r in rejuvenator.completed] == [
            "host0", "host1", "host2",
        ]
        for host in cluster.hosts:
            assert host.generation == 2

    def test_sequential_not_overlapping(self, sim):
        cluster = started_cluster(sim, size=2)
        rejuvenator = RollingRejuvenator(cluster, strategy="warm", settle_s=0)
        sim.run(sim.spawn(rejuvenator.run()))
        first, second = rejuvenator.completed
        assert second.started >= first.finished

    def test_service_continuity_under_warm_rolling(self, sim):
        """At most one replica is ever down: the LB can always dispatch."""
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        failures = []

        def prober(sim):
            while True:
                try:
                    lb.pick()
                except ClusterError:
                    failures.append(sim.now)
                yield sim.timeout(2.0)

        probe = sim.spawn(prober(sim))
        rejuvenator = RollingRejuvenator(cluster, strategy="warm", settle_s=2)
        sim.run(sim.spawn(rejuvenator.run()))
        probe.kill()
        assert failures == []

    def test_validation(self, sim):
        cluster = started_cluster(sim)
        with pytest.raises(ClusterError):
            RollingRejuvenator(cluster, settle_s=-1)


class TestMigrationRejuvenation:
    def test_requires_spare(self, sim):
        cluster = started_cluster(sim, spare=False)
        with pytest.raises(ClusterError):
            MigrationRejuvenator(cluster)

    def test_vms_return_home(self, sim):
        cluster = started_cluster(sim, size=2, spare=True)
        rejuvenator = MigrationRejuvenator(cluster, strategy="cold")
        sim.run(sim.spawn(rejuvenator.run()))
        for host in cluster.hosts:
            assert host.generation == 2  # rebooted once
            vm = f"{host.name}-vm0"
            assert host.guest(vm).state.value == "running"
        assert cluster.spare.require_vmm().domus == []

    def test_guest_state_survives_whole_cycle(self, sim):
        cluster = started_cluster(sim, size=1, spare=True)
        guest = cluster.host("host0").guest("host0-vm0")
        guest.page_cache.insert("/hot", 4096)
        rejuvenator = MigrationRejuvenator(cluster, strategy="cold")
        sim.run(sim.spawn(rejuvenator.run()))
        after = cluster.host("host0").guest("host0-vm0")
        assert after is guest  # same image travelled out and back
        assert after.page_cache.cached_bytes("/hot") == 4096
