"""Tests for the crossbar, trace-driven core, and CMP front end."""

import pytest

from repro.baselines.no_cache import NoDramCache
from repro.config.system import CoreConfig, SystemConfig
from repro.cpu.cmp import TraceDrivenCmp
from repro.cpu.core import TraceDrivenCore
from repro.interconnect.crossbar import Crossbar
from repro.sim.factory import make_design
from repro.trace.record import MemoryAccess


class TestCrossbar:
    def test_uncontended_latency_is_traversal(self):
        crossbar = Crossbar(num_inputs=16, num_outputs=4, traversal_latency=4)
        assert crossbar.route(0, 0, now=0) == 4

    def test_contended_port_adds_wait(self):
        crossbar = Crossbar(num_inputs=4, num_outputs=1, traversal_latency=4)
        first = crossbar.route(0, 0, now=0)
        second = crossbar.route(1, 0, now=0)
        assert second > first
        assert crossbar.contended_transfers == 1

    def test_distinct_ports_do_not_contend(self):
        crossbar = Crossbar(num_inputs=4, num_outputs=4)
        crossbar.route(0, 0, now=0)
        crossbar.route(1, 1, now=0)
        assert crossbar.contended_transfers == 0

    def test_port_selection_interleaves_blocks(self):
        crossbar = Crossbar(num_inputs=16, num_outputs=4)
        ports = {crossbar.output_port_for(block * 64) for block in range(8)}
        assert ports == {0, 1, 2, 3}

    def test_out_of_range_ports(self):
        crossbar = Crossbar(num_inputs=2, num_outputs=2)
        with pytest.raises(ValueError):
            crossbar.route(5, 0)
        with pytest.raises(ValueError):
            crossbar.route(0, 5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Crossbar(num_inputs=0, num_outputs=1)
        with pytest.raises(ValueError):
            Crossbar(num_inputs=1, num_outputs=1, traversal_latency=-1)

    def test_stats(self):
        crossbar = Crossbar()
        crossbar.route(0, 0)
        assert crossbar.stats().get("transfers") == 1


class TestTraceDrivenCore:
    def test_compute_window_accounting(self):
        core = TraceDrivenCore(0, CoreConfig(base_ipc=2.0),
                               instructions_per_access=100)
        core.retire_compute_window()
        assert core.progress.instructions == 100
        assert core.progress.cycles == pytest.approx(50.0)

    def test_memory_stall_divided_by_mlp(self):
        core = TraceDrivenCore(0, CoreConfig(mlp=2.0))
        core.stall_for_memory(100)
        assert core.progress.memory_stall_cycles == pytest.approx(50.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TraceDrivenCore(0).stall_for_memory(-1)

    def test_invalid_instructions_per_access(self):
        with pytest.raises(ValueError):
            TraceDrivenCore(0, instructions_per_access=0)

    def test_ipc_computation(self):
        core = TraceDrivenCore(0, CoreConfig(base_ipc=1.0), instructions_per_access=10)
        assert core.ipc == 0.0
        core.retire_compute_window()
        assert core.ipc == pytest.approx(1.0)
        core.stall_for_memory(10)
        assert core.ipc < 1.0

    def test_stats_group(self):
        core = TraceDrivenCore(3)
        core.retire_compute_window()
        stats = core.stats()
        assert stats.name == "core3"
        assert stats.get("instructions") > 0


class TestTraceDrivenCmp:
    def _trace(self, n, cores):
        return [MemoryAccess(address=i * 64 * 13, pc=0x400000 + (i % 8) * 4,
                             core_id=i % cores, timestamp=i)
                for i in range(n)]

    def test_uipc_positive_after_run(self):
        system = SystemConfig(num_cores=4)
        cmp = TraceDrivenCmp(make_design("ideal", "1GB"), config=system)
        cmp.run(self._trace(400, 4))
        assert cmp.user_instructions_per_cycle > 0
        assert cmp.total_instructions > 0

    def test_faster_memory_gives_higher_uipc(self):
        system = SystemConfig(num_cores=4)
        fast = TraceDrivenCmp(make_design("ideal", "1GB"), config=system)
        slow = TraceDrivenCmp(NoDramCache(), config=system)
        trace = self._trace(400, 4)
        fast.run(trace)
        slow.run(list(trace))
        assert fast.user_instructions_per_cycle > slow.user_instructions_per_cycle

    def test_total_cycles_is_slowest_core(self):
        system = SystemConfig(num_cores=2)
        cmp = TraceDrivenCmp(make_design("ideal", "1GB"), config=system)
        cmp.run(self._trace(100, 2))
        per_core = [core.progress.cycles for core in cmp.cores]
        assert cmp.total_cycles == max(per_core)

    def test_stats_include_dram_cache_section(self):
        cmp = TraceDrivenCmp(make_design("ideal", "1GB"), config=SystemConfig(num_cores=2))
        cmp.run(self._trace(50, 2))
        keys = cmp.stats().as_dict()
        assert any(k.startswith("crossbar.") for k in keys)
        assert any(k.startswith("ideal.") for k in keys)
