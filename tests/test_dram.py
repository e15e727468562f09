"""Tests for the DRAM timing model: timings and the flat-state controller."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import SystemConfig
from repro.dram.controller import DramController
from repro.dram.timing import DramTimings


@pytest.fixture
def timings():
    return DramTimings()


def _stacked() -> DramController:
    return DramController(SystemConfig().stacked_dram)


def _bank_stride(controller) -> int:
    """Address step to the next bank of the same channel."""
    config = controller.config
    return config.row_buffer_bytes * config.num_channels


def _row_stride(controller) -> int:
    """Address step to the next row of the same bank."""
    return _bank_stride(controller) * controller.config.banks_per_rank


class TestDramTimings:
    def test_defaults_match_table_iii(self, timings):
        assert timings.t_cas == 11
        assert timings.t_rcd == 11
        assert timings.t_rp == 11
        assert timings.t_ras == 28
        assert timings.t_rc == 39
        assert timings.t_faw == 24

    def test_from_channel_config(self):
        stacked = SystemConfig().stacked_dram
        timings = DramTimings.from_channel_config(stacked)
        assert timings.bus_width_bits == 128
        assert timings.frequency_mhz == 1600.0

    def test_data_cycles(self, timings):
        # 128-bit DDR bus: 32 bytes per bus cycle.
        assert timings.data_cycles(64) == 2
        assert timings.data_cycles(32) == 1
        assert timings.data_cycles(1) == 1
        assert timings.data_cycles(0) == 0

    def test_burst_bytes(self, timings):
        assert timings.burst_bytes == 128

    def test_cpu_cycle_conversion(self, timings):
        # 3 GHz CPU over 1.6 GHz DRAM: 1.875 CPU cycles per DRAM cycle.
        assert timings.cpu_cycles(16, cpu_frequency_ghz=3.0) == 30

    def test_invalid_trc(self):
        with pytest.raises(ValueError):
            DramTimings(t_rc=10, t_ras=28)

    def test_invalid_bus_width(self):
        with pytest.raises(ValueError):
            DramTimings(bus_width_bits=12)


class TestBank:
    """Per-bank row-buffer behaviour, observed through the controller."""

    def test_first_access_is_row_miss(self, timings):
        controller = _stacked()
        latency = controller.access(5 * _row_stride(controller), 64, 0)
        assert controller.row_misses[0] == 1
        assert controller.row_conflicts[0] == 0
        assert controller.open_row[0] == 5
        # Activate + CAS before data appears.
        assert latency >= timings.cpu_cycles(timings.t_rcd + timings.t_cas)

    def test_second_access_same_row_hits(self, timings):
        controller = _stacked()
        first = controller.access(0, 64, 0)
        second = controller.access(64, 64, first + 8)
        assert controller.row_hits[0] == 1
        assert second < first
        assert second < timings.cpu_cycles(timings.t_rcd + timings.t_cas)

    def test_conflict_requires_precharge(self, timings):
        controller = _stacked()
        controller.access(0, 64, 0)
        conflict = controller.access(_row_stride(controller), 64, 375)
        assert controller.row_conflicts[0] == 1
        assert conflict >= timings.cpu_cycles(
            timings.t_rp + timings.t_rcd + timings.t_cas)

    def test_activation_counting(self):
        controller = _stacked()
        rows = _row_stride(controller)
        controller.access(rows, 64, 0)
        controller.access(rows + 64, 64, 200)
        controller.access(2 * rows, 64, 800)
        assert controller.activations[0] == 2
        assert controller.row_hits[0] == 1
        assert controller.row_misses[0] == 1
        assert controller.row_conflicts[0] == 1
        assert controller.total_activations == 2

    def test_trc_enforced_between_activations(self, timings):
        controller = _stacked()
        controller.access(0, 64, 0)
        conflict = controller.access(_row_stride(controller), 64, 2)
        # The second activation cannot issue before tRC from the first
        # (the request arrives at DRAM cycle 1).
        assert controller.next_activate[0] - timings.t_rc >= timings.t_rc
        assert conflict >= timings.cpu_cycles(
            timings.t_rc + timings.t_rcd + timings.t_cas - 1)

    def test_negative_row_rejected(self):
        # A negative address would decompose to a negative row.
        with pytest.raises(ValueError):
            _stacked().access(-64, 64, 0)


class TestChannel:
    """Inter-bank constraints of one channel: tRRD, tFAW, the data bus."""

    def test_parallel_banks_independent_rows(self, timings):
        controller = _stacked()
        a = controller.access(0, 64, 0)
        b = controller.access(_bank_stride(controller), 64, 0)
        # Bank 1's activate is delayed only by tRRD, not by a full access.
        assert controller.activations[:2] == [1, 1]
        assert b - a <= timings.cpu_cycles(
            timings.t_rrd + timings.data_cycles(64))

    def test_faw_limits_burst_of_activates(self, timings):
        controller = _stacked()
        latencies = [controller.access(i * _bank_stride(controller), 64, 0)
                     for i in range(5)]
        # The fifth activate must wait for the tFAW window of the first four.
        assert controller.last_activate[0] == timings.t_faw
        assert latencies[4] >= timings.cpu_cycles(
            timings.t_faw + timings.t_rcd + timings.t_cas)

    def test_data_bus_serializes_transfers(self, timings):
        controller = _stacked()
        controller.access(0, 4096, 0)
        first_end = controller.bus_free[0]
        controller.access(_bank_stride(controller), 64, 0)
        # The second transfer starts only when the first frees the bus.
        assert controller.bus_free[0] == first_end + timings.data_cycles(64)

    def test_row_buffer_hit_tracked(self):
        controller = _stacked()
        controller.access(7 * _row_stride(controller), 64, 0)
        controller.access(7 * _row_stride(controller) + 512, 64, 1000)
        assert controller.row_hits[0] == 1
        assert controller.total_activations == 1

    def test_statistics(self):
        controller = _stacked()
        controller.access(0, 64, 0)
        controller.access(_bank_stride(controller), 32, 0, is_write=True)
        assert controller.reads == [1, 0, 0, 0]
        assert controller.writes == [1, 0, 0, 0]
        assert controller.bytes_transferred == [96, 0, 0, 0]


class TestAddressMapping:
    """The address decompose inlined in the controller's access path."""

    def test_decompose_fields_in_range(self):
        controller = _stacked()
        address = 123456789
        controller.access(address, 64, 0)
        stripe = address // 8192
        bank = stripe // 4 % 8
        channel = stripe % 4
        g = channel * 8 + bank
        assert controller.open_row[g] == stripe // 32
        assert controller.reads[channel] == 1
        assert controller.total_activations == controller.activations[g] == 1

    def test_consecutive_rows_interleave_channels(self):
        controller = _stacked()
        channels = []
        for i in range(8):
            before = list(controller.reads)
            controller.access(i * 8192, 64, 0)
            channels.append([after - prior for prior, after
                             in zip(before, controller.reads)].index(1))
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_invalid_parameters(self):
        config = replace(SystemConfig().stacked_dram, num_channels=0)
        with pytest.raises(ValueError):
            DramController(config)


class TestDramController:
    def test_latency_reasonable_for_stacked_dram(self):
        controller = _stacked()
        latency = controller.access(address=0, num_bytes=64, now_cpu=0)
        # Row activation + CAS + transfer at 1.875 CPU cycles per DRAM cycle:
        # roughly (11 + 11 + 2) * 1.875 = 45 CPU cycles.
        assert isinstance(latency, int)
        assert 30 <= latency <= 70
        assert controller.total_activations == 1

    def test_row_hit_is_faster(self):
        controller = _stacked()
        miss = controller.access(address=0, num_bytes=64, now_cpu=0)
        hit = controller.access(address=64, num_bytes=64, now_cpu=1000)
        assert sum(controller.row_hits) == 1
        assert hit < miss

    def test_offchip_slower_than_stacked(self):
        system = SystemConfig()
        stacked = DramController(system.stacked_dram)
        offchip = DramController(system.offchip_dram)
        assert offchip.access(0, 64, 0) > stacked.access(0, 64, 0)

    def test_statistics_accumulate(self):
        controller = _stacked()
        controller.access(0, 64, 0)
        controller.access(8192, 64, 0, is_write=True)
        stats = controller.stats()
        assert stats.get("requests") == 2
        assert stats.get("reads") == 1
        assert stats.get("writes") == 1
        assert stats.get("bytes_transferred") == 128

    def test_invalid_bytes(self):
        controller = _stacked()
        for num_bytes in (0, -64):
            with pytest.raises(ValueError):
                controller.access(0, num_bytes, 0)
        with pytest.raises(ValueError):
            controller.access(-1, 64, 0)
        assert controller.total_requests == 0


def golden_sequence(config):
    """A fixed ~300-access mix: same-row streams, conflicts, tFAW bursts."""
    row = config.row_buffer_bytes
    same_channel = row * config.num_channels   # next bank, same channel
    same_bank = same_channel * config.banks_per_rank   # next row, same bank
    ops = []
    # Same-row streaming, reads then writes.
    for i in range(24):
        ops.append((5 * row + 64 * i, 64, 40 * i, i >= 16))
    # Row conflicts: ping-pong between two rows of one bank.
    for i in range(24):
        ops.append(((i % 2) * same_bank + 128, 64, 2000 + 7 * i, i % 5 == 4))
    # tFAW bursts: activates to every bank of channel 0 at one instant.
    for burst in range(3):
        for bank in range(config.banks_per_rank):
            ops.append(((burst + 1) * same_bank + bank * same_channel,
                        64 if bank % 3 else 32, 5000 + 300 * burst, False))
    # Mixed traffic from a fixed LCG: sizes, writes, equal and rising times.
    state = 12345
    now = 9000
    sizes = (32, 64, 64, 64, 128, 256, 2048)
    while len(ops) < 300:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        pick = state >> 33
        address = (pick % (4 * same_bank)) // 32 * 32
        num_bytes = sizes[pick % len(sizes)]
        is_write = pick % 4 == 0
        now += (pick >> 7) % 151 if pick % 3 else 0
        ops.append((address, num_bytes, now, is_write))
    return ops


#: ``golden_sequence`` replayed through the Bank/Channel object model the
#: flat controller replaced: every latency and the final per-bank and
#: per-channel counters.
GOLDEN = {
    "stacked_dram": {
        "latencies": [
            45, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 4,
            4, 4, 4, 4, 4, 4, 4, 45, 111, 177, 244, 289, 375, 441, 509, 574,
            619, 705, 773, 839, 904, 951, 1037, 1103, 1169, 1236, 1281, 1367,
            1433, 1500, 1566, 23, 45, 55, 62, 74, 90, 98, 109, 64, 75, 85, 92,
            111, 120, 128, 139, 64, 75, 85, 92, 111, 120, 128, 139, 141, 109,
            66, 162, 25, 25, 164, 45, 162, 44, 66, 49, 29, 45, 29, 36, 45, 75,
            45, 182, 156, 45, 145, 130, 44, 66, 66, 45, 66, 182, 29, 79, 29,
            45, 87, 66, 66, 162, 66, 143, 49, 49, 77, 49, 70, 36, 44, 79, 66,
            66, 25, 57, 162, 66, 23, 23, 45, 57, 29, 57, 36, 25, 77, 66, 45,
            66, 45, 77, 15, 45, 64, 25, 4, 182, 49, 64, 25, 45, 57, 57, 77, 8,
            66, 66, 64, 77, 70, 57, 49, 4, 70, 66, 66, 77, 64, 64, 4, 70, 66,
            70, 66, 66, 162, 29, 70, 66, 44, 45, 45, 75, 66, 81, 64, 77, 66,
            68, 64, 197, 66, 66, 66, 64, 44, 182, 40, 66, 44, 4, 66, 104, 70,
            45, 66, 77, 92, 100, 64, 66, 64, 162, 66, 75, 90, 124, 141, 49,
            25, 74, 66, 66, 29, 36, 64, 162, 182, 209, 77, 23, 64, 66, 74, 4,
            66, 182, 66, 102, 77, 25, 45, 25, 44, 66, 70, 66, 64, 25, 77, 70,
            25, 77, 70, 45, 66, 66, 62, 45, 64, 66, 77, 70, 77, 66, 70, 70,
            66, 29, 77, 45, 182, 182, 70, 167, 182, 74, 222, 70, 164, 87, 66,
            64, 66, 2, 77, 25, 162, 15, 141, 64, 66, 66, 182, 74, 190, 77, 36,
            77, 19, 79
        ],
        "activations": [
            28, 6, 6, 10, 6, 9, 13, 5, 8, 9, 5, 5, 5, 9, 4, 7, 6, 5, 5, 2, 6,
            3, 9, 7, 12, 3, 17, 4, 4, 4, 6, 5
        ],
        "row_hits": [
            2, 2, 3, 3, 0, 1, 1, 1, 3, 27, 2, 0, 0, 2, 0, 3, 2, 1, 1, 1, 2, 0,
            0, 3, 0, 2, 0, 0, 3, 1, 0, 1
        ],
        "row_misses": [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1
        ],
        "row_conflicts": [
            27, 5, 5, 9, 5, 8, 12, 4, 7, 8, 4, 4, 4, 8, 3, 6, 5, 4, 4, 1, 5,
            2, 8, 6, 11, 2, 16, 3, 3, 3, 5, 4
        ],
        "reads": [81, 62, 42, 43],
        "writes": [15, 27, 11, 19],
        "bytes_transferred": [21600, 23072, 13088, 20224],
        "requests": 300,
    },
    "offchip_dram": {
        "latencies": [
            98, 75, 57, 57, 57, 57, 57, 57, 57, 57, 57, 57, 57, 57, 57, 57,
            34, 15, 15, 15, 15, 15, 15, 15, 98, 237, 375, 518, 615, 795, 934,
            1073, 1212, 1309, 1489, 1632, 1770, 1909, 2007, 2187, 2325, 2464,
            2607, 2704, 2884, 3023, 3162, 3300, 469, 484, 499, 507, 522, 537,
            544, 559, 300, 315, 330, 338, 353, 368, 375, 390, 147, 162, 177,
            188, 229, 248, 259, 285, 563, 552, 510, 900, 912, 927, 942, 829,
            1242, 1110, 1009, 900, 822, 698, 717, 694, 709, 724, 739, 1197,
            1182, 1197, 1677, 1673, 1579, 1594, 1508, 1493, 1377, 1778, 1737,
            1767, 1797, 1770, 1830, 1812, 1797, 2277, 2160, 2190, 2149, 2067,
            2127, 2029, 1988, 2037, 2044, 2074, 1980, 1977, 1902, 1962, 2442,
            2352, 2235, 2108, 1977, 2037, 1935, 1954, 1935, 1950, 1995, 1909,
            1883, 1898, 1782, 1842, 1838, 1853, 1860, 1729, 1692, 2172, 2108,
            2055, 1954, 1969, 1969, 1984, 1973, 2003, 2018, 1939, 1932, 1962,
            1965, 1894, 1830, 1845, 1827, 1748, 1759, 1819, 1827, 1722, 1602,
            1568, 1489, 1504, 1474, 1489, 1969, 1954, 1947, 1857, 1759, 1632,
            1647, 1662, 1553, 1613, 1579, 1594, 1609, 1617, 1624, 2104, 1980,
            1853, 1868, 1774, 1725, 2187, 2055, 2070, 1992, 2007, 2022, 2014,
            1939, 1887, 1793, 1853, 1913, 1943, 1950, 1857, 1778, 2138, 2145,
            2160, 2134, 2149, 2517, 2475, 2490, 2505, 2412, 2427, 2457, 2423,
            2430, 2768, 3135, 3522, 3439, 3297, 3304, 3199, 3207, 3143, 3079,
            3559, 3574, 3503, 3435, 3383, 3398, 3270, 3218, 3233, 3150, 3162,
            3030, 2922, 2982, 2929, 2937, 2997, 2982, 2997, 3004, 2884, 2888,
            2903, 2910, 2925, 2873, 2884, 2817, 2715, 2730, 2622, 2550, 2580,
            2640, 2539, 2993, 3342, 3319, 3717, 4103, 4110, 4557, 4587, 4549,
            4564, 4489, 4407, 4279, 4275, 4208, 4084, 4557, 4500, 4860, 4737,
            4699, 4564, 5044, 5074, 5104, 5119, 5179, 5239, 5187, 5202
        ],
        "activations": [41, 24, 26, 30, 23, 29, 18, 20],
        "row_hits": [9, 6, 8, 15, 5, 36, 7, 3],
        "row_misses": [1, 1, 1, 1, 1, 1, 1, 1],
        "row_conflicts": [40, 23, 25, 29, 22, 28, 17, 19],
        "reads": [228],
        "writes": [72],
        "bytes_transferred": [77984],
        "requests": 300,
    },
}


class TestGoldenPin:
    """The controller reproduces the previous object model exactly."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_object_model(self, name):
        expected = GOLDEN[name]
        controller = DramController(getattr(SystemConfig(), name))
        latencies = [controller.access(address, num_bytes, now, is_write)
                     for address, num_bytes, now, is_write
                     in golden_sequence(controller.config)]
        assert latencies == expected["latencies"]
        for counter in ("activations", "row_hits", "row_misses",
                        "row_conflicts", "reads", "writes",
                        "bytes_transferred"):
            assert getattr(controller, counter) == expected[counter], counter
        assert controller.total_requests == expected["requests"]


_CONFIGS = ("stacked_dram", "offchip_dram")
_addresses = st.integers(0, 2 ** 26)
_sizes = st.sampled_from((32, 64, 128, 2048))
_times = st.integers(0, 50_000)
_bursts = st.lists(st.tuples(
    _addresses, st.sampled_from((32, 64, 4096, 8192, 65536)),
    st.integers(0, 2 ** 64 - 1), _sizes, _times, st.booleans()),
    min_size=1, max_size=6)
#: Read B lies ``delta`` bytes from read A: often in A's row, sometimes not.
_pairs = st.lists(st.tuples(
    _addresses, _sizes, st.integers(-16384, 16384), _sizes, _times,
    st.booleans()), min_size=1, max_size=8)


def _controllers(name):
    config = getattr(SystemConfig(), name)
    return DramController(config), DramController(config)


class TestFusedPaths:
    """``burst`` and ``read_pair`` equal the plain ``access`` calls they fuse."""

    @pytest.mark.parametrize("name", _CONFIGS)
    @given(calls=_bursts)
    @settings(max_examples=60, deadline=None)
    def test_burst_matches_access_per_bit(self, name, calls):
        fused, plain = _controllers(name)
        for base, stride, mask, num_bytes, now, is_write in calls:
            expected = -1
            for bit in range(mask.bit_length()):
                if mask >> bit & 1:
                    latency = plain.access(base + bit * stride, num_bytes,
                                           now, is_write)
                    if expected < 0:
                        expected = latency
            assert fused.ops().burst(base, stride, mask, num_bytes, now,
                                     is_write) == expected
        assert pickle.dumps(fused) == pickle.dumps(plain)

    @pytest.mark.parametrize("name", _CONFIGS)
    @given(calls=_pairs)
    @settings(max_examples=60, deadline=None)
    def test_read_pair_matches_two_accesses(self, name, calls):
        fused, plain = _controllers(name)
        for addr_a, bytes_a, delta, bytes_b, now, serialized in calls:
            addr_b = max(0, addr_a + delta)
            a = plain.access(addr_a, bytes_a, now)
            b = plain.access(addr_b, bytes_b, now)
            expected = a + b if serialized else max(a, b)
            assert fused.ops().read_pair(addr_a, bytes_a, addr_b, bytes_b,
                                         now, serialized) == expected
        assert pickle.dumps(fused) == pickle.dumps(plain)

    @pytest.mark.parametrize("name", _CONFIGS)
    @given(bursts=_bursts, pairs=_pairs)
    @settings(max_examples=30, deadline=None)
    def test_overridden_access_sees_every_op(self, name, bursts, pairs):
        class Counting(DramController):
            calls = 0

            def access(self, *args, **kwargs):
                self.calls += 1
                return super().access(*args, **kwargs)

        config = getattr(SystemConfig(), name)
        counted, fused = Counting(config), DramController(config)
        issued = 0
        for base, stride, mask, num_bytes, now, is_write in bursts:
            assert counted.ops().burst(base, stride, mask, num_bytes, now,
                                       is_write) == fused.ops().burst(
                base, stride, mask, num_bytes, now, is_write)
            issued += bin(mask).count("1")
        for addr_a, bytes_a, delta, bytes_b, now, serialized in pairs:
            addr_b = max(0, addr_a + delta)
            assert counted.ops().read_pair(
                addr_a, bytes_a, addr_b, bytes_b, now, serialized) == (
                fused.ops().read_pair(addr_a, bytes_a, addr_b, bytes_b,
                                      now, serialized))
            issued += 2
        assert counted.calls == issued
        for attr in DramController._STATE_ATTRS:
            assert getattr(counted, attr) == getattr(fused, attr), attr


def test_kernels_route_through_a_wrapped_access(monkeypatch, tiny_trace):
    """Instrumentation wrapping ``DramController.access`` sees the kernels'
    DRAM traffic, and the replay comes out unchanged."""
    from repro.engine import replay_design
    from repro.sim.factory import make_design

    stock = make_design("unison", "256MB", scale=4096)
    assert replay_design(stock, list(tiny_trace)) == "batch"

    calls = []
    original = DramController.access

    def wrapped(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DramController, "access", wrapped)
    design = make_design("unison", "256MB", scale=4096)
    assert replay_design(design, list(tiny_trace)) == "batch"
    assert len(calls) == (design.stacked.controller.total_requests
                          + design.memory.controller.total_requests)
    assert design.stats().as_dict() == stock.stats().as_dict()
    assert design.snapshot_state().differing_buffers(
        stock.snapshot_state()) == []
