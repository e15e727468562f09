"""Tests for the DRAM timing model: timings and the flat-state controller."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import DramChannelConfig, SystemConfig
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
#: per-channel counters.  The stock channels run at dyadic CPU-per-DRAM
#: clock ratios (3.0 GHz over 800 and 1600 MHz: 3.75 and 1.875), where
#: rounding latencies up to CPU cycles is exact; the 667 MHz channel under
#: a 2.6 GHz CPU (3.898... CPU cycles per DRAM cycle) pins that round-up
#: where float rounding matters.  It was recorded with the flat controller
#: while it still rounded up as ``int(-(-x // 1))``.
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
    "stacked_dram_667mhz_cpu_2.6ghz": {
        "latencies": [
            94, 63, 51, 51, 51, 51, 51, 51, 51, 51, 51, 51, 51, 51, 51, 51,
            16, 8, 8, 8, 8, 8, 8, 8, 94, 242, 386, 531, 632, 819, 967, 1111,
            1256, 1357, 1544, 1692, 1836, 1981, 2082, 2269, 2417, 2562, 2706,
            2807, 2998, 3142, 3287, 3431, 597, 605, 612, 616, 624, 632, 636,
            644, 441, 449, 457, 460, 468, 476, 480, 488, 293, 301, 308, 312,
            320, 328, 332, 340, 293, 269, 223, 336, 51, 51, 344, 223, 336, 90,
            137, 102, 59, 94, 59, 75, 94, 156, 94, 379, 359, 94, 355, 344,
            246, 246, 137, 121, 137, 379, 59, 164, 59, 94, 227, 137, 137, 453,
            332, 347, 102, 176, 160, 102, 145, 75, 90, 164, 195, 137, 98, 117,
            347, 250, 47, 47, 94, 117, 59, 117, 75, 51, 160, 137, 94, 137, 94,
            160, 32, 94, 133, 51, 8, 379, 102, 133, 51, 94, 117, 117, 160, 16,
            137, 137, 133, 160, 145, 117, 102, 8, 156, 137, 137, 164, 133,
            133, 8, 145, 137, 145, 137, 137, 336, 106, 145, 137, 90, 94, 94,
            156, 137, 168, 133, 160, 137, 141, 133, 410, 137, 137, 137, 133,
            90, 379, 242, 137, 160, 8, 137, 258, 145, 94, 137, 160, 192, 207,
            133, 203, 133, 336, 137, 156, 230, 305, 363, 133, 51, 301, 137,
            137, 59, 75, 133, 336, 472, 628, 160, 47, 133, 227, 230, 8, 137,
            379, 137, 301, 160, 114, 121, 51, 90, 137, 145, 137, 133, 51, 160,
            145, 51, 168, 145, 94, 137, 137, 133, 94, 137, 137, 227, 223, 160,
            137, 145, 145, 137, 59, 160, 94, 379, 379, 145, 492, 379, 402,
            616, 145, 570, 289, 137, 133, 137, 234, 160, 51, 336, 32, 293,
            133, 137, 137, 379, 153, 394, 160, 75, 164, 110, 230
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
}


def _golden_controller(name) -> DramController:
    if name == "stacked_dram_667mhz_cpu_2.6ghz":
        config = replace(SystemConfig().stacked_dram, frequency_mhz=667.0)
        return DramController(config, cpu_frequency_ghz=2.6)
    return DramController(getattr(SystemConfig(), name))


class TestGoldenPin:
    """The controller reproduces the previous object model exactly."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_object_model(self, name):
        expected = GOLDEN[name]
        controller = _golden_controller(name)
        latencies = [controller.access(address, num_bytes, now, is_write)
                     for address, num_bytes, now, is_write
                     in golden_sequence(controller.config)]
        assert latencies == expected["latencies"]
        for counter in ("activations", "row_hits", "row_misses",
                        "row_conflicts", "reads", "writes",
                        "bytes_transferred"):
            assert getattr(controller, counter) == expected[counter], counter
        assert controller.total_requests == expected["requests"]


#: The two stock channels at the stock 3 GHz CPU, and drawn ones.
_CHANNELS = ("stacked_dram", "offchip_dram", "drawn")
_cycles = st.integers(1, 16)


@st.composite
def _drawn_channel(draw):
    """Drawn geometry and timings, and a CPU clock over the channel's.

    Bus widths of 32 to 256 bits make a 64-byte transfer 8 to 1 cycles, so
    write runs see tWTR both below and at or above the transfer time.
    """
    t_ras = draw(st.integers(1, 30))
    config = DramChannelConfig(
        name="drawn",
        frequency_mhz=draw(st.sampled_from((667.0, 800.0, 1600.0))),
        num_channels=draw(st.sampled_from((1, 2, 4))),
        banks_per_rank=draw(st.sampled_from((1, 2, 8))),
        row_buffer_bytes=draw(st.sampled_from((512, 2048, 8192))),
        bus_width_bits=draw(st.sampled_from((32, 64, 128, 256))),
        t_cas=draw(_cycles), t_rcd=draw(_cycles), t_rp=draw(_cycles),
        t_ras=t_ras, t_rc=t_ras + draw(st.integers(0, 12)),
        t_wr=draw(_cycles), t_wtr=draw(_cycles), t_rtp=draw(_cycles),
        t_rrd=draw(_cycles), t_faw=draw(st.integers(1, 40)))
    return config, draw(st.sampled_from((2.6, 3.0, 3.2)))


def _channel(name):
    if name == "drawn":
        return _drawn_channel()
    return st.just((getattr(SystemConfig(), name), 3.0))


_addresses = st.integers(0, 2 ** 26)
_sizes = st.sampled_from((32, 64, 128, 2048))
_times = st.integers(0, 50_000)


def _row_runs(row_bytes):
    """A burst whose bits span one, two or three consecutive rows, every
    spanned row holding at least one bit."""

    @st.composite
    def draw_burst(draw):
        base = draw(_addresses)
        stride = draw(st.sampled_from((32, 64, 96, 128)))
        rows = draw(st.integers(1, 3))
        first_stripe = base // row_bytes
        mask = bit = 0
        for stripe in range(first_stripe, first_stripe + rows):
            lo = bit
            while (base + bit * stride) // row_bytes == stripe:
                bit += 1
            mask |= draw(st.integers(1, (1 << (bit - lo)) - 1)) << lo
        return (base, stride, mask, draw(_sizes), draw(_times),
                draw(st.booleans()))

    return draw_burst()


def _bursts(row_bytes):
    anywhere = st.tuples(
        _addresses, st.sampled_from((32, 64, 4096, 8192, 65536)),
        st.integers(0, 2 ** 64 - 1), _sizes, _times, st.booleans())
    return st.lists(st.one_of(anywhere, _row_runs(row_bytes)),
                    min_size=1, max_size=6)


def _pairs(row_bytes):
    """Read B ``delta`` bytes from read A (often in A's row, sometimes
    not), or at a drawn offset inside A's row."""
    near = st.tuples(_addresses, _sizes, st.integers(-16384, 16384),
                     _sizes, _times, st.booleans())
    in_row = st.tuples(_addresses, _sizes, st.integers(0, row_bytes - 1),
                       _sizes, _times, st.booleans()).map(
        lambda t: (t[0], t[1], t[0] // row_bytes * row_bytes + t[2] - t[0])
        + t[3:])
    return st.lists(st.one_of(near, in_row), min_size=1, max_size=8)


def _assert_same_state(fused, plain):
    for attr in DramController._STATE_ATTRS:
        assert getattr(fused, attr) == getattr(plain, attr), attr


class TestFusedPaths:
    """``burst`` and ``read_pair`` equal the plain ``access`` calls they fuse."""

    @pytest.mark.parametrize("name", _CHANNELS)
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_burst_matches_access_per_bit(self, name, data):
        config, ghz = data.draw(_channel(name))
        fused = DramController(config, cpu_frequency_ghz=ghz)
        plain = DramController(config, cpu_frequency_ghz=ghz)
        for base, stride, mask, num_bytes, now, is_write in data.draw(
                _bursts(config.row_buffer_bytes)):
            expected = -1
            for bit in range(mask.bit_length()):
                if mask >> bit & 1:
                    latency = plain.access(base + bit * stride, num_bytes,
                                           now, is_write)
                    if expected < 0:
                        expected = latency
            assert fused.ops().burst(base, stride, mask, num_bytes, now,
                                     is_write) == expected
        _assert_same_state(fused, plain)

    @pytest.mark.parametrize("bus_width_bits, t_wtr, transfer", [
        (32, 3, 8),     # tWTR < transfer: the bus paces the run
        (64, 4, 4),     # tWTR == transfer
        (256, 6, 1),    # tWTR > transfer: the column slots pace it
    ])
    def test_write_runs_in_both_bus_regimes(self, bus_width_bits, t_wtr,
                                            transfer):
        config = replace(SystemConfig().stacked_dram,
                         bus_width_bits=bus_width_bits, t_wtr=t_wtr)
        fused, plain = DramController(config), DramController(config)
        assert fused.timings.data_cycles(64) == transfer
        row = config.row_buffer_bytes
        full = (1 << row // 64) - 1
        # A whole row of writes, a sparse run behind it in the now-busy
        # bus, a run that opens a second row, and a later refill.
        calls = ((0, full, 100), (0, 0b1011 << 40, 100),
                 (row * config.num_channels * config.banks_per_rank,
                  0xF0F0, 100), (64, full >> 1, 5000))
        for base, mask, now in calls:
            expected = [plain.access(base + bit * 64, 64, now, True)
                        for bit in range(mask.bit_length())
                        if mask >> bit & 1][0]
            assert fused.ops().burst(base, 64, mask, 64, now,
                                     True) == expected
        _assert_same_state(fused, plain)

    @pytest.mark.parametrize("name", _CHANNELS)
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_read_pair_matches_two_accesses(self, name, data):
        config, ghz = data.draw(_channel(name))
        fused = DramController(config, cpu_frequency_ghz=ghz)
        plain = DramController(config, cpu_frequency_ghz=ghz)
        for addr_a, bytes_a, delta, bytes_b, now, serialized in data.draw(
                _pairs(config.row_buffer_bytes)):
            addr_b = max(0, addr_a + delta)
            a = plain.access(addr_a, bytes_a, now)
            b = plain.access(addr_b, bytes_b, now)
            expected = a + b if serialized else max(a, b)
            assert fused.ops().read_pair(addr_a, bytes_a, addr_b, bytes_b,
                                         now, serialized) == expected
        _assert_same_state(fused, plain)

    @pytest.mark.parametrize("name", _CHANNELS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_overridden_access_sees_every_op(self, name, data):
        class Counting(DramController):
            calls = 0

            def access(self, *args, **kwargs):
                self.calls += 1
                return super().access(*args, **kwargs)

        config, ghz = data.draw(_channel(name))
        counted = Counting(config, cpu_frequency_ghz=ghz)
        fused = DramController(config, cpu_frequency_ghz=ghz)
        issued = 0
        for base, stride, mask, num_bytes, now, is_write in data.draw(
                _bursts(config.row_buffer_bytes)):
            assert counted.ops().burst(base, stride, mask, num_bytes, now,
                                       is_write) == fused.ops().burst(
                base, stride, mask, num_bytes, now, is_write)
            issued += bin(mask).count("1")
        for addr_a, bytes_a, delta, bytes_b, now, serialized in data.draw(
                _pairs(config.row_buffer_bytes)):
            addr_b = max(0, addr_a + delta)
            assert counted.ops().read_pair(
                addr_a, bytes_a, addr_b, bytes_b, now, serialized) == (
                fused.ops().read_pair(addr_a, bytes_a, addr_b, bytes_b,
                                      now, serialized))
            issued += 2
        assert counted.calls == issued
        _assert_same_state(counted, fused)


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
