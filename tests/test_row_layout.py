"""Tests for the Unison Cache DRAM row layout (Figures 2 and 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.cache_configs import UnisonCacheConfig
from repro.core.row_layout import UnisonRowLayout


@pytest.fixture
def default_layout():
    return UnisonRowLayout(UnisonCacheConfig(capacity=64 * 8192))


class TestDefaultLayout:
    def test_geometry_matches_figure_3(self, default_layout):
        assert default_layout.pages_per_row == 8
        assert default_layout.sets_per_row == 2
        assert default_layout.page_data_bytes == 960
        assert default_layout.data_blocks_per_row == 120

    def test_presence_metadata_sizes(self, default_layout):
        # Figure 2: 8 bytes of tag metadata per page; Figure 3: a 4-way set's
        # tags transfer as a 32-byte burst.
        assert default_layout.presence_bytes_per_page == 8
        assert default_layout.presence_bytes_per_set == 32

    def test_everything_fits_in_the_row(self, default_layout):
        assert default_layout.unused_bytes_per_row >= 0
        total = (default_layout.metadata_bytes_per_row
                 + default_layout.data_bytes_per_row
                 + default_layout.unused_bytes_per_row)
        assert total == default_layout.row_bytes

    def test_frame_indexing(self, default_layout):
        assert default_layout.frame_index(0, 0) == 0
        assert default_layout.frame_index(1, 3) == 7
        assert default_layout.frame_row(0) == 0
        assert default_layout.frame_row(8) == 1
        assert default_layout.frame_slot(9) == 1

    def test_block_offsets_disjoint_across_frames(self, default_layout):
        seen = set()
        for frame in range(default_layout.pages_per_row):
            for block in range(15):
                offset = default_layout.block_offset(frame, block)
                span = range(offset, offset + 64)
                assert offset + 64 <= default_layout.row_bytes
                assert not (set(span) & seen)
                seen.update(span)

    def test_data_does_not_overlap_metadata(self, default_layout):
        first_block = default_layout.block_offset(0, 0)
        assert first_block >= default_layout.metadata_bytes_per_row

    def test_metadata_offsets_within_metadata_region(self, default_layout):
        for frame in range(default_layout.pages_per_row):
            presence = default_layout.presence_metadata_offset(frame)
            other = default_layout.other_metadata_offset(frame)
            assert presence < default_layout.presence_bytes_per_row
            assert (default_layout.presence_bytes_per_row <= other
                    < default_layout.metadata_bytes_per_row)

    def test_out_of_range_arguments(self, default_layout):
        with pytest.raises(IndexError):
            default_layout.block_offset(0, 15)
        with pytest.raises(IndexError):
            default_layout.frame_index(0, 4)
        with pytest.raises(IndexError):
            default_layout.frame_row(-1)

    def test_describe_mentions_geometry(self, default_layout):
        text = default_layout.describe()
        assert "15 blocks/page" in text
        assert "120 data blocks/row" in text


class TestAlternativeOrganizations:
    def test_1984_byte_pages(self):
        layout = UnisonRowLayout(
            UnisonCacheConfig(capacity=64 * 8192, blocks_per_page=31)
        )
        assert layout.pages_per_row == 4
        assert layout.sets_per_row == 1
        assert layout.data_blocks_per_row == 124
        assert layout.unused_bytes_per_row >= 0

    def test_direct_mapped(self):
        layout = UnisonRowLayout(
            UnisonCacheConfig(capacity=64 * 8192, associativity=1)
        )
        assert layout.sets_per_row == 8
        assert layout.presence_bytes_per_set == 8

    def test_32_way_spans_rows(self):
        layout = UnisonRowLayout(
            UnisonCacheConfig(capacity=64 * 8192, associativity=32)
        )
        assert layout.sets_per_row == 0
        # Frames of one set span multiple rows but remain addressable.
        rows = {layout.frame_row(layout.frame_index(0, way)) for way in range(32)}
        assert len(rows) == 4

    @given(st.sampled_from([15, 31]), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_property_blocks_always_inside_row(self, blocks_per_page, associativity):
        config = UnisonCacheConfig(capacity=32 * 8192,
                                   blocks_per_page=blocks_per_page,
                                   associativity=associativity)
        layout = UnisonRowLayout(config)
        for frame in range(layout.pages_per_row):
            for block in range(blocks_per_page):
                offset = layout.block_offset(frame, block)
                assert 0 <= offset
                assert offset + 64 <= layout.row_bytes


def _built_page_tags(scale):
    """One page organization per distinct geometry that a shipped design
    or a default-space candidate builds at 1GB scaled by ``scale``: each at
    its own associativity, and at Figure 5's 1, 4 and 32 ways where the
    design takes an override."""
    from repro.config.cache_configs import scaled_capacity
    from repro.dramcache.components import TAG_ORGANIZATIONS
    from repro.dramcache.designs import CANONICAL_SPECS, HYBRID_SPECS
    from repro.search.space import default_space
    from repro.sim.registry import DesignBuildContext
    from repro.utils.units import parse_size

    paper = parse_size("1GB")
    built = {}
    for spec in (CANONICAL_SPECS + HYBRID_SPECS
                 + tuple(default_space().candidates())):
        if spec.tags.kind not in ("dram-page", "sram-page"):
            continue
        for ways in (None, 1, 4, 32) if spec.supports_associativity else (
                None,):
            tags = TAG_ORGANIZATIONS.resolve(spec.tags.kind)(
                DesignBuildContext(
                    paper_capacity_bytes=paper,
                    scaled_capacity_bytes=scaled_capacity(paper, scale),
                    scale=scale, num_cores=16, associativity=ways),
                **spec.tags.params_dict())
            built.setdefault((tags.kind, tags.blocks_per_page,
                              tags.associativity), tags)
    return built


def _dram_table(tags, row_bytes):
    """The frame table of in-DRAM page tags, frame by frame from the row
    layout's own addressing methods."""
    layout = tags.layout
    frames = range(tags.num_sets * tags.associativity)
    bases = [layout.frame_row(f) * row_bytes for f in frames]
    return (
        [base + layout.block_offset(f, 0) for f, base in zip(frames, bases)],
        [base + layout.presence_metadata_offset(f)
         for f, base in zip(frames, bases)],
        [base + layout.other_metadata_offset(f)
         for f, base in zip(frames, bases)],
        [bases[layout.frame_index(s, 0)]
         + layout.presence_metadata_offset(layout.frame_index(s, 0))
         for s in range(tags.num_sets)],
    )


def _sram_data(tags, row_bytes):
    """The frames' data addresses of SRAM page tags: whole pages packed
    row by row."""
    config = tags.config
    pages_per_row = max(1, config.row_buffer_size // config.page_size)
    expected = []
    for set_index in range(tags.num_sets):
        for way in range(tags.associativity):
            row, slot = divmod(set_index * tags.associativity + way,
                               pages_per_row)
            expected.append(row * row_bytes + slot * config.page_size)
    return expected


class TestFrameTables:
    """The page organizations' device-address tables, built in closed form,
    equal a per-frame build from the row-layout methods.  The scalar engine
    and the batch kernels both address the stacked DRAM through these
    tables, so this is the independent check of every device address."""

    ROW_BYTES = 8192

    @pytest.mark.parametrize("capacity", [64 * 8192, 512 * 8192])
    @pytest.mark.parametrize("associativity", [4, 32])
    def test_dram_page_tables(self, capacity, associativity):
        from repro.dramcache.components import DramPageTags

        tags = DramPageTags(UnisonCacheConfig(capacity=capacity,
                                              associativity=associativity))
        assert (tuple(tags.frame_addresses(self.ROW_BYTES))
                == _dram_table(tags, self.ROW_BYTES))

    @pytest.mark.parametrize("capacity", ["1MB", "4MB"])
    @pytest.mark.parametrize("associativity", [4, 32])
    def test_sram_page_tables(self, capacity, associativity):
        from repro.config.cache_configs import FootprintCacheConfig
        from repro.dramcache.components import SramPageTags

        tags = SramPageTags(FootprintCacheConfig(capacity=capacity,
                                                 associativity=associativity))
        table = tags.frame_addresses(self.ROW_BYTES)
        assert table.data == _sram_data(tags, self.ROW_BYTES)

    @pytest.mark.parametrize("scale", [512, 2048])
    def test_every_built_geometry(self, scale):
        built = _built_page_tags(scale)
        # Unison's 960B and 1984B pages at 1, 4 and 32 ways; Footprint
        # Cache's 2KB pages at its own 32 ways.
        assert sorted(built) == sorted(
            [("dram-page", bpp, ways) for bpp in (15, 31)
             for ways in (1, 4, 32)] + [("sram-page", 32, 32)])
        for geometry, tags in built.items():
            table = tags.frame_addresses(self.ROW_BYTES)
            if tags.kind == "dram-page":
                expected = _dram_table(tags, self.ROW_BYTES)
            else:
                expected = (_sram_data(tags, self.ROW_BYTES), [], [], [])
            assert tuple(table) == expected, geometry
