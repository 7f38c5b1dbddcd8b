"""Unit tests for the cache tag format of Figure 3.2(b)."""

from repro.cache.block import CACHE_TAG_LAYOUT, CacheLineView
from repro.cache.coherence import CoherencyState
from repro.common.types import Protection


class TestTagLayout:
    def test_figure_3_2b_fields_present(self):
        for name in ("PR", "P", "B", "CS", "V", "TAG"):
            assert name in CACHE_TAG_LAYOUT

    def test_field_widths_match_figure(self):
        assert CACHE_TAG_LAYOUT["PR"].width == 2    # protection
        assert CACHE_TAG_LAYOUT["P"].width == 1     # page dirty
        assert CACHE_TAG_LAYOUT["B"].width == 1     # block dirty
        assert CACHE_TAG_LAYOUT["CS"].width == 2    # coherency state

    def test_page_and_block_dirty_are_distinct_bits(self):
        # The paper stresses this distinction (Figure 3.2 caption).
        assert (
            CACHE_TAG_LAYOUT["P"].mask & CACHE_TAG_LAYOUT["B"].mask
        ) == 0


class TestView:
    def make_view(self, **overrides):
        values = dict(
            index=5,
            valid=True,
            vaddr=0x1240,
            protection=Protection.READ_ONLY,
            page_dirty=True,
            block_dirty=False,
            state=CoherencyState.UNOWNED,
            holds_pte=False,
        )
        values.update(overrides)
        return CacheLineView(**values)

    def test_pack_tag_round_trips_through_layout(self):
        view = self.make_view()
        word = view.pack_tag(tag_value=0x123)
        fields = CACHE_TAG_LAYOUT.unpack(word)
        assert fields["V"] == 1
        assert fields["PR"] == int(Protection.READ_ONLY)
        assert fields["P"] == 1
        assert fields["B"] == 0
        assert fields["CS"] == int(CoherencyState.UNOWNED)
        assert fields["TAG"] == 0x123

    def test_filled_by_read_is_a_valid_clean_line(self):
        assert self.make_view().filled_by_read
        assert not self.make_view(block_dirty=True).filled_by_read
        assert not self.make_view(valid=False).filled_by_read

    def test_view_is_immutable(self):
        view = self.make_view()
        try:
            view.valid = False
        except AttributeError:
            return
        raise AssertionError("CacheLineView must be immutable")
