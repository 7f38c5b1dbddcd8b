"""Unit tests for the phased synthetic process generator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import IFETCH, READ, WRITE
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage
from tests.oracle import pairs

PAGE = 512


def make_image(code=4, heap=32, file_pages=4, data=0):
    space_map = AddressSpaceMap(PAGE)
    space = ProcessAddressSpace(0, PAGE, 1 << 24, space_map)
    image = ProcessImage(space, code_pages=code, heap_pages=heap,
                         file_pages=file_pages, data_pages=data)
    return image, space_map


def collect(process, limit=None):
    refs = list(pairs(process.access_chunks()))
    return refs[:limit] if limit else refs


class TestPhaseValidation:
    def test_working_set_must_fit_heap(self):
        image, _ = make_image(heap=8)
        with pytest.raises(ConfigurationError):
            PhasedProcess(
                image, [Phase(duration=100, ws_start=4, ws_pages=8)],
                DeterministicRng(0),
            )

    def test_hot_code_must_fit(self):
        image, _ = make_image(code=2)
        with pytest.raises(ConfigurationError):
            PhasedProcess(
                image, [Phase(duration=100, code_hot_pages=4)],
                DeterministicRng(0),
            )

    def test_scan_requires_file_region(self):
        image, _ = make_image(file_pages=0)
        with pytest.raises(ConfigurationError):
            PhasedProcess(
                image, [Phase(duration=100, scan_pages=2)],
                DeterministicRng(0),
            )

    def test_data_traffic_requires_data_region(self):
        image, _ = make_image(data=0)
        with pytest.raises(ConfigurationError):
            PhasedProcess(
                image,
                [Phase(duration=100, data_frac=0.2, data_ws_pages=2)],
                DeterministicRng(0),
            )

    def test_bad_fractions_rejected(self):
        image, _ = make_image()
        with pytest.raises(ConfigurationError):
            PhasedProcess(
                image, [Phase(duration=100, write_frac=1.5)],
                DeterministicRng(0),
            )

    def test_zero_duration_rejected(self):
        image, _ = make_image()
        with pytest.raises(ConfigurationError):
            PhasedProcess(image, [Phase(duration=0)],
                          DeterministicRng(0))

    @pytest.mark.parametrize("field", ["code_hot_pages", "ws_pages"])
    def test_empty_page_range_rejected(self, field):
        image, _ = make_image()
        with pytest.raises(ConfigurationError):
            PhasedProcess(image, [Phase(duration=100, **{field: 0})],
                          DeterministicRng(0))


class TestStream:
    def phases(self, **overrides):
        values = dict(duration=20_000, code_hot_pages=2, ws_pages=8,
                      write_frac=0.3, rmw_frac=0.2)
        values.update(overrides)
        return [Phase(**values)]

    def test_duration_approximately_honoured(self):
        image, _ = make_image()
        process = PhasedProcess(image, self.phases(),
                                DeterministicRng(1))
        refs = collect(process)
        assert 20_000 <= len(refs) <= 24_000

    def test_addresses_stay_inside_regions(self):
        image, space_map = make_image(data=4)
        process = PhasedProcess(
            image,
            self.phases(alloc_pages=4, scan_pages=2, data_frac=0.1,
                        data_ws_pages=4),
            DeterministicRng(2),
        )
        for kind, vaddr in collect(process):
            region = space_map.region_of(vaddr)
            assert region is not None, hex(vaddr)
            if kind == WRITE:
                assert region.writable

    def test_ifetches_go_to_code(self):
        image, space_map = make_image()
        process = PhasedProcess(image, self.phases(),
                                DeterministicRng(3))
        for kind, vaddr in collect(process, 5000):
            if kind == IFETCH:
                assert space_map.region_of(vaddr) is image.code

    def test_reference_mix_tracks_parameters(self):
        image, _ = make_image()
        process = PhasedProcess(
            image, self.phases(ifetch_per_op=3, write_frac=0.5),
            DeterministicRng(4),
        )
        refs = collect(process)
        kinds = [kind for kind, _ in refs]
        ifetch_share = kinds.count(IFETCH) / len(kinds)
        assert 0.5 < ifetch_share < 0.85

    def heap_pages(self, image, **overrides):
        """Heap page of every data reference, relative to the heap."""
        process = PhasedProcess(image, self.phases(**overrides),
                                DeterministicRng(4))
        return [(vaddr - image.heap.start) // PAGE
                for kind, vaddr in collect(process)
                if kind != IFETCH and image.heap.contains(vaddr)]

    def test_heap_pages_stay_in_working_set(self):
        image, _ = make_image(heap=32)
        pages = self.heap_pages(image, ws_start=3, ws_pages=17)
        assert set(pages) <= set(range(3, 20))
        assert {3, 19} <= set(pages)

    def test_data_skew_prefers_low_pages(self):
        image, _ = make_image(heap=100)
        skewed = self.heap_pages(image, ws_pages=100, data_skew=2.0)
        uniform = self.heap_pages(image, ws_pages=100, data_skew=0.0)
        assert (sum(skewed) / len(skewed)
                < 0.6 * sum(uniform) / len(uniform))

    def test_determinism(self):
        streams = []
        for _ in range(2):
            image, _ = make_image()
            process = PhasedProcess(image, self.phases(),
                                    DeterministicRng(9))
            streams.append(collect(process))
        assert streams[0] == streams[1]

    def test_alloc_pages_touched_write_first(self):
        image, _ = make_image(heap=16)
        process = PhasedProcess(
            image, self.phases(duration=30_000, alloc_pages=8),
            DeterministicRng(5),
        )
        first_op = {}
        heap = image.heap
        for kind, vaddr in collect(process):
            if heap.start <= vaddr < heap.end:
                page = (vaddr - heap.start) // PAGE
                first_op.setdefault(page, kind)
        write_first = sum(
            1 for kind in first_op.values() if kind == WRITE
        )
        assert write_first >= len(first_op) * 0.4

    def test_scan_reads_sequential_file_pages(self):
        image, _ = make_image(file_pages=4)
        process = PhasedProcess(
            image, self.phases(duration=30_000, scan_pages=4),
            DeterministicRng(6),
        )
        file_reads = [
            vaddr for kind, vaddr in collect(process)
            if image.file.start <= vaddr < image.file.end
        ]
        assert file_reads
        touched_pages = {
            (vaddr - image.file.start) // PAGE for vaddr in file_reads
        }
        assert touched_pages == {0, 1, 2, 3}

    def test_multiple_phases_shift_working_sets(self):
        image, _ = make_image(heap=32)
        process = PhasedProcess(
            image,
            [
                Phase(duration=10_000, ws_start=0, ws_pages=8),
                Phase(duration=10_000, ws_start=24, ws_pages=8),
            ],
            DeterministicRng(7),
        )
        refs = collect(process)
        heap = image.heap
        midpoint = len(refs) // 2
        early_pages = {
            (vaddr - heap.start) // PAGE
            for kind, vaddr in refs[:midpoint // 2]
            if heap.start <= vaddr < heap.end
        }
        late_pages = {
            (vaddr - heap.start) // PAGE
            for kind, vaddr in refs[-midpoint // 2:]
            if heap.start <= vaddr < heap.end
        }
        assert max(early_pages) < 8
        assert min(page for page in late_pages if page >= 8) >= 24

    def test_length_hint(self):
        image, _ = make_image()
        process = PhasedProcess(image, self.phases(),
                                DeterministicRng(8))
        assert process.length_hint == 20_000
