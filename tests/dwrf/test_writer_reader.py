"""DWRF writer/reader round-trips, layouts, and footer invariants."""

import dataclasses
import re
import zlib

import numpy as np
import pytest

from repro.common.errors import FormatError
from repro.dwrf import (
    DwrfReader,
    DwrfWriter,
    EncodingOptions,
    FileLayout,
    ReadOptions,
    StripeMeta,
    write_table_partition,
)
from repro.dwrf.stream import ROW_LEVEL
from repro.dwrf.stripe import DecodedFeature
from repro.warehouse import Row

from ..warehouse.oracles import logged_features


def rows_equal(a, b):
    if a.label != b.label or set(a.dense) != set(b.dense):
        return False
    if a.sparse != b.sparse:
        return False
    for fid in set(a.scores) | set(b.scores):
        if len(a.scores.get(fid, [])) != len(b.scores.get(fid, [])):
            return False
        for x, y in zip(a.scores[fid], b.scores[fid]):
            if abs(x - y) > 1e-6:
                return False
    return True


class TestRoundTrip:
    @pytest.mark.parametrize("layout", [FileLayout.MAP, FileLayout.FLATTENED])
    def test_full_round_trip(self, small_dataset, layout):
        schema, rows = small_dataset
        dwrf = write_table_partition(
            rows, schema, EncodingOptions(layout=layout, stripe_rows=64)
        )
        back = list(DwrfReader.for_file(dwrf).read_rows(schema))
        assert len(back) == len(rows)
        assert all(rows_equal(a, b) for a, b in zip(rows, back))

    def test_partial_final_stripe(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows[:100], schema, EncodingOptions(stripe_rows=64))
        assert [s.row_count for s in dwrf.footer.stripes] == [64, 36]
        assert dwrf.footer.row_count == 100

    def test_projection_round_trip(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        keep = frozenset(schema.feature_ids()[:4])
        reader = DwrfReader.for_file(dwrf, ReadOptions(projection=keep))
        for original, projected in zip(rows, reader.read_rows(schema)):
            assert logged_features(projected) <= keep
            assert projected.label == original.label
            for fid in keep & set(original.sparse):
                assert projected.sparse[fid] == original.sparse[fid]

    def test_map_layout_is_read_whole(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(
            rows, schema, EncodingOptions(layout=FileLayout.MAP, stripe_rows=64)
        )
        keep = frozenset(schema.feature_ids()[:2])
        # MAP cannot filter physically, so a projection is refused ...
        with pytest.raises(FormatError, match="read whole"):
            DwrfReader.for_file(dwrf, ReadOptions(projection=keep))
        # ... and a reader reads the whole file.
        reader = DwrfReader.for_file(dwrf)
        decoded = list(reader.read_rows(schema))
        assert len(decoded) == len(rows)
        assert all(rows_equal(a, b) for a, b in zip(rows, decoded))
        assert reader.trace.bytes_read == dwrf.size


class TestWriter:
    def test_writer_rejects_use_after_close(self, small_dataset):
        schema, rows = small_dataset
        writer = DwrfWriter(schema)
        writer.write_row(rows[0])
        writer.close()
        with pytest.raises(FormatError):
            writer.write_row(rows[1])
        with pytest.raises(FormatError):
            writer.close()

    def test_stripe_rows_must_be_positive(self):
        with pytest.raises(FormatError):
            EncodingOptions(stripe_rows=0)

    def test_flattened_skips_absent_features(self, small_dataset):
        schema, rows = small_dataset
        # Rows stripped to one feature: others must write no streams.
        fid = schema.feature_ids()[0]
        stripped = [
            Row(
                label=row.label,
                dense={f: v for f, v in row.dense.items() if f == fid},
                sparse={f: v for f, v in row.sparse.items() if f == fid},
                scores={f: v for f, v in row.scores.items() if f == fid},
            )
            for row in rows[:50]
        ]
        dwrf = write_table_partition(stripped, schema, EncodingOptions(stripe_rows=50))
        stripe = dwrf.footer.stripes[0]
        feature_ids = {info.feature_id for info in stripe.streams} - {ROW_LEVEL}
        assert feature_ids <= {fid}


class TestFooter:
    def test_footer_validates(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        dwrf.footer.validate()  # must not raise
        assert dwrf.footer.data_length == len(dwrf.data)

    def test_streams_contiguous_and_ordered(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        cursor = 0
        for stripe in dwrf.footer.stripes:
            for info in stripe.streams:
                assert info.offset == cursor
                cursor = info.end
        assert cursor == dwrf.size

    def test_feature_order_controls_layout(self, small_dataset):
        schema, rows = small_dataset
        ids = schema.feature_ids()
        reordered = tuple(reversed(ids))
        dwrf = write_table_partition(
            rows[:64], schema,
            EncodingOptions(stripe_rows=64, feature_order=reordered),
        )
        stripe = dwrf.footer.stripes[0]
        seen = []
        for info in stripe.streams:
            if info.feature_id != ROW_LEVEL and info.feature_id not in seen:
                seen.append(info.feature_id)
        present = [fid for fid in reordered if fid in set(seen)]
        assert seen == present

    @staticmethod
    def footer_with(footer, index, info):
        """*footer* with stream *index* of its first stripe replaced."""
        first = footer.stripes[0]
        streams = list(first.streams)
        streams[index] = info
        stripes = [StripeMeta(first.row_count, tuple(streams)), *footer.stripes[1:]]
        return dataclasses.replace(footer, stripes=stripes)

    def test_a_gap_before_a_stream_is_refused(self, small_dataset):
        schema, rows = small_dataset
        footer = write_table_partition(rows, schema).footer
        info = footer.stripes[0].streams[1]
        gapped = self.footer_with(
            footer, 1, dataclasses.replace(info, offset=info.offset + 1)
        )
        words = f"stream at {info.offset + 1} expected at {info.offset}"
        with pytest.raises(FormatError, match=f"^{words}$"):
            gapped.validate()

    def test_a_negative_stream_length_is_refused(self, small_dataset):
        schema, rows = small_dataset
        footer = write_table_partition(rows, schema).footer
        info = footer.stripes[0].streams[0]
        negative = self.footer_with(footer, 0, dataclasses.replace(info, length=-1))
        with pytest.raises(FormatError, match="^negative stream length$"):
            negative.validate()

    @pytest.mark.parametrize("slack", [-1, 1])
    def test_a_footer_that_does_not_cover_the_data_is_refused(
        self, small_dataset, slack
    ):
        schema, rows = small_dataset
        footer = write_table_partition(rows, schema).footer
        covered = footer.data_length
        wrong = dataclasses.replace(footer, data_length=covered + slack)
        words = f"footer covers {covered} bytes but file has {covered + slack}"
        with pytest.raises(FormatError, match=f"^{re.escape(words)}$"):
            wrong.validate()


class TestDecodedFeature:
    @pytest.mark.parametrize(
        "offsets",
        [
            lambda feature: feature.present_offsets(),
            lambda feature: feature.row_offsets(3),
        ],
    )
    def test_a_dense_feature_has_no_sparse_offsets(self, offsets):
        dense = DecodedFeature(
            presence=np.array([True, False, True]),
            dense_values=np.array([0.5, 2.0], dtype=np.float32),
        )
        with pytest.raises(FormatError, match="^dense feature has no sparse offsets$"):
            offsets(dense)


class TestChecksums:
    def test_streams_carry_crcs(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows[:64], schema, EncodingOptions(stripe_rows=64))
        for stripe in dwrf.footer.stripes:
            for info in stripe.streams:
                assert info.checksum == zlib.crc32(dwrf.data[info.offset : info.end])

    def test_corruption_detected_on_read(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows[:64], schema, EncodingOptions(stripe_rows=64))
        corrupted = bytearray(dwrf.data)
        victim = dwrf.footer.stripes[0].streams[2]
        corrupted[victim.offset] ^= 0xFF

        def fetch(offset, length):
            return bytes(corrupted[offset : offset + length])

        reader = DwrfReader(dwrf.footer, fetch)
        with pytest.raises(FormatError, match="checksum mismatch"):
            reader.read_stripe(0, schema)

    def test_clean_replica_passes_verification(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows[:64], schema, EncodingOptions(stripe_rows=64))
        back = list(DwrfReader.for_file(dwrf).read_rows(schema))
        assert len(back) == 64
