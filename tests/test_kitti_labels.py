import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixgt import kitti_labels as kl
from matrixgt.annotator import TightAnnotation
from matrixgt.errors import FormatError, MatrixGTError


def car(bbox=(100.0, 100.0, 150.0, 140.0), truncated=0.0, occluded=0, **kw):
    defaults = dict(
        type="Car",
        truncated=truncated,
        occluded=occluded,
        alpha=0.0,
        bbox=bbox,
        dimensions=(1.5, 1.8, 4.2),
        location=(1.0, 1.6, 20.0),
        rotation_y=0.1,
    )
    defaults.update(kw)
    return kl.KittiLabel(**defaults)


class TestDifficulty:
    @pytest.mark.parametrize(
        "height,truncated,occluded,expected",
        [
            (40.0, 0.00, 0, kl.Difficulty.EASY),
            (30.0, 0.20, 1, kl.Difficulty.MODERATE),
            (26.0, 0.45, 2, kl.Difficulty.HARD),
            (20.0, 0.00, 0, kl.Difficulty.UNKNOWN),
        ],
    )
    def test_threshold_table(self, height, truncated, occluded, expected):
        label = car(bbox=(0.0, 0.0, 30.0, height), truncated=truncated, occluded=occluded)
        assert kl.classify_difficulty(label) == expected

    def test_boundary_values_inclusive(self):
        assert kl.classify_difficulty(car(bbox=(0, 0, 10, 40.0), truncated=0.15, occluded=0)) == kl.Difficulty.EASY
        assert kl.classify_difficulty(car(bbox=(0, 0, 10, 25.0), truncated=0.30, occluded=1)) == kl.Difficulty.MODERATE
        assert kl.classify_difficulty(car(bbox=(0, 0, 10, 25.0), truncated=0.50, occluded=2)) == kl.Difficulty.HARD

    def test_occlusion_three_is_unknown(self):
        assert kl.classify_difficulty(car(bbox=(0, 0, 10, 60.0), occluded=3)) == kl.Difficulty.UNKNOWN

    def test_malformed_bbox(self):
        with pytest.raises(ValueError):
            kl.classify_difficulty(car(bbox=(10.0, 0.0, 10.0, 40.0)))

    def test_ordering(self):
        assert kl.Difficulty.EASY < kl.Difficulty.MODERATE < kl.Difficulty.HARD < kl.Difficulty.UNKNOWN

    @given(
        st.floats(min_value=5.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=3),
    )
    def test_monotone_worsening_never_easier(self, h, trunc, occ, dh, dtrunc, docc):
        base = kl.classify_difficulty(car(bbox=(0, 0, 10, h), truncated=trunc, occluded=occ))
        worse = kl.classify_difficulty(
            car(
                bbox=(0, 0, 10, max(h - dh, 1.0)),
                truncated=min(trunc + dtrunc, 1.0),
                occluded=min(occ + docc, 3),
            )
        )
        assert worse >= base


class TestFromAnnotation:
    def test_on_axis_alpha_zero(self):
        annotation = TightAnnotation(
            source_id=4,
            tight_box=(314.74, 234.74, 325.26, 245.26),
            visible_px=100,
            truncation=0.0,
            occlusion_level=0,
            size=(1.0, 1.0, 1.0),
            location_cam=(0.0, 1.0, 10.0),
            yaw=0.0,
        )
        label = kl.from_annotation(annotation)
        assert label.alpha == 0.0
        assert label.rotation_y == 0.0
        assert label.dimensions == (1.0, 1.0, 1.0)

    def test_alpha_formula(self):
        annotation = TightAnnotation(
            source_id=1, tight_box=(0, 0, 10, 10), visible_px=10, truncation=0.0,
            occlusion_level=0, size=(4.0, 1.8, 1.5),
            location_cam=(3.0, 1.5, 12.0), yaw=0.4,
        )
        label = kl.from_annotation(annotation)
        assert label.alpha == pytest.approx(0.4 - math.atan2(3.0, 12.0))
        assert label.dimensions == (1.5, 1.8, 4.0)  # (h, w, l) from (l, w, h)

    def test_alpha_wraps_into_pi_range(self):
        annotation = TightAnnotation(
            source_id=1, tight_box=(0, 0, 10, 10), visible_px=10, truncation=0.0,
            occlusion_level=0, size=(4.0, 1.8, 1.5),
            location_cam=(-5.0, 1.5, 8.0), yaw=3.0,
        )
        label = kl.from_annotation(annotation)
        assert -math.pi <= label.alpha <= math.pi

    def test_orphan_sentinels(self):
        orphan = TightAnnotation(
            source_id=0, tight_box=(5.0, 6.0, 25.0, 20.0), visible_px=42,
            truncation=0.0, occlusion_level=2,
        )
        label = kl.from_annotation(orphan)
        assert label.alpha == -10.0 and label.rotation_y == -10.0
        assert label.dimensions == (-1.0, -1.0, -1.0)
        assert label.location == (-1000.0, -1000.0, -1000.0)
        assert label.occluded == 2


class TestTextFormat:
    GOLDEN = "Car 0.00 0 0.00 314.74 234.74 325.26 245.26 1.00 1.00 1.00 0.00 1.00 10.00 0.00"

    def test_golden_line(self):
        annotation = TightAnnotation(
            source_id=4, tight_box=(314.74, 234.74, 325.26, 245.26), visible_px=100,
            truncation=0.0, occlusion_level=0,
            size=(1.0, 1.0, 1.0), location_cam=(0.0, 1.0, 10.0), yaw=0.0,
        )
        assert kl.format_label(kl.from_annotation(annotation)) == self.GOLDEN

    def test_round_trip_truncation_two_decimals(self):
        label = car(truncated=0.17)
        parsed = kl.parse_labels_text(kl.labels_to_text([label]))[0]
        assert parsed.truncated == 0.17

    def test_parse_then_write_byte_identity(self):
        text = (
            self.GOLDEN + "\n"
            "Car 0.25 1 -1.57 0.00 10.50 99.25 80.75 1.40 1.70 3.80 -4.25 1.60 33.00 1.57\n"
            "DontCare -1.00 -1 -10.00 50.00 50.00 60.00 60.00 -1.00 -1.00 -1.00 -1000.00 -1000.00 -1000.00 -10.00\n"
        )
        labels = kl.parse_labels_text(text)
        assert kl.labels_to_text(labels) == text

    def test_write_then_parse_identity_on_quantized(self):
        labels = [car(), car(bbox=(1.25, 2.5, 40.75, 40.0), truncated=0.33, occluded=2, score=0.1234)]
        text = kl.labels_to_text(labels)
        reparsed = kl.parse_labels_text(text)
        assert kl.labels_to_text(reparsed) == text

    def test_score_field_round_trip(self):
        label = car(score=0.4567)
        line = kl.format_label(label)
        assert len(line.split()) == 16
        assert line.endswith("0.4567")
        assert kl.parse_labels_text(line)[0].score == 0.4567

    def test_empty_file(self):
        assert kl.parse_labels_text("") == []

    def test_wrong_field_count_names_line(self):
        good = self.GOLDEN
        bad = " ".join(good.split()[:14])
        with pytest.raises(FormatError, match="line 2"):
            kl.parse_labels_text(good + "\n" + bad + "\n")

    def test_unparseable_number_names_line(self):
        bad = self.GOLDEN.replace("314.74", "abc")
        with pytest.raises(FormatError, match="line 1"):
            kl.parse_labels_text(bad)

    def test_file_io(self, tmp_path):
        labels = [car(), car(bbox=(5, 5, 50, 45))]
        path = kl.label_path(tmp_path, 3)
        kl.write_labels(labels, path)
        assert path.name == "000003.txt"
        assert kl.labels_to_text(kl.parse_labels(path)) == kl.labels_to_text(labels)

    def test_read_label_dir_sorted(self, tmp_path):
        kl.write_labels([car()], kl.label_path(tmp_path, 2))
        kl.write_labels([], kl.label_path(tmp_path, 0))
        loaded = kl.read_label_dir(tmp_path)
        assert list(loaded) == ["000000", "000002"]
        assert loaded["000000"] == []


_JUNK_TOKENS = ["nan", "NaN", "inf", "-inf", "1e999", "-1e999", "0x10", "x", "--1", "1.2.3", "2.5"]


@st.composite
def _label_lines(draw):
    """A label-shaped line: type, truncation, occlusion and 11-14 more numbers
    (12 or 13 are valid), a quarter of them with one field swapped for a
    non-finite or unparseable token."""
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.floats(
        min_value=-1e4, max_value=1e4).map(lambda v: f"{v:.2f}")
    fields = [draw(number), str(draw(st.integers(min_value=-3, max_value=10**6)))]
    count = draw(st.sampled_from([12, 13, 12, 13, 11, 14]))
    fields += draw(st.lists(number, min_size=count, max_size=count))
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_JUNK_TOKENS))
    kind = draw(st.sampled_from([kl.CAR_TYPE, kl.DONTCARE_TYPE, "Van", "nan"]))
    return " ".join([kind, *fields])


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80) | st.lists(_label_lines() | st.just(""), max_size=4).map("\n".join))
def test_fuzzed_label_text_raises_only_matrixgt_errors(text):
    try:
        labels = kl.parse_labels_text(text)
    except MatrixGTError:
        return
    written = kl.labels_to_text(labels)
    assert kl.labels_to_text(kl.parse_labels_text(written)) == written
