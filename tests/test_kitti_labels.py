import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ReferenceBoxError, ReferenceLabelError, reference_parse_labels, reference_read_label_dir

from matrixgt import kitti_labels as kl
from matrixgt.annotator import TightAnnotation
from matrixgt.errors import FormatError, MatrixGTError, ValidationError


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

    @pytest.mark.parametrize("fields", ["Car -0.50 -7", "Car -0.01 0", "Car 1.01 0", "Car 0.00 4", "Car 0.00 -1"])
    def test_car_truncation_and_occlusion_outside_their_domain_name_the_line(self, fields):
        bad = fields + self.GOLDEN[len("Car 0.00 0"):]
        with pytest.raises(FormatError, match="000007.txt line 2: Car"):
            kl.parse_labels_text(self.GOLDEN + "\n" + bad + "\n", origin="000007.txt")

    def test_sentinels_of_other_types_parse(self):
        line = "DontCare -1.00 -1 -10.00 5.00 5.00 9.00 9.00 -1.00 -1.00 -1.00 -1000.00 -1000.00 -1000.00 -10.00"
        (label,) = kl.parse_labels_text(line)
        assert (label.type, label.truncated, label.occluded) == ("DontCare", -1.0, -1)

    def test_file_io(self, tmp_path):
        labels = [car(), car(bbox=(5, 5, 50, 45))]
        path = kl.label_path(tmp_path, 3)
        kl.write_labels(labels, path)
        assert path.name == "000003.txt"
        assert kl.labels_to_text(kl.read_label_dir(tmp_path)["000003"]) == kl.labels_to_text(labels)

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


def _collapses_at_two_decimals(label):
    left, top, right, bottom = (float(f"{value:.2f}") for value in label.bbox)
    return left == right or top == bottom


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80) | st.lists(_label_lines() | st.just(""), max_size=4).map("\n".join))
@example("Van 0.00 0 -10.00 0.00 0.001 5.00 0.00390625 -1.00 -1.00 -1.00 -1000.00 -1000.00 -1000.00 -10.00")
def test_fuzzed_label_text_raises_only_matrixgt_errors(text):
    try:
        labels = kl.parse_labels_text(text)
    except MatrixGTError:
        return
    written = kl.labels_to_text(labels)
    if any(map(_collapses_at_two_decimals, labels)):
        # a box less than 0.01 wide or high is written with no area
        with pytest.raises(ValidationError):
            kl.parse_labels_text(written)
        return
    assert kl.labels_to_text(kl.parse_labels_text(written)) == written


# what the reader must treat alike: every line boundary str.splitlines knows,
# and field separators that str.split() knows
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SEPARATORS = [" ", " ", "  ", "\t", "\x1f", "\xa0"]
_TRUNCATIONS = ["0.00", "0.15", "1.00", "-0.00", "1.01", "-0.50", "-1.00", "nan", "inf"]
_OCCLUSIONS = ["0", "1", "2", "3", "4", "-1", "-7", "1.5", "x"]
# (left, top, right, bottom): boxes the reader accepts (one under 0.01 wide),
# then inverted, zero-width, area-underflowing, and centroid-, area- and
# doubled-area-overflowing ones
_BOXES = ["10.00 20.00 50.00 60.00", "0.001 0.002 0.004 0.009", "0 0 1e-150 1e-150", "-1e300 -5 1e300 5",
          "50.00 20.00 10.00 60.00", "10.00 60.00 50.00 20.00", "10.00 20.00 10.00 60.00", "0 0 1e-200 1e-200",
          "1e308 10.00 1.7e308 60.00", "-1e308 0 1.7e308 1", "0 0 1e154 1e154"]


@st.composite
def _reader_lines(draw):
    """A label line, a blank one, or one with a wrong count, a non-number,
    NaN or infinity in some field; two in three carry a box of ``_BOXES``."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", " ", "\t "]))
    number = st.sampled_from(["1.00", "-10.00", "0", "314.74", "1e3", "-1000.00"]) | st.floats(
        allow_nan=False, allow_infinity=False).map(repr)
    fields = [
        draw(st.sampled_from([kl.CAR_TYPE, kl.CAR_TYPE, kl.DONTCARE_TYPE, "Van"])),
        draw(st.sampled_from(_TRUNCATIONS)),
        draw(st.sampled_from(_OCCLUSIONS)),
    ]
    fields += draw(st.lists(number, min_size=12, max_size=13))
    if draw(st.integers(0, 2)):
        fields[4:8] = draw(st.sampled_from(_BOXES)).split()
    if draw(st.integers(0, 4)) == 0:
        fields[draw(st.integers(3, len(fields) - 1))] = draw(st.sampled_from(["nan", "-inf", "1e999", "x", "1_0", ""]))
    if draw(st.integers(0, 9)) == 0:
        fields = fields[: draw(st.sampled_from([1, 14, 17]))] + ["0"] * 3
    line = fields[0]
    for field in fields[1:]:
        line += draw(st.sampled_from(_SEPARATORS)) + field
    return line


@st.composite
def _label_texts(draw):
    lines = draw(st.lists(_reader_lines(), max_size=6))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_LINE_BREAKS))
    if lines and draw(st.booleans()):
        text = text[: -1]  # the last line without its break (or a lone "\r" of "\r\n")
    return text


def _reader_outcome(parse, text):
    """('labels', dicts), or (kind, number) of the first rejected line: kind
    'box' for a box with no area or that overflows, 'format' otherwise."""
    try:
        labels = parse(text)
    except ReferenceLabelError as exc:
        return "box" if isinstance(exc, ReferenceBoxError) else "format", exc.lineno
    except (FormatError, ValidationError) as exc:
        return "box" if isinstance(exc, ValidationError) else "format", int(
            re.search(r" line (\d+):", str(exc)).group(1))
    return "labels", [label if isinstance(label, dict) else label._asdict() for label in labels]


@settings(max_examples=150, deadline=None)
@given(_label_texts())
def test_parser_agrees_with_the_reference_parser(text):
    assert _reader_outcome(kl.parse_labels_text, text) == _reader_outcome(reference_parse_labels, text)


_NAME_STEMS = ["000000", "000001", "a.b", ".h", "", "A", "x y", "\u00e9"]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_NAME_STEMS) | st.text("ab.AT", min_size=1, max_size=4),
                  st.sampled_from([".txt", ".txt", ".TXT", ".txt.bak", ".txt.txt", ""])),
        min_size=1, max_size=6),
    st.lists(_label_texts(), min_size=6, max_size=6),
)
def test_directory_reader_agrees_with_the_reference_reader(names, texts):
    """Keys are ``Path.stem`` in ``Path`` order, hidden names included
    (``.txt`` keys as ``.txt``, ``.h.txt`` as ``.h``), and ``A.TXT`` is not
    read; each file's labels, or its first rejected line, its path and the
    kind of error, agree."""
    with tempfile.TemporaryDirectory() as directory:
        for (stem, suffix), text in zip(names, texts):
            name = stem + suffix
            if name in ("", ".", ".."):  # not a file name a directory can hold
                continue
            with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as file:
                file.write(text)
        try:
            expected = reference_read_label_dir(directory)
        except ReferenceLabelError as exc:
            with pytest.raises(ValidationError if isinstance(exc, ReferenceBoxError) else FormatError) as raised:
                kl.read_label_dir(directory)
            assert str(raised.value).startswith(f"{exc.name} line {exc.lineno}:")
            return
        loaded = kl.read_label_dir(directory)
        assert list(loaded) == list(expected)
        assert {key: [label._asdict() for label in labels] for key, labels in loaded.items()} == expected
