import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geocontext.errors import BadTemplate, InvalidN, ParseError, UnparseableAddress
from geocontext.geomodel import GeoPoint
from geocontext.geotext import (
    Gazetteer,
    coord_to_text,
    normalize_name,
    ngram_tokenize,
    parse_address,
    semantic_tag,
    text_to_coord,
)


class TestNgram:
    def test_bigram_paper_example(self):
        assert [t.text for t in ngram_tokenize("New York City", 2)] == ["New York", "York City"]

    def test_unigrams_are_words(self):
        assert [t.text for t in ngram_tokenize("New York City", 1)] == ["New", "York", "City"]

    def test_empty_input(self):
        assert ngram_tokenize("", 2) == []

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            ngram_tokenize("a b", 0)

    def test_spans_reference_source(self):
        text = "New  York City"
        tokens = ngram_tokenize(text, 2)
        raw = text.encode("utf-8")
        for t in tokens:
            assert raw[t.span[0] : t.span[1]].decode("utf-8") == t.text

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80), st.integers(1, 5))
    def test_count_rule(self, text, n):
        w = len(text.split())
        assert len(ngram_tokenize(text, n)) == max(0, w - n + 1)


class TestCoordText:
    def test_paper_example(self):
        assert coord_to_text(GeoPoint(1.3008, 103.9122), "[Latitude], [Longitude]") == "1.3008, 103.9122"

    def test_zero_rendering(self):
        assert coord_to_text(GeoPoint(0, 0), "[Latitude], [Longitude]") == "0.0000, 0.0000"

    def test_missing_placeholder(self):
        with pytest.raises(BadTemplate):
            coord_to_text(GeoPoint(1.3008, 103.9122), "lat=[Latitude]")

    def test_parse_hemisphere_form(self):
        p = text_to_coord("1.3008° N, 103.9122° E")
        assert (p.lat, p.lon) == (1.3008, 103.9122)

    def test_parse_southern_western(self):
        p = text_to_coord("33.8688° S, 151.2093° E")
        assert p.lat == -33.8688
        p = text_to_coord("37.7749° N, 122.4194° W")
        assert p.lon == -122.4194

    def test_parse_bare_decimals(self):
        p = text_to_coord("0, 0")
        assert (p.lat, p.lon) == (0, 0)
        p = text_to_coord("-12.5, 30.25")
        assert (p.lat, p.lon) == (-12.5, 30.25)

    def test_parse_error_offsets(self):
        with pytest.raises(ParseError) as err:
            text_to_coord("1.3008° N")
        assert err.value.offset == len("1.3008° N")
        with pytest.raises(ParseError) as err:
            text_to_coord("abc")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            text_to_coord("1.0° E, 2.0° E")
        assert err.value.offset == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            text_to_coord("1.0, 2.0 xyz")

    @given(st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False))
    def test_round_trip_within_quantization(self, lat, lon):
        p = GeoPoint(lat, lon)
        q = text_to_coord(coord_to_text(p, "[Latitude], [Longitude]"))
        assert abs(q.lat - p.lat) <= 0.00005 + 1e-12
        dlon = abs(q.lon - p.lon) % 360.0
        assert min(dlon, 360.0 - dlon) <= 0.00005 + 1e-12


class TestParseAddress:
    def test_paper_example(self):
        fields = parse_address("123 East Coast, Singapore City")
        assert fields.street_number == "123"
        assert fields.street_name == "East Coast"
        assert fields.city == "Singapore"

    def test_abbreviation_expansion(self):
        fields = parse_address("1 Main St., Springfield")
        assert fields.street_number == "1"
        assert fields.street_name == "Main Street"
        assert fields.city == "Springfield"

    def test_empty_raises(self):
        with pytest.raises(UnparseableAddress):
            parse_address("")
        with pytest.raises(UnparseableAddress):
            parse_address("   ")

    def test_no_comma_no_number(self):
        fields = parse_address("Orchard Rd.")
        assert fields.street_name == "Orchard Road"
        assert fields.street_number is None and fields.city is None

    def test_middle_segments_ignored(self):
        fields = parse_address("7 Quay Lane, District 9, George Town")
        assert fields.street_name == "Quay Lane"
        assert fields.city == "George Town"

    def test_raw_preserved(self):
        raw = "123 East Coast, Singapore City"
        assert parse_address(raw).raw == raw

    def test_custom_abbreviation_table_file(self, tmp_path):
        from geocontext.geotext import load_abbreviations

        table_path = tmp_path / "abbrev.txt"
        table_path.write_text(
            "# local rules\nLn.\tLane\nSt.\tStreet\n", encoding="utf-8"
        )
        table = load_abbreviations(table_path)
        fields = parse_address("9 Foo Ln., Bar", abbreviations=table)
        assert fields.street_name == "Foo Lane"


class TestSemanticTag:
    def test_landmark_match(self, fixture_gazetteer):
        tokens = semantic_tag("Coldplay event at Marina Bay Sands", fixture_gazetteer)
        assert tokens[-1].text == "Marina Bay Sands"
        assert tokens[-1].kind == "landmark"
        assert [t.kind for t in tokens[:-1]] == ["plain"] * 3

    def test_empty_gazetteer_all_plain(self):
        tokens = semantic_tag("hello world", Gazetteer())
        assert [(t.text, t.kind) for t in tokens] == [("hello", "plain"), ("world", "plain")]

    def test_longest_match_wins(self):
        g = Gazetteer(entries={"East Coast": ("ec", "street"), "East Coast Road": ("ecr", "street")})
        tokens = semantic_tag("East Coast Road", g)
        assert [t.text for t in tokens] == ["East Coast Road"]

    def test_case_insensitive_lookup(self):
        g = Gazetteer(entries={"Marina Bay": ("mb", "landmark")})
        assert g.lookup("marina  bay") == ("mb", "landmark")
        tokens = semantic_tag("MARINA BAY", g)
        assert tokens[0].kind == "landmark"

    def test_edge_punctuation_split_off(self, fixture_gazetteer):
        tokens = semantic_tag("Is it in Singapore?", fixture_gazetteer)
        assert ("Singapore", "city") in [(t.text, t.kind) for t in tokens]
        assert tokens[-1].text == "?"

    def test_spans_cover_non_whitespace(self, fixture_gazetteer):
        text = "Visit Marina Bay Sands, then Singapore!"
        tokens = semantic_tag(text, fixture_gazetteer)
        raw = text.encode("utf-8")
        covered = set()
        prev_end = 0
        for t in tokens:
            start, end = t.span
            assert start >= prev_end, "spans must be ordered and non-overlapping"
            prev_end = end
            covered.update(range(start, end))
        uncovered = [i for i in range(len(raw)) if i not in covered and not raw[i : i + 1].isspace()]
        assert uncovered == []


# Whitespace of every kind `str.split` and the regex `\s` know, ASCII
# separators and Unicode spaces included, among letters that casefold.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
NAME_TEXT = st.text(st.sampled_from(list(WHITESPACE) + list("aZß\u0130ΣςΐﬃÉ-.'")), max_size=24) | st.text(max_size=24)


def regex_normalize_name(name: str) -> str:
    """The form `normalize_name` had: strip, collapse each regex whitespace
    run to one space, casefold."""
    return re.sub(r"\s+", " ", name.strip()).casefold()


class TestNormalizeName:
    @given(NAME_TEXT)
    def test_equals_the_regex_version(self, name):
        assert normalize_name(name) == regex_normalize_name(name)

    @pytest.mark.parametrize("space", list(WHITESPACE))
    def test_each_whitespace_character_collapses(self, space):
        name = f"{space}Marina{space}{space}Bay{space}"
        assert normalize_name(name) == regex_normalize_name(name) == "marina bay"

    @given(st.lists(st.tuples(NAME_TEXT, st.text(max_size=3)), max_size=12))
    def test_gazetteer_entries_and_max_words(self, pairs):
        entries = {name: (rid, "city") for name, rid in pairs}
        g = Gazetteer(entries=entries)
        want = {regex_normalize_name(k): v for k, v in entries.items()}
        assert list(g.entries.items()) == list(want.items())
        assert g.max_words == max((len(k.split(" ")) for k in want), default=1)
        for name, rid in pairs:
            g.add(name, rid, "street")
        assert g.max_words == max((len(k.split(" ")) for k in want), default=1)
