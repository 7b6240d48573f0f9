"""Tests for gazetteer (isInstanceOf) recognizers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.recognizers.gazetteer import GazetteerRecognizer


class TestDictionary:
    def test_add_and_contains(self):
        gazetteer = GazetteerRecognizer("artist", [])
        gazetteer.add("Metallica", 0.9)
        assert "Metallica" in gazetteer
        assert gazetteer.confidence_of("Metallica") == 0.9

    def test_case_insensitive_by_default(self):
        gazetteer = GazetteerRecognizer("artist", ["Metallica"])
        assert "metallica" in gazetteer
        assert "METALLICA" in gazetteer

    def test_case_sensitive_mode(self):
        gazetteer = GazetteerRecognizer("artist", ["Metallica"], case_sensitive=True)
        assert "metallica" not in gazetteer

    def test_add_keeps_higher_confidence(self):
        gazetteer = GazetteerRecognizer("t", {})
        gazetteer.add("X", 0.9)
        gazetteer.add("X", 0.2)
        assert gazetteer.confidence_of("X") == 0.9

    def test_remove(self):
        gazetteer = GazetteerRecognizer("t", ["A"])
        gazetteer.remove("A")
        assert len(gazetteer) == 0

    def test_whitespace_normalized(self):
        gazetteer = GazetteerRecognizer("t", ["Madison   Square  Garden"])
        assert "Madison Square Garden" in gazetteer

    def test_empty_entries_skipped(self):
        gazetteer = GazetteerRecognizer("t", ["", "   "])
        assert len(gazetteer) == 0

    def test_mapping_input_with_confidences(self):
        gazetteer = GazetteerRecognizer("t", {"A": 0.5, "B": 0.8})
        assert gazetteer.entries() == {"A": 0.5, "B": 0.8}


class TestFind:
    def test_finds_single_word(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        (match,) = gazetteer.find("Tonight Muse performs")
        assert (match.start, match.end, match.value) == (8, 12, "Muse")

    def test_finds_multiword_longest(self):
        gazetteer = GazetteerRecognizer("venue", ["Garden", "Madison Square Garden"])
        matches = gazetteer.find("at Madison Square Garden tonight")
        assert [m.value for m in matches] == ["Madison Square Garden"]

    def test_word_boundary_respected(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        assert gazetteer.find("Museum hours") == []

    def test_multiple_occurrences(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        assert len(gazetteer.find("Muse opened for Muse")) == 2

    def test_empty_dictionary(self):
        gazetteer = GazetteerRecognizer("t", [])
        assert gazetteer.find("anything at all") == []

    def test_confidence_on_matches(self):
        gazetteer = GazetteerRecognizer("t", {"Muse": 0.7})
        assert gazetteer.find("Muse")[0].confidence == 0.7

    def test_original_surface_form_returned(self):
        gazetteer = GazetteerRecognizer("t", ["muse"])
        (match,) = gazetteer.find("MUSE live")
        assert match.value == "MUSE"  # value from the page text, not the dict

    def test_accepts(self):
        gazetteer = GazetteerRecognizer("t", ["Muse"])
        assert gazetteer.accepts("Muse")
        assert gazetteer.accepts("  Muse ")
        assert not gazetteer.accepts("Muse live")

    @given(st.lists(st.sampled_from(["Muse", "Coldplay", "Radiohead"]), max_size=5))
    def test_every_mention_found(self, names):
        gazetteer = GazetteerRecognizer("artist", ["Muse", "Coldplay", "Radiohead"])
        text = " and ".join(names)
        assert len(gazetteer.find(text)) == len(names)


class TestCaseSensitiveKeys:
    """``add`` collapses whitespace; every lookup must use the same key."""

    def test_contains_collapses_whitespace(self):
        gazetteer = GazetteerRecognizer("t", ["Foo  Bar"], case_sensitive=True)
        assert "Foo  Bar" in gazetteer
        assert "Foo Bar" in gazetteer
        assert "foo bar" not in gazetteer

    def test_accepts_collapses_whitespace(self):
        gazetteer = GazetteerRecognizer("t", ["Foo  Bar"], case_sensitive=True)
        assert gazetteer.accepts("Foo  Bar")

    def test_confidence_of_collapses_whitespace(self):
        gazetteer = GazetteerRecognizer("t", {"Foo  Bar": 0.4}, case_sensitive=True)
        assert gazetteer.confidence_of("Foo \t Bar") == 0.4

    def test_remove_collapses_whitespace(self):
        gazetteer = GazetteerRecognizer("t", ["Foo  Bar"], case_sensitive=True)
        gazetteer.remove("Foo  Bar")
        assert len(gazetteer) == 0
        assert gazetteer.find("Foo Bar") == []


class TestIndexMaintenance:
    def test_added_entry_is_found(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        gazetteer.add("Coldplay", 0.6)
        assert [m.value for m in gazetteer.find("Muse and Coldplay")] == [
            "Muse",
            "Coldplay",
        ]

    def test_removed_entry_is_not_found(self):
        gazetteer = GazetteerRecognizer("venue", ["Garden", "Madison Square Garden"])
        gazetteer.remove("Madison Square Garden")
        gazetteer.remove("not there")
        matches = gazetteer.find("at Madison Square Garden")
        assert [m.value for m in matches] == ["Garden"]

    def test_raised_confidence_is_reported(self):
        gazetteer = GazetteerRecognizer("t", {"Muse": 0.3})
        gazetteer.add("muse", 0.8)
        (match,) = gazetteer.find("Muse")
        assert match.confidence == 0.8

    def test_readded_entry_is_found_once(self):
        gazetteer = GazetteerRecognizer("t", ["Muse"])
        gazetteer.remove("Muse")
        gazetteer.add("Muse")
        gazetteer.add("Muse")
        assert len(gazetteer.find("Muse")) == 1


class TestLeadingPunctuation:
    """Entries are compared from their own start, not their first word's."""

    def test_entry_starting_with_punctuation_matches(self):
        gazetteer = GazetteerRecognizer("artist", ["(The) Band"])
        (match,) = gazetteer.find("Tonight (The) Band plays")
        assert (match.start, match.end, match.value) == (8, 18, "(The) Band")

    def test_entry_at_text_start(self):
        gazetteer = GazetteerRecognizer("t", ["...And You Will Know Us"])
        (match,) = gazetteer.find("...and you will know us")
        assert (match.start, match.end) == (0, 23)

    def test_prefix_must_match(self):
        gazetteer = GazetteerRecognizer("artist", ["(The) Band"])
        assert gazetteer.find("[The) Band") == []
        assert gazetteer.find("The) Band") == []

    def test_left_word_boundary_respected(self):
        gazetteer = GazetteerRecognizer("t", ["-Ology"])
        assert gazetteer.find("Bio-ology") == []
        assert [m.value for m in gazetteer.find("the -ology")] == ["-ology"]

    def test_right_word_boundary_respected(self):
        gazetteer = GazetteerRecognizer("artist", ["(The) Band"])
        assert gazetteer.find("(The) Bandits") == []

    def test_longest_candidate_wins(self):
        gazetteer = GazetteerRecognizer("t", ["The", "(The) Band"])
        matches = gazetteer.find("(The) Band")
        assert [m.value for m in matches] == ["(The) Band"]

    def test_no_overlap_with_previous_match(self):
        gazetteer = GazetteerRecognizer("t", ["Foo (", "(( Bar)"])
        matches = gazetteer.find("Foo (( Bar)")
        assert [m.value for m in matches] == ["Foo ("]


class _CountingDict(dict):
    """A dict that counts passes over its keys, values or items."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()

    def keys(self):
        type(self).passes += 1
        return super().keys()

    def values(self):
        type(self).passes += 1
        return super().values()

    def items(self):
        type(self).passes += 1
        return super().items()


class TestScanCost:
    """``find`` costs O(words in the text) plus the candidates sharing a
    word's first token; it never passes over the dictionary."""

    def test_find_never_iterates_the_dictionary(self):
        entries = {f"entry{i} name{i % 97}": 1.0 for i in range(100_000)}
        gazetteer = GazetteerRecognizer("t", entries)
        gazetteer._entries = _CountingDict(gazetteer._entries)
        _CountingDict.passes = 0
        text = "see entry17 name17 and entry99999 name89 but not entry5 name6"
        for __ in range(50):
            matches = gazetteer.find(text)
        assert [m.value for m in matches] == [
            "entry17 name17",
            "entry99999 name89",
        ]
        assert _CountingDict.passes == 0

    def test_candidates_are_only_entries_sharing_the_first_token(self):
        gazetteer = GazetteerRecognizer("t", [f"w{i}" for i in range(1000)])
        gazetteer.add("shared one")
        gazetteer.add("shared two")
        assert gazetteer._first_token_index["shared"] == {
            "shared one": 0,
            "shared two": 0,
        }
        assert len(gazetteer._first_token_index) == 1001


class TestSelectivity:
    def test_empty_dictionary_zero(self):
        assert GazetteerRecognizer("t", []).selectivity_weight() == 0.0

    def test_longer_entries_more_selective(self):
        short = GazetteerRecognizer("a", ["ab", "cd"])
        long = GazetteerRecognizer("b", ["Something Quite Long Indeed"] * 2)
        assert long.selectivity_weight() > short.selectivity_weight()

    def test_explicit_override(self):
        gazetteer = GazetteerRecognizer("t", ["x"], selectivity=9.0)
        assert gazetteer.selectivity_weight() == 9.0
