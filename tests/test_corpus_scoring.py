"""Tests for Str-ICNorm-Thresh scoring (paper Eq. 1)."""

from repro.corpus.hearst import find_matches
from repro.corpus.scoring import StrICNormThresh, _percentile_25
from repro.corpus.store import Corpus


def build_corpus(sentences):
    return Corpus(sentences)


def eq1_scores(corpus, type_name):
    """Instance -> Eq. 1 score, as ``DictionaryBuilder`` computes them."""
    scorer = StrICNormThresh(corpus)
    scorer.ingest(find_matches(corpus, type_name))
    return scorer.score_all(type_name)


class TestPercentile:
    def test_empty(self):
        assert _percentile_25([]) == 1

    def test_single(self):
        assert _percentile_25([4]) == 4

    def test_quartile(self):
        assert _percentile_25([1, 2, 3, 4]) == 1
        assert _percentile_25([10, 20, 30, 40, 50, 60, 70, 80]) == 20

    def test_minimum_one(self):
        assert _percentile_25([0, 0, 0, 0]) == 1


class TestScoring:
    def test_pattern_share_of_mentions_decides(self):
        # Muse: every mention is a pattern hit.  Oddity: one pattern hit
        # among many plain mentions -> lower Eq. 1 confidence.
        corpus = build_corpus(
            [
                "Bands such as Muse played.",
                "Bands such as Muse toured.",
                "Bands such as Muse released records.",
                "Bands such as Oddity played.",
                "Oddity was mentioned on the radio.",
                "The article about Oddity ran long.",
                "Oddity again, in passing.",
            ]
        )
        scores = eq1_scores(corpus, "Band")
        assert scores["Muse"] > scores["Oddity"]

    def test_common_string_damped(self):
        # "Paris" appears everywhere (high count(i)), so even with one
        # pattern hit its score sinks below an equally-hit rare string.
        sentences = ["Bands such as Paris played.", "Bands such as Zyx played."]
        sentences += ["Paris is lovely in spring."] * 20
        corpus = build_corpus(sentences)
        scores = eq1_scores(corpus, "Band")
        assert scores["Zyx"] > scores["Paris"]

    def test_score_zero_for_unseen_pair(self):
        corpus = build_corpus(["Bands such as Muse played."])
        scorer = StrICNormThresh(corpus)
        scorer.ingest(find_matches(corpus, "Band"))
        assert scorer.score("Nobody", "Band", count25=1) == 0.0

    def test_scores_positive_for_real_matches(self):
        corpus = build_corpus(["Artists such as Prince Clone performed."])
        scores = eq1_scores(corpus, "Artist")
        assert all(value > 0 for value in scores.values())

    def test_multiple_types_scored_separately(self):
        corpus = build_corpus(
            [
                "Bands such as Muse played.",
                "Venues such as Fillmore Hall hosted.",
            ]
        )
        scorer = StrICNormThresh(corpus)
        scorer.ingest(find_matches(corpus, "Band") + find_matches(corpus, "Venue"))
        assert "Muse" in scorer.score_all("Band")
        assert "Fillmore Hall" in scorer.score_all("Venue")
        assert "Muse" not in scorer.score_all("Venue")

    def test_empty_matches(self):
        corpus = build_corpus(["nothing relevant"])
        scorer = StrICNormThresh(corpus)
        scorer.ingest([])
        assert scorer.score_all("Band") == {}
