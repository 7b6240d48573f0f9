"""Tests for the synthetic corpus generator."""

from repro.corpus.generator import CorpusGenerator, CorpusSpec
from repro.corpus.hearst import find_matches
from repro.corpus.scoring import StrICNormThresh


def build(spec):
    return CorpusGenerator(spec).build()


class TestGenerator:
    def test_deterministic(self):
        spec = CorpusSpec(type_instances={"Band": ["Muse"]}, seed=42)
        a = build(spec)
        b = build(spec)
        assert list(a.sentences()) == list(b.sentences())

    def test_different_seeds_differ(self):
        base = {"Band": ["Muse", "Coldplay"]}
        a = build(CorpusSpec(type_instances=base, seed=1, noise=30))
        b = build(CorpusSpec(type_instances=base, seed=2, noise=30))
        assert list(a.sentences()) != list(b.sentences())

    def test_instances_discoverable_via_hearst(self):
        spec = CorpusSpec(
            type_instances={"Band": ["Muse", "Coldplay"]}, pattern_rate=4, seed=3
        )
        corpus = build(spec)
        found = {m.instance for m in find_matches(corpus, "Band")}
        assert {"Muse", "Coldplay"} <= found

    def test_scores_rank_true_instances(self):
        # Enough true instances for the count25 threshold of Eq. 1 to damp
        # the lone false pair.
        spec = CorpusSpec(
            type_instances={"Band": ["Muse", "Coldplay", "Oasis Clone", "Blur Twin"]},
            false_pairs=[("Randomword", "Band")],
            pattern_rate=4,
            seed=4,
        )
        corpus = build(spec)
        scorer = StrICNormThresh(corpus)
        scorer.ingest(find_matches(corpus, "Band"))
        scores = scorer.score_all("Band")
        assert scores["Muse"] >= scores.get("Randomword", 0.0)

    def test_noise_sentences_present(self):
        spec = CorpusSpec(type_instances={}, noise=25, seed=5)
        corpus = build(spec)
        assert len(corpus) == 25

    def test_plain_mentions_raise_instance_count(self):
        spec = CorpusSpec(
            type_instances={"Band": ["Muse"]},
            pattern_rate=1,
            mention_rate=5,
            noise=0,
            seed=6,
        )
        corpus = build(spec)
        assert corpus.count_phrase("Muse") >= 5
