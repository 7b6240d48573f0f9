"""Tests for on-the-fly gazetteer construction."""

from repro.corpus.store import Corpus
from repro.kb.ontology import Ontology
from repro.recognizers.build import DictionaryBuilder


def music_ontology():
    ontology = Ontology()
    ontology.add_instance("Metallica", "Band", 0.95)
    ontology.add_instance("Madonna", "Singer", 0.9)
    ontology.add_subclass("Band", "Artist")
    ontology.add_subclass("Singer", "Artist")
    return ontology


def music_corpus():
    return Corpus(
        [
            "Artists such as Coldplay are famous.",
            "Artists such as Coldplay tour a lot.",
            "Muse is an Artist with many fans.",
        ]
    )


class TestOntologyChannel:
    def test_neighborhood_instances(self):
        builder = DictionaryBuilder(ontology=music_ontology())
        instances = builder.instances_from_ontology("Artist")
        assert "Metallica" in instances
        assert "Madonna" in instances

    def test_no_ontology_empty(self):
        assert DictionaryBuilder().instances_from_ontology("Artist") == {}


class TestCorpusChannel:
    def test_hearst_instances(self):
        builder = DictionaryBuilder(corpus=music_corpus())
        instances = builder.instances_from_corpus("Artist")
        assert "Coldplay" in instances
        assert "Muse" in instances

    def test_scores_rescaled_to_cap(self):
        builder = DictionaryBuilder(corpus=music_corpus(), corpus_confidence_cap=0.8)
        instances = builder.instances_from_corpus("Artist")
        assert max(instances.values()) == 0.8
        assert all(0 < value <= 0.8 for value in instances.values())

    def test_no_corpus_empty(self):
        assert DictionaryBuilder().instances_from_corpus("Artist") == {}

    def test_min_score_filter(self):
        builder = DictionaryBuilder(corpus=music_corpus(), min_corpus_score=10.0)
        assert builder.instances_from_corpus("Artist") == {}


class TestMerge:
    def test_both_channels_merge(self):
        builder = DictionaryBuilder(
            ontology=music_ontology(), corpus=music_corpus()
        )
        gazetteer = builder.build("Artist")
        entries = gazetteer.entries()
        assert "Metallica" in entries  # from ontology
        assert "Coldplay" in entries  # from corpus

    def test_type_name_override(self):
        gazetteer = DictionaryBuilder(ontology=music_ontology()).build(
            "Artist", type_name="artist"
        )
        assert gazetteer.type_name == "artist"

    def test_max_confidence_wins_on_overlap(self):
        ontology = music_ontology()
        ontology.add_instance("Coldplay", "Band", 0.99)
        builder = DictionaryBuilder(ontology=ontology, corpus=music_corpus())
        gazetteer = builder.build("Artist")
        # Ontology confidence (0.99 decayed once) beats the corpus score.
        assert gazetteer.confidence_of("Coldplay") > 0.5

    def test_unknown_class_empty_gazetteer(self):
        gazetteer = DictionaryBuilder(ontology=music_ontology()).build("Nothing")
        assert len(gazetteer) == 0
