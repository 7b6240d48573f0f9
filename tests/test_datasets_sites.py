"""Tests for site generation."""

import pytest

from repro.datasets.domains import DOMAINS, domain_spec
from repro.datasets.sites import GeneratedSource, SiteSpec, generate_source
from repro.htmlkit import clean_tree, tidy
from repro.utils.text import normalize_text


def make(domain="albums", **kwargs):
    defaults = dict(total_objects=30, seed=("sitetest", domain))
    defaults.update(kwargs)
    spec = SiteSpec(name=f"site-{domain}", domain=domain, **defaults)
    return generate_source(spec, domain_spec(domain))


class TestGeneration:
    def test_deterministic(self):
        a = make()
        b = make()
        assert a.pages == b.pages
        assert [g.values for g in a.gold] == [g.values for g in b.gold]

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_every_domain_renders(self, domain):
        source = make(domain=domain)
        assert source.pages
        assert len(source.gold) == 30

    def test_gold_values_present_in_pages(self):
        source = make()
        all_text = normalize_text(" ".join(source.pages))
        for gold in source.gold[:10]:
            for values in gold.normalized_flat().values():
                for value in values:
                    assert value in all_text

    def test_page_indexes_assigned(self):
        source = make()
        for gold in source.gold:
            assert 0 <= gold.page_index < len(source.pages)

    def test_pages_parse_cleanly(self):
        source = make()
        for raw in source.pages:
            root = clean_tree(tidy(raw))
            assert root.find("body") is not None

    def test_detail_pages_one_object_each(self):
        source = make(page_type="detail", total_objects=12)
        assert len(source.pages) == 12
        for index, gold in enumerate(source.gold):
            assert gold.page_index == index

    def test_constant_record_count(self):
        source = make(constant_record_count=5, total_objects=25)
        pages_of = {}
        for gold in source.gold:
            pages_of.setdefault(gold.page_index, 0)
            pages_of[gold.page_index] += 1
        assert all(count == 5 for count in pages_of.values())

    def test_varying_record_count(self):
        source = make(records_per_page=(3, 7), total_objects=50)
        counts = {}
        for gold in source.gold:
            counts[gold.page_index] = counts.get(gold.page_index, 0) + 1
        assert len(set(counts.values())) > 1

    def test_chrome_present(self):
        source = make()
        assert "<header>" in source.pages[0]
        assert "<footer>" in source.pages[0]


class TestArchetypes:
    def test_all_archetypes_render(self):
        for archetype in (
            "clean",
            "partial_inline",
            "partial_inline_plus",
            "mixed_structure",
            "unstructured",
        ):
            source = make(archetype=archetype)
            assert isinstance(source, GeneratedSource)

    def test_unstructured_has_no_gold(self):
        source = make(archetype="unstructured")
        assert source.gold == []
        assert source.pages

    def test_partial_inline_joins_attributes(self):
        source = make(archetype="partial_inline")
        text = normalize_text(source.pages[0])
        gold = source.gold[0]
        joined = (
            f"{normalize_text(gold.values['title'])} by "
            f"{normalize_text(gold.values['artist'])}"
        )
        assert joined in text

    def test_mixed_structure_swaps_order(self):
        source = make(archetype="mixed_structure", total_objects=60)
        # The affected attribute (artist) is rendered in a *plain* field
        # container (no class) paired with a noise twin whose relative
        # order varies across records.
        page = source.pages[0]
        assert page.count("<div>") > 0 or page.count("<p>") > 0
        # Both orders occur somewhere across the source.
        artist_first = noise_first = False
        joined = " ".join(source.pages)
        for gold in source.gold[:20]:
            artist = gold.values["artist"]
            position = joined.find(artist)
            window = joined[max(0, position - 120) : position]
            if any(noise in window for noise in (
                "Ships within", "Member exclusive", "Hot this season",
                "Verified listing", "Staff recommended", "While supplies",
            )):
                noise_first = True
            else:
                artist_first = True
        assert artist_first and noise_first


class TestOptionalHandling:
    def test_optional_absent_sources(self):
        source = make(optional_present=False)
        assert all("date" not in gold.flat for gold in source.gold)
