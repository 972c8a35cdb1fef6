"""Tests for the property dictionaries (spec Table 2.11 resources)."""

import pytest

from repro.datagen import dictionaries as d


@pytest.fixture(scope="module")
def dicts():
    return d.build_dictionaries()


class TestResourceCompleteness:
    """Every resource file of Table 2.11 must have a populated stand-in."""

    def test_browsers_resource(self):
        assert len(d.BROWSERS) >= 3
        assert abs(sum(w for _, w in d.BROWSERS) - 1.0) < 1e-9

    def test_countries_have_population_weights(self, dicts):
        assert len(dicts.country_names) >= 20
        assert all(w > 0 for w in dicts.country_weights)

    def test_cities_by_country(self, dicts):
        for country_idx in range(dicts.num_countries):
            assert dicts.cities_of_country[country_idx]

    def test_companies_by_country(self, dicts):
        for country_idx in range(dicts.num_countries):
            assert dicts.companies_of_country[country_idx]

    def test_universities_by_city(self, dicts):
        # One university per city in the synthetic world.
        assert len(dicts.university_names) == len(dicts.city_names)

    def test_email_providers(self):
        assert len(d.EMAIL_PROVIDERS) >= 5

    def test_ip_zones_per_country(self, dicts):
        assert len(set(dicts.country_ip_prefix)) == dicts.num_countries

    def test_languages_by_country(self, dicts):
        assert all(langs for langs in dicts.country_languages)

    def test_popular_places_per_country(self, dicts):
        for name in dicts.country_names:
            assert d.POPULAR_PLACES[name]

    def test_tag_text_per_tag(self, dicts):
        assert len(dicts.tag_text) == len(dicts.tag_names)
        assert all(text for text in dicts.tag_text)

    def test_tag_matrix_per_tag(self, dicts):
        assert len(dicts.tag_related) == len(dicts.tag_names)


class TestPlaces:
    def test_city_country_mapping_consistent(self, dicts):
        for country_idx, cities in enumerate(dicts.cities_of_country):
            for city in cities:
                assert dicts.city_country[city] == country_idx

    def test_continents_cover_countries(self, dicts):
        assert set(dicts.country_continent) <= set(
            range(len(dicts.continent_names))
        )

    def test_city_names_unique(self, dicts):
        assert len(set(dicts.city_names)) == len(dicts.city_names)


class TestTagHierarchy:
    def test_single_root(self, dicts):
        roots = [i for i, p in enumerate(dicts.tag_class_parent) if p < 0]
        assert len(roots) == 1
        assert dicts.tag_class_names[roots[0]] == "Thing"

    def test_hierarchy_is_acyclic(self, dicts):
        for start in range(len(dicts.tag_class_names)):
            seen = set()
            node = start
            while node >= 0:
                assert node not in seen
                seen.add(node)
                node = dicts.tag_class_parent[node]

    def test_every_tag_has_a_class(self, dicts):
        assert all(
            0 <= cls < len(dicts.tag_class_names)
            for cls in dicts.tag_class_of_tag
        )

    def test_tag_matrix_links_within_class(self, dicts):
        for tag, related in enumerate(dicts.tag_related):
            for other in related:
                assert dicts.tag_class_of_tag[other] == dicts.tag_class_of_tag[tag]
                assert other != tag


class TestRankingFunctions:
    """The (D, R, F) model: R must be a country-parameterised bijection."""

    def test_tags_by_country_is_bijection(self, dicts):
        n_tags = len(dicts.tag_names)
        for ranking in dicts.tags_by_country:
            assert sorted(ranking) == list(range(n_tags))

    def test_tag_rankings_differ_across_countries(self, dicts):
        assert dicts.tags_by_country[0] != dicts.tags_by_country[1]

    def test_first_names_are_rotations(self):
        pool_a = d.first_names_for(0, "India", "female")
        pool_b = d.first_names_for(1, "Pakistan", "female")
        assert sorted(pool_a) == sorted(pool_b)  # same dictionary D
        assert pool_a != pool_b  # different ranking R

    def test_surnames_gender_independent_dictionary(self):
        assert set(d.surnames_for(0, "France")) == set(
            d.surnames_for(5, "France")
        ) or d.surnames_for(0, "France")

    def test_name_regions_cover_all_countries(self, dicts):
        for idx, name in enumerate(dicts.country_names):
            assert d.first_names_for(idx, name, "male")
            assert d.surnames_for(idx, name)

    def test_build_is_deterministic(self, dicts):
        again = d.build_dictionaries()
        assert again.tags_by_country == dicts.tags_by_country
        assert again.city_names == dicts.city_names
