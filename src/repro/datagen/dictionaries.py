"""Property dictionaries — the synthetic stand-in for Datagen's DBpedia
resource files (spec section 2.3.3.1, Table 2.11).

The spec defines each literal property by a *property dictionary model*:

* a dictionary ``D`` (a fixed value set),
* a ranking function ``R`` (a bijection assigning each value a rank,
  parameterised — e.g. by country — so popularity differs per context),
* a probability function ``F`` choosing values by rank.

The original resource files carry DBpedia extracts we do not have
offline; this module substitutes fixed synthetic tables with the same
*shape*: every resource of Table 2.11 exists (browsers, cities by
country, companies by country, countries with populations, email
providers, IP zones, languages by country, names/surnames by country,
popular places, tags by country, tag classes, tag hierarchies, tag
matrix, tag text, universities by city) and the country/gender
correlations the generator relies on are preserved through the
parameterised ranking.

All tables are module-level constants built by pure functions of
literals — no randomness — so the dictionary contents are identical in
every process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import DeterministicRng

# ---------------------------------------------------------------------------
# Places: continents, countries (with population weights), cities.
# ---------------------------------------------------------------------------

CONTINENTS: tuple[str, ...] = ("Europe", "Asia", "Africa", "America", "Oceania")

#: name -> (continent, relative population weight, main languages, ip prefix)
COUNTRIES: dict[str, tuple[str, float, tuple[str, ...], str]] = {
    "India": ("Asia", 18.0, ("hi", "en"), "59.88"),
    "China": ("Asia", 18.0, ("zh",), "36.48"),
    "United_States": ("America", 4.5, ("en",), "24.110"),
    "Indonesia": ("Asia", 3.6, ("id",), "39.192"),
    "Brazil": ("America", 2.8, ("pt",), "177.4"),
    "Pakistan": ("Asia", 2.8, ("ur", "en"), "39.32"),
    "Nigeria": ("Africa", 2.6, ("en",), "105.112"),
    "Bangladesh": ("Asia", 2.2, ("bn",), "59.152"),
    "Russia": ("Europe", 1.9, ("ru",), "46.48"),
    "Mexico": ("America", 1.7, ("es",), "148.204"),
    "Japan": ("Asia", 1.7, ("ja",), "49.96"),
    "Philippines": ("Asia", 1.5, ("tl", "en"), "49.144"),
    "Vietnam": ("Asia", 1.3, ("vi",), "27.64"),
    "Germany": ("Europe", 1.1, ("de",), "77.0"),
    "Egypt": ("Africa", 1.3, ("ar",), "41.32"),
    "Turkey": ("Europe", 1.1, ("tr",), "78.160"),
    "France": ("Europe", 0.9, ("fr",), "90.0"),
    "United_Kingdom": ("Europe", 0.9, ("en",), "25.0"),
    "Italy": ("Europe", 0.8, ("it",), "79.0"),
    "Spain": ("Europe", 0.6, ("es",), "81.32"),
    "Argentina": ("America", 0.6, ("es",), "181.0"),
    "Kenya": ("Africa", 0.7, ("sw", "en"), "105.48"),
    "Australia": ("Oceania", 0.35, ("en",), "1.120"),
    "New_Zealand": ("Oceania", 0.07, ("en",), "49.224"),
}

#: Cities per country; the first city is the country's most populous.
CITIES_BY_COUNTRY: dict[str, tuple[str, ...]] = {
    "India": ("Mumbai", "Delhi", "Bangalore", "Chennai", "Kolkata", "Pune"),
    "China": ("Shanghai", "Beijing", "Guangzhou", "Shenzhen", "Chengdu", "Wuhan"),
    "United_States": ("New_York", "Los_Angeles", "Chicago", "Houston", "Seattle"),
    "Indonesia": ("Jakarta", "Surabaya", "Bandung", "Medan"),
    "Brazil": ("Sao_Paulo", "Rio_de_Janeiro", "Brasilia", "Salvador"),
    "Pakistan": ("Karachi", "Lahore", "Islamabad", "Faisalabad"),
    "Nigeria": ("Lagos", "Kano", "Abuja", "Ibadan"),
    "Bangladesh": ("Dhaka", "Chittagong", "Khulna"),
    "Russia": ("Moscow", "Saint_Petersburg", "Novosibirsk", "Kazan"),
    "Mexico": ("Mexico_City", "Guadalajara", "Monterrey", "Puebla"),
    "Japan": ("Tokyo", "Osaka", "Nagoya", "Sapporo", "Fukuoka"),
    "Philippines": ("Manila", "Cebu", "Davao"),
    "Vietnam": ("Ho_Chi_Minh_City", "Hanoi", "Da_Nang"),
    "Germany": ("Berlin", "Hamburg", "Munich", "Cologne", "Frankfurt"),
    "Egypt": ("Cairo", "Alexandria", "Giza"),
    "Turkey": ("Istanbul", "Ankara", "Izmir"),
    "France": ("Paris", "Marseille", "Lyon", "Toulouse"),
    "United_Kingdom": ("London", "Birmingham", "Manchester", "Glasgow"),
    "Italy": ("Rome", "Milan", "Naples", "Turin"),
    "Spain": ("Madrid", "Barcelona", "Valencia", "Seville"),
    "Argentina": ("Buenos_Aires", "Cordoba", "Rosario"),
    "Kenya": ("Nairobi", "Mombasa", "Kisumu"),
    "Australia": ("Sydney", "Melbourne", "Brisbane", "Perth"),
    "New_Zealand": ("Auckland", "Wellington", "Christchurch"),
}

# ---------------------------------------------------------------------------
# Names.  Countries map to one of six name regions; each region has a
# gendered first-name pool and a surname pool.  The ranking function is
# parameterised by country: a country-specific rotation of the regional
# pool, so two countries of the same region still have different
# popularity orders — the correlation structure the spec asks for.
# ---------------------------------------------------------------------------

_NAME_REGION_BY_COUNTRY: dict[str, str] = {
    "India": "south_asia", "Pakistan": "south_asia", "Bangladesh": "south_asia",
    "China": "east_asia", "Japan": "east_asia", "Vietnam": "east_asia",
    "Indonesia": "east_asia", "Philippines": "east_asia",
    "United_States": "anglo", "United_Kingdom": "anglo", "Australia": "anglo",
    "New_Zealand": "anglo", "Nigeria": "anglo", "Kenya": "anglo",
    "Brazil": "latin", "Mexico": "latin", "Spain": "latin",
    "Argentina": "latin", "Italy": "latin",
    "Russia": "slavic", "Turkey": "slavic",
    "Germany": "west_europe", "France": "west_europe", "Egypt": "west_europe",
}

_FIRST_NAMES: dict[str, dict[str, tuple[str, ...]]] = {
    "south_asia": {
        "male": ("Arjun", "Rahul", "Amit", "Sanjay", "Imran", "Ravi", "Vikram",
                 "Aditya", "Farhan", "Kiran", "Nikhil", "Rajesh"),
        "female": ("Priya", "Ananya", "Deepa", "Fatima", "Lakshmi", "Meera",
                   "Nisha", "Pooja", "Sana", "Shreya", "Zara", "Kavya"),
    },
    "east_asia": {
        "male": ("Wei", "Jun", "Hiroshi", "Kenji", "Minh", "Takeshi", "Chen",
                 "Haruto", "Budi", "Jian", "Satoshi", "Duc"),
        "female": ("Mei", "Yuki", "Lan", "Sakura", "Hana", "Xiu", "Linh",
                   "Aiko", "Siti", "Ying", "Naoko", "Thi"),
    },
    "anglo": {
        "male": ("James", "John", "Michael", "David", "William", "Thomas",
                 "Daniel", "Matthew", "Andrew", "Joseph", "Charles", "George"),
        "female": ("Mary", "Emma", "Olivia", "Sarah", "Emily", "Jessica",
                   "Hannah", "Grace", "Sophie", "Lucy", "Chloe", "Alice"),
    },
    "latin": {
        "male": ("Carlos", "Jose", "Luis", "Miguel", "Juan", "Pedro", "Diego",
                 "Rafael", "Marco", "Antonio", "Pablo", "Fernando"),
        "female": ("Maria", "Ana", "Carmen", "Lucia", "Sofia", "Isabella",
                   "Valentina", "Camila", "Elena", "Rosa", "Paula", "Julia"),
    },
    "slavic": {
        "male": ("Ivan", "Dmitri", "Sergei", "Mehmet", "Alexei", "Mikhail",
                 "Nikolai", "Emre", "Andrei", "Pavel", "Viktor", "Murat"),
        "female": ("Olga", "Natalia", "Svetlana", "Ayse", "Irina", "Tatiana",
                   "Elif", "Anastasia", "Ekaterina", "Zeynep", "Vera", "Nina"),
    },
    "west_europe": {
        "male": ("Hans", "Pierre", "Klaus", "Jean", "Ahmed", "Stefan", "Luc",
                 "Omar", "Werner", "Michel", "Karim", "Dieter"),
        "female": ("Anna", "Marie", "Greta", "Claire", "Amira", "Ingrid",
                   "Juliette", "Layla", "Heidi", "Celine", "Nour", "Ursula"),
    },
}

_SURNAMES: dict[str, tuple[str, ...]] = {
    "south_asia": ("Sharma", "Patel", "Khan", "Singh", "Kumar", "Gupta",
                   "Rahman", "Ahmed", "Das", "Reddy", "Iyer", "Chowdhury"),
    "east_asia": ("Wang", "Li", "Zhang", "Tanaka", "Sato", "Nguyen", "Chen",
                  "Suzuki", "Tran", "Liu", "Yamamoto", "Santos"),
    "anglo": ("Smith", "Johnson", "Brown", "Taylor", "Wilson", "Davies",
              "Evans", "Walker", "Wright", "Robinson", "Okafor", "Mwangi"),
    "latin": ("Garcia", "Rodriguez", "Martinez", "Silva", "Lopez", "Gonzalez",
              "Perez", "Fernandez", "Rossi", "Romano", "Santos", "Torres"),
    "slavic": ("Ivanov", "Petrov", "Smirnov", "Yilmaz", "Kuznetsov", "Popov",
               "Kaya", "Volkov", "Demir", "Sokolov", "Novak", "Celik"),
    "west_europe": ("Muller", "Schmidt", "Dubois", "Martin", "Hassan",
                    "Schneider", "Bernard", "Fischer", "Moreau", "Weber",
                    "Laurent", "Wagner"),
}

# ---------------------------------------------------------------------------
# Tags and the TagClass hierarchy.  Roughly mirrors the DBpedia-derived
# hierarchy: a root "Thing" with second-level classes and leaf classes,
# each leaf carrying a set of concrete tags.  Countries are biased
# towards a subset of classes to give the tag-by-country correlation.
# ---------------------------------------------------------------------------

#: class name -> parent class name ("" for the root).
TAG_CLASS_HIERARCHY: dict[str, str] = {
    "Thing": "",
    "Agent": "Thing",
    "Person": "Agent",
    "Artist": "Person",
    "MusicalArtist": "Artist",
    "Writer": "Artist",
    "Athlete": "Person",
    "Politician": "Person",
    "Organisation": "Agent",
    "Band": "Organisation",
    "Company": "Organisation",
    "Work": "Thing",
    "Album": "Work",
    "Film": "Work",
    "Book": "Work",
    "Place": "Thing",
    "Country": "Place",
    "City": "Place",
    "Event": "Thing",
    "SportsEvent": "Event",
    "Election": "Event",
    "Species": "Thing",
    "Technology": "Thing",
    "ProgrammingLanguage": "Technology",
    "Device": "Technology",
}

_TAG_STEMS: dict[str, tuple[str, ...]] = {
    "MusicalArtist": ("Elvis_Presley", "The_Beatles_members", "Miles_Davis",
                      "Aretha_Franklin", "Bob_Dylan", "Freddie_Mercury",
                      "Umm_Kulthum", "Lata_Mangeshkar", "Caetano_Veloso",
                      "Fela_Kuti"),
    "Writer": ("Leo_Tolstoy", "Jane_Austen", "Gabriel_Garcia_Marquez",
               "Chinua_Achebe", "Haruki_Murakami", "Rabindranath_Tagore",
               "Naguib_Mahfouz", "Franz_Kafka"),
    "Athlete": ("Pele", "Muhammad_Ali", "Serena_Williams", "Usain_Bolt",
                "Sachin_Tendulkar", "Diego_Maradona", "Michael_Jordan",
                "Roger_Federer"),
    "Politician": ("Mahatma_Gandhi", "Abraham_Lincoln", "Nelson_Mandela",
                   "Winston_Churchill", "Simon_Bolivar", "Kemal_Ataturk",
                   "Charles_de_Gaulle", "Sun_Yat-sen"),
    "Band": ("Queen_band", "The_Rolling_Stones", "ABBA", "AC_DC",
             "Radiohead", "Metallica", "BTS_band", "Los_Tigres"),
    "Company": ("Toyota", "Siemens", "Tata_Group", "Petrobras", "Samsung",
                "Airbus", "Alibaba", "Safaricom"),
    "Album": ("Thriller_album", "Abbey_Road", "Kind_of_Blue",
              "The_Dark_Side_of_the_Moon", "Rumours", "Nevermind"),
    "Film": ("Casablanca_film", "Seven_Samurai", "Cidade_de_Deus",
             "La_Dolce_Vita", "Sholay", "Parasite_film", "Amelie", "Roma_film"),
    "Book": ("War_and_Peace", "Don_Quixote", "Things_Fall_Apart",
             "One_Hundred_Years_of_Solitude", "The_Tale_of_Genji",
             "Crime_and_Punishment"),
    "Country": ("Atlantis_myth", "Silk_Road", "Roman_Empire",
                "Ottoman_Empire", "Inca_Empire", "Mughal_Empire"),
    "City": ("Ancient_Rome", "Old_Kyoto", "Harlem", "Montmartre",
             "Copacabana", "Chandni_Chowk"),
    "SportsEvent": ("FIFA_World_Cup", "Olympic_Games", "Tour_de_France",
                    "Cricket_World_Cup", "Super_Bowl", "Wimbledon"),
    "Election": ("General_Election", "Presidential_Election",
                 "Local_Referendum", "Parliamentary_Vote"),
    "Species": ("Bengal_Tiger", "Giant_Panda", "Bald_Eagle", "Kangaroo",
                "African_Elephant", "Emperor_Penguin"),
    "ProgrammingLanguage": ("Python_language", "Java_language", "C_language",
                            "Haskell", "Prolog", "COBOL"),
    "Device": ("Telegraph", "Transistor_radio", "Smartphone",
               "Phonograph", "Mainframe"),
}

#: Continent -> tag classes over-represented in its countries' interests.
_CONTINENT_TAG_BIAS: dict[str, tuple[str, ...]] = {
    "Europe": ("Band", "Film", "Book", "Election"),
    "Asia": ("MusicalArtist", "Athlete", "Company", "Device"),
    "Africa": ("Writer", "Politician", "Species", "SportsEvent"),
    "America": ("Album", "Film", "Athlete", "ProgrammingLanguage"),
    "Oceania": ("Species", "SportsEvent", "City", "Book"),
}

BROWSERS: tuple[tuple[str, float], ...] = (
    ("Chrome", 0.45),
    ("Firefox", 0.25),
    ("Internet Explorer", 0.15),
    ("Safari", 0.10),
    ("Opera", 0.05),
)

EMAIL_PROVIDERS: tuple[str, ...] = (
    "gmail.com", "yahoo.com", "hotmail.com", "outlook.com", "mail.ru",
    "gmx.com", "zoho.com", "yandex.ru",
)

#: Popular photo places per country (spec: where album images are "taken").
POPULAR_PLACES: dict[str, tuple[str, ...]] = {
    country: tuple(f"{city}_landmark_{i}" for city in cities[:2] for i in (1, 2))
    for country, cities in CITIES_BY_COUNTRY.items()
}

_WORD_POOL: tuple[str, ...] = (
    "about", "history", "culture", "famous", "record", "world", "people",
    "classic", "style", "origin", "modern", "story", "legend", "influence",
    "early", "career", "period", "known", "great", "popular", "movement",
    "tradition", "science", "nature", "music", "art", "first", "national",
)


# ---------------------------------------------------------------------------
# Derived, index-based tables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dictionaries:
    """All resource tables resolved into integer-indexed form.

    Built once by :func:`build_dictionaries`; consumed by every
    generation stage.  Index spaces:

    * places: continents, then countries, then cities (global place index)
    * tag classes and tags: global indexes in hierarchy order
    * organisations: universities (per city) then companies (per country)
    """

    continent_names: tuple[str, ...]
    country_names: tuple[str, ...]
    country_continent: tuple[int, ...]          # country idx -> continent idx
    country_weights: tuple[float, ...]
    country_languages: tuple[tuple[str, ...], ...]
    country_ip_prefix: tuple[str, ...]
    city_names: tuple[str, ...]
    city_country: tuple[int, ...]               # city idx -> country idx
    cities_of_country: tuple[tuple[int, ...], ...]
    tag_class_names: tuple[str, ...]
    tag_class_parent: tuple[int, ...]           # -1 at root
    tag_names: tuple[str, ...]
    tag_class_of_tag: tuple[int, ...]
    tags_by_country: tuple[tuple[int, ...], ...]  # country idx -> ranked tags
    tag_text: tuple[str, ...]
    tag_related: tuple[tuple[int, ...], ...]    # tag matrix: correlated tags
    university_names: tuple[str, ...]
    university_city: tuple[int, ...]
    universities_of_country: tuple[tuple[int, ...], ...]
    company_names: tuple[str, ...]
    company_country: tuple[int, ...]
    companies_of_country: tuple[tuple[int, ...], ...]

    @property
    def num_countries(self) -> int:
        return len(self.country_names)

    def descendant_classes(self, class_idx: int) -> set[int]:
        """The tag class and all its transitive subclasses."""
        children: dict[int, list[int]] = {i: [] for i in range(len(self.tag_class_names))}
        for idx, parent in enumerate(self.tag_class_parent):
            if parent >= 0:
                children[parent].append(idx)
        result: set[int] = set()
        stack = [class_idx]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(children[current])
        return result


def _ranked_names(pool: tuple[str, ...], country_idx: int) -> tuple[str, ...]:
    """Country-parameterised ranking function R over a name dictionary.

    Rotating the pool by a country-dependent offset keeps the dictionary
    D fixed while giving each country its own popularity order.
    """
    offset = (country_idx * 5) % len(pool)
    return pool[offset:] + pool[:offset]


def build_dictionaries() -> Dictionaries:
    """Materialize every resource table of Table 2.11 into indexed form."""
    continent_names = CONTINENTS
    continent_idx = {name: i for i, name in enumerate(continent_names)}

    country_names = tuple(COUNTRIES)
    country_continent = tuple(
        continent_idx[COUNTRIES[c][0]] for c in country_names
    )
    country_weights = tuple(COUNTRIES[c][1] for c in country_names)
    country_languages = tuple(COUNTRIES[c][2] for c in country_names)
    country_ip_prefix = tuple(COUNTRIES[c][3] for c in country_names)

    city_names: list[str] = []
    city_country: list[int] = []
    cities_of_country: list[tuple[int, ...]] = []
    for ci, country in enumerate(country_names):
        indexes = []
        for city in CITIES_BY_COUNTRY[country]:
            indexes.append(len(city_names))
            city_names.append(city)
            city_country.append(ci)
        cities_of_country.append(tuple(indexes))

    tag_class_names = tuple(TAG_CLASS_HIERARCHY)
    class_idx = {name: i for i, name in enumerate(tag_class_names)}
    tag_class_parent = tuple(
        class_idx[parent] if parent else -1
        for parent in TAG_CLASS_HIERARCHY.values()
    )

    tag_names: list[str] = []
    tag_class_of_tag: list[int] = []
    tags_of_class: dict[str, list[int]] = {}
    for cls, stems in _TAG_STEMS.items():
        tags_of_class[cls] = []
        for stem in stems:
            tags_of_class[cls].append(len(tag_names))
            tag_names.append(stem)
            tag_class_of_tag.append(class_idx[cls])

    # Country tag ranking: biased classes first (rotated per country),
    # then all remaining tags.  Deterministic RNG keyed by country name
    # fixes the tail order.
    tags_by_country: list[tuple[int, ...]] = []
    for ci, country in enumerate(country_names):
        continent = country_names and COUNTRIES[country][0]
        biased_classes = _CONTINENT_TAG_BIAS[continent]
        ranked: list[int] = []
        for offset, cls in enumerate(biased_classes):
            pool = tags_of_class[cls]
            rotation = (ci + offset) % len(pool)
            ranked.extend(pool[rotation:] + pool[:rotation])
        rest = [t for t in range(len(tag_names)) if t not in set(ranked)]
        rng = DeterministicRng(0, "dictionaries", "tags_by_country", country)
        rng.shuffle(rest)
        tags_by_country.append(tuple(ranked + rest))

    # Tag text: a fixed pseudo-sentence per tag, used to synthesize
    # message content (resource "Tag Text").
    tag_text: list[str] = []
    for ti, name in enumerate(tag_names):
        words = [
            _WORD_POOL[(ti * 7 + k * 3) % len(_WORD_POOL)] for k in range(10)
        ]
        tag_text.append(f"{name.replace('_', ' ')} " + " ".join(words))

    # Tag matrix: a tag correlates with the other tags of its class
    # (resource "Tag Matrix" — used to enrich message tags).
    tag_related: list[tuple[int, ...]] = []
    for ti in range(len(tag_names)):
        cls = tag_class_of_tag[ti]
        siblings = tuple(
            t for t in range(len(tag_names))
            if tag_class_of_tag[t] == cls and t != ti
        )
        tag_related.append(siblings)

    university_names: list[str] = []
    university_city: list[int] = []
    universities_of_country: list[tuple[int, ...]] = []
    for ci, country in enumerate(country_names):
        indexes = []
        for city in cities_of_country[ci]:
            indexes.append(len(university_names))
            university_names.append(f"University_of_{city_names[city]}")
            university_city.append(city)
        universities_of_country.append(tuple(indexes))

    company_names: list[str] = []
    company_country: list[int] = []
    companies_of_country: list[tuple[int, ...]] = []
    _SECTORS = ("Energy", "Telecom", "Foods", "Airlines", "Software")
    for ci, country in enumerate(country_names):
        indexes = []
        for sector in _SECTORS:
            indexes.append(len(company_names))
            company_names.append(f"{country}_{sector}")
            company_country.append(ci)
        companies_of_country.append(tuple(indexes))

    return Dictionaries(
        continent_names=continent_names,
        country_names=country_names,
        country_continent=country_continent,
        country_weights=country_weights,
        country_languages=country_languages,
        country_ip_prefix=country_ip_prefix,
        city_names=tuple(city_names),
        city_country=tuple(city_country),
        cities_of_country=tuple(cities_of_country),
        tag_class_names=tag_class_names,
        tag_class_parent=tag_class_parent,
        tag_names=tuple(tag_names),
        tag_class_of_tag=tuple(tag_class_of_tag),
        tags_by_country=tuple(tags_by_country),
        tag_text=tuple(tag_text),
        tag_related=tuple(tag_related),
        university_names=tuple(university_names),
        university_city=tuple(university_city),
        universities_of_country=tuple(universities_of_country),
        company_names=tuple(company_names),
        company_country=tuple(company_country),
        companies_of_country=tuple(companies_of_country),
    )


def first_names_for(country_idx: int, country_name: str, gender: str) -> tuple[str, ...]:
    """Ranked first-name dictionary for a (country, gender) context."""
    region = _NAME_REGION_BY_COUNTRY[country_name]
    return _ranked_names(_FIRST_NAMES[region][gender], country_idx)


def surnames_for(country_idx: int, country_name: str) -> tuple[str, ...]:
    """Ranked surname dictionary for a country."""
    region = _NAME_REGION_BY_COUNTRY[country_name]
    return _ranked_names(_SURNAMES[region], country_idx)
