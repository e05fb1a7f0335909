import pytest
from hypothesis import given, strategies as st

from topicpages.content import _TOKEN_RE
from topicpages.stemmer import (
    _STEP2, _STEP3, _STEP4, _contains_vowel, _ends_cvc, _ends_double_consonant, _measure, stem,
)

from conftest import E2E_HOMEPAGES, SECTION_PAGES

# classic suffix-stripping vectors, one per rule family, traced by hand
# through the full rule cascade (later steps keep rewriting, so these are
# end-to-end outputs, not single-step ones)
VECTORS = [
    # plurals
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # -ed / -ing
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # y -> i
    ("happy", "happi"),
    ("sky", "sky"),
    # double-suffix rewrites
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valency", "valenc"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    # residual suffixes
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologous", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angularities", "angular"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # final e and ll
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("rolling", "roll"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_pass_through():
    assert stem("a") == "a"
    assert stem("as") == "as"
    assert stem("is") == "is"


def test_case_folded():
    assert stem("Sports") == stem("sports") == "sport"
    assert stem("POLITICS") == "polit"


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20)


@given(words)
def test_never_longer_than_input(word):
    assert len(stem(word)) <= len(word)


@given(words)
def test_deterministic_and_nonempty(word):
    out = stem(word)
    assert out == stem(word)
    assert out
    assert out.islower() or not out.isalpha()


# --- oracle: the rule cascade with every suffix table looped in full -----------

def reference_stem(word: str) -> str:
    """Each suffix table looked through whatever the word ends in."""
    word = word.lower()
    if len(word) <= 2:
        return word

    # step 1a: plurals
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # step 1b: -ed / -ing
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        flag = False
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # step 1c: -y -> -i after a vowel
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2
    for suffix, replacement in _STEP2:
        if word.endswith(suffix):
            base = word[: len(word) - len(suffix)]
            if _measure(base) > 0:
                word = base + replacement
            break

    # step 3
    for suffix, replacement in _STEP3:
        if word.endswith(suffix):
            base = word[: len(word) - len(suffix)]
            if _measure(base) > 0:
                word = base + replacement
            break

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            base = word[: len(word) - len(suffix)]
            if suffix == "ion" and not base.endswith(("s", "t")):
                break
            if _measure(base) > 1:
                word = base
            break

    # step 5a: drop a final e
    if word.endswith("e"):
        base = word[:-1]
        m = _measure(base)
        if m > 1 or (m == 1 and not _ends_cvc(base)):
            word = base

    # step 5b: -ll -> -l
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]

    return word


@given(words)
def test_matches_reference(word):
    assert stem(word) == reference_stem(word)


def test_matches_reference_on_every_e2e_token():
    tokens = {token for page in (*E2E_HOMEPAGES.values(), *SECTION_PAGES.values())
              for token in _TOKEN_RE.findall(page.lower())}
    assert len(tokens) > 100
    assert [stem(t) for t in sorted(tokens)] == [reference_stem(t) for t in sorted(tokens)]
