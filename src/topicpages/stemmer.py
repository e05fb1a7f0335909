"""Classic suffix-stripping stemmer (Porter, 1980 rules).

Stands in for lemmatization in the text pipeline: deterministic, no model
files, and adequate for bag-of-words weighting.  Tokens shorter than three
characters pass through unchanged.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start, a vowel after a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences: [C](VC){m}[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_vowel and cons:
            m += 1
        prev_vowel = not cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement) tables for steps 2-4; conditions are on the measure
# of what remains once the suffix is stripped.

_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)
_STEP2_ENDS = tuple(suffix for suffix, _ in _STEP2)
_STEP3_ENDS = tuple(suffix for suffix, _ in _STEP3)


def stem(word: str) -> str:
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

    # steps 2-4, each a table looked through only when the word ends in one of its suffixes
    if word.endswith(_STEP2_ENDS):
        for suffix, replacement in _STEP2:
            if word.endswith(suffix):
                base = word[: len(word) - len(suffix)]
                if _measure(base) > 0:
                    word = base + replacement
                break

    if word.endswith(_STEP3_ENDS):
        for suffix, replacement in _STEP3:
            if word.endswith(suffix):
                base = word[: len(word) - len(suffix)]
                if _measure(base) > 0:
                    word = base + replacement
                break

    if word.endswith(_STEP4):
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
