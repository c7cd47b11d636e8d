"""Vendored Porter2 ("Snowball English") stemmer — pure Python, zero deps.

Implements the published Snowball English stemming algorithm
(https://snowballstem.org/algorithms/english/stemmer.html). The reference
engine uses ``nltk.stem.snowball.SnowballStemmer("english")`` (reference
``ts_type_filter/inverted_index.py:4-11``), which implements the same
algorithm; NLTK is unavailable in this environment, so the algorithm is
vendored here from the public specification.

This module is the rank-identity anchor: the single-process oracle
(``ts_type_filter_ray.oracle.index``) and the distributed Ray Data engine
both import *this* stemmer, so match sets and BM25 scores are well-defined
and independent of NLTK availability.

Like the reference stemmer, :func:`stem` lowercases its input.

The kernel (``_stem_uncached``) runs each step only where it can act:

- a word whose last letter ends no suffix of any step (``_ACTIVE_LAST``;
  most code identifiers and numbered tokens) is returned after
  lowercasing, apostrophe folding and the leading-apostrophe strip;
- y-marking runs only on a word with an initial y or a y after a vowel;
- R1 and R2 come from one regex match;
- steps 0-1c run only on a word ending in ', s, d, g or y, and each
  opens with one test (an apostrophe in the word, or one ``endswith``
  over the step's suffixes);
- steps 2-4 look up the word's last two letters in a per-step table,
  which yields the few suffixes that can match, longest first.

``stem`` is the kernel behind a bounded ``lru_cache`` (2^18 words per
process), so a repeated word costs one cache hit.
"""

from __future__ import annotations

import re
from functools import lru_cache

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")

# Exceptional forms (spec: "exceptional forms" list).
_SPECIAL = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
}

# Invariant after step 1a (spec: "Following step 1a, leave ... invariant").
_EXC2 = frozenset(
    ("inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed")
)

# Step 2 suffix → replacement, longest-match-first order.
_STEP2 = (
    ("ization", "ize"),
    ("ational", "ate"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ousli", "ous"),
    ("iviti", "ive"),
    ("fulli", "ful"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("abli", "able"),
    ("izer", "ize"),
    ("ator", "ate"),
    ("alli", "al"),
    ("bli", "ble"),
    # "ogi" (needs preceding "l") and "li" (needs valid li-ending) join the
    # step's dispatch table below with their extra conditions.
)

_STEP3 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    # "ative" (delete, requires R2) joins the step's dispatch table below.
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

# Step 4 deletions, longest first; "ion" has an extra condition.
_STEP4 = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
)


def _by_tail(entries):
    """Group ``(suffix, replacement, in_r2, before)`` entries by their
    last two letters, keeping their longest-first order."""
    table: dict[str, tuple] = {}
    for e in entries:
        table[e[0][-2:]] = table.get(e[0][-2:], ()) + (e,)
    return table


# One dispatch table per step: the word's last two letters pick the few
# suffixes that can match it. An entry is (suffix, replacement, in_r2,
# before): the suffix must start in R2 (else R1), and if ``before`` is
# set, right after one of its letters.
_STEP2_TAILS = _by_tail(
    [(suf, rep, False, "") for suf, rep in _STEP2]
    + [("ogi", "og", False, "l"), ("li", "", False, "cdeghkmnrt")])
_STEP3_TAILS = _by_tail(
    [(suf, rep, False, "") for suf, rep in _STEP3]
    + [("ative", "", True, "")])
_STEP4_TAILS = _by_tail(
    [(suf, "", True, "") for suf in _STEP4] + [("ion", "", True, "st")])
_STEPS_2_TO_4 = (_STEP2_TAILS, _STEP3_TAILS, _STEP4_TAILS)

# Last letters on which some step acts: steps 0-1 ("'", "'s", "s", "ied",
# "eed", "ed", "ing", "edly", "ingly", "y"), 2-4 and 5 ("e", "l"). A word
# that ends in any other letter leaves every step unchanged.
_ACTIVE_LAST = frozenset("'sdgyel") | {
    tail[-1] for tails in _STEPS_2_TO_4 for tail in tails}

# R1 ends where group 1 starts, R2 where it ends (unmatched: no R2)
_REGIONS = re.compile(r"(?:gener|arsen|commun|[^aeiouy]*[aeiouy]+[^aeiouy])"
                      r"([^aeiouy]*[aeiouy]+[^aeiouy])?").match
_HAS_VOWEL = re.compile(r"[aeiouy]").search
_MARKABLE_Y = re.compile(r"^y|[aeiouy]y").search


def _ends_short_syllable(word: str) -> bool:
    """True iff *word* ends in a "short syllable" per the spec."""
    n = len(word)
    if n >= 3:
        c1, v, c2 = word[-3], word[-2], word[-1]
        if (
            c1 not in _VOWELS
            and v in _VOWELS
            and c2 not in _VOWELS
            and c2 not in "wxY"
        ):
            return True
    if n == 2 and word[0] in _VOWELS and word[1] not in _VOWELS:
        return True
    return False


def _stem_uncached(word: str) -> str:
    """Stem one word (lowercases first, like the reference's stemmer)."""
    word = word.lower()
    if len(word) <= 2:
        return word
    if not word.isascii():
        word = word.replace("’", "'").replace("‘", "'").replace("‛", "'")
    special = _SPECIAL.get(word)
    if special is not None:
        return special
    if word[0] == "'":
        word = word[1:]
        if len(word) <= 2:
            return word
    if word[-1] not in _ACTIVE_LAST:  # no step acts on this word
        return word

    # Mark consonant-y as Y (initial y, or y after a vowel), left to right;
    # a word with no initial y and no y after a vowel (y included) has none.
    marked = "y" in word and _MARKABLE_Y(word) is not None
    if marked:
        if word[0] == "y":
            word = "Y" + word[1:]
        i = word.find("y", 1)
        if i > 0:
            chars = list(word)
            while i > 0:
                if chars[i - 1] in _VOWELS:
                    chars[i] = "Y"
                i = word.find("y", i + 1)
            word = "".join(chars)

    # R1 follows the first vowel-consonant pair (or a fixed prefix), R2
    # the next one; Y counts as a consonant.
    m = _REGIONS(word)
    if m is None:
        r1 = r2 = len(word)
    else:
        r1, r2 = m.span(1)
        if r2 < 0:
            r1, r2 = m.end(), len(word)

    # Steps 0-1c act only on a word ending in ', s, d, g, y or Y
    if word[-1] in "'sdgyY":
        # Step 0: longest among ' 's 's'
        if "'" in word:
            if word.endswith("'s'"):
                word = word[:-3]
            elif word.endswith("'s"):
                word = word[:-2]
            elif word.endswith("'"):
                word = word[:-1]

        # Step 1a
        if word.endswith("s"):
            if word.endswith("sses"):
                word = word[:-2]
            elif word.endswith("ies"):
                word = word[:-3] + ("i" if len(word) > 4 else "ie")
            elif not word.endswith(("us", "ss")) and _HAS_VOWEL(
                    word, 0, len(word) - 2):
                word = word[:-1]
        elif word.endswith("ied"):
            word = word[:-3] + ("i" if len(word) > 4 else "ie")

        # Step 1b (every _EXC2 word ends in "ing" or "eed")
        if word.endswith(("ed", "ing", "edly", "ingly")):
            if word in _EXC2:
                return word
            if word.endswith("eedly"):
                if len(word) - 5 >= r1:
                    word = word[:-5] + "ee"
            elif word.endswith("eed"):
                if len(word) - 3 >= r1:
                    word = word[:-3] + "ee"
            else:
                k = (5 if word.endswith("ingly")
                     else 4 if word.endswith("edly")
                     else 3 if word.endswith("ing") else 2)
                if _HAS_VOWEL(word, 0, len(word) - k):
                    word = word[:-k]
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(_DOUBLES):
                        word = word[:-1]
                    elif r1 >= len(word) and _ends_short_syllable(word):
                        word += "e"

        # Step 1c: y/Y → i after a non-vowel that is not the first letter
        if word.endswith(("y", "Y")) and len(word) > 2 and \
                word[-2] not in _VOWELS:
            word = word[:-1] + "i"

    # Steps 2-4: the longest suffix of the step's table that ends the word
    # is replaced if it starts in its region (a match outside it ends
    # the step); the last two letters pick the candidates.
    tail = word[-2:]
    for tails in _STEPS_2_TO_4:
        entries = tails.get(tail)
        if entries:
            for suf, rep, in_r2, before in entries:
                if word.endswith(suf):
                    i = len(word) - len(suf)
                    # i >= r1 >= 2, so word[i - 1] is a letter of the word
                    if i >= (r2 if in_r2 else r1) and (
                            not before or word[i - 1] in before):
                        word = word[:i] + rep
                        tail = word[-2:]
                    break

    # Step 5
    if word.endswith("e"):
        if len(word) - 1 >= r2 or (
            len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1])
        ):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) >= 2 and word[-2] == "l":
            word = word[:-1]

    return word.replace("Y", "y") if marked else word


#: the stemmer: the kernel behind a bounded per-process cache, named
#: ``stem`` so that pickle finds it (a task ships it by reference)
stem = lru_cache(maxsize=1 << 18)(_stem_uncached)
stem.__name__ = stem.__qualname__ = "stem"


class Porter2Stemmer:
    """Duck-typed drop-in for the reference's stemmer contract.

    The reference injects any object with a ``.stem(word)`` method
    (``ts_type_filter/inverted_index.py:36-39``); this class satisfies it.
    """

    __slots__ = ()

    def stem(self, word: str) -> str:
        return stem(word)
