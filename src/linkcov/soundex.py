"""American Soundex surname coding.

The exact variant implemented here (and therefore shared by the
population synthesizer and the blocking stage, which must agree bit for
bit):

1. uppercase and strip every non A-Z character;
2. keep the first letter;
3. code the remaining letters B,F,P,V -> 1, C,G,J,K,Q,S,X,Z -> 2,
   D,T -> 3, L -> 4, M,N -> 5, R -> 6;
4. collapse runs of the same digit, where H and W are transparent
   (a digit repeated across H/W still collapses) and the vowels
   A,E,I,O,U,Y break a run; the first letter's own digit takes part in
   the collapsing;
5. truncate/zero-pad to one letter plus three digits.
"""

import numpy as np

__all__ = ["soundex", "soundex_array"]

_DIGIT = {}
for _letters, _d in (
    ("BFPV", "1"),
    ("CGJKQSXZ", "2"),
    ("DT", "3"),
    ("L", "4"),
    ("MN", "5"),
    ("R", "6"),
):
    for _ch in _letters:
        _DIGIT[_ch] = _d


def soundex(name: str) -> str:
    """Return the 4-character American Soundex code of a surname.

    Raises ValueError if nothing remains after stripping non-letters.
    """
    letters = [c for c in name.upper() if "A" <= c <= "Z"]
    if not letters:
        raise ValueError(f"cannot compute soundex of {name!r}: no ASCII letters")
    first = letters[0]
    prev = _DIGIT.get(first, "")
    digits = []
    for ch in letters[1:]:
        if ch in "HW":
            continue
        d = _DIGIT.get(ch)
        if d is None:
            prev = ""
            continue
        if d != prev:
            digits.append(d)
        prev = d
        if len(digits) >= 3:
            break
    return (first + "".join(digits[:3])).ljust(4, "0")


# Class of each ASCII code point after upper-casing: the Soundex digit
# of a coded consonant, 0 for the vowels A E I O U Y (which break a
# run), 7 for H and W (which a run passes over), -1 for a non-letter.
_CLASS = np.full(128, -1, dtype=np.int8)
_CLASS[[ord(c) for c in "AEIOUY"]] = 0
_CLASS[[ord(c) for c in "HW"]] = 7
for _ch, _d in _DIGIT.items():
    _CLASS[ord(_ch)] = int(_d)


def soundex_array(names):
    """``soundex`` of each name, as a U4 array, in a few array passes.

    The result equals ``[soundex(n) for n in names]``.  A name with a
    non-ASCII code point goes through ``soundex`` itself, because
    ``str.upper()`` can turn such a character into ASCII letters
    ("\u00df" gives "SS").  A name with no letters raises the ValueError
    ``soundex`` raises for it.
    """
    names = np.asarray(names, dtype=str)
    if names.ndim != 1:
        raise ValueError("soundex_array needs a one-dimensional sequence")
    if names.dtype.itemsize < 16:
        names = names.astype("U4")  # three digit slots after the first
    names = np.ascontiguousarray(names)
    n, width = names.size, names.dtype.itemsize // 4
    chars = names.view(np.uint32).reshape(n, width)
    other = np.flatnonzero((chars > 0x7F).any(axis=1))
    chars = np.where(chars > 0x7F, 0, chars)
    upper = np.where((chars >= 97) & (chars <= 122), chars - 32, chars)
    cls = _CLASS[upper]

    is_letter = cls >= 0
    has_letter = is_letter.any(axis=1)
    has_letter[other] = True
    if not has_letter.all():
        soundex(str(names[np.argmin(has_letter)]))  # raises its ValueError
    rows = np.arange(n)
    first = np.argmax(is_letter, axis=1)

    # the letters after the first that are not H or W, moved to the
    # front of each row in order; the rest of the row reads as a vowel
    kept = is_letter & (cls != 7) & (np.arange(width) > first[:, None])
    at_row, at_col = np.nonzero(kept)
    seq = np.zeros((n, width), dtype=np.int8)
    seq[at_row, (np.cumsum(kept, axis=1) - 1)[at_row, at_col]] = \
        cls[at_row, at_col]
    # a digit is written unless it repeats the one before; the first
    # letter's own digit (none for a vowel, H or W) counts as that for
    # the first of them
    prev = np.concatenate([cls[rows, first][:, None] % 7, seq[:, :-1]],
                          axis=1)
    written = (seq != 0) & (seq != prev)
    slot = np.cumsum(written, axis=1) - 1
    at_row, at_col = np.nonzero(written & (slot < 3))
    digits = np.zeros((n, 3), dtype=np.int8)
    digits[at_row, slot[at_row, at_col]] = seq[at_row, at_col]

    out = np.empty((n, 4), dtype=np.uint32)
    out[:, 0] = upper[rows, first]
    out[:, 1:] = ord("0") + digits
    codes = out.view("U4").reshape(n)
    for i in other.tolist():
        codes[i] = soundex(str(names[i]))
    return codes
