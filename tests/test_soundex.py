import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linkcov.soundex import soundex, soundex_array


def _has_letter(name):
    return any("A" <= c <= "Z" for c in name.upper())


class TestKnownCodes:
    """Hand-derived codes under the documented rule set."""

    @pytest.mark.parametrize("name,code", [
        ("JARO", "J600"),
        ("ROBERT", "R163"),
        ("R", "R000"),
        ("ASHCRAFT", "A261"),   # H transparent: S/C collapse
        ("PFISTER", "P236"),    # first letter's digit collapses F
        ("TYMCZAK", "T522"),    # C/Z collapse, vowel separates
        ("WASHINGTON", "W252"),
        ("jaro", "J600"),       # case-insensitive
        ("O'BRIEN", "O165"),    # punctuation stripped
    ])
    def test_codes(self, name, code):
        assert soundex(name) == code

    def test_vowel_separates_duplicates(self):
        # same digit across a vowel is coded twice
        assert soundex("BOB")[1] == "1"

    def test_empty_after_stripping(self):
        with pytest.raises(ValueError):
            soundex("123 !")


@given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90),
               min_size=1, max_size=12))
def test_format(name):
    code = soundex(name)
    assert len(code) == 4
    assert code[0] == name[0]
    assert all(c in "0123456" for c in code[1:])


# Coded consonants, the vowels that break a run, H and W that a run
# passes over, punctuation and digits that are stripped, lower case, and
# non-ASCII letters: some upper-case to ASCII ("ß" to "SS", "ſ"
# to "S", "ﬀ" to "FF", "ı" to "I"), others to nothing in A-Z.
SOUNDEX_ALPHABET = ("BFPVCGJKQSXZDTLMNR" "AEIOUY" "HW" "bcdhwy"
                    " '-.,0" "ßſﬀıéØ")


class TestSoundexArray:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=SOUNDEX_ALPHABET, min_size=1,
                            max_size=20).filter(_has_letter),
                    max_size=30))
    @example(["ASHCRAFT", "PFISTER", "TYMCZAK", "BOB", "HWHW", "SHHS",
              "O'BRIEN", "B-B", "SAS", "SHS", "A", "ß", "aßb",
              "ı", "ﬀ", "LLéL"])
    def test_matches_scalar(self, names):
        codes = soundex_array(names)
        assert codes.dtype == np.dtype("U4")
        assert codes.tolist() == [soundex(n) for n in names]

    @pytest.mark.parametrize("bad", ["123 !", "é", ""])
    def test_no_letters_raise(self, bad):
        with pytest.raises(ValueError, match="no ASCII letters"):
            soundex(bad)
        with pytest.raises(ValueError, match="no ASCII letters"):
            soundex_array(["SMITH", bad, "JONES"])
