import io
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from linkcov import frequencies as freq
from linkcov.frequencies import (FrequencyTable, build_soundex_index,
                                 load_frequency_table, synthetic_age_table,
                                 synthetic_surname_table, _OperatingPoint)
from linkcov.soundex import soundex


def surname_csv(rows):
    return io.StringIO("name,rank,count\n" + "\n".join(rows))


class TestLoader:
    def test_normalization(self):
        t = load_frequency_table(surname_csv(["ABLE,1,70", "BAKER,2,20",
                                              "CHARLIE,3,10"]), "surname")
        assert dict(zip(t.labels, t.probs)) == pytest.approx(
            {"ABLE": 0.7, "BAKER": 0.2, "CHARLIE": 0.1})

    def test_all_other_names_excluded(self):
        t = load_frequency_table(
            surname_csv(["ABLE,1,70", "All Other Names,2,930"]), "surname")
        assert list(zip(t.labels, t.probs)) == [("ABLE", 1.0)]

    def test_only_all_other_names(self):
        with pytest.raises(ValueError, match="empty table after exclusion"):
            load_frequency_table(surname_csv(["ALL OTHER NAMES,1,100"]),
                                 "surname")

    def test_missing_column(self):
        src = io.StringIO("surname,n\nABLE,10\n")
        with pytest.raises(ValueError, match="missing column"):
            load_frequency_table(src, "surname")

    def test_unparsable_row_names_row_number(self):
        src = surname_csv(["ABLE,1,70", "BAKER,2,x"])
        with pytest.raises(ValueError, match="row 3"):
            load_frequency_table(src, "surname")

    def test_age_aggregation_and_year_conversion(self):
        src = io.StringIO(
            "STATE,AGE,POPESTIMATE2010\n"
            "01,0,100\n02,0,50\n01,85,30\n"
        )
        t = load_frequency_table(src, "age")
        assert dict(zip(t.labels, t.probs)) == pytest.approx(
            {2010: 150 / 180, 1925: 30 / 180})

    def test_zero_total(self):
        with pytest.raises(ValueError):
            load_frequency_table(surname_csv(["ABLE,1,0"]), "surname")

    def test_byte_stream_input(self):
        data = io.BytesIO(b"name,rank,count\nABLE,1,3\nBAKER,2,1\n")
        t = load_frequency_table(data, "surname")
        assert dict(zip(t.labels, t.probs))["ABLE"] == pytest.approx(0.75)


class TestFrequencyTable:
    def test_normalizes_to_one(self):
        t = FrequencyTable(("A", "B"), np.array([3.0, 1.0]))
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FrequencyTable(("A", "A"), np.array([0.5, 0.5]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencyTable(("A", "B"), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("label", ["A\rB", "A\nB", "\tAB", "AB\x00",
                                       "A\x1fB"])
    def test_rejects_control_characters(self, label):
        # csv writes a lone CR unquoted, so a population dump holding one
        # could not be read back
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            FrequencyTable(("ABLE", label), np.array([0.5, 0.5]))

    def test_integer_labels_and_other_characters_kept(self):
        FrequencyTable((1979, 1980), np.array([0.5, 0.5]))
        FrequencyTable(("O'BRIEN", "SMITH,JR", "A\x7fB", "ØSTER"),
                       np.full(4, 0.25))


def classes(idx):
    """(code, labels, within-class probabilities) of each class, in
    class order."""
    return [(str(idx.codes[idx.members[lo]]),
             tuple(idx.labels[m] for m in idx.members[lo:hi].tolist()),
             idx.within[lo:hi])
            for lo, hi in zip(idx.starts[:-1].tolist(),
                              idx.starts[1:].tolist())]


class TestSoundexIndex:
    def test_groups_share_code(self):
        t = synthetic_surname_table(20000)
        idx = build_soundex_index(t)
        for code, labels, within in classes(idx)[:25]:
            assert all(soundex(l) == code for l in labels)
            assert within.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_preserved(self):
        t = FrequencyTable(("ABLE", "APPLE", "BAKER"),
                           np.array([0.5, 0.3, 0.2]))
        idx = build_soundex_index(t)
        total = sum(
            p * t.probs[list(t.labels).index(l)] / p
            for _, labels, within in classes(idx)
            for l, p in zip(labels, within)
        )
        assert total == pytest.approx(1.0)


def grouped_by_code(table):
    """The code -> FrequencyTable dict that the index's classes must
    match."""
    groups = {}
    for label, prob in zip(table.labels, table.probs):
        groups.setdefault(soundex(label), []).append((label, prob))
    return {code: FrequencyTable.from_counts([l for l, _ in members],
                                             [p for _, p in members])
            for code, members in groups.items()}


class TestSoundexIndexArrays:
    @pytest.fixture(scope="class")
    def table(self):
        base = synthetic_surname_table(20000)
        extra = ("ANDERSON", "ANDERSEN", "ANDERSSON", "ANDRESEN", "ANDRESS",
                 "ANTERO", "ANDRE", "ANDREW", "ANDREWS", "ANDROS", "ABE")
        probs = np.concatenate([base.probs, np.linspace(0.01, 0.03, 11)])
        return FrequencyTable(base.labels + extra, probs)

    def test_built_once_per_table(self, table):
        assert build_soundex_index(table) is build_soundex_index(table)

    def test_matches_per_code_tables_bit_for_bit(self, table):
        idx = build_soundex_index(table)
        ref = grouped_by_code(table)
        got = classes(idx)
        assert [code for code, _, _ in got] == list(ref)
        assert max(sub.size for sub in ref.values()) > 8
        assert min(sub.size for sub in ref.values()) == 1
        for code, labels, within in got:
            assert labels == ref[code].labels
            assert within.tobytes() == ref[code].probs.tobytes()

    def test_csr_layout(self, table):
        idx = build_soundex_index(table)
        assert idx.codes.tolist() == [soundex(l) for l in table.labels]
        assert idx.codes.dtype == np.dtype("U4")
        for c, (code, _, _) in enumerate(classes(idx)):
            members = idx.members[idx.starts[c]:idx.starts[c + 1]]
            assert np.all(np.diff(members) > 0)
            assert np.all(idx.label_class[members] == c)
            assert np.all(idx.codes[members] == code)
        assert idx.starts[-1] == len(table.labels)
        # code_ids rank the codes: equal ids exactly where codes are equal
        assert idx.code_ids.dtype == np.int32
        order = np.unique(idx.codes)
        np.testing.assert_array_equal(order[idx.code_ids], idx.codes)

    def test_read_only(self, table):
        idx = build_soundex_index(table)
        for name in ("codes", "code_ids", "label_class", "members",
                     "starts", "within"):
            with pytest.raises(ValueError):
                getattr(idx, name)[0] = getattr(idx, name)[1]


class TestSyntheticTables:
    def test_deterministic(self):
        a = synthetic_surname_table(20000)
        b = synthetic_surname_table(20000)
        assert a.labels == b.labels
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_no_singleton_codes(self):
        t = synthetic_surname_table(20000)
        idx = build_soundex_index(t)
        assert (np.diff(idx.starts) >= 2).all()

    def test_operating_point_in_window(self):
        # implied rule-1 precision and one-to-one survival at reference size
        for ref in (20000, 50000, 100000):
            t = synthetic_surname_table(ref)
            # reconstruct code-level masses directly
            masses = {}
            for label, prob in zip(t.labels, t.probs):
                masses[soundex(label)] = masses.get(soundex(label), 0.0) + prob
            code_probs = np.array(list(masses.values()))
            op = _OperatingPoint(synthetic_age_table().probs, ref,
                                 code_probs.size)
            fp, surv = op.fp_per_record(code_probs), op.survival(code_probs)
            precision = 0.9 / (0.9 + fp)
            assert 0.932 <= precision <= 0.972
            assert 0.92 <= surv <= 0.97

    def test_age_table_years(self):
        t = synthetic_age_table()
        years = sorted(t.labels)
        assert years[0] == 1925 and years[-1] == 2010


# The operating point and the calibration loop as they were before the
# calibration reused its arrays, and the family names as they were
# before the table built them from shared tails, kept verbatim as the
# oracle that the calibrated table must reproduce bit for bit.
def reference_operating_point(code_probs, year_probs, n_population):
    class_mass = np.outer(code_probs, year_probs)
    lam = (freq.SAMPLING_RATE * (n_population - 1) * freq.DATE_WINDOW
           * class_mass)
    fp_per_record = float((class_mass * lam).sum())
    survival = float((class_mass * np.exp(-2.0 * lam)).sum())
    return fp_per_record, survival


def reference_family_names(family_index):
    """Distinct surnames sharing one soundex code."""
    letter = freq._FIRST_LETTERS[family_index % len(freq._FIRST_LETTERS)]
    rest = family_index // len(freq._FIRST_LETTERS)
    digits = (rest % 6 + 1, rest // 6 % 6 + 1, rest // 36 % 6 + 1)
    names = []
    for v, vowels in enumerate(freq._VARIANT_VOWELS):
        parts = [letter]
        for vowel, digit in zip(vowels, digits):
            options = freq._DIGIT_CONSONANTS[digit]
            parts.append(vowel)
            parts.append(options[v % len(options)])
        names.append("".join(parts))
    return names


def reference_surname_table(reference_size, n_cold=3600):
    year_probs = synthetic_age_table().probs
    cold_raw = (np.arange(1, n_cold + 1) + 10.0) ** -0.3

    def assemble(n_hot, hot_mass):
        code_probs = np.empty(n_hot + n_cold)
        code_probs[:n_hot] = hot_mass / n_hot
        code_probs[n_hot:] = (1.0 - hot_mass) * cold_raw / cold_raw.sum()
        return code_probs

    def survival_gap(hot_mass, n_hot):
        probs = assemble(n_hot, hot_mass)
        _, surv = reference_operating_point(probs, year_probs,
                                            reference_size)
        return surv - freq.TARGET_MATCH_SURVIVAL

    best = None
    for n_hot in range(1, 13):
        lo, hi = 1e-4, 0.6
        if survival_gap(lo, n_hot) < 0 or survival_gap(hi, n_hot) > 0:
            continue
        hot_mass = brentq(survival_gap, lo, hi, args=(n_hot,), xtol=1e-12)
        probs = assemble(n_hot, hot_mass)
        fp_rate, _ = reference_operating_point(probs, year_probs,
                                               reference_size)
        err = abs(fp_rate - freq.TARGET_FP_PER_RECORD)
        if best is None or err < best[0]:
            best = (err, n_hot, hot_mass)
    assert best is not None
    _, n_hot, hot_mass = best

    family_probs = assemble(n_hot, hot_mass)
    labels = []
    probs = []
    for f, fam_prob in enumerate(family_probs):
        for name, share in zip(reference_family_names(f),
                                     freq._VARIANT_SHARES):
            labels.append(name)
            probs.append(fam_prob * share)
    return FrequencyTable(tuple(labels), np.asarray(probs))


class TestCalibrationOracle:
    """Compared with the oracle at run time, not with stored digests, so
    that a platform whose exp rounds a last bit differently still
    agrees with itself."""

    @pytest.mark.parametrize("reference_size", [20000, 100000])
    def test_table_bit_identical(self, reference_size):
        got = synthetic_surname_table(reference_size)
        want = reference_surname_table(reference_size)
        assert got.labels == want.labels
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_operating_point_bit_identical(self):
        rng = np.random.default_rng(11)
        year_probs = synthetic_age_table().probs
        for n_codes in (1, 7, 3601, 3612):
            for n_population in (1000, 100000, 1000000):
                code_probs = rng.dirichlet(np.full(n_codes, 0.5))
                op = _OperatingPoint(year_probs, n_population, n_codes)
                assert ((op.fp_per_record(code_probs), op.survival(code_probs))
                        == reference_operating_point(code_probs, year_probs,
                                                     n_population))


class TestCalibrationLimit:
    def test_too_large_a_size_names_the_largest_that_calibrates(self):
        with pytest.raises(RuntimeError,
                           match=r"size 500000 with n_cold=3600") as exc:
            synthetic_surname_table(500000)
        assert "table_reference_size" in str(exc.value)
        found = re.search(r"largest reference size that calibrates, "
                          r"in steps of 10000, is (\d+)", str(exc.value))
        largest = int(found.group(1))
        assert largest % 10000 == 0 and 300000 <= largest < 500000
        assert synthetic_surname_table(largest).size > 0
        with pytest.raises(RuntimeError):
            synthetic_surname_table(largest + 10000)

    def test_300k_calibrates(self):
        assert synthetic_surname_table(300000).size > 0


class TestBrentqOracle:
    """The calibration's _brentq returns scipy.optimize.brentq's float."""

    @pytest.mark.parametrize("reference_size", [3000, 20000, 100000, 300000])
    def test_calibration_roots_bit_identical(self, reference_size):
        cal = freq._Calibration(reference_size)
        bracketed = [n for n in freq._HOT_COUNTS if cal.bracketed(n)]
        assert bracketed
        for n_hot in bracketed:
            solve = (cal.survival_gap, *freq._HOT_MASS_BRACKET)
            assert (freq._brentq(*solve, args=(n_hot,), xtol=1e-12)
                    == brentq(*solve, args=(n_hot,), xtol=1e-12))

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 0.0, 4.0),
        (np.cos, 0.3, 2.9),
        (lambda x: np.exp(x) - 3.0, -2.0, 5.0),
        (lambda x: np.arctan(x - 0.3), -7.0, 1.0),
        (lambda x: -1.0 if x < 0.25 else 1.0, 0.0, 1.0),
        (lambda x: x - 1.0, 1.0, 3.0),
        (lambda x: x - 3.0, 1.0, 3.0),
    ])
    @pytest.mark.parametrize("xtol", [2e-12, 1e-6, 0.1])
    def test_plain_functions_bit_identical(self, f, a, b, xtol):
        assert freq._brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol)

    def test_ends_of_the_same_sign_refused(self):
        with pytest.raises(ValueError, match="different signs"):
            freq._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="nan"):
            freq._brentq(lambda x: np.nan if x > 0 else -1.0, -1.0, 1.0)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(freq, "_BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError, match="2 iterations"):
            freq._brentq(np.cos, 0.3, 2.9)
        with pytest.raises(RuntimeError):
            brentq(np.cos, 0.3, 2.9, maxiter=2)
