import io

import numpy as np
import pytest

from linkcov.frequencies import (FrequencyTable, build_soundex_index,
                                 load_frequency_table, synthetic_age_table,
                                 synthetic_surname_table, _operating_point)
from linkcov.soundex import soundex


def surname_csv(rows):
    return io.StringIO("name,rank,count\n" + "\n".join(rows))


class TestLoader:
    def test_normalization(self):
        t = load_frequency_table(surname_csv(["ABLE,1,70", "BAKER,2,20",
                                              "CHARLIE,3,10"]), "surname")
        assert dict(t.entries) == pytest.approx(
            {"ABLE": 0.7, "BAKER": 0.2, "CHARLIE": 0.1})

    def test_all_other_names_excluded(self):
        t = load_frequency_table(
            surname_csv(["ABLE,1,70", "All Other Names,2,930"]), "surname")
        assert t.entries == [("ABLE", 1.0)]

    def test_only_all_other_names(self):
        with pytest.raises(ValueError, match="empty table after exclusion"):
            load_frequency_table(surname_csv(["ALL OTHER NAMES,1,100"]),
                                 "surname")

    def test_missing_column(self):
        src = io.StringIO("surname,n\nABLE,10\n")
        with pytest.raises(ValueError, match="missing column"):
            load_frequency_table(src, "surname")

    def test_column_remap(self):
        src = io.StringIO("surname,n\nABLE,10\nBAKER,30\n")
        t = load_frequency_table(src, "surname",
                                 column_map={"label": "surname", "count": "n"})
        assert dict(t.entries)["BAKER"] == pytest.approx(0.75)

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
        assert dict(t.entries) == pytest.approx(
            {2010: 150 / 180, 1925: 30 / 180})

    def test_zero_total(self):
        with pytest.raises(ValueError):
            load_frequency_table(surname_csv(["ABLE,1,0"]), "surname")

    def test_byte_stream_input(self):
        data = io.BytesIO(b"name,rank,count\nABLE,1,3\nBAKER,2,1\n")
        t = load_frequency_table(data, "surname")
        assert dict(t.entries)["ABLE"] == pytest.approx(0.75)


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


class TestSoundexIndex:
    def test_groups_share_code(self):
        t = synthetic_surname_table(20000)
        idx = build_soundex_index(t)
        for code, sub in list(idx.items())[:25]:
            assert all(soundex(l) == code for l in sub.labels)
            assert sub.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_preserved(self):
        t = FrequencyTable(("ABLE", "APPLE", "BAKER"),
                           np.array([0.5, 0.3, 0.2]))
        idx = build_soundex_index(t)
        total = sum(
            p * t.probs[list(t.labels).index(l)] / p
            for sub in idx.values() for l, p in sub.entries
        )
        assert total == pytest.approx(1.0)


def grouped_by_code(table):
    """The code -> FrequencyTable dict that the index must act as."""
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
        assert list(idx) == list(ref) and len(idx) == len(ref)
        assert max(sub.size for sub in ref.values()) > 8
        assert min(sub.size for sub in ref.values()) == 1
        for code, sub in ref.items():
            assert idx[code].labels == sub.labels
            assert idx[code].probs.tobytes() == sub.probs.tobytes()

    def test_csr_layout(self, table):
        idx = build_soundex_index(table)
        assert idx.codes.tolist() == [soundex(l) for l in table.labels]
        assert idx.codes.dtype == np.dtype("U4")
        for c, code in enumerate(idx):
            members = idx.members[idx.starts[c]:idx.starts[c + 1]]
            assert np.all(np.diff(members) > 0)
            assert np.all(idx.label_class[members] == c)
            assert np.all(idx.codes[members] == code)
        assert idx.starts[-1] == len(table.labels)

    def test_read_only(self, table):
        idx = build_soundex_index(table)
        for name in ("codes", "label_class", "members", "starts", "within"):
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
        assert all(sub.size >= 2 for sub in idx.values())

    def test_operating_point_in_window(self):
        # implied rule-1 precision and one-to-one survival at reference size
        for ref in (20000, 50000, 100000):
            t = synthetic_surname_table(ref)
            idx = build_soundex_index(t)
            code_probs = np.array([
                sum(p for _, p in sub.entries) * 0 + 0 for sub in idx.values()
            ])
            # reconstruct code-level masses directly
            masses = {}
            for label, prob in t.entries:
                masses[soundex(label)] = masses.get(soundex(label), 0.0) + prob
            fp, surv = _operating_point(np.array(list(masses.values())),
                                        synthetic_age_table().probs, ref)
            precision = 0.9 / (0.9 + fp)
            assert 0.932 <= precision <= 0.972
            assert 0.92 <= surv <= 0.97

    def test_age_table_years(self):
        t = synthetic_age_table()
        years = sorted(t.labels)
        assert years[0] == 1925 and years[-1] == 2010
