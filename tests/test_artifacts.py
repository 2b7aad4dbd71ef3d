"""Golden bytes of the CSV artifacts that the staged CLI passes between
stages, and their readers' agreement with the in-memory arrays.

A small seeded scenario-5 world with a dozen surnames in four soundex
classes and two birth years, so that rule 1 makes many-to-many links
and rule 2 drops most of them.
"""

import hashlib
import io
import warnings

import numpy as np
import pytest

from linkcov import linkage as lk
from linkcov.experiment import ScenarioConfig
from linkcov.frequencies import FrequencyTable
from linkcov.popsim import (PerturbationParams, Population, SampleFlags,
                            draw_samples, dump_population,
                            generate_population, load_population)
from linkcov.soundex import soundex

NAMES = ("SMITH", "SMYTH", "SMITHE", "SCHMIDT", "JONES", "JOHNS", "JANES",
         "BROWN", "BRAUN", "BROWNE", "LEE", "LEIGH")

GOLDEN_SHA256 = {
    "population.csv":
        "037d3846686801aad9e40f3ef28240b0e2215b0d375900c03ca094320eeed640",
    "links_rule1.csv":
        "c30ec3829a7f25909c7d87c234db1ac75db184b0638065567f07281f615d46fd",
    "links_rule2.csv":
        "ac1138a6794aed67b9a18f90ced21acf34efef04643cfa440fec675f8b1e57c3",
    "counts.csv":
        "6e764d4422392190f917319de901df5b30dde4f49634728905967240815fbdf2",
}

POPULATION_COLUMNS = ("day_a", "month_a", "year_a", "day_b", "month_b",
                      "year_b")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The four artifacts of one simulate + link pass, as `cli` runs it."""
    scn = ScenarioConfig.from_scenario(5, n_population=300)
    weights = np.arange(len(NAMES), 0, -1, dtype=float)
    surnames = FrequencyTable(NAMES, weights / weights.sum())
    ages = FrequencyTable((1979, 1980), np.array([0.5, 0.5]))
    ss = np.random.SeedSequence([20259, 0])
    pop_rng, sample_rng, _ = map(np.random.default_rng, ss.spawn(3))
    pop = generate_population(300, surnames, ages, scn.perturbation, pop_rng)
    flags = draw_samples(pop, scn.pi_a, scn.pi_b, sample_rng)

    out = tmp_path_factory.mktemp("artifacts")
    dump_population(pop, flags, out / "population.csv")
    panel_b, panel_a = lk.sample_records(pop, flags)
    pairs = lk.block_pairs(panel_b, panel_a)
    links1 = lk.link_rule1(lk.baseline_pairs(panel_b, panel_a, pairs),
                           lk.LinkageRuleSpec(scn.rule_variant))
    links2 = lk.dedupe_rule2(links1)
    cv = lk.counts(links1, panel_b.size)
    lk.dump_linkset(links1, out / "links_rule1.csv")
    lk.dump_linkset(links2, out / "links_rule2.csv")
    lk.dump_counts(cv, panel_b.unit_id, out / "counts.csv")
    return out, pop, flags, panel_b, cv


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_sha256(self, artifacts, name):
        out = artifacts[0]
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[name]

    def test_rule2_is_a_strict_subset(self, artifacts):
        out = artifacts[0]
        rows1 = (out / "links_rule1.csv").read_text().splitlines()
        rows2 = (out / "links_rule2.csv").read_text().splitlines()
        assert 1 < len(rows2) < len(rows1)
        assert set(rows2) <= set(rows1)


class TestReaders:
    def test_population_columns(self, artifacts):
        out, pop, flags = artifacts[:3]
        pop2, flags2 = load_population(out / "population.csv")
        assert pop2.n == pop.n
        for name in POPULATION_COLUMNS:
            got, want = getattr(pop2, name), getattr(pop, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        for side in ("sidx_a", "sidx_b"):
            got = getattr(pop2, side)
            assert got.dtype == getattr(pop, side).dtype
            np.testing.assert_array_equal(
                pop2.surname_labels[got],
                pop.surname_labels[getattr(pop, side)])
        used = np.union1d(pop.surname_labels[pop.sidx_a],
                          pop.surname_labels[pop.sidx_b])
        assert pop2.surname_labels.dtype == pop.surname_labels.dtype
        np.testing.assert_array_equal(pop2.surname_labels, used)
        codes = dict(zip(pop.surname_labels.tolist(),
                         pop.surname_codes.tolist()))
        assert pop2.surname_codes.dtype == pop.surname_codes.dtype
        assert pop2.surname_codes.tolist() == [
            codes[label] for label in pop2.surname_labels.tolist()]
        for side in ("in_a", "in_b"):
            got = getattr(flags2, side)
            assert got.dtype == np.bool_
            np.testing.assert_array_equal(got, getattr(flags, side))

    def test_counts(self, artifacts):
        out, _, _, panel_b, cv = artifacts
        ids, n_total, patterns = lk.load_counts(out / "counts.csv")
        assert ids.dtype == n_total.dtype == patterns.dtype == np.int64
        np.testing.assert_array_equal(ids, panel_b.unit_id)
        np.testing.assert_array_equal(n_total, cv.n_total)
        np.testing.assert_array_equal(patterns, cv.pattern_counts[:, 1:])


def _population(labels, sidx_a, sidx_b):
    """A population over the given labels, with fixed dates."""
    n = len(sidx_a)
    return Population(
        surname_labels=np.asarray(labels, dtype="U16"),
        surname_codes=np.asarray([soundex(l) for l in labels], dtype="U4"),
        sidx_a=np.asarray(sidx_a, dtype=np.int32),
        day_a=np.full(n, 3, dtype=np.int16),
        month_a=np.full(n, 4, dtype=np.int16),
        year_a=np.full(n, 1980, dtype=np.int32),
        sidx_b=np.asarray(sidx_b, dtype=np.int32),
        day_b=np.full(n, 4, dtype=np.int16),
        month_b=np.full(n, 4, dtype=np.int16),
        year_b=np.full(n, 1980, dtype=np.int32),
    )


def _round_trip(pop):
    flags = SampleFlags(in_a=np.arange(pop.n) % 2 == 0,
                        in_b=np.ones(pop.n, dtype=bool))
    buf = io.StringIO()
    dump_population(pop, flags, buf)
    buf.seek(0)
    return load_population(buf)


class TestAwkwardSurnames:
    LABELS = ("SMITH,JR", 'O"NEIL', "#HASH", "O'BRIEN", "VAN DYKE",
              " LEADING", "TRAILING ", '"QUOTED"', "A,B#C'D \"E")

    def test_round_trip_unchanged(self):
        k = len(self.LABELS)
        pop = _population(self.LABELS, np.arange(k), np.arange(k)[::-1])
        pop2, _ = _round_trip(pop)
        assert pop2.surname_labels.tolist() == sorted(self.LABELS)
        for side in ("sidx_a", "sidx_b"):
            assert (pop2.surname_labels[getattr(pop2, side)].tolist()
                    == pop.surname_labels[getattr(pop, side)].tolist())


class TestLabelWidth:
    def test_sixteen_characters_round_trip(self):
        labels = ("ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOQ")
        surnames = FrequencyTable(labels, np.array([0.5, 0.5]))
        ages = FrequencyTable((1980,), np.array([1.0]))
        pop = generate_population(20, surnames, ages, PerturbationParams(),
                                  np.random.default_rng(0))
        assert pop.surname_labels.tolist() == list(labels)
        pop2, _ = _round_trip(pop)
        assert (pop2.surname_labels[pop2.sidx_b].tolist()
                == pop.surname_labels[pop.sidx_b].tolist())

    def test_seventeen_characters_rejected_by_generator(self):
        labels = ("ABCDEFGHIJKLMNOPQ", "ABCDEFGHIJKLMNOPR")
        surnames = FrequencyTable(labels, np.array([0.5, 0.5]))
        ages = FrequencyTable((1980,), np.array([1.0]))
        with pytest.raises(ValueError, match="ABCDEFGHIJKLMNOPQ"):
            generate_population(5, surnames, ages, PerturbationParams(),
                                np.random.default_rng(0))

    def test_seventeen_characters_rejected_by_loader(self):
        pop = _population(("SMITH", "JONES"), [0, 1], [1, 0])
        flags = SampleFlags(in_a=np.ones(2, dtype=bool),
                            in_b=np.ones(2, dtype=bool))
        buf = io.StringIO()
        dump_population(pop, flags, buf)
        text = buf.getvalue().replace("JONES", "JONESABCDEFGHIJKL")
        with pytest.raises(ValueError, match="JONESABCDEFGHIJKL"):
            load_population(io.StringIO(text))


def _dump_text(pop, in_a):
    flags = SampleFlags(in_a=np.asarray(in_a, dtype=bool),
                        in_b=np.ones(pop.n, dtype=bool))
    buf = io.StringIO()
    dump_population(pop, flags, buf)
    return buf.getvalue()


class TestReaderErrors:
    def test_unit_ids_other_than_one_to_n(self):
        lines = _dump_text(_population(("SMITH", "JONES"), [0, 1], [1, 0]),
                           [1, 1]).splitlines(keepends=True)
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        text = lines[0] + "7" + lines[1][1:] + "9" + lines[2][1:]
        with pytest.raises(ValueError, match="row 1: unit_id 7, expected 1"):
            load_population(io.StringIO(text))

    def test_unit_ids_out_of_file_order(self):
        lines = _dump_text(_population(("SMITH", "JONES", "LEE"), [0, 1, 2],
                                       [2, 1, 0]),
                           [1, 1, 1]).splitlines(keepends=True)
        text = lines[0] + lines[1] + lines[3] + lines[2]
        with pytest.raises(ValueError, match="row 2: unit_id 3, expected 2"):
            load_population(io.StringIO(text))

    @pytest.mark.parametrize("side,fields,value", [
        ("in_a", ",2,1\n", 2), ("in_b", ",1,-1\n", -1)])
    def test_flags_other_than_zero_or_one(self, side, fields, value):
        lines = _dump_text(_population(("SMITH", "JONES"), [0, 1], [1, 0]),
                           [1, 1]).splitlines(keepends=True)
        assert lines[2].endswith(",1,1\n")
        text = "".join(lines[:2]) + lines[2][:-len(",1,1\n")] + fields
        with pytest.raises(ValueError,
                           match=f"row 2: {side} {value}, expected 0 or 1"):
            load_population(io.StringIO(text))

    def test_population_with_no_rows(self):
        text = _dump_text(_population(("SMITH",), [], []), [])
        assert text.count("\n") == 1
        with pytest.raises(ValueError, match="no rows"):
            load_population(io.StringIO(text))

    def test_counts_with_no_rows(self):
        cv = lk.CountVector(n_total=np.zeros(0, dtype=np.int64),
                            pattern_counts=np.zeros((0, 8), dtype=np.int64))
        buf = io.StringIO()
        lk.dump_counts(cv, np.zeros(0, dtype=np.int64), buf)
        assert buf.getvalue().count("\n") == 1
        buf.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, n_total, patterns = lk.load_counts(buf)
        assert ids.dtype == n_total.dtype == patterns.dtype == np.int64
        assert ids.shape == n_total.shape == (0,)
        assert patterns.shape == (0, 7)
