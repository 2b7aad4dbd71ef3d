"""The link stage's artifacts, and `baselines` reading only those.

`link` writes baseline_pairs.csv and linkage.json beside the two rule
files, and `baselines` reads linkage.json, baseline_pairs.csv and
links_rule2.csv, never the population.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkcov import cli
from linkcov import linkage as lk
from linkcov.cli import main, parse_config
from linkcov.experiment import run_replication

BASELINE_ESTIMATORS = ["naive", "racinskij", "df", "dt"]


def _config(out, scenario, **extra):
    return json.dumps({"scenario": scenario, "seed": 11,
                       "n_population": 3000, "clerical_m": 200,
                       "rep_index": 1, "estimators": BASELINE_ESTIMATORS,
                       "out_dir": str(out), **extra})


@pytest.fixture(scope="module", params=[1, 5])
def chain(request, tmp_path_factory):
    """simulate and link, then baselines with population.csv removed."""
    out = tmp_path_factory.mktemp(f"scenario{request.param}")
    config = _config(out, request.param)
    for command in ("simulate", "link"):
        assert main([command, "--config", config]) == 0
    (out / "population.csv").unlink()
    assert main(["baselines", "--config", config]) == 0
    res = run_replication(cli._scenario_config(parse_config(config)), 1)
    return out, parse_config(config), res


def _estimate_document(est):
    return json.loads(json.dumps({"coverage_hat": est.coverage_hat,
                                  "n_hat": est.n_hat,
                                  "diagnostics": est.diagnostics}))


class TestBaselinesFromLinkArtifacts:
    def test_estimates_match_run_replication(self, chain):
        out, _, res = chain
        base = json.loads((out / "baselines.json").read_text())
        assert sorted(base) == sorted(BASELINE_ESTIMATORS)
        for name, doc in base.items():
            assert doc == _estimate_document(res.estimates[name]), name

    def test_linkage_json_is_the_replication_diagnostics(self, chain):
        out, cfg, res = chain
        doc = json.loads((out / "linkage.json").read_text())
        assert doc.pop("rule_variant") == cfg.rule_variant
        want = dict(res.diagnostics)
        del want["n_matched"]
        assert doc == want

    def test_rules_keep_baseline_pairs_in_order(self, chain):
        out, cfg, _ = chain
        base = (out / "baseline_pairs.csv").read_text().splitlines()
        rule1 = (out / "links_rule1.csv").read_text().splitlines()
        rule2 = (out / "links_rule2.csv").read_text().splitlines()
        if cfg.rule_variant == lk.RULE_BASELINE_ONLY:
            assert base == rule1
        else:
            assert len(rule1) < len(base)
        where = {row: i for i, row in enumerate(base)}
        for sub in (rule1, rule2):
            assert set(sub) <= set(base)
            # an order-preserving subset: row positions in base increase
            rows = [where[row] for row in sub]
            assert rows == sorted(rows)


class TestBaselinesRefusesOtherLinkOutput:
    def test_missing_linkage_json_asks_for_link(self, tmp_path):
        cfg = parse_config(_config(tmp_path, 1))
        with pytest.raises(FileNotFoundError, match="run link first"):
            cli.dispatch("baselines", cfg)

    def test_other_rule_variant_refused(self, tmp_path):
        config = _config(tmp_path, 1)
        for command in ("simulate", "link"):
            assert main([command, "--config", config]) == 0
        other = parse_config(_config(
            tmp_path, 1, rule_variant=lk.RULE_BASELINE_AND_ANY_EXACT))
        with pytest.raises(ValueError, match="baseline_and_any_exact"):
            cli.dispatch("baselines", other)
        assert not (tmp_path / "baselines.json").exists()

    def test_link_files_that_disagree_with_linkage_json(self, tmp_path):
        config = _config(tmp_path, 5)
        for command in ("simulate", "link"):
            assert main([command, "--config", config]) == 0
        (tmp_path / "links_rule2.csv").write_bytes(
            (tmp_path / "links_rule1.csv").read_bytes())
        with pytest.raises(ValueError, match="do not match linkage.json"):
            cli.dispatch("baselines", parse_config(config))


# ------------------------------------------------------- link set files

@st.composite
def nested_linksets(draw):
    """A link set with unique (b_unit, a_unit) pairs, and a subset of it
    in any order."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                          max_size=30, unique=True))
    codes = draw(st.lists(st.integers(0, 7), min_size=len(pairs),
                          max_size=len(pairs)))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    order = draw(st.permutations(range(len(pairs))))

    def linkset(idx):
        idx = np.asarray(idx, dtype=np.intp)
        b = np.array([p[0] for p in pairs], dtype=np.int64)[idx]
        a = np.array([p[1] for p in pairs], dtype=np.int64)[idx]
        code = np.array(codes, dtype=np.int8)[idx]
        return lk.LinkSet(b_pos=b - 1, a_pos=a - 1, b_unit=b, a_unit=a,
                          pattern_code=code)

    sub = [i for i in order if keep[i]]
    return linkset(list(range(len(pairs)))), linkset(sub)


def _dumped(links, rows=None):
    buf = io.StringIO()
    lk.dump_linkset(links, buf, rows)
    return buf.getvalue()


class TestLinksetFiles:
    @settings(max_examples=150, deadline=None)
    @given(nested_linksets())
    def test_subset_rows_looked_up_as_formatted(self, sets):
        full, sub = sets
        rows = lk.linkset_rows(full)
        assert _dumped(full, rows) == _dumped(full)
        assert _dumped(sub, rows) == _dumped(sub)

    @settings(max_examples=150, deadline=None)
    @given(nested_linksets())
    def test_load_gives_back_the_file_order(self, sets):
        full, _ = sets
        back = lk.load_linkset(io.StringIO(_dumped(full)))
        assert back.b_pos is None and back.a_pos is None
        order = np.lexsort((full.a_unit, full.b_unit))
        assert back.b_unit.tolist() == full.b_unit[order].tolist()
        assert back.a_unit.tolist() == full.a_unit[order].tolist()
        assert back.pattern_code.tolist() == \
            full.pattern_code[order].tolist()
        assert back.pattern_code.dtype == np.int8
        assert _dumped(back) == _dumped(full)

    def test_lookup_refuses_links_outside_the_set(self):
        full = lk.LinkSet(b_pos=None, a_pos=None, b_unit=np.array([1, 2]),
                          a_unit=np.array([5, 6]),
                          pattern_code=np.array([7, 7], dtype=np.int8))
        rows = lk.linkset_rows(full)
        for b, a, code in ((1, 6, 7), (1, 5, 3), (3, 5, 7), (1, 4, 7)):
            stray = lk.LinkSet(None, None, np.array([b]), np.array([a]),
                               np.array([code], dtype=np.int8))
            with pytest.raises(ValueError, match="not in the formatted"):
                rows.lookup(stray)

    def test_agreement_fields_must_be_binary(self):
        text = "b_unit_id,a_unit_id,g1,g2,g3\n1,2,0,2,1\n"
        with pytest.raises(ValueError, match="0 or 1"):
            lk.load_linkset(io.StringIO(text))

    def test_no_rows(self):
        back = lk.load_linkset(io.StringIO("b_unit_id,a_unit_id,g1,g2,g3\n"))
        assert back.size == 0
