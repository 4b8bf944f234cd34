"""The seeded counterexample-mining harness."""

import pytest

import orthlab as O
from orthlab import products, search, statespace
from orthlab.catalog import SplitMix64
from orthlab.errors import ParseError
from orthlab.search import (
    SearchSpec,
    TARGETS,
    parse_search_spec,
    render_report,
    run_search,
)


# ---------------------------------------------------------------------------
# spec documents

def test_parse_full_spec():
    spec = parse_search_spec(
        "search v1\ntarget minimal-covering-nontrivial\n"
        "count 50\nnmax 3\ndensity 0.4\nseed 9\n")
    assert spec == SearchSpec("minimal-covering-nontrivial", 50, nmax=3,
                              density=0.4, seed=9)


def test_parse_defaults():
    spec = parse_search_spec(
        "search v1\ntarget separated-orthomodular-nonboolean\ncount 10\n")
    assert (spec.nmax, spec.density, spec.seed) == (4, 0.5, 1)


@pytest.mark.parametrize("text,fragment", [
    ("", "header"),
    ("search v2\n", "header"),
    ("search v1\ncount 5\n", "at least"),
    ("search v1\ntarget minimal-covering-nontrivial\n", "at least"),
    ("search v1\ntarget nope\ncount 5\n", "unknown target"),
    ("search v1\ntarget minimal-covering-nontrivial\ncount 5\ncount 6\n", "duplicate"),
    ("search v1\ntarget minimal-covering-nontrivial\ncount x\n", "bad value"),
    ("search v1\ntarget minimal-covering-nontrivial\ncount 5\nfoo 1\n", "unknown key"),
    ("search v1\ntarget minimal-covering-nontrivial\ncount\n", "key value"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_search_spec(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# the instance schedule

def test_instance_schedule_is_derived_from_one_stream_per_instance(monkeypatch):
    seen = []
    monkeypatch.setitem(TARGETS, "probe", lambda s1, s2: seen.append((s1, s2)))
    spec = SearchSpec("probe", 3, nmax=3, density=0.5, seed=40)
    report = run_search(spec)
    assert len(seen) == 3
    for i, inst in enumerate(report.instances):
        rng = SplitMix64(40 + i)
        n1 = 1 + rng.next_below(3)
        n2 = 1 + rng.next_below(3)
        s1, s2 = rng.next_u64(), rng.next_u64()
        assert (inst.index, inst.seed, inst.n1, inst.n2) == (i, 40 + i, n1, n2)
        assert seen[i] == (O.random_space(n1, 0.5, s1), O.random_space(n2, 0.5, s2))


def test_run_search_is_deterministic():
    spec = SearchSpec("minimal-orthocomplementation-nontrivial", 12, nmax=3,
                      density=0.5, seed=6)
    assert run_search(spec) == run_search(spec)


def test_unsatisfiable_factors_are_counted_invalid():
    report = run_search(SearchSpec("minimal-covering-nontrivial", 6, nmax=2,
                                   density=0.0, seed=3))
    statuses = {r.status for r in report.instances}
    assert "invalid" in statuses
    assert report.invalid == sum(r.status == "invalid" for r in report.instances)
    assert not report.hits


def test_run_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_search(SearchSpec("minimal-covering-nontrivial", -1))
    with pytest.raises(ValueError):
        run_search(SearchSpec("minimal-covering-nontrivial", 1, nmax=0))


# ---------------------------------------------------------------------------
# the three targets stay silent on seeded batches (small-scale nulls)

@pytest.mark.parametrize("target", sorted(TARGETS))
def test_targets_report_no_hits_on_small_batches(target):
    report = run_search(SearchSpec(target, 30, nmax=3, density=0.5, seed=17))
    assert report.hits == ()
    assert all(r.status in ("pass", "invalid") for r in report.instances)


def _family_read(build):
    """``build`` with the family of each ppl it returns read at once."""
    def built(*args):
        ppl = build(*args)
        assert ppl.cs
        return ppl
    return built


def _no_family(*args, **kwargs):
    raise AssertionError("a closed family was built")


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_seeded_search_decides_every_instance_without_a_family(target, monkeypatch):
    # the benchmark's specs: every instance is decided on joins alone, and
    # the report is the one the full-family checkers give
    spec = SearchSpec(target, 300, nmax=5, density=0.5, seed=1)
    with monkeypatch.context() as m:
        m.setattr(search, "property_lattice", _family_read(O.property_lattice))
        m.setattr(search, "minimal_product", _family_read(O.minimal_product))
        forced = run_search(spec)
    monkeypatch.setattr(statespace, "meet_closure", _no_family)
    monkeypatch.setattr(products, "rectangle_family", _no_family)
    assert run_search(spec) == forced


# ---------------------------------------------------------------------------
# report rendering

def test_render_report_summary_and_instance_lines():
    report = run_search(SearchSpec("minimal-orthocomplementation-nontrivial", 2,
                                   nmax=2, density=0.5, seed=8))
    lines = render_report(report).splitlines()
    assert lines[0].startswith("instance\t0\tseed\t8\t")
    assert lines[-1] == "summary\tcount\t2\thits\t0\tinvalid\t0"


def test_render_report_spells_out_hits(monkeypatch):
    monkeypatch.setitem(TARGETS, "always", lambda s1, s2: "made-up finding")
    report = run_search(SearchSpec("always", 1, nmax=2, density=0.5, seed=8))
    assert len(report.hits) == 1
    hit = report.hits[0]
    assert O.parse_statespace(hit.input1) is not None
    text = render_report(report)
    assert "status\thit\tmade-up finding" in text
    assert "hit\t0\tinput1\tstatespace v1" in text
    assert "hit\t0\tinput2\tstatespace v1" in text
    assert text.rstrip().endswith("summary\tcount\t1\thits\t1\tinvalid\t0")
