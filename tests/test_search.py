"""The seeded counterexample-mining harness."""

import pytest

import orthlab as O
from orthlab import catalog, products, search, statespace
from orthlab.catalog import SplitMix64
from orthlab.errors import CapacityError, CouldNotSeparateError, ParseError
from orthlab.search import (
    BLOCK,
    Hit,
    InstanceResult,
    SearchReport,
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
    # the target runs once per distinct factor pair; seeds 40-42 happen to
    # give three distinct pairs, so it sees every instance
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


def _search_one_by_one(spec):
    """The search drawing each factor as its instance comes: one random_space per factor."""
    if spec.count < 0 or spec.nmax < 1:
        raise ValueError("count must be >= 0 and nmax >= 1")
    target = TARGETS[spec.target]
    instances, hits = [], []
    for i in range(spec.count):
        rng = SplitMix64(spec.seed + i)
        n1 = 1 + rng.next_below(spec.nmax)
        n2 = 1 + rng.next_below(spec.nmax)
        seed1, seed2 = rng.next_u64(), rng.next_u64()
        try:
            ss1 = O.random_space(n1, spec.density, seed1)
            ss2 = O.random_space(n2, spec.density, seed2)
        except CouldNotSeparateError as exc:
            instances.append(InstanceResult(i, spec.seed + i, n1, n2, "invalid", str(exc)))
            continue
        detail = target(ss1, ss2)
        if detail is None:
            instances.append(InstanceResult(i, spec.seed + i, n1, n2, "pass"))
        else:
            result = InstanceResult(i, spec.seed + i, n1, n2, "hit", detail)
            instances.append(result)
            hits.append(Hit(result, O.serialize_statespace(ss1), O.serialize_statespace(ss2)))
    return SearchReport(spec, tuple(instances), tuple(hits))


def _factor_pairs(spec):
    """The rows of both factors of each instance, drawing each factor in turn."""
    pairs = []
    for i in range(spec.count):
        rng = SplitMix64(spec.seed + i)
        n1 = 1 + rng.next_below(spec.nmax)
        n2 = 1 + rng.next_below(spec.nmax)
        seed1, seed2 = rng.next_u64(), rng.next_u64()
        pairs.append((O.random_space(n1, spec.density, seed1).orth.rows,
                      O.random_space(n2, spec.density, seed2).orth.rows))
    return pairs


@pytest.mark.parametrize("spec,calls", [
    *((SearchSpec(target, 300, nmax=5, density=0.5, seed=1), 137) for target in sorted(TARGETS)),
    (SearchSpec("minimal-covering-nontrivial", 2 * BLOCK + 100, nmax=3, seed=5), 9),
])
def test_the_target_runs_once_per_distinct_factor_pair(spec, calls, monkeypatch):
    # the benchmark's specs and one over three blocks: each pair is decided
    # at its first instance, and the report is that of deciding every instance
    seen = []
    target = TARGETS[spec.target]

    def recorded(ss1, ss2):
        seen.append((ss1.orth.rows, ss2.orth.rows))
        return target(ss1, ss2)

    with monkeypatch.context() as m:
        m.setitem(TARGETS, spec.target, recorded)
        report = run_search(spec)
    assert seen == list(dict.fromkeys(_factor_pairs(spec)))
    assert len(seen) == calls
    assert report == _search_one_by_one(spec)


@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.5, 1.0])
def test_run_search_equals_drawing_each_factor_in_turn(density, monkeypatch):
    # a lower cap keeps the give-ups of the sparse densities cheap
    monkeypatch.setattr(catalog, "MAX_SEPARATION_ATTEMPTS", 200)
    for nmax in (1, 3, 6, 8):
        spec = SearchSpec("separated-orthomodular-nonboolean", 40, nmax=nmax,
                          density=density, seed=nmax)
        assert run_search(spec) == _search_one_by_one(spec), nmax


def test_run_search_hits_equal_drawing_each_factor_in_turn(monkeypatch):
    monkeypatch.setitem(TARGETS, "always", lambda s1, s2: "made-up finding")
    spec = SearchSpec("always", 25, nmax=4, density=0.4, seed=3)
    report = run_search(spec)
    assert len(report.hits) == 25 and report == _search_one_by_one(spec)


@pytest.mark.parametrize("spec,error,message", [
    # instance 16 builds a product over the cap before any factor of 65 states
    (SearchSpec("minimal-covering-nontrivial", 30, nmax=65, seed=1), CapacityError,
     "ground set of 920 atoms exceeds capacity 64"),
    # instance 19 draws a first factor of 65 states
    (SearchSpec("quiet", 30, nmax=65, seed=1), CapacityError,
     "ground set of 65 atoms exceeds capacity 64"),
    # instance 0 draws a first factor of 49 states, then a second of 65
    (SearchSpec("quiet", 3, nmax=65, seed=21), CapacityError,
     "ground set of 65 atoms exceeds capacity 64"),
    (SearchSpec("quiet", 3, density=1.5), ValueError, "density must lie in [0, 1]"),
])
def test_run_search_raises_where_drawing_each_factor_in_turn_does(spec, error, message,
                                                                   monkeypatch):
    monkeypatch.setitem(TARGETS, "quiet", lambda s1, s2: None)
    for run in (run_search, _search_one_by_one):
        with pytest.raises(error) as err:
            run(spec)
        assert str(err.value) == message


def test_a_second_factor_over_capacity_is_never_drawn_after_a_give_up(monkeypatch):
    # instance 0's first factor (49 states) gives up, so its second (65) is not drawn
    monkeypatch.setattr(catalog, "MAX_SEPARATION_ATTEMPTS", 5)
    monkeypatch.setitem(TARGETS, "quiet", lambda s1, s2: None)
    spec = SearchSpec("quiet", 1, nmax=65, density=0.0, seed=21)
    report = run_search(spec)
    assert [r.status for r in report.instances] == ["invalid"]
    assert report == _search_one_by_one(spec)


def test_run_search_of_no_instances_draws_nothing():
    spec = SearchSpec("minimal-covering-nontrivial", 0, density=1.5)
    assert run_search(spec) == _search_one_by_one(spec) == SearchReport(spec, (), ())


def test_run_search_draws_at_most_one_block_per_call(monkeypatch):
    sizes = []

    def recorded(n, density, seeds):
        sizes.append(len(seeds))
        return catalog.random_spaces(n, density, seeds)

    monkeypatch.setattr(search, "random_spaces", recorded)
    spec = SearchSpec("minimal-covering-nontrivial", 2 * BLOCK + 100, nmax=1)
    report = run_search(spec)
    assert sizes == [2 * BLOCK, 2 * BLOCK, 200]  # one size, both factors
    assert report == _search_one_by_one(spec)


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
