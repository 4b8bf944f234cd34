"""Catalog generators and the pinned pseudo-random stream."""

import math

import pytest

import oracles as ora
import orthlab as O
from orthlab import catalog
from orthlab.catalog import MAX_SEPARATION_ATTEMPTS, SplitMix64, from_spec
from orthlab.errors import CapacityError, CouldNotSeparateError


# ---------------------------------------------------------------------------
# the generator itself: pinned against published reference outputs

def test_splitmix_reference_vectors():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix_float_and_bound():
    g = SplitMix64(42)
    for _ in range(200):
        assert 0.0 <= g.next_float() < 1.0
    g = SplitMix64(42)
    for _ in range(200):
        assert 0 <= g.next_below(7) < 7


def test_splitmix_determinism():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_splitmix_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


# ---------------------------------------------------------------------------
# named spaces

def test_boolean_space_profile():
    b3 = O.boolean_space(3)
    assert b3.labels == ("a", "b", "c")
    assert b3.orth.rows == (0b110, 0b101, 0b011)
    assert b3.validate().ok


def test_boolean_space_size_limits():
    with pytest.raises(ValueError):
        O.boolean_space(0)
    with pytest.raises(CapacityError):
        O.boolean_space(65)
    assert O.boolean_space(30).labels[26] == "s26"


def test_lantern_profile():
    mo2 = O.mo_lantern(2)
    assert mo2.labels == ("a1", "a2", "b1", "b2")
    assert list(mo2.orth.pairs()) == [(0, 2), (1, 3)]
    assert mo2.validate().ok
    assert len(O.property_lattice(O.mo_lantern(3)).cs) == 8  # 2n + 2


def test_lantern_needs_a_pair():
    with pytest.raises(ValueError):
        O.mo_lantern(0)


# ---------------------------------------------------------------------------
# random spaces

def test_random_space_is_deterministic():
    a = O.random_space(6, 0.5, 12345)
    b = O.random_space(6, 0.5, 12345)
    assert a == b
    assert a.validate().ok


def test_random_space_varies_with_seed():
    rows = {O.random_space(6, 0.5, seed).orth.rows for seed in range(20)}
    assert len(rows) > 1


def test_random_space_density_edges():
    assert O.random_space(1, 0.0, 7).n == 1  # a single point needs no pairs
    full = O.random_space(4, 1.0, 7)
    assert full.orth.rows == O.boolean_space(4).orth.rows
    with pytest.raises(CouldNotSeparateError):
        O.random_space(3, 0.0, 7)  # nothing orthogonal can never separate
    with pytest.raises(ValueError):
        O.random_space(3, 1.5, 7)


def test_random_space_resampling_is_one_stream():
    # density low enough that early attempts get rejected, yet the result
    # must still be a pure function of the seed
    a = O.random_space(5, 0.4, 11)
    b = O.random_space(5, 0.4, 11)
    assert a == b
    assert MAX_SEPARATION_ATTEMPTS >= 1000


def _agrees_with_specification(n, density, seed, attempts):
    ref = ora.random_orthogonality(n, density, SplitMix64(seed), attempts)
    try:
        got = ora.rows_to_dict(O.random_space(n, density, seed).orth.rows)
    except CouldNotSeparateError:
        got = None
    return got == ref


#: Densities that separate within a few attempts, with the two doubles next
#: to 0.5, whose integer cuts ⌈d·2**53⌉ are 2**52 (rounded up) and 2**52 + 1.
QUICK_DENSITIES = (1 / 3, 0.5, 0.7, 1.0, math.nextafter(0.5, 0), math.nextafter(0.5, 1))


def test_random_space_follows_its_specification():
    cases = [(n, d) for n in range(1, 9) for d in QUICK_DENSITIES]
    cases += [(n, 0.1) for n in range(1, 5)]  # up to hundreds of rejections
    cases += [(1, 0.0)]
    for n, density in cases:
        for seed in range(51):
            assert _agrees_with_specification(n, density, seed, MAX_SEPARATION_ATTEMPTS), \
                (n, density, seed)
    for seed in range(3):  # never separates, so every attempt is drawn
        assert ora.random_orthogonality(2, 0.0, SplitMix64(seed), MAX_SEPARATION_ATTEMPTS) is None
        with pytest.raises(CouldNotSeparateError):
            O.random_space(2, 0.0, seed)


def test_random_space_records_the_checks_a_fresh_scan_gives():
    # each relation is proved valid as it is drawn, so its checks are recorded, not scanned
    for n in range(1, 9):
        for density in QUICK_DENSITIES:
            for seed in range(51):
                orth = O.random_space(n, density, seed).orth
                assert "checks" in vars(orth)
                assert orth.checks == O.OrthoRelation(n, orth.rows).checks


def test_random_space_gives_up_where_its_specification_does(monkeypatch):
    # A lower attempt cap makes sparse densities give up often, and cheaply.
    monkeypatch.setattr(catalog, "MAX_SEPARATION_ATTEMPTS", 40)
    for n in range(1, 9):
        for density in (0.0, 0.1):
            for seed in range(51):
                assert _agrees_with_specification(n, density, seed, 40), (n, density, seed)
    # One attempt of two states is one draw x·2**-53, and the pair separates
    # exactly when the draw lies below the density: not at x·2**-53 itself,
    # but at the double half a unit above it.
    monkeypatch.setattr(catalog, "MAX_SEPARATION_ATTEMPTS", 1)
    seeds = [seed for seed in range(51) if SplitMix64(seed).next_u64() >> 11 < 1 << 52]
    assert len(seeds) > 10
    for seed in seeds:
        x = SplitMix64(seed).next_u64() >> 11
        with pytest.raises(CouldNotSeparateError):
            O.random_space(2, x * 2.0 ** -53, seed)
        assert O.random_space(2, (x + 0.5) * 2.0 ** -53, seed).orth.rows == (0b10, 0b01)
        assert ora.random_orthogonality(2, x * 2.0 ** -53, SplitMix64(seed), 1) is None
        assert ora.random_orthogonality(2, (x + 0.5) * 2.0 ** -53, SplitMix64(seed), 1) \
            == {0: {1}, 1: {0}}


def _one_by_one(n, density, seeds):
    """``random_space`` per seed: the space, or the message of the error it raises."""
    out = []
    for seed in seeds:
        try:
            out.append(O.random_space(n, density, seed).orth.rows)
        except CouldNotSeparateError as exc:
            out.append(str(exc))
    return out


def _batched(n, density, seeds):
    return [str(s) if isinstance(s, CouldNotSeparateError) else s.orth.rows
            for s in O.random_spaces(n, density, seeds)]


def test_random_spaces_equals_one_call_per_seed(monkeypatch):
    # One call per (n, density): its seeds resolve at the first attempt,
    # after many, or (under the lowered cap) never, all in the same lanes.
    seeds = list(range(51))
    for n in range(1, 9):
        for density in QUICK_DENSITIES:
            assert _batched(n, density, seeds) == _one_by_one(n, density, seeds), (n, density)
    monkeypatch.setattr(catalog, "MAX_SEPARATION_ATTEMPTS", 40)
    mixed = 0
    for n in range(1, 9):
        for density in (0.0, 0.1):
            got = _batched(n, density, seeds)
            assert got == _one_by_one(n, density, seeds), (n, density)
            mixed += len({type(g) for g in got}) == 2
    assert mixed >= 3  # batches where some seeds separate and others give up


def test_random_spaces_edges():
    assert O.random_spaces(5, 0.5, []) == []
    seeds = [3, 1 << 64 | 3, 3, -5]  # a seed is read mod 2**64; the message keeps it as given
    spaces = O.random_spaces(4, 0.5, iter(seeds))
    assert spaces[0] == spaces[1] == spaces[2] == O.random_space(4, 0.5, 3)
    assert spaces[3] == O.random_space(4, 0.5, (1 << 64) - 5)
    gave_up = O.random_spaces(2, 0.0, [1 << 64 | 3])[0]
    assert isinstance(gave_up, CouldNotSeparateError)
    assert str(gave_up).endswith(f"seed={1 << 64 | 3})")
    with pytest.raises(ValueError):
        O.random_spaces(0, 0.5, [1])
    with pytest.raises(CapacityError):
        O.random_spaces(65, 0.5, [1])
    with pytest.raises(ValueError):
        O.random_spaces(3, -0.1, [1])


def test_random_spaces_builds_one_space_per_distinct_relation():
    # 1, 1, 1, 4 and 38 relations on 1 to 5 labelled states separate
    seeds = list(range(300))
    for n, separating in enumerate((1, 1, 1, 4, 38), start=1):
        spaces = O.random_spaces(n, 0.5, seeds)
        first = {s.orth.rows: s for s in reversed(spaces)}
        assert len({id(s) for s in spaces}) == len(first) <= separating
        assert all(s is first[s.orth.rows] for s in spaces)
        assert spaces == [O.random_space(n, 0.5, seed) for seed in seeds]


def test_random_spaces_splits_wide_draws(monkeypatch):
    # more lanes than one pass may hold: the seeds are drawn in chunks
    monkeypatch.setattr(catalog, "_MAX_LANES", 60)  # two seeds of n = 8 per pass
    seeds = list(range(20))
    assert _batched(8, 0.5, seeds) == _one_by_one(8, 0.5, seeds)
    assert _batched(1, 0.5, seeds) == _one_by_one(1, 0.5, seeds)


# ---------------------------------------------------------------------------
# generator references

def test_from_spec_round_trips_catalog():
    assert from_spec("boolean:4") == O.boolean_space(4)
    assert from_spec("mo:2") == O.mo_lantern(2)
    assert from_spec("random:6:0.5:42") == O.random_space(6, 0.5, 42)


@pytest.mark.parametrize("ref", [
    "boolean", "boolean:4:5", "boolean:x", "mo:", "random:6:0.5",
    "random:6:0.5:42:9", "unknown:3", "", "boolean:-1",
])
def test_from_spec_rejects_malformed_references(ref):
    with pytest.raises(ValueError):
        from_spec(ref)
