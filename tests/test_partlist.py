import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given

from dyckzeta import (
    AreaSequence,
    InsertionTrace,
    PartListing,
    Poset,
    PreconditionError,
    UnitIntervalOrder,
    ValidationError,
    catalan,
    enumerate_uio,
    extend,
    f_permutation,
    final_maximal_peak,
    grevlex_compare,
    grevlex_key,
    grevlex_min_search,
    is_isomorphic,
    p_map,
    parse_pred,
    poset_from_json,
    poset_from_uio,
    poset_of,
    poset_to_json,
    q_map,
    q_step,
    relabeled_poset,
    unrank_uio,
)
from dyckzeta import partlist, uio
from dyckzeta.partlist import POSET_JSON_MAX_N, grevlex_min
import helpers
from helpers import (
    compositions,
    grevlex_min_brute_force,
    grevlex_minima,
    missing_values,
    normalized_listings,
    pred_vectors,
)


def relation_pairs(p):
    return {(i, j) for i in range(1, p.n + 1) for j in range(1, p.n + 1) if p.holds(i, j)}


# ----------------------------------------------------------------- posets

def test_poset_of_antichain():
    assert relation_pairs(poset_of(PartListing((0, 0, 0)))) == set()


def test_poset_of_worked_listing():
    got = relation_pairs(poset_of(PartListing((0, 1, 2, 1, 0))))
    assert got == {(1, 2), (1, 3), (1, 4), (2, 3), (5, 3)}


def test_poset_of_gap_two():
    assert relation_pairs(poset_of(PartListing((0, 2)))) == {(1, 2)}


def test_poset_validation_catches_bad_matrices():
    with pytest.raises(ValidationError, match="irreflexivity"):
        Poset(1, ((True,),))
    with pytest.raises(ValidationError, match="antisymmetry"):
        Poset(2, ((False, True), (True, False)))
    with pytest.raises(ValidationError, match="transitivity"):
        Poset(
            3,
            (
                (False, True, False),
                (False, False, True),
                (False, False, False),
            ),
        )


def test_part_listing_rejects_negative():
    with pytest.raises(ValidationError, match="entry 2"):
        PartListing((0, -1))


def test_poset_json_round_trip_full_and_covering():
    p = poset_of(PartListing((0, 1, 2, 1, 0)))
    assert poset_from_json(poset_to_json(p, covers=False)) == p
    assert poset_from_json(poset_to_json(p, covers=True)) == p


def test_poset_json_covers_round_trip_every_order():
    for n in range(0, 7):
        for u in enumerate_uio(n):
            p = poset_from_uio(u)
            assert poset_from_json(poset_to_json(p, covers=True)) == p, str(u)


def test_poset_json_covering_relations_are_minimal():
    chain = poset_of(PartListing((0, 1, 2)))
    import json as _json

    blob = _json.loads(poset_to_json(chain, covers=True))
    assert blob["relations"] == [[1, 2], [2, 3]]
    full = _json.loads(poset_to_json(chain, covers=False))
    assert full["relations"] == [[1, 2], [1, 3], [2, 3]]


def test_poset_json_keeps_isolated_elements():
    anti = poset_of(PartListing((0, 0, 0)))
    assert poset_from_json(poset_to_json(anti)).n == 3


def test_poset_json_rejects_garbage():
    with pytest.raises(ValidationError, match="poset JSON"):
        poset_from_json("[1,2]")
    with pytest.raises(ValidationError, match="relation pair"):
        poset_from_json('{"n": 2, "relations": [[0, 1]]}')
    with pytest.raises(ValidationError, match="relation pair"):
        poset_from_json('{"n": 2, "relations": [[true, 2]]}')


@pytest.mark.parametrize("n", ["true", "-1", "201", "100000"])
def test_poset_json_rejects_bad_size_before_allocating(n):
    with pytest.raises(ValidationError, match="poset size"):
        poset_from_json('{"n": %s, "relations": []}' % n)


def test_poset_json_accepts_the_largest_size():
    n = POSET_JSON_MAX_N
    covers = [[i, i + 1] for i in range(1, n)]
    chain = poset_from_json(json.dumps({"n": n, "relations": covers, "covers": True}))
    assert chain.n == n
    assert chain.relation_count() == n * (n - 1) // 2


# ---------------------------------------------------------------- q_step

def test_q_step_worked_rows():
    assert q_step(PartListing((0, 1, 0)), 1, 1).entries == (0, 1, 1, 0)
    assert q_step(PartListing((0, 1, 1, 0)), 2, 1).entries == (0, 1, 2, 1, 0)
    assert q_step(PartListing((0,)), 0, 0).entries == (0, 0)


def test_q_step_skips_run_after_anchor_only():
    # anchor after the first 0, then past the contiguous 1-run; the later 1 stays put
    assert q_step(PartListing((0, 1, 1, 0, 1)), 1, 1).entries == (0, 1, 1, 1, 0, 1)


def test_q_step_preconditions():
    with pytest.raises(PreconditionError, match="found only"):
        q_step(PartListing((0, 0)), 2, 1)
    with pytest.raises(PreconditionError, match="level 0"):
        q_step(PartListing((0,)), 0, 1)


# ------------------------------------------------------------------ q_map

def test_q_map_worked_five_element_run():
    u = parse_pred("0,0,1,1,3")
    listing, trace = q_map(u)
    assert listing.entries == (0, 1, 2, 1, 0)
    assert trace.levels == (0, 0, 1, 1, 2)
    assert trace.c == (0, 0, 1, 1, 1)
    assert [w.entries for w in trace.words] == [
        (0,),
        (0, 0),
        (0, 1, 0),
        (0, 1, 1, 0),
        (0, 1, 2, 1, 0),
    ]


def test_q_map_four_element_example():
    listing, _ = q_map(parse_pred("0,1,1,2"))
    assert listing.entries == (0, 1, 2, 1)


def test_q_map_chain():
    listing, _ = q_map(parse_pred("0,1,2,3,4"))
    assert listing.entries == (0, 1, 2, 3, 4)


def test_q_map_output_is_area_sequence_exhaustive():
    for n in range(0, 9):
        for u in enumerate_uio(n):
            listing, _ = q_map(u)
            AreaSequence(listing.entries)  # raises if not


def test_q_map_injective_exhaustive():
    for n in range(0, 9):
        images = {q_map(u)[0].entries for u in enumerate_uio(n)}
        assert len(images) == catalan(n)


@pytest.mark.parametrize("levels, c, positions, message", [
    ((0, 0), (0,), (0, 0), "components disagree on length"),
    ((0, 0), (0, 0), (0,), "components disagree on length"),
    ((0, 0, 1), (0, 0, 1), (0, 2, 1), "letter 2 inserted at 2, outside 0..1"),
    ((0, 0), (0, 0), (0, -1), "letter 2 inserted at -1, outside 0..1"),
    ((1, 1), (0, 0), (0, 0), "levels 1,1 do not start at 0"),
    ((-1, 0), (0, 0), (0, 0), "levels -1,0 do not start at 0"),
    ((0, 1, 0), (0, 1, 0), (0, 1, 0), "levels 0,1,0 do not start at 0 and rise"),
])
def test_insertion_trace_refusals(levels, c, positions, message):
    with pytest.raises(ValidationError, match=message):
        InsertionTrace(levels, c, positions)


# ------------------------------------------------------------------ p_map

def test_p_map_worked_examples():
    assert str(p_map(parse_pred("0,1,1,2"))) == "aaabbabb"
    assert str(p_map(parse_pred("0,1,1,2,2"))) == "aaababbabb"


def test_p_map_antichain_is_staircase():
    assert str(p_map(parse_pred("0,0,0"))) == "ababab"


# ------------------------------------------------------------- relabeling

def test_f_permutation_worked_example():
    assert f_permutation(PartListing((0, 1, 2, 1, 0))) == (1, 3, 5, 4, 2)


def test_f_permutation_identity_cases():
    assert f_permutation(PartListing((0, 0, 0))) == (1, 2, 3)
    assert f_permutation(PartListing((0, 1, 2))) == (1, 2, 3)


def test_relabeled_poset_recovers_original_order():
    u = parse_pred("0,0,1,1,3")
    listing, _ = q_map(u)
    assert relabeled_poset(listing) == poset_from_uio(u)


def test_relabeled_poset_extremes():
    assert relation_pairs(relabeled_poset(PartListing((0, 0, 0, 0)))) == set()
    chain = relabeled_poset(PartListing((0, 1, 2)))
    assert relation_pairs(chain) == {(1, 2), (1, 3), (2, 3)}


def test_relabeled_poset_equals_order_exhaustive_small():
    for n in range(0, 7):
        for u in enumerate_uio(n):
            listing, _ = q_map(u)
            assert relabeled_poset(listing) == poset_from_uio(u)


# ------------------------------------------------------------ isomorphism

def test_is_isomorphic_basics():
    chain3 = poset_of(PartListing((0, 1, 2)))
    anti3 = poset_of(PartListing((0, 0, 0)))
    assert is_isomorphic(chain3, poset_of(PartListing((0, 1, 2))))
    assert not is_isomorphic(chain3, anti3)
    assert not is_isomorphic(chain3, poset_of(PartListing((0, 1))))


def test_is_isomorphic_nontrivial_relabel():
    assert is_isomorphic(poset_of(PartListing((0, 2))), poset_of(PartListing((2, 0))))
    u = parse_pred("0,0,1,1,3")
    assert is_isomorphic(poset_of(PartListing((0, 1, 2, 1, 0))), poset_from_uio(u))


def _poset_from_pairs(n, pairs):
    below = [[False] * n for _ in range(n)]
    for i, j in pairs:
        below[i - 1][j - 1] = True
    return Poset(n, tuple(tuple(row) for row in below))


def test_is_isomorphic_prunes_by_degree_but_still_checks_structure():
    # identical degree-pair multisets and relation counts, yet not isomorphic:
    # (V-down + V-up) has components 3+3, (N + chain2) has components 4+2
    v_pair = _poset_from_pairs(6, [(1, 3), (2, 3), (4, 5), (4, 6)])
    n_plus_chain = _poset_from_pairs(6, [(1, 3), (1, 4), (2, 4), (5, 6)])
    sig = lambda p: sorted(
        (
            sum(p.below[i][j] for i in range(p.n)),
            sum(p.below[j][k] for k in range(p.n)),
        )
        for j in range(p.n)
    )
    assert sig(v_pair) == sig(n_plus_chain)
    assert v_pair.relation_count() == n_plus_chain.relation_count()
    assert not is_isomorphic(v_pair, n_plus_chain)


# ---------------------------------------------------------------- grevlex

def test_grevlex_compare_tie_break_is_reversed():
    assert grevlex_compare(PartListing((1, 0)), PartListing((0, 1))) == -1
    assert grevlex_compare(PartListing((0, 1)), PartListing((1, 0))) == 1


def test_grevlex_compare_by_sum_first():
    assert grevlex_compare(PartListing((0, 0)), PartListing((0, 1))) == -1
    assert grevlex_compare(PartListing((0, 1)), PartListing((0, 1))) == 0


def test_grevlex_compare_rejects_length_mismatch():
    with pytest.raises(PreconditionError, match="equal-length"):
        grevlex_compare(PartListing((0,)), PartListing((0, 1)))


def test_grevlex_keys_sort_worked_sequence():
    listings = [PartListing(e) for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]
    ordered = sorted(listings, key=grevlex_key)
    assert [w.entries for w in ordered] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


def test_grevlex_min_search_examples():
    assert grevlex_min_search(parse_pred("0,0,0")).entries == (0, 0, 0)
    assert grevlex_min_search(parse_pred("0,1,1,2")).entries == (0, 1, 2, 1)
    assert grevlex_min_search(parse_pred("0,1,2")).entries == (0, 1, 2)


def test_grevlex_min_search_refuses_sizes_past_byte_letters():
    chain = UnitIntervalOrder(tuple(range(255)))
    assert grevlex_min_search(chain).entries == tuple(range(255))
    with pytest.raises(PreconditionError, match="size <= 255, got 256"):
        grevlex_min_search(UnitIntervalOrder(tuple(range(256))))


def test_grevlex_min_search_equals_q_map_on_random_orders():
    rng = random.Random(20)
    for n in (20, 60, 255):
        for _ in range(30):
            u = UnitIntervalOrder(unrank_uio(n, rng.randrange(catalan(n))))
            assert grevlex_min_search(u) == q_map(u)[0], str(u)


def test_grevlex_min_matches_insertion_exhaustive_to_four():
    for n in range(0, 5):
        for u in enumerate_uio(n):
            assert grevlex_min_search(u) == q_map(u)[0]


def test_grevlex_min_matches_insertion_spot_checks_at_six():
    for pred in ("0,0,0,0,0,0", "0,1,1,2,2,3", "0,1,2,3,4,5"):
        u = parse_pred(pred)
        assert grevlex_min_search(u) == q_map(u)[0]


def test_grevlex_minima_equal_the_brute_force_to_five():
    for n in range(0, 6):
        orders = list(enumerate_uio(n))
        assert grevlex_minima(orders) == [grevlex_min_brute_force(u) for u in orders]


def test_grevlex_minima_equal_q_map_at_six():
    orders = list(enumerate_uio(6))
    assert grevlex_minima(orders) == [q_map(u)[0] for u in orders]


def test_grevlex_minima_search_no_isomorphism(monkeypatch):
    orders = list(enumerate_uio(6))
    expected = [q_map(u)[0] for u in orders]

    def refuse(*args):
        raise AssertionError("the grevlex oracle keys listings by their order")

    for name in ("is_isomorphic", "poset_of", "poset_from_uio", "_degrees", "Poset"):
        monkeypatch.setattr(partlist, name, refuse)
    assert grevlex_minima(orders) == expected


def test_grevlex_minima_never_insert(monkeypatch):
    orders = list(enumerate_uio(5))
    expected = [q_map(u)[0] for u in orders]

    def refuse(*args):
        raise AssertionError("the grevlex oracle must not use the insertion")

    for name in ("_insert", "_insert_all", "_insertion_point", "q_map", "p_map", "q_step"):
        monkeypatch.setattr(partlist, name, refuse)
    assert grevlex_minima(orders) == expected


def test_grevlex_min_equals_the_walk_to_nine():
    for n in range(0, 10):
        orders = list(enumerate_uio(n))
        walked = grevlex_minima(orders)
        assert [grevlex_min(u.pred) for u in orders] == [
            bytes(w.entries) for w in walked], n


def test_grevlex_min_neither_inserts_nor_builds_posets(monkeypatch):
    orders = list(enumerate_uio(7))
    expected = [bytes(q_map(u)[0].entries) for u in orders]

    def refuse(*args):
        raise AssertionError("grevlex_min reads the order's level blocks only")

    for name in ("_insert", "_insert_all", "_insertion_point", "q_map", "p_map",
                 "q_step", "poset_of", "poset_from_uio", "Poset", "is_isomorphic"):
        monkeypatch.setattr(partlist, name, refuse)
    monkeypatch.setattr(uio, "levels", refuse)
    assert [grevlex_min(u.pred) for u in orders] == expected


def order_of_matches_the_posets(entries, isomorphic):
    order = UnitIntervalOrder(partlist._order_of(entries))
    w = PartListing(entries)
    assert poset_from_uio(order) == relabeled_poset(w), entries
    if isomorphic:
        assert is_isomorphic(poset_from_uio(order), poset_of(w)), entries


def test_order_of_is_the_order_of_every_small_listing():
    # every listing with entries in 0..2n-2, the largest of a normalized one
    for n in range(0, 6):
        for entries in product(range(2 * n - 1), repeat=n):
            order_of_matches_the_posets(entries, n <= 4)


def test_order_of_is_the_order_of_every_walked_listing():
    for n in range(0, 8):
        for entries in normalized_listings(n):
            order_of_matches_the_posets(entries, n <= 4)


def test_order_of_sorts_the_down_set_sizes():
    # the key of each walked listing, against the poset's relation matrix
    for n in range(0, 7):
        for entries in normalized_listings(n):
            p = poset_of(PartListing(entries))
            expected = sorted(sum(p.holds(i, j) for i in range(1, n + 1))
                              for j in range(1, n + 1))
            assert partlist._order_of(entries) == tuple(expected), entries


def normalized(entries):
    """Least entry 0, and the distinct values, sorted, step by at most 2."""
    values = sorted(set(entries))
    return not values or (values[0] == 0
                          and all(b - a <= 2 for a, b in zip(values, values[1:])))


def test_normalizing_moves_keep_the_poset():
    def moves(entries):
        low = min(entries)
        if low:
            yield tuple(x - low for x in entries)
        values = sorted(set(entries))
        for a, b in zip(values, values[1:]):
            if b - a >= 3:
                yield tuple(x - (b - a - 2) if x >= b else x for x in entries)

    moved = 0
    for n in range(1, 6):
        for entries in product(range(6), repeat=n):
            before = poset_of(PartListing(entries)).below
            for after in moves(entries):
                moved += 1
                assert sum(after) < sum(entries), (entries, after)
                assert poset_of(PartListing(after)).below == before, (entries, after)
            assert normalized(entries) == (next(moves(entries), None) is None)
    assert moved > 1000


def rises_by_at_most_one(entries):
    return all(b <= a + 1 for a, b in zip(entries, entries[1:]))


def test_swapping_a_rise_of_two_relabels_the_poset_and_lowers_the_key():
    swapped = 0
    for n in range(2, 6):
        for entries in product(range(6), repeat=n):
            before = poset_of(PartListing(entries)).below
            for i in range(n - 1):
                if entries[i + 1] - entries[i] < 2:
                    continue
                swapped += 1
                after = list(entries)
                after[i], after[i + 1] = after[i + 1], after[i]
                moved = poset_of(PartListing(after)).below
                t = list(range(n))
                t[i], t[i + 1] = i + 1, i
                assert all(moved[t[x]][t[y]] == before[x][y]
                           for x in range(n) for y in range(n)), (entries, i)
                assert grevlex_key(PartListing(after)) < grevlex_key(
                    PartListing(entries))
    assert swapped > 1000


def test_brute_force_minima_have_no_rise_of_two():
    for n in range(0, 6):
        for u in enumerate_uio(n):
            assert rises_by_at_most_one(grevlex_min_brute_force(u).entries), str(u)


def test_walk_yields_the_normalized_compositions_in_grevlex_order():
    # normalized and with no rise of 2 or more
    for n in range(0, 7):
        walk = [tuple(e) for e in normalized_listings(n)]
        by_sum = [
            sorted((e for e in compositions(total, n)
                    if normalized(e) and rises_by_at_most_one(e)), reverse=True)
            for total in range(n * (n - 1) // 2 + 1)
        ]
        assert walk == [e for part in by_sum for e in part], n


def test_missing_values_count_and_least_sum():
    # against every set of extra values below 12 that normalizes the mask
    for mask in range(1, 1 << 8):
        have = {v for v in range(8) if mask >> v & 1}
        free = [v for v in range(12) if v not in have]
        fits = [extra for r in range(5) for extra in combinations(free, r)
                if normalized(have | set(extra))]
        assert missing_values(mask) == (
            min(map(len, fits)), min(map(sum, fits))), bin(mask)


def test_grevlex_minima_miss_a_minimum_the_walk_skips(monkeypatch):
    orders = list(enumerate_uio(5))
    expected = [grevlex_min_brute_force(u) for u in orders]
    skipped = expected[20].entries
    assert normalized(skipped) and sum(skipped) > 0
    walk = helpers.normalized_listings
    monkeypatch.setattr(helpers, "normalized_listings",
                        lambda n: (e for e in walk(n) if tuple(e) != skipped))
    found = grevlex_minima(orders)
    assert [i for i, (w, best) in enumerate(zip(found, expected)) if w != best] == [20]
    assert grevlex_key(found[20]) > grevlex_key(expected[20])


# --------------------------------------------- listing growth under extension

def test_extension_inserts_one_final_maximal_letter():
    for n in range(0, 7):
        for u in enumerate_uio(n):
            small, _ = q_map(u)
            for k in range((u.pred[-1] if n else 0), n + 1):
                big, trace = q_map(extend(u, k))
                pos = trace.positions[-1]
                assert big.entries[:pos] + big.entries[pos + 1:] == small.entries
                top = max(big.entries)
                assert big.entries[pos] == top
                assert pos == max(
                    i for i, w in enumerate(big.entries) if w == top
                )
                peak = final_maximal_peak(p_map(extend(u, k)))
                assert peak.apex[1] == pos + 1


@given(pred_vectors(max_n=9))
def test_q_map_trace_is_internally_consistent(u):
    listing, trace = q_map(u)
    assert len(trace.words) == u.n
    if u.n:
        assert trace.words[-1] == listing
