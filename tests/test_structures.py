import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

from cutchoose.errors import CapacityError, ValidationError
from cutchoose.structures import (FiniteBooleanAlgebra, FinitePoset, GroundSet,
                                  Ideal, IPartition, MonotoneFamily,
                                  cut_violation,
                                  enumerate_algebra_antichains,
                                  enumerate_cut_moves,
                                  enumerate_disjoint_partitions,
                                  enumerate_i_partitions,
                                  enumerate_poset_antichains, format_mask,
                                  full_disjointification,
                                  ipartition_violation,
                                  is_maximal_i_partition, is_positive,
                                  mask_elements, mask_key, mask_of, parse_mask,
                                  popcount, quotient_algebra, sorted_masks,
                                  submasks, validate_family)


def masks_eq(moves, expected):
    return {frozenset(m) for m in moves} == {frozenset(m) for m in expected} \
        and len(moves) == len(expected)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_mask_text_forms():
    assert parse_mask("{0,2,3}", 4) == 0b1101
    assert parse_mask("0xd", 4) == 0b1101
    assert parse_mask("{}", 4) == 0
    assert format_mask(0b1101) == "{0,2,3}"
    with pytest.raises(ValidationError):
        parse_mask("{4}", 4)
    with pytest.raises(ValidationError):
        parse_mask("junk", 4)


@given(st.integers(0, (1 << 10) - 1))
@seed(101)
def test_mask_round_trip(mask):
    assert parse_mask(format_mask(mask), 10) == mask
    assert mask_of(mask_elements(mask)) == mask


def test_ground_set_cap():
    with pytest.raises(ValidationError):
        GroundSet(0)
    with pytest.raises(ValidationError):
        GroundSet(25)
    assert GroundSet(24).full_mask == (1 << 24) - 1


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_validate_family_examples():
    g = GroundSet(2)
    singletons = MonotoneFamily.explicit(g, [0, 0b01, 0b10])
    assert validate_family(singletons).ok

    as_ideal = Ideal.explicit(g, [0, 0b01, 0b10])
    report = validate_family(as_ideal)
    assert not report.ok
    assert report.violation == "union closure"
    assert set(report.witness) == {0b01, 0b10}

    gap = MonotoneFamily.explicit(g, [0b11])
    report = validate_family(gap)
    assert not report.ok
    assert report.violation in ("downward closure", "empty set missing")


def test_ideal_reports_read_the_generators_or_the_members():
    # union closure and properness over the generators or the members, each
    # in canonical order: the first pair whose union is missing, or the top
    g = GroundSet(3)
    apart, whole = [0, 0b001, 0b100], list(submasks(0b111))
    for kind, masks in ((Ideal.generated_by, [0b100, 0b001]),
                        (Ideal.explicit, apart)):
        report = validate_family(kind(g, masks))
        assert (report.ok, report.violation, report.witness) == (
            False, "union closure", (0b001, 0b100))
    for ideal in (Ideal.generated_by(g, [0b111]), Ideal.explicit(g, whole)):
        report = validate_family(ideal)
        assert (report.ok, report.violation, report.witness) == (
            False, "proper", (0b111,))
    assert validate_family(Ideal.generated_by(g, [0b011])).ok
    assert validate_family(Ideal.explicit(g, submasks(0b011))).ok


def test_max_member_is_the_union_of_the_listed_masks():
    g = GroundSet(4)
    for masks, top in (([0b0110], 0b0110), ([0b0001, 0b1000], 0b1001)):
        assert Ideal.generated_by(g, masks).max_member() == top
        members = {s for m in masks for s in submasks(m)}
        assert Ideal.explicit(g, members).max_member() == top
    assert Ideal.generated_by(g, []).max_member() == 0
    assert Ideal.explicit(g, [0]).max_member() == 0
    assert Ideal.size_at_most(g, 0).max_member() == 0
    assert Ideal.size_at_most(g, 1).max_member() == 0b1111


def test_is_positive_examples():
    g = GroundSet(2)
    fam = MonotoneFamily.size_at_most(g, 1)
    assert is_positive(fam, 0b11)
    assert not is_positive(fam, 0b01)
    gen = MonotoneFamily.generated_by(g, [0b11])
    assert not is_positive(gen, 0b11)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
@seed(102)
def test_generator_expansion_validates(m, data):
    g = GroundSet(m)
    kind = data.draw(st.sampled_from(["size_at_most", "generated_by"]))
    if kind == "size_at_most":
        fam = MonotoneFamily.size_at_most(g, data.draw(st.integers(0, m)))
    else:
        gens = data.draw(st.lists(st.integers(0, g.full_mask), min_size=1,
                                  max_size=3))
        fam = MonotoneFamily.generated_by(g, gens)
    explicit = MonotoneFamily.explicit(g, fam.explicit_members())
    assert validate_family(explicit).ok
    # membership agrees with the expansion
    for s in submasks(g.full_mask):
        assert (s in fam) == (s in explicit)


# ---------------------------------------------------------------------------
# Partition enumeration
# ---------------------------------------------------------------------------

def test_binary_partitions_of_three():
    moves = enumerate_disjoint_partitions(0b111, 2)
    assert len(moves) == 3  # S(3,2)
    assert masks_eq(moves, [(0b001, 0b110), (0b010, 0b101), (0b100, 0b011)])
    # canonical order is deterministic across runs
    assert moves == enumerate_disjoint_partitions(0b111, 2)


def test_partition_counts_match_stirling():
    def stirling(n, k):
        if k in (0, n):
            return 1 if k else 0
        if k > n:
            return 0
        return k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    for n in range(2, 7):
        state = (1 << n) - 1
        for width in (2, 3, n):
            expected = sum(stirling(n, k) for k in range(2, width + 1))
            assert len(enumerate_disjoint_partitions(state, width)) == expected


def test_singleton_state_gets_trivial_partition():
    assert enumerate_disjoint_partitions(0b100, 2) == [(0b100,)]


def test_partition_budget():
    with pytest.raises(CapacityError):
        enumerate_disjoint_partitions((1 << 10) - 1, None, budget=50)
    # the smallest budgets that pass, and the errors one below them; the
    # algebra's single-piece move does not count against its budget
    assert len(enumerate_disjoint_partitions(0b111111, 3, budget=121)) == 121
    with pytest.raises(CapacityError) as err:
        enumerate_disjoint_partitions(0b111111, 3, budget=120)
    assert str(err.value) == ("disjoint partition enumeration exceeded the "
                              "move budget of 120")
    assert err.value.stats == {"budget": 120, "reached": 121}
    alg = FiniteBooleanAlgebra(GroundSet(5))
    assert len(enumerate_algebra_antichains(alg, alg.top, None,
                                            budget=51)) == 52
    with pytest.raises(CapacityError) as err:
        enumerate_algebra_antichains(alg, alg.top, None, budget=50)
    assert str(err.value) == ("disjoint partition enumeration exceeded the "
                              "move budget of 50")
    assert err.value.stats == {"budget": 50, "reached": 51}
    # a width below 2 is refused unless the element is one atom
    assert enumerate_algebra_antichains(alg, 0b100, 1) == [(0b100,)]
    with pytest.raises(ValidationError, match="width must be >= 2"):
        enumerate_algebra_antichains(alg, 0b011, 1)


def _labelled_partitions(points, least, cap):
    """Every labelling of ``points`` with block indices (each point joins a
    block of an earlier point or opens the next one), kept when it uses
    least..cap blocks, each as its blocks' masks ordered by element tuple."""
    def key(mask):
        return tuple(p for p in points if mask >> p & 1)

    out = set()

    def label(i, blocks):
        if i == len(points):
            if least <= len(blocks) <= cap:
                out.add(tuple(sorted(blocks, key=key)))
            return
        for b in range(len(blocks) + 1):
            grown = blocks + [0] if b == len(blocks) else list(blocks)
            grown[b] |= 1 << points[i]
            label(i + 1, grown)

    label(0, [])
    return sorted(out, key=lambda move: tuple(key(p) for p in move))


@given(st.sets(st.integers(0, 11), min_size=1, max_size=8),
       st.sampled_from([2, 3, None]))
@settings(max_examples=150, deadline=None)
@seed(103)
def test_partitions_match_brute_force(points, width):
    points = sorted(points)
    mask = mask_of(points)
    cap = len(points) if width is None else width
    cuts = _labelled_partitions(points, 2, cap)
    assert enumerate_disjoint_partitions(mask, width) == (
        cuts if len(points) > 1 else [(mask,)])
    alg = FiniteBooleanAlgebra(GroundSet(12))
    assert enumerate_algebra_antichains(alg, mask, width) == \
        _labelled_partitions(points, 1, cap)


def test_i_partition_enumeration_max4():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    moves = enumerate_i_partitions(fam, g.full_mask, 6)
    all_pairs = tuple(sorted_masks(
        [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]))
    assert all_pairs in moves
    assert tuple(sorted_masks([0b0011, 0b1100])) not in moves
    # with the maximality filter off the disjoint pair is admitted
    loose = enumerate_i_partitions(fam, g.full_mask, 6, maximal=False)
    assert tuple(sorted_masks([0b0011, 0b1100])) in loose


def test_is_maximal_examples():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    whole = IPartition.make(fam, g.full_mask, [g.full_mask])
    assert is_maximal_i_partition(whole) == (True, None)

    pairs = IPartition.make(fam, g.full_mask,
                            [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100])
    assert is_maximal_i_partition(pairs) == (True, None)

    split = IPartition.make(fam, g.full_mask, [0b0011, 0b1100])
    ok, witness = is_maximal_i_partition(split)
    assert not ok and witness == 0b0101  # {0,2}


def test_maximality_brute_force_oracle():
    # maximal iff no positive subset meets every piece in a small set
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    for move in enumerate_i_partitions(fam, g.full_mask, 3, maximal=False):
        w = IPartition.make(fam, g.full_mask, move)
        expected = not any(
            is_positive(fam, a) and all((a & b) in fam for b in move)
            for a in submasks(g.full_mask) if a)
        assert is_maximal_i_partition(w)[0] == expected


def test_full_disjointification_examples():
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    pairs = IPartition.make(fam, g.full_mask,
                            [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100])
    assert full_disjointification(pairs) == [0b0011, 0b0100, 0b1000, 0, 0, 0]

    whole = IPartition.make(fam, g.full_mask, [g.full_mask])
    assert full_disjointification(whole) == [g.full_mask]

    g3 = GroundSet(3)
    fam3 = MonotoneFamily.size_at_most(g3, 1)
    overlap = IPartition.make(fam3, 0b111, [0b011, 0b110])
    assert full_disjointification(overlap) == [0b011, 0b100]


@given(st.integers(3, 5), st.data())
@settings(max_examples=60, deadline=None)
@seed(104)
def test_disjointification_properties(m, data):
    g = GroundSet(m)
    fam = MonotoneFamily.size_at_most(g, 1)
    moves = enumerate_i_partitions(fam, g.full_mask, 4, maximal=False,
                                   budget=50_000)
    move = data.draw(st.sampled_from(moves))
    w = IPartition.make(fam, g.full_mask, move)
    refined = full_disjointification(w)
    # output partitions W.of
    union = 0
    for i, p in enumerate(refined):
        assert p & union == 0
        union |= p
    assert union == w.of
    # containment for every nonzero index
    for i in range(1, len(refined)):
        assert refined[i] & ~w.pieces[i] == 0


# ---------------------------------------------------------------------------
# Quotients and lattice operations
# ---------------------------------------------------------------------------

def test_quotient_examples():
    g3 = GroundSet(3)
    q = quotient_algebra(g3, Ideal.generated_by(g3, [0b100]))
    assert q.algebra.atoms.size == 2
    assert len({q.project(s) for s in submasks(g3.full_mask)}) == 4

    g2 = GroundSet(2)
    q2 = quotient_algebra(g2, Ideal.explicit(g2, [0]))
    seen = {q2.project(s) for s in submasks(g2.full_mask)}
    assert len(seen) == 4  # injective

    q3 = quotient_algebra(g2, Ideal.generated_by(g2, [0b01]))
    assert q3.project(0) == q3.project(0b01) == 0
    assert q3.project(0b10) == q3.project(0b11) != 0


def test_quotient_rejects_non_ideal():
    g = GroundSet(3)
    with pytest.raises(ValidationError):
        quotient_algebra(g, MonotoneFamily.size_at_most(g, 1))
    with pytest.raises(ValidationError):
        quotient_algebra(g, Ideal.size_at_most(g, 1))


@given(st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
@seed(105)
def test_quotient_projection_kernel(m, data):
    g = GroundSet(m)
    gen = data.draw(st.integers(0, g.full_mask - 1))
    ideal = Ideal.generated_by(g, [gen])
    q = quotient_algebra(g, ideal)
    s = data.draw(st.integers(0, g.full_mask))
    t = data.draw(st.integers(0, g.full_mask))
    assert (q.project(s) == q.project(t)) == ((s ^ t) in ideal)
    # homomorphism
    assert q.project(s | t) == q.project(s) | q.project(t)
    assert q.project(s & t) == q.project(s) & q.project(t)


# ---------------------------------------------------------------------------
# Posets and antichains
# ---------------------------------------------------------------------------

def test_poset_queries_examples():
    alg = FiniteBooleanAlgebra(GroundSet(4))
    atoms = [1, 2, 4, 8]
    assert alg.is_maximal_antichain_below(alg.top, atoms)
    # {a v b} alone is extendable below top
    assert not alg.is_maximal_antichain_below(alg.top, [0b0011])


def test_poset_validation():
    with pytest.raises(ValidationError):
        FinitePoset(2, (0b01, 0b01))  # not reflexive at 1
    with pytest.raises(ValidationError):
        FinitePoset(2, (0b11, 0b11))  # not antisymmetric
    p = FinitePoset.from_subsets([0b001, 0b011, 0b111], 2)
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.compatible(0, 1)


def test_algebra_antichain_enumeration_matches_partitions():
    # maximal antichains below X are exactly partitions of X (plus {X})
    alg = FiniteBooleanAlgebra(GroundSet(5))
    for below in (alg.top, 0b01111, 0b0111, 0b0011):
        got = enumerate_algebra_antichains(alg, below, None)
        expect = [(below,)]
        if popcount(below) >= 2:
            expect += enumerate_disjoint_partitions(below, None)
        assert masks_eq(got, expect)
        # brute-force cross-check of maximality for every emitted antichain
        for move in got:
            assert alg.is_maximal_antichain_below(below, list(move))


def test_algebra_antichains_brute_force_small():
    # exhaustive cross-check at 3 atoms: compare against a direct filter
    alg = FiniteBooleanAlgebra(GroundSet(3))
    below = alg.top
    got = set(enumerate_algebra_antichains(alg, below, None))

    import itertools
    candidates = [s for s in submasks(below) if s]
    brute = set()
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(sorted_masks(candidates), r):
            if any(a & b for a, b in itertools.combinations(combo, 2)):
                continue
            if alg.is_maximal_antichain_below(below, list(combo)):
                brute.add(tuple(sorted(combo)))
    assert {tuple(sorted(m)) for m in got} == brute


def test_poset_antichain_enumeration():
    p = FinitePoset.from_subsets([0b001, 0b010, 0b100, 0b011, 0b111], 4)
    moves = enumerate_poset_antichains(p, 4, None)
    assert (4,) in moves  # the top itself
    for move in moves:
        assert p.is_maximal_antichain_below(4, list(move))


def canonical_moves(moves):
    return sorted(moves, key=lambda move: tuple(mask_key(p) for p in move))


@st.composite
def families(draw):
    m = draw(st.integers(1, 4))
    g = GroundSet(m)
    kind = draw(st.sampled_from(["size_at_most", "generated_by", "closed",
                                 "explicit"]))
    masks = draw(st.lists(st.integers(0, g.full_mask), max_size=3))
    if kind == "size_at_most":
        return MonotoneFamily.size_at_most(g, draw(st.integers(0, m)))
    if kind == "generated_by":
        return MonotoneFamily.generated_by(g, masks)
    if kind == "closed":
        return MonotoneFamily.explicit(
            g, {s for mask in masks for s in submasks(mask)})
    return MonotoneFamily.explicit(g, masks)  # not downward closed


@given(families(), st.data())
@settings(max_examples=150, deadline=None)
@seed(106)
def test_i_partitions_match_brute_force(fam, data):
    # every combination of positive subsets up to the width, kept when the
    # structural check passes and, under the filter, when the brute-force
    # maximality search finds no extension
    of = data.draw(st.integers(1, fam.ground.full_mask))
    width = data.draw(st.sampled_from(
        [1, 2, 3] + ([None] if fam.ground.size <= 3 else [])))
    maximal = data.draw(st.booleans())
    positives = [s for s in submasks(of) if s and is_positive(fam, s)]
    top = len(positives) if width is None else width
    expected = []
    for r in range(1, top + 1):
        for combo in itertools.combinations(sorted_masks(positives), r):
            if ipartition_violation(fam, of, combo) is None and (
                    not maximal or is_maximal_i_partition(
                        IPartition(of, combo, fam))[0]):
                expected.append(combo)
    got = enumerate_i_partitions(fam, of, width, maximal)
    assert got == canonical_moves(expected)


@given(st.lists(st.integers(1, 15), min_size=1, max_size=7, unique=True),
       st.data())
@settings(max_examples=150, deadline=None)
@seed(107)
def test_poset_antichains_match_brute_force(labels, data):
    p = FinitePoset.from_subsets(labels)
    below = data.draw(st.integers(0, len(labels) - 1))
    width = data.draw(st.sampled_from([1, 2, 3, None]))
    maximal = data.draw(st.booleans())
    elements = mask_elements(p.down[below])
    top = len(elements) if width is None else width
    expected = []
    for r in range(1, top + 1):
        for combo in itertools.combinations(elements, r):
            if maximal:
                keep = p.is_maximal_antichain_below(below, combo)
            else:
                keep = not any(p.compatible(a, b)
                               for a, b in itertools.combinations(combo, 2))
            if keep:
                expected.append(combo)
    got = enumerate_poset_antichains(p, below, width, maximal)
    assert got == sorted(expected)


@st.composite
def cut_games(draw):
    """A structure of each type ``enumerate_cut_moves`` dispatches on, a
    target, and candidate pieces in canonical order: every poset element,
    or every subset of the ground (the empty one only for a bare set)."""
    kind = draw(st.sampled_from(["set", "family", "algebra", "poset"]))
    if kind == "poset":
        labels = draw(st.lists(st.integers(1, 15), min_size=1, max_size=6,
                               unique=True))
        return (FinitePoset.from_subsets(labels),
                draw(st.integers(0, len(labels) - 1)), range(len(labels)))
    if kind == "family":
        structure = draw(families())
        ground = structure.ground
    else:
        ground = GroundSet(draw(st.integers(1, 4)))
        structure = FiniteBooleanAlgebra(ground) if kind == "algebra" else None
    target = draw(st.integers(1, ground.full_mask))
    return structure, target, sorted_masks(
        s for s in submasks(ground.full_mask) if s or structure is None)


@given(cut_games(), st.sampled_from([2, 3, None]), st.booleans())
@settings(max_examples=200, deadline=None)
@seed(108)
def test_cut_violation_passes_exactly_the_enumerated_moves(game, width,
                                                           maximal):
    # the checker and the enumerator decide the same cuts; a bare set's
    # checker also passes (target,) and empty pieces beside a partition
    structure, target, candidates = game
    moves = set(enumerate_cut_moves(structure, target, width, maximal))
    for move in moves:
        assert cut_violation(structure, target, move, width, maximal) is None
    if structure is None:
        moves.add((target,))
    for r in range(1, (width or 3) + 2):
        for combo in itertools.combinations(candidates, r):
            passes = cut_violation(structure, target, combo, width,
                                   maximal) is None
            if structure is None:
                combo = tuple(p for p in combo if p)
            assert passes == (combo in moves), combo


def test_enumeration_budget_counts_every_node():
    # the smallest budgets that pass, and the errors one below them
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    assert len(enumerate_i_partitions(fam, g.full_mask, 3, budget=71)) == 1
    with pytest.raises(CapacityError) as err:
        enumerate_i_partitions(fam, g.full_mask, 3, budget=70)
    assert str(err.value) == ("positive-family enumeration exceeded the "
                              "move budget of 70")
    assert err.value.stats == {"budget": 70, "reached": 71}
    p = FinitePoset.from_subsets([0b001, 0b010, 0b100, 0b011, 0b111], 4)
    assert len(enumerate_poset_antichains(p, 4, None, budget=11)) == 3
    with pytest.raises(CapacityError) as err:
        enumerate_poset_antichains(p, 4, None, budget=10)
    assert str(err.value) == "antichain enumeration exceeded the move budget of 10"
    assert err.value.stats == {"budget": 10, "reached": 11}


def test_enumerate_cut_moves_dispatch():
    # the type of the structure picks the enumerator
    g = GroundSet(4)
    fam = MonotoneFamily.size_at_most(g, 1)
    poset = FinitePoset.from_subsets([0b001, 0b010, 0b100, 0b011, 0b111], 4)
    alg = FiniteBooleanAlgebra(g)
    for width in (2, 3, None):
        assert enumerate_cut_moves(None, g.full_mask, width) == \
            enumerate_disjoint_partitions(g.full_mask, width) != []
        for maximal in (True, False):
            assert enumerate_cut_moves(fam, g.full_mask, width, maximal) == \
                enumerate_i_partitions(fam, g.full_mask, width, maximal) != []
            assert enumerate_cut_moves(poset, 4, width, maximal) == \
                enumerate_poset_antichains(poset, 4, width, maximal) != []
            assert enumerate_cut_moves(alg, g.full_mask, width, maximal) == \
                enumerate_algebra_antichains(alg, g.full_mask, width,
                                             maximal) != []
    with pytest.raises(CapacityError, match="budget of 70"):
        enumerate_cut_moves(fam, g.full_mask, 3, budget=70)
    for unsupported in (g, "i_partition"):
        with pytest.raises(ValidationError):
            enumerate_cut_moves(unsupported, g.full_mask, 2)


def test_an_algebra_is_its_trivial_ideal_with_closed_form_cuts(monkeypatch):
    from cutchoose import structures

    g = GroundSet(4)
    alg = FiniteBooleanAlgebra(g)
    assert isinstance(alg, Ideal) and validate_family(alg).ok
    assert (alg.atoms, alg.top) == (g, 0b1111)
    assert alg.explicit_members() == Ideal.size_at_most(g, 0).explicit_members()
    # the non-maximal antichains are the trivial ideal's i-partitions
    with pytest.raises(CapacityError, match="^positive-family enumeration"):
        enumerate_algebra_antichains(alg, alg.top, 2, False, budget=5)

    # the maximal ones, and maximality, keep their closed forms: the generic
    # rules would walk every subset of the atoms
    def generic(*args):
        raise AssertionError("an algebra reached the family's generic rules")

    monkeypatch.setattr(structures, "_allowed_mask_walk", generic)
    monkeypatch.setattr(structures, "_positive_extension", generic)
    big = FiniteBooleanAlgebra(GroundSet(16))
    assert big.is_maximal_antichain_below(big.top,
                                          [1 << i for i in range(16)])
    assert not big.is_maximal_antichain_below(big.top, [0b11])
    assert len(enumerate_algebra_antichains(big, (1 << 10) - 1, 2)) == 512
    assert len(enumerate_cut_moves(big, 0b111, None)) == 5


def test_trivial_ideal_is_union_closed_and_proper():
    g = GroundSet(3)
    assert validate_family(Ideal.size_at_most(g, 0)).ok
    report = validate_family(Ideal.size_at_most(g, 3))
    assert not report.ok and report.violation == "proper"
