"""Finite ground sets, monotone families, ideals, posets, and Boolean algebras.

Subsets of a ground set are plain Python ints used as bitmasks (bit i set
means point i is in the subset).  The canonical order on masks used by every
enumeration in the package is lexicographic on the sorted element tuple, so
``{0,3}`` precedes ``{1,2}``.

Cut moves are enumerated and checked here too, since every game module
consumes them: disjoint partitions (the binary/width-bounded cut moves),
almost-disjoint positive families with a maximality filter (the generalized
cut moves), and maximal antichains of posets and Boolean algebras.  The type
of the structure a game is played over picks the rules, so no caller chooses
them itself: ``enumerate_cut_moves`` lists the cuts, and ``cut_violation``
is the one place a cut's legality is decided.  Every enumerator emits its
moves in canonical order by construction; no list of moves is sorted.

A Boolean algebra is the trivial ideal on its atoms, a ``MonotoneFamily``
like any other everywhere but here: its cut rules keep their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, ValidationError

# Hard cap on ground-set size; acceptance suites run well below it.
MAX_GROUND = 24

# Default cap on the number of moves a single enumeration may produce.
DEFAULT_MOVE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def pull_back(points: Sequence[int], mask: int) -> int:
    """The mask whose bit ``i`` is ``mask``'s bit ``points[i]``."""
    out = 0
    for i, p in enumerate(points):
        if (mask >> p) & 1:
            out |= 1 << i
    return out


def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# The canonical sort key for a mask is its sorted element tuple.
mask_key = mask_elements
popcount = int.bit_count


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def sorted_masks(masks: Iterable[int]) -> list[int]:
    return sorted(masks, key=mask_key)


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_elements(mask)) + "}"


def parse_mask(text: str, size: int, path: str = "") -> int:
    """Parse a subset from ``{0,2,3}`` or a hex literal like ``0xb``;
    errors name the document field ``path``."""
    if not isinstance(text, str):
        raise ValidationError(f"mask must be a string, got {text!r}", path)
    text = text.strip()
    if text.startswith("0x") or text.startswith("0X"):
        try:
            mask = int(text, 16)
        except ValueError:
            raise ValidationError(f"bad hex mask literal: {text!r}", path)
    elif text.startswith("{") and text.endswith("}"):
        body = text[1:-1].strip()
        if not body:
            return 0
        try:
            elems = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValidationError(f"bad element list: {text!r}", path)
        if any(e < 0 for e in elems):
            raise ValidationError(f"negative element in {text!r}", path)
        mask = mask_of(elems)
    else:
        raise ValidationError(
            f"mask must be '{{0,2}}' or hex literal, got {text!r}", path)
    if mask >> size:
        raise ValidationError(
            f"mask {text!r} has points outside ground of size {size}", path)
    return mask


class Memo(dict):
    """``memo[x]`` is ``fn(x)``, computed on the first lookup of ``x``."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@dataclass(frozen=True)
class GroundSet:
    """A finite set of points identified with 0..size-1."""

    size: int

    def __post_init__(self):
        if not (1 <= self.size <= MAX_GROUND):
            raise ValidationError(
                f"ground size must be in 1..{MAX_GROUND}, got {self.size}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def check_mask(self, mask: int, what: str = "mask") -> int:
        if mask < 0 or (mask >> self.size):
            raise ValidationError(f"{what} has bits outside the ground set")
        return mask


# ---------------------------------------------------------------------------
# Monotone families and ideals
# ---------------------------------------------------------------------------

SIZE_AT_MOST = "size_at_most"
GENERATED_BY = "generated_by"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class MonotoneFamily:
    """A family of subsets of a ground set, the game's notion of smallness.

    Three generator descriptors are supported:

    * ``size_at_most k``: all subsets of at most k points,
    * ``generated_by masks``: all subsets of any of the listed masks,
    * ``explicit``: a literal member set (validated, not completed).

    Downward closure and ``0 in family`` are invariants; ``validate_family``
    reports the first violation with a witness instead of raising.
    """

    ground: GroundSet
    kind: str
    bound: int = 0
    generators: tuple[int, ...] = ()
    members: frozenset[int] = frozenset()

    @classmethod
    def size_at_most(cls, ground: GroundSet, k: int):
        if k < 0:
            raise ValidationError("size_at_most bound must be >= 0")
        return cls(ground, SIZE_AT_MOST, bound=k)

    @classmethod
    def generated_by(cls, ground: GroundSet, masks: Iterable[int]):
        gens = tuple(sorted_masks(ground.check_mask(m, "generator") for m in masks))
        return cls(ground, GENERATED_BY, generators=gens)

    @classmethod
    def explicit(cls, ground: GroundSet, masks: Iterable[int]):
        mem = frozenset(ground.check_mask(m, "member") for m in masks)
        return cls(ground, EXPLICIT, members=mem)

    def __contains__(self, mask: int) -> bool:
        if self.kind == SIZE_AT_MOST:
            return popcount(mask) <= self.bound
        if self.kind == GENERATED_BY:
            if mask == 0:
                return True
            for g in self.generators:
                if mask & ~g == 0:
                    return True
            return False
        return mask in self.members

    def explicit_members(self) -> frozenset[int]:
        """Materialize the member set (exponential; use at small grounds)."""
        if self.kind == EXPLICIT:
            return self.members
        full = self.ground.full_mask
        if self.kind == SIZE_AT_MOST:
            return frozenset(s for s in submasks(full) if popcount(s) <= self.bound)
        out: set[int] = {0}
        for g in self.generators:
            out.update(submasks(g))
        return frozenset(out)


@dataclass(frozen=True)
class Ideal(MonotoneFamily):
    """A monotone family additionally closed under unions and proper.

    Finite completeness is automatic at this scale; nothing extra is stored.
    """

    def max_member(self) -> int:
        """Union of all members; equals the largest member of a valid ideal."""
        if self.kind == SIZE_AT_MOST:
            return 0 if self.bound == 0 else self.ground.full_mask
        u = 0
        for m in self.generators or self.members:
            u |= m
        return u


def is_positive(family: MonotoneFamily, mask: int) -> bool:
    """True iff ``mask`` is not a member of the family (an I-positive set)."""
    return mask not in family


def positives_below(family: Container[int], x: int) -> list[int]:
    """The positive subsets of ``x`` in canonical order (``{0}`` as the family
    gives every nonzero one), built from the highest point ``e`` down: 0,
    ``e`` joined to each later subset, then the later nonzero subsets."""
    subs = [0]
    for e in reversed(mask_elements(x)):
        subs = [0, *[1 << e | s for s in subs], *subs[1:]]
    return [s for s in subs if s and s not in family]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[str] = None
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_family(family: MonotoneFamily) -> ValidationReport:
    """Check the type invariants, returning the first violation with a witness.

    Total: never raises on bad input, only reports.
    """
    if 0 not in family:
        return ValidationReport(False, "empty set missing", (0,))

    if family.kind == EXPLICIT:
        for s in sorted_masks(family.members):
            for e in mask_elements(s):
                t = s & ~(1 << e)
                if t not in family:
                    return ValidationReport(False, "downward closure", (s, t))
    # size_at_most and generated_by are downward closed by construction.

    if isinstance(family, Ideal):
        full = family.ground.full_mask
        if family.kind == SIZE_AT_MOST:
            if family.bound >= family.ground.size:
                return ValidationReport(False, "proper", (full,))
            if family.bound >= 1 and family.ground.size > family.bound:
                s = (1 << family.bound) - 1
                t = 1 << family.bound
                return ValidationReport(False, "union closure", (s, t))
        else:  # one loop over the generators (sorted) or the sorted members
            mem = family.generators or sorted_masks(family.members)
            for i, s in enumerate(mem):
                for t in mem[i:]:
                    if (s | t) not in family:
                        return ValidationReport(False, "union closure", (s, t))
            if full in family:
                return ValidationReport(False, "proper", (full,))
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# I-partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IPartition:
    """An almost-disjoint family of positive subsets of a designated set.

    Maximality is a property checked by ``is_maximal_i_partition``, not an
    invariant of the type: the ablation experiments work with non-maximal
    families on purpose.
    """

    of: int
    pieces: tuple[int, ...]
    family: MonotoneFamily

    def __post_init__(self):
        err = ipartition_violation(self.family, self.of, self.pieces)
        if err:
            raise ValidationError(err)

    @staticmethod
    def make(family: MonotoneFamily, of: int, pieces: Iterable[int]) -> "IPartition":
        return IPartition(of, tuple(sorted_masks(pieces)), family)


def ipartition_violation(family: MonotoneFamily, of: int,
                         pieces: Sequence[int]) -> Optional[str]:
    """Structural check for an almost-disjoint positive family; None if fine."""
    if not pieces:
        return "family of pieces is empty"
    if len(set(pieces)) != len(pieces):
        return "duplicate pieces"
    for p in pieces:
        if p & ~of:
            return f"piece {format_mask(p)} not contained in {format_mask(of)}"
        if p in family:
            return f"piece {format_mask(p)} is not positive"
    for i, p in enumerate(pieces):
        for q in pieces[i + 1:]:
            if (p & q) not in family:
                return (f"pieces {format_mask(p)} and {format_mask(q)} "
                        "have a positive intersection")
    return None


def _positive_extension(family: MonotoneFamily, of: int,
                        pieces: Iterable[int]) -> Optional[int]:
    """The first positive subset of ``of`` (canonical order) meeting every
    piece in a small set, by brute force; None when the pieces are maximal."""
    return next((a for a in positives_below(family, of)
                 if all((a & b) in family for b in pieces)), None)


def is_maximal_i_partition(w: IPartition) -> tuple[bool, Optional[int]]:
    """``(False, A)``, A the first positive extension, or ``(True, None)``."""
    a = _positive_extension(w.family, w.of, w.pieces)
    return a is None, a


def full_disjointification(w: IPartition) -> list[int]:
    """Pairwise-disjoint refinement covering ``w.of``; empty pieces permitted.

    The pieces are taken in canonical order.  Piece 0 absorbs the part of
    ``w.of`` outside the union of the family; every later output piece is
    contained in its source piece.
    """
    out: list[int] = []
    used = 0
    for p in sorted_masks(w.pieces):
        out.append(p & ~used)
        used |= p
    out[0] |= w.of & ~used
    return out


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on elements 0..size-1 with an optional top.

    ``down[i]`` is the mask of elements <= i (including i).  Compatibility is
    the forcing notion: two elements are compatible iff they have a common
    lower bound in the poset.
    """

    size: int
    down: tuple[int, ...]
    top: Optional[int] = None

    def __post_init__(self):
        self.check_size(self.size)
        if len(self.down) != self.size:
            raise ValidationError("down-set table length mismatch")
        for i, d in enumerate(self.down):
            if d >> self.size:
                raise ValidationError("down-set has bits outside the poset")
            if not (d >> i) & 1:
                raise ValidationError(f"order not reflexive at {i}")
        for i in range(self.size):
            for j in mask_elements(self.down[i]):
                if i != j and (self.down[j] >> i) & 1:
                    raise ValidationError(f"order not antisymmetric at ({i},{j})")
                if self.down[j] & ~self.down[i]:
                    raise ValidationError(f"order not transitive below ({j},{i})")
        if self.top is not None:
            if not (0 <= self.top < self.size):
                raise ValidationError("top element out of range")
            if self.down[self.top] != (1 << self.size) - 1:
                raise ValidationError("declared top is not above every element")

    @staticmethod
    def check_size(size: int) -> None:
        if not (1 <= size <= MAX_GROUND):
            raise ValidationError(f"poset size must be in 1..{MAX_GROUND}")

    @staticmethod
    def from_subsets(masks: Sequence[int], top_index: Optional[int] = None) -> "FinitePoset":
        """Poset of distinct set labels ordered by inclusion."""
        n = len(masks)
        if len(set(masks)) != n:
            raise ValidationError("subset labels must be distinct")
        down = []
        for i in range(n):
            m = 0
            for j in range(n):
                if masks[j] & ~masks[i] == 0:
                    m |= 1 << j
            down.append(m)
        return FinitePoset(n, tuple(down), top_index)

    @staticmethod
    def chain(n: int) -> "FinitePoset":
        return FinitePoset(n, tuple((1 << (i + 1)) - 1 for i in range(n)), n - 1)

    def leq(self, a: int, b: int) -> bool:
        return bool((self.down[b] >> a) & 1)

    def compatible(self, a: int, b: int) -> bool:
        return (self.down[a] & self.down[b]) != 0

    def is_maximal_antichain_below(self, x: int, chain: Sequence[int]) -> bool:
        """Pairwise incompatible elements <= x, extendable by nothing <= x:
        in an algebra, disjoint nonzero elements whose join is x."""
        return cut_violation(self, x, tuple(chain), None, True) is None


# ---------------------------------------------------------------------------
# Boolean algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteBooleanAlgebra(Ideal):
    """The powerset algebra over a set of atoms, elements being atom masks.
    It is the quotient by the trivial ideal, so it is that ideal,
    ``size_at_most 0`` on the atoms, and its games play as games on a family.
    Only its cut rules stay its own, in closed form (maximal antichains are
    partitions, maximality is a join): the family's generic rules walk every
    subset of the atoms to reach the same moves."""

    kind: str = field(default=SIZE_AT_MOST, init=False)
    bound: int = field(default=0, init=False)

    @property
    def atoms(self) -> GroundSet:
        return self.ground

    @property
    def top(self) -> int:
        return self.ground.full_mask

    is_maximal_antichain_below = FinitePoset.is_maximal_antichain_below


@dataclass(frozen=True)
class QuotientAlgebra:
    """P(ground)/I for a proper ideal, with its projection homomorphism.

    Finite proper ideals are principal (the union of all members is a
    member), so the quotient is the powerset of the points outside that
    maximum member.
    """

    algebra: FiniteBooleanAlgebra
    atom_points: tuple[int, ...]

    def project(self, mask: int) -> int:
        return pull_back(self.atom_points, mask)


def quotient_algebra(ground: GroundSet, ideal: MonotoneFamily) -> QuotientAlgebra:
    """Quotient of the powerset by a proper ideal; rejects non-ideals."""
    if not isinstance(ideal, Ideal):
        raise ValidationError("quotient is defined only for ideals "
                              "(monotone family lacks union closure)")
    report = validate_family(ideal)
    if not report.ok:
        raise ValidationError(f"not a valid ideal: {report.violation}")
    removed = ideal.max_member()
    points = tuple(p for p in range(ground.size) if not (removed >> p) & 1)
    if not points:
        raise ValidationError("ideal is improper; quotient undefined")
    return QuotientAlgebra(FiniteBooleanAlgebra(GroundSet(len(points))), points)


# ---------------------------------------------------------------------------
# Move enumeration
# ---------------------------------------------------------------------------

def _check_budget(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise CapacityError(f"{what} exceeded the move budget of {budget}",
                            {"budget": budget, "reached": count})


def _partitions(state: int, width: Optional[int], least: int,
                budget: int) -> list[tuple[int, ...]]:
    """The partitions of ``state`` into ``least`` (1 or 2) to ``width``
    blocks, in canonical order by construction; a point has only itself.
    Moves of two or more blocks count against ``budget``.

    Blocks are ordered by their least element, so the block holding the
    least point ``low`` comes first and is compared first.  It ranges over
    ``low | sub`` for ``sub`` in canonical order, and the points it leaves
    are partitioned with one block fewer allowed."""
    n = popcount(state)
    if n == 1:
        return [(state,)]
    cap = n if width is None else min(width, n)
    if cap < 2:
        raise ValidationError("width must be >= 2")

    def split(mask: int, least: int, cap: int) -> Iterator[tuple[int, ...]]:
        if cap == 1:
            yield (mask,)
            return
        low = mask & -mask
        rest = mask ^ low
        for sub in (0, *positives_below({0}, rest)):
            if sub != rest:
                for tail in split(rest ^ sub, 1, cap - 1):
                    yield (low | sub,) + tail
            elif least == 1:
                yield (mask,)

    out: list[tuple[int, ...]] = []
    cuts = 0
    for move in split(state, least, cap):
        out.append(move)
        if len(move) > 1:
            cuts += 1
            _check_budget(cuts, budget, "disjoint partition enumeration")
    return out


def enumerate_disjoint_partitions(state: int, width: Optional[int],
                                  budget: int = DEFAULT_MOVE_BUDGET) -> list[tuple[int, ...]]:
    """All unordered partitions of ``state`` into 2..width nonempty pieces,
    in canonical order by construction (``_partitions``).  A one-element
    state has no proper split, so the trivial single-piece partition is
    emitted there (and only there) to keep the game playable."""
    if not state:
        raise ValidationError("cannot partition the empty set")
    return _partitions(state, width, 2, budget)


def _allowed_mask_walk(pieces: Sequence[int], masks: Sequence[int],
                       small: set[int], width: Optional[int], maximal: bool,
                       budget: int, what: str) -> list[tuple[int, ...]]:
    """Families of pairwise compatible candidates, in preorder.

    Candidate i is emitted as ``pieces[i]``.  Its compatibility row has bit j
    set when ``masks[i] & masks[j]`` is in ``small``; bit i must be clear.  A
    node carries ``allowed``, the AND of its pieces' rows: its children are
    the set bits of ``allowed`` after its last piece, and it has no
    compatible extension exactly when ``allowed == 0``.  Rows are built when
    their candidate is first appended, since a walk that runs into the
    budget may append few of them.

    Every node is counted and checked against ``budget`` before it emits.  A
    node emits at most one family and the root none, so this one check also
    bounds the number emitted.
    """
    rows: list[Optional[int]] = [None] * len(masks)
    out: list[tuple[int, ...]] = []
    nodes = 0
    # (index of the last piece or -1 at the root, allowed before that piece,
    # pieces before it); children are pushed in descending order so the
    # stack pops in preorder.
    stack: list[tuple[int, int, tuple[int, ...]]] = [
        (-1, (1 << len(masks)) - 1, ())]
    while stack:
        last, allowed, family = stack.pop()
        nodes += 1
        _check_budget(nodes, budget, what)
        if last >= 0:
            row = rows[last]
            if row is None:
                c = masks[last]
                row = 0
                for j, d in enumerate(masks):
                    if c & d in small:
                        row |= 1 << j
                rows[last] = row
            allowed &= row
            family += (pieces[last],)
            if not (maximal and allowed):
                out.append(family)
        if width is not None and len(family) >= width:
            continue
        later = allowed >> (last + 1) << (last + 1)
        while later:
            i = later.bit_length() - 1
            later ^= 1 << i
            stack.append((i, allowed, family))
    return out


def enumerate_i_partitions(family: MonotoneFamily, of: int, width: Optional[int],
                           maximal: bool = True,
                           budget: int = DEFAULT_MOVE_BUDGET) -> list[tuple[int, ...]]:
    """Almost-disjoint positive families inside ``of``, canonically ordered.

    With the maximality filter on (the default), only families with no
    positive extension are emitted.

    Family membership is read once per call into the set of members below
    ``of``.  The candidates are the positive subsets of ``of`` in canonical
    order; candidate i's compatibility row has bit j set when candidates i
    and j meet in a member (a positive set never meets itself in one).  The
    walk appends candidates in increasing index order, so each family comes
    out with its pieces in canonical order, and its preorder lists families
    lexicographically by their pieces' keys with every prefix first: the
    output is already in canonical move order and needs no sort.
    """
    if of == 0:
        raise ValidationError("cannot partition the empty set")
    if width is not None and width < 1:
        raise ValidationError("width must be >= 1")
    small = {s for s in submasks(of) if s in family}
    candidates = positives_below(small, of)
    return _allowed_mask_walk(candidates, candidates, small, width, maximal,
                              budget, "positive-family enumeration")


def enumerate_poset_antichains(poset: FinitePoset, below: int, width: Optional[int],
                               maximal: bool = True,
                               budget: int = DEFAULT_MOVE_BUDGET) -> list[tuple[int, ...]]:
    """Antichains of the poset below an element, maximal unless disabled.

    Two elements may share an antichain when their down-sets are disjoint,
    that is, when they have no common lower bound.  The elements are taken
    in increasing order, so the output is sorted, as for i-partitions.
    """
    elements = mask_elements(poset.down[below])
    return _allowed_mask_walk(elements, [poset.down[q] for q in elements], {0},
                              width, maximal, budget, "antichain enumeration")


def enumerate_algebra_antichains(algebra: FiniteBooleanAlgebra, below: int,
                                 width: Optional[int], maximal: bool = True,
                                 budget: int = DEFAULT_MOVE_BUDGET) -> list[tuple[int, ...]]:
    """Antichains of nonzero elements below ``below``; maximal ones are
    exactly the partitions of ``below`` into nonzero pieces, ``(below,)``
    among them in its canonical place by construction (``_partitions``).
    The others are the algebra's i-partitions as a trivial ideal."""
    if below == 0:
        raise ValidationError("no antichains below zero")
    if maximal:
        return _partitions(below, width, 1, budget)
    return enumerate_i_partitions(algebra, below, width, False, budget)


def enumerate_cut_moves(structure, target, width: Optional[int],
                        maximal: bool = True,
                        budget: int = DEFAULT_MOVE_BUDGET) -> list[tuple[int, ...]]:
    """The cut moves on ``target``, chosen by the type of ``structure``.

    ``None`` (a bare set) gives disjoint partitions, which have no
    maximality filter; a ``FiniteBooleanAlgebra`` or ``FinitePoset`` gives
    antichains, any other ``MonotoneFamily`` i-partitions.
    """
    if structure is None:
        return enumerate_disjoint_partitions(target, width, budget)
    if isinstance(structure, FiniteBooleanAlgebra):
        return enumerate_algebra_antichains(structure, target, width, maximal,
                                            budget)
    if isinstance(structure, MonotoneFamily):
        return enumerate_i_partitions(structure, target, width, maximal, budget)
    if isinstance(structure, FinitePoset):
        return enumerate_poset_antichains(structure, target, width, maximal,
                                          budget)
    raise ValidationError("cut moves need no structure, a monotone family, "
                          "a poset or a Boolean algebra")


def cut_violation(structure, target: int, move, width: Optional[int],
                  maximal: bool = True) -> Optional[tuple[str, str]]:
    """The first rule ``move`` breaks as a cut of ``target``, as ``(message,
    rule)``, or None if it breaks none.  The one place a cut's legality is
    decided: the move's shape first (a nonempty tuple of int pieces), then
    the rules ``structure`` picks as in ``enumerate_cut_moves``.

    It passes more than ``enumerate_cut_moves`` emits only for a bare set:
    there every partition of ``target`` into at most ``width`` nonempty
    pieces passes, empty pieces beside them and ``(target,)`` among them."""
    if not isinstance(move, tuple) or not move:
        return "cut move must be a nonempty tuple of pieces", "cut-shape"
    for p in move:
        if not isinstance(p, int):
            return "pieces must be subset masks", "cut-shape"
    if structure is None:
        union = 0
        for p in move:
            if p & ~target:
                return "piece leaves the set being cut", "piece-inside-target"
            if p & union:
                return "pieces must be pairwise disjoint", "pieces-disjoint"
            union |= p
        if union != target:
            return "pieces must cover the set being cut", "pieces-cover"
        if width is not None and sum(1 for p in move if p) > width:
            return f"more than {width} nonempty pieces", "width"
        return None
    algebra = isinstance(structure, FiniteBooleanAlgebra)
    if not algebra and isinstance(structure, MonotoneFamily):
        if width is not None and len(move) > width:
            return f"more than {width} pieces", "width"
        err = ipartition_violation(structure, target, move)
        if err:
            return err, "i-partition"
        a = _positive_extension(structure, target, move) if maximal else None
        if a is not None:
            return (f"family is not maximal; witness {format_mask(a)}",
                    "maximality")
        return None
    if width is not None and len(move) > width:
        return f"more than {width} elements", "width"
    below = ("element not below the target", "antichain-below")
    if not algebra and any(not 0 <= p < structure.size
                           or not structure.leq(p, target) for p in move):
        return below
    union = 0  # the join of the elements, or of a poset's down-sets
    for p in move:
        if algebra:
            if p == 0:
                return ("antichain elements must be nonzero",
                        "antichain-nonzero")
            if p & ~target:
                return below
        else:  # poset elements are compatible when their down-sets meet
            p = structure.down[p]
        if p & union:
            return "elements must be pairwise incompatible", "antichain"
        union |= p
    if maximal and not (union == target if algebra else all(
            structure.down[q] & union
            for q in mask_elements(structure.down[target]))):
        return "antichain is not maximal below the target", "maximality"
    return None
