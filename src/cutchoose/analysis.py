"""Distributivity checkers, threshold scans, audits, and the seeded corpus.

The checkers search branch spaces directly, never through the solver, so the
audit rows genuinely compute both sides of each characterization by
independent means: game values come from backward induction, distributivity
verdicts from one exhaustive search over move-sequence prefixes that carries
each prefix's live cores and skips a (round, live set) pair searched before,
thresholds from the closed-form counting law or the naive oracle.  The
audit writes each row that families, posets and algebras share once: the
solver-against-checker distributivity rows in ``_distributivity_row``, the
Banach-Mazur bridge in ``_bridge_rows`` over ``engine.bridge_game``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import or_
from typing import Iterable, Optional

from . import engine
from .engine import (BM_IDEAL, BM_POSET, CHOOSE, CUT, EMPTY, EXACT, G_IDEAL,
                     G_POSET, NONEMPTY, STRICT_PREFIX, U, WEAK,
                     FunctionStrategy, GameInstance, depth_limited,
                     verify_winning_strategy)
from .errors import CapacityError, ValidationError
from .solver import reference_winner, solve
from .structures import (DEFAULT_MOVE_BUDGET, FiniteBooleanAlgebra,
                         FinitePoset, GroundSet, Ideal, Memo, MonotoneFamily,
                         enumerate_cut_moves, is_positive, popcount,
                         positives_below, quotient_algebra, sorted_masks,
                         validate_family)

PLAIN = "plain"
UNIFORM = "uniform"
IDEAL_WEAK = "ideal_weak"

NOT_APPLICABLE = "n/a"

# Cap on the cut moves and on the move sequences of one distributivity check.
SEQUENCE_BUDGET = DEFAULT_MOVE_BUDGET
# Cap on the moves and move sequences an instance may need to join the corpus.
CORPUS_PROBE_BUDGET = 3_000
# ``threshold_scan`` plays against the family of sets of at most this size.
SCAN_BOUND = 1


# ---------------------------------------------------------------------------
# Distributivity: a search over move sequences that carries the live cores
# ---------------------------------------------------------------------------

def _core_space(structure, x) -> tuple:
    """The starting core, the map from a pick to its mask (``None`` where
    picks are masks already; down-sets for posets) and the cores that die:
    the family (an algebra is its trivial ideal), or ``{0}`` for posets,
    where a core needs only a common lower bound.  Refuses an ``x`` no game
    could start from."""
    if isinstance(structure, MonotoneFamily):
        structure.ground.check_mask(x, "x")
        if not is_positive(structure, x):
            raise ValidationError("x must be I-positive")
        return x, None, structure
    if isinstance(structure, FinitePoset):
        if not 0 <= x < structure.size:
            raise ValidationError(
                f"x must be a poset element, 0..{structure.size - 1}")
        return structure.down[x], structure.down, {0}
    raise ValidationError("unsupported structure for distributivity check")


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")


@dataclass
class DistributivityResult:
    holds: bool
    failing_sequence: Optional[list] = None
    sequences_checked: int = 0

    def __bool__(self) -> bool:
        return self.holds


def check_distributivity(structure, x, rounds: int, width: Optional[int],
                         variant: str = PLAIN,
                         maximal: bool = True) -> DistributivityResult:
    """Holds iff every length-``rounds`` sequence of cut moves on ``x``
    admits a branch: one pick per move whose running meet with ``x`` passes
    the variant's test.  ``plain`` needs every prefix and the whole pick set
    bounded/positive, ``uniform`` only the proper prefixes, ``ideal_weak``
    positive proper prefixes plus a nonempty total.

    One depth-first pass over the sequence prefixes, in move order, carries
    the live set: the meets of the prefix's branches that pass the prefix
    test.  Whether a prefix's extensions all admit branches depends on its
    length and live set alone, so a pair searched before without failing
    counts its ``len(moves) ** rounds_left`` sequences unwalked.  The last
    move only asks whether some live core meets some pick in a core that
    passes.  The failing sequence is the first in move order, and
    ``sequences_checked`` counts the sequences up to it, or all of them.

    Moves and sequences are each capped at ``SEQUENCE_BUDGET``; more rounds
    than the recursion limit allows is a ``CapacityError`` that names them.
    The ablation mode (``maximal=False``) admits non-maximal families, where
    branchless sequences exist at finite scale.
    """
    initial, down, small = _core_space(structure, x)
    dies = Memo(small.__contains__)  # core -> core in small
    _check_rounds(rounds)
    if variant not in (PLAIN, UNIFORM, IDEAL_WEAK):
        raise ValidationError(f"unknown variant {variant!r}")
    moves = enumerate_cut_moves(structure, x, width, maximal, SEQUENCE_BUDGET)
    picks = [m if down is None else tuple(down[p] for p in m) for m in moves]
    reach = [reduce(or_, masks) for masks in picks]
    last = rounds - 1
    checked = 0
    searched: set = set()
    seq: list = []

    def cover(count: int) -> None:
        nonlocal checked
        checked += count
        if checked > SEQUENCE_BUDGET:
            # where the per-sequence count first passes the budget
            raise CapacityError("sequence search exceeded the budget",
                                {"sequences_checked": SEQUENCE_BUDGET + 1})

    def first_failing(live: frozenset) -> Optional[int]:
        """The index of the first move that, played last, leaves no branch:
        no live core meets a pick of it in a core that passes; or None."""
        if variant == UNIFORM:
            return None if live else 0
        if variant == IDEAL_WEAK or down is not None:
            # a nonzero meet: some live point lies in some pick
            alive = 0
            for c in live:
                alive |= c
            return next((i for i, r in enumerate(reach) if not r & alive),
                        None)
        return next((i for i, masks in enumerate(picks)
                     if all(dies[c & p] for p in masks for c in live)), None)

    def rec(level: int, live: frozenset):
        key = (level, live)
        if key in searched:
            cover(len(moves) ** (rounds - level))
            return None
        if level == last:
            i = first_failing(live)
            if i is not None:
                cover(i + 1)
                return [*seq, moves[i]]
            cover(len(moves))
        else:
            for move, masks in zip(moves, picks):
                seq.append(move)
                bad = rec(level + 1, frozenset([
                    core for p in masks for c in live
                    if not dies[core := c & p]]))
                if bad is not None:
                    return bad
                seq.pop()
        searched.add(key)
        return None

    # one frame per round
    with depth_limited(rounds, "check distributivity",
                       lambda: {"sequences_checked": checked}):
        failing = rec(0, frozenset([initial]))
    return DistributivityResult(failing is None, failing, checked)


def precipitous_analog(ideal: MonotoneFamily, rounds: int) -> bool:
    """Weak unbounded-width distributivity over every positive starting set."""
    _check_rounds(rounds)
    report = validate_family(ideal)
    if isinstance(ideal, Ideal) and not report.ok:
        raise ValidationError(f"not a proper ideal: {report.violation}")
    for x in positives_below(ideal, ideal.ground.full_mask):
        if not check_distributivity(ideal, x, rounds, None, IDEAL_WEAK):
            return False
    return True


# ---------------------------------------------------------------------------
# Threshold scans
# ---------------------------------------------------------------------------

@dataclass
class ThresholdRow:
    rounds: int
    minimal_choose_win: Optional[int]


def threshold_scan(nu: int, n_range: Iterable[int], m_range: Iterable[int],
                   variant: str = EXACT) -> list[ThresholdRow]:
    """Minimal ground size where the picker wins the width-``nu`` partition
    game with the size-at-most-``SCAN_BOUND`` family, per round count."""
    ms = sorted(m_range)
    rows = []
    for n in sorted(n_range):
        minimal = None
        for m in ms:
            ground = GroundSet(m)
            family = MonotoneFamily.size_at_most(ground, SCAN_BOUND)
            if not is_positive(family, ground.full_mask):
                continue
            inst = GameInstance(game_family=U, start=ground.full_mask,
                                rounds=n, width=nu, variant=variant,
                                ground=ground, family=family)
            if solve(inst, want_strategy=False).winner == CHOOSE:
                minimal = m
                break
        rows.append(ThresholdRow(n, minimal))
    return rows


# ---------------------------------------------------------------------------
# Equivalence audit
# ---------------------------------------------------------------------------

@dataclass
class AuditRow:
    row_id: str
    description: str
    left: object
    right: object
    left_provenance: str
    right_provenance: str
    note: str = ""

    @property
    def applicable(self) -> bool:
        return self.left != NOT_APPLICABLE

    @property
    def agree(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return self.left == self.right


@dataclass
class AuditReport:
    instance: GameInstance
    rows: list[AuditRow] = field(default_factory=list)

    @property
    def disagreements(self) -> list[AuditRow]:
        return [r for r in self.rows if r.agree is False]


def _solve_winner(inst: GameInstance) -> str:
    return solve(inst, want_strategy=False).winner


def equivalence_audit(inst: GameInstance) -> AuditReport:
    """Evaluate every applicable characterization row on both sides by
    independent computation, and report the agreements."""
    report = AuditReport(inst)
    rows = report.rows
    if inst.game_family in engine.MASK_GAMES:
        _audit_mask_instance(inst, rows)
    else:
        _audit_poset_instance(inst, rows)
    return report


def _distributivity_row(inst: GameInstance, rows: list, row_id: str,
                        description: str, game_family: str, game_variant: str,
                        check_variant: str) -> None:
    """The solver's winner of the generalized game that cuts the start set
    against the independent checker at the instance's width: the cutter
    wins iff distributivity in ``check_variant`` fails."""
    game = replace(inst, game_family=game_family, variant=game_variant,
                   cut_current=False, maximal=True)
    left = _solve_winner(game) == CUT
    dist = check_distributivity(inst.structure, inst.start, inst.rounds,
                                inst.width, check_variant)
    rows.append(AuditRow(row_id, description, left, not dist.holds,
                         "solver", "checker"))


def _bridge_rows(inst: GameInstance, rows: list) -> str:
    """The Banach-Mazur bridge: the set (or descent) game, from the full set
    where it is positive or a poset's top, else from the instance's start,
    against ``engine.bridge_game`` at each positive subset of the ground
    (which covers algebras) or each poset element.  Appends both rows and
    returns the Banach-Mazur winner."""
    poset = inst.poset
    if poset is not None:
        top, starts = poset.top, range(poset.size)
    else:
        full = inst.ground.full_mask
        top = full if is_positive(inst.family, full) else None
        starts = positives_below(inst.family, full)
    sets = inst.game_family in engine.MASK_GAMES
    bm = replace(inst, game_family=BM_IDEAL if sets else BM_POSET,
                 variant=EXACT, width=None, cut_current=True, maximal=True,
                 start=inst.start if top is None else top)
    bm_winner = _solve_winner(bm)
    winners = [_solve_winner(engine.bridge_game(bm, x)) for x in starts]
    game, bridge, closure_row = (
        ("set", "weak unbounded generalized", "bm_nonempty_vs_picker") if sets
        else ("descent", "unbounded antichain", "strategic_closure"))
    rows.append(AuditRow("bm_empty_vs_cutter",
                         f"emptier wins the {game} game iff the cutter wins "
                         f"the {bridge} game somewhere",
                         bm_winner == EMPTY, any(w == CUT for w in winners),
                         "solver", "solver"))
    rows.append(AuditRow(closure_row,
                         f"survivor wins the {game} game iff the picker wins "
                         f"the {bridge} game everywhere",
                         bm_winner == NONEMPTY,
                         all(w == CHOOSE for w in winners),
                         "solver", "solver"))
    return bm_winner


def _audit_mask_instance(inst: GameInstance, rows: list) -> None:
    family = inst.family
    singleton_family = family.kind == "size_at_most" and family.bound == 1

    # Counting-law rows for the singleton family.
    if inst.game_family == U and singleton_family:
        exact = replace(inst, variant=EXACT)
        left = _solve_winner(exact) == CUT
        right = popcount(inst.start) <= inst.width ** inst.rounds
        rows.append(AuditRow("cutter_threshold_exact",
                             "cutter wins the exact partition game iff the "
                             "ground fits width**rounds",
                             left, right, "solver", "formula"))
        weak = replace(inst, variant=WEAK)
        rows.append(AuditRow("cutter_threshold_weak",
                             "weak-variant winner agrees with the naive "
                             "oracle",
                             _solve_winner(weak) == CUT,
                             reference_winner(weak) == CUT,
                             "solver", "checker"))
    else:
        rows.append(AuditRow("cutter_threshold_exact",
                             "counting law needs the singleton family",
                             NOT_APPLICABLE, NOT_APPLICABLE, "-", "-"))

    _distributivity_row(inst, rows, "ideal_distributivity_weak",
                        "cutter wins the weak generalized game iff the "
                        "family fails weak distributivity at this width",
                        G_IDEAL, WEAK, IDEAL_WEAK)
    bm_winner = _bridge_rows(inst, rows)

    # Precipitousness analog and the quotient consistency (proper ideals).
    if isinstance(family, Ideal) and validate_family(family).ok:
        rows.append(AuditRow("precipitous_analog",
                             "weak unbounded distributivity iff the emptier "
                             "does not win the set game",
                             precipitous_analog(family, inst.rounds),
                             bm_winner != EMPTY, "checker", "solver"))
        quotient = quotient_algebra(inst.ground, family)
        g_exact = replace(inst, game_family=G_IDEAL, variant=EXACT,
                          cut_current=False, maximal=True)
        q_start = quotient.project(inst.start)
        q_inst = GameInstance(game_family=G_POSET, start=q_start,
                              rounds=inst.rounds, width=inst.width,
                              variant=EXACT, cut_current=False,
                              algebra=quotient.algebra)
        rows.append(AuditRow("quotient_same_game",
                             "generalized game on the family and on its "
                             "quotient algebra have the same winner",
                             _solve_winner(g_exact),
                             _solve_winner(q_inst),
                             "solver", "solver"))
    else:
        rows.append(AuditRow("precipitous_analog",
                             "needs a proper ideal", NOT_APPLICABLE,
                             NOT_APPLICABLE, "-", "-"))

    rows.append(AuditRow("weak_compactness_row",
                         "full-length games have no finite content",
                         NOT_APPLICABLE, NOT_APPLICABLE, "-", "-"))


def _audit_poset_instance(inst: GameInstance, rows: list) -> None:
    _distributivity_row(inst, rows, "poset_distributivity",
                        "cutter wins the antichain game iff distributivity "
                        "fails at this width", G_POSET, EXACT, PLAIN)
    _distributivity_row(inst, rows, "poset_uniform_distributivity",
                        "cutter wins the prefix-variant game iff uniform "
                        "distributivity fails", G_POSET, STRICT_PREFIX,
                        UNIFORM)
    _bridge_rows(inst, rows)


# ---------------------------------------------------------------------------
# Maximality ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationReport:
    pieces: tuple
    cutter_verified: bool
    restored_winner: str


def _disjoint_positive_pair(family: MonotoneFamily,
                            x: int) -> Optional[tuple[int, int]]:
    for a in positives_below(family, x):
        for b in positives_below(family, x & ~a):
            return a, b
    return None


def maximality_ablation(inst: GameInstance) -> AblationReport:
    """With the maximality filter off, the cutter splits off two disjoint
    positive pieces and then forces the one the picker avoided; the running
    intersection dies in two rounds.  Restoring the filter flips the winner.
    """
    if inst.game_family != G_IDEAL or inst.maximal:
        raise ValidationError("ablation needs a generalized ideal game with "
                              "the maximality filter off")
    if inst.cut_current:
        raise ValidationError("ablation uses the cut-the-start convention")
    if inst.rounds < 2:
        raise ValidationError("the forcing construction needs two rounds")
    pair = _disjoint_positive_pair(inst.family, inst.start)
    if pair is None:
        raise ValidationError("start does not split into two disjoint "
                              "positive pieces")
    a, b = pair
    family = inst.family

    def decide(inst_, state):
        if state.round == 0:
            return tuple(sorted_masks((a, b)))
        if (a & state.core) in family:
            return (a,)
        if (b & state.core) in family:
            return (b,)
        return tuple(sorted_masks((a, b)))

    sigma = FunctionStrategy(CUT, decide, "ablation-forcing")
    verified = verify_winning_strategy(inst, sigma, CUT).verified
    restored = replace(inst, maximal=True)
    return AblationReport((a, b), verified,
                          solve(restored, want_strategy=False).winner)


# ---------------------------------------------------------------------------
# Seeded corpus
# ---------------------------------------------------------------------------

@dataclass
class CorpusInstance:
    instance_id: str
    instance: GameInstance


def _random_family(rng: random.Random, ground: GroundSet,
                   want_ideal: bool) -> MonotoneFamily:
    m = ground.size
    if not want_ideal and rng.random() < 0.5:
        k = rng.choice([1, 1, 2])
        if k >= m:
            k = 1
        return MonotoneFamily.size_at_most(ground, k)
    cls = Ideal if want_ideal else MonotoneFamily
    while True:
        count = rng.randint(1, 2)
        gens = []
        for _ in range(count):
            size = rng.randint(1, max(1, m // 2))
            gens.append(sum(1 << p for p in rng.sample(range(m), size)))
        union = 0
        for g in gens:
            union |= g
        if want_ideal:
            # Principal closure keeps union closure; properness needs slack.
            if union != ground.full_mask:
                return cls.generated_by(ground, [union])
        else:
            if union != ground.full_mask:
                return cls.generated_by(ground, gens)


def _random_poset(rng: random.Random):
    """Either a small powerset algebra or a set-labelled poset with a top."""
    if rng.random() < 0.5:
        atoms = rng.randint(2, 4)
        return FiniteBooleanAlgebra(GroundSet(atoms))
    base = rng.randint(3, 4)
    full = (1 << base) - 1
    count = rng.randint(3, min(10, (1 << base) - 2))
    labels = rng.sample([s for s in range(1, full)], count)
    labels = sorted(set(labels))
    labels.append(full)
    return FinitePoset.from_subsets(labels, len(labels) - 1)


def _instance_fits(inst: GameInstance) -> bool:
    """Capacity probe: root move count, the audit's unbounded-width move
    space, and the sequence space the distributivity checkers will walk,
    each within ``CORPUS_PROBE_BUDGET``.  The cheapest test goes first: the
    root moves are enumerated anyway, the unbounded i-partitions cost most.
    """
    budget = CORPUS_PROBE_BUDGET
    try:
        moves = engine.legal_moves(inst, engine.initial_state(inst))
        if not moves or len(moves) ** inst.rounds > budget:
            return False
        checker_moves = enumerate_cut_moves(inst.structure, inst.start,
                                            inst.width, True, budget)
        if len(checker_moves) ** inst.rounds > budget:
            return False
        if inst.game_family in engine.MASK_GAMES:
            enumerate_cut_moves(inst.family, inst.start, None, True, budget)
    except CapacityError:
        return False
    return True


def generate_corpus(seed: int, per_family: int = 25) -> list[CorpusInstance]:
    """Deterministic seeded instance corpus, ``per_family`` instances for
    each game family, capacity-probed so audits stay inside budget."""
    rng = random.Random(seed)
    out: list[CorpusInstance] = []
    for game_family in (U, G_IDEAL, G_POSET, BM_IDEAL, BM_POSET):
        made = 0
        while made < per_family:
            inst = _draw_instance(rng, game_family)
            if inst is None or not _instance_fits(inst):
                continue
            out.append(CorpusInstance(f"{game_family}-{made:03d}", inst))
            made += 1
    return out


def _draw_instance(rng: random.Random, game_family: str):
    """The structure, then the game's parameters, each drawn once per kind
    in a fixed order; None where the draw is no game."""
    try:
        if game_family in engine.MASK_GAMES:
            ground = GroundSet(rng.randint(
                3, {U: 8, G_IDEAL: 6, BM_IDEAL: 5}[game_family]))
            family = _random_family(rng, ground, want_ideal=rng.random() < (
                0.6 if game_family == BM_IDEAL else 0.4))
            if not is_positive(family, ground.full_mask):
                return None
            where = {"start": ground.full_mask, "ground": ground,
                     "family": family}
            # unbounded width only on grounds of at most five points
            unbounded = None if ground.size <= 5 else 3
        else:
            structure = _random_poset(rng)
            where = {"start": structure.top,
                     "algebra" if isinstance(structure, FiniteBooleanAlgebra)
                     else "poset": structure}
            unbounded = None
        if game_family == U:
            game = dict(rounds=rng.randint(1, 3), width=rng.choice([2, 2, 3]),
                        variant=rng.choice([EXACT, EXACT, WEAK,
                                            STRICT_PREFIX]))
        elif game_family in (G_IDEAL, G_POSET):
            game = dict(rounds=rng.randint(1, 2),
                        width=rng.choice([2, 3, unbounded]),
                        variant=rng.choice([EXACT, EXACT, WEAK]),
                        cut_current=rng.random() < 0.5)
        else:
            game = dict(rounds=rng.randint(1, 3), width=None)
        return GameInstance(game_family=game_family, **where, **game)
    except ValidationError:
        return None
