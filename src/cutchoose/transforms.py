"""Constructive strategy transformations with machine-checkable certificates.

Each transformation turns a strategy for one game into a strategy for a
related game by replaying an auxiliary run of the source game inside every
playout of the target game.  Output strategies are pure functions of the
visible history (the referee hands the full history to ``decide``, including
the cut move currently awaiting a pick).  The auxiliary run is one immutable
``_Run`` value -- instance, position, history -- extended move by move with
``then`` and queried with ``ask``, and each transformation builds it as a
prefix fold, ``_Fold``: a ``step`` extends the run by one entry of the
history (or of the part of it the transformation reads, such as the picks
alone), and every prefix's result is kept in a memo that lives as long as
the ``TransformOutput`` does.  A walk over the output strategy's tree thus
steps each auxiliary stage once, and ``decide`` answers from the stage its
history reaches; the cutters that play each auxiliary cut as a block of
target cuts share one such fold, ``_block_cutter``.  A ``certify`` hook
folds a finished transcript the same way, then replays the auxiliary run
from the start against the source strategy (never through the memo) and
checks the declared relation between the runs -- containment or equality
of cores -- raising ``TransformSoundnessError`` only for genuine
bookkeeping violations, never for mere game losses.

Length bookkeeping is explicit: where an auxiliary move expands into several
target moves, round counts double or multiply, since the ordinal absorption
identities have no finite counterpart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .engine import (BM_IDEAL, CHOOSE, CUT, DEFAULT_NODE_BUDGET, EMPTY, EXACT,
                     G_IDEAL, G_POSET, NONEMPTY, U, WEAK, FunctionStrategy,
                     GameInstance, GameState, Strategy, TableStrategy,
                     Transcript, apply_move, core_positive,
                     enumerate_playouts, initial_state, sorted_pieces,
                     terminal_status, validate_move)
from .engine import fixed_point_choose_strategy  # re-exported: same toolbox
from .errors import (CapacityError, SigmaSearchError, TransformSoundnessError,
                     ValidationError)
from .structures import (FiniteBooleanAlgebra, GroundSet, IPartition,
                         MonotoneFamily, format_mask, full_disjointification,
                         is_positive, mask_elements, mask_key, popcount,
                         sorted_masks, submasks)


# Cap on the strategy queries of one ``cut_strategy_to_witness`` call.
WITNESS_BUDGET = 200_000

__all__ = [
    "TransformCertificate", "TransformOutput", "certify_playouts",
    "digit_split_cut_strategy", "fixed_point_choose_strategy",
    "restrict_choose_strategy", "disjointify_cut_strategy",
    "disjointify_choose_strategy", "factor_antichain", "FactorResult",
    "transfer_cut_big_to_small", "transfer_choose_small_to_big",
    "witness_to_cut_strategy", "cut_strategy_to_witness",
    "witness_to_empty_strategy", "empty_to_cut_strategy",
    "nonempty_to_choose_strategy", "choose_to_nonempty_strategy",
]


@dataclass
class TransformCertificate:
    kind: str
    relation: str
    holds: bool
    output_run: Transcript
    aux_moves: list
    details: dict = field(default_factory=dict)


@dataclass
class TransformOutput:
    kind: str
    instance: GameInstance
    strategy: Strategy
    certify: Callable[[Transcript], TransformCertificate]
    aux_instance: Optional[GameInstance] = None


def certify_playouts(out: TransformOutput,
                     node_budget: int = DEFAULT_NODE_BUDGET
                     ) -> list[TransformCertificate]:
    """Certificates for every playout of the output strategy against all
    canonical adversary lines."""
    runs = enumerate_playouts(out.instance, out.strategy, out.strategy.role,
                              node_budget)
    return [out.certify(t) for t in runs]


def _union(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u


def _cut_entries(history: Sequence) -> list:
    return [e for e in history if e[0] == CUT]


class _Run(NamedTuple):
    """A run of an auxiliary game: its instance, the position reached and the
    ``(role, move)`` history that led there.  Immutable, so a simulation can
    branch from any run it has kept."""
    inst: GameInstance
    state: GameState
    history: tuple

    @classmethod
    def start(cls, inst: GameInstance) -> "_Run":
        return cls(inst, initial_state(inst), ())

    def then(self, move) -> "_Run":
        """The run after the player to move plays ``move`` (unchecked)."""
        return _Run(self.inst,
                    apply_move(self.inst, self.state, move, check=False),
                    self.history + ((self.state.to_move, move),))

    def ask(self, sigma: Strategy):
        return sigma.decide(self.inst, self.state, self.history)


class _Fold:
    """``fold(items) = step(fold(items[:-1]), items[-1])`` with ``fold(())
    = start()``, memoized over a trie of the item sequences seen.

    A call walks down the longest cached prefix and steps forward from
    there, so it is iterative (no depth limit) and each new prefix costs
    one ``step``.  A step that raises caches nothing.  Every longer prefix
    steps from a cached value, so values are immutable: tuples and
    ``_Run``s."""
    __slots__ = ("start", "step", "root")

    def __init__(self, start: Callable[[], object],
                 step: Callable[[object, object], object]):
        self.start, self.step, self.root = start, step, None

    def __call__(self, items: Iterable):
        if self.root is None:
            self.root = (self.start(), {})
        value, children = self.root
        for item in items:
            node = children.get(item)
            if node is None:
                node = children[item] = (self.step(value, item), {})
            value, children = node
        return value


def _block_cutter(start: Callable[[], _Run],
                  expand: Callable[[_Run], tuple],
                  dead_cut: Callable[[], tuple]):
    """The stage of a history and ``decide`` for a cutter that plays each
    auxiliary cut as a block of target cuts.

    The fold reads the history with this cutter's own cuts as ``None``.
    The ``None`` that opens a block calls ``expand(run)``, the one place
    the source is asked: it gives the block's cuts and ``recover(picks)``,
    the auxiliary (cut, pick) the picks stand for, or ``None`` when they
    end the auxiliary run; the cutter then plays ``dead_cut()``.  A stage
    is (run, alive, finished blocks as (cuts, picks, aux), open block as
    (cuts, recover, picks) or ``None``).  ``decide`` folds one cut past its
    history, the stage the next pick extends, and reads the next cut."""

    def step(stage, item):
        run, alive, done, block = stage
        if not alive or (item is None and block is not None):
            return stage
        if item is None:
            cuts, recover = expand(run)
            return run, True, done, (cuts, recover, ())
        cuts, recover, picks = block
        picks += (item,)
        if len(picks) < len(cuts):
            return run, True, done, (cuts, recover, picks)
        aux = recover(picks)
        done += ((cuts, picks, aux),)
        if aux is None:
            return run, False, done, None
        return run.then(aux[0]).then(aux[1]), True, done, None

    stages = _Fold(lambda: (start(), True, (), None), step)

    def fold(history: Sequence):
        return stages(None if role == CUT else move for role, move in history)

    def decide(inst_, state, history):
        _, alive, _, block = fold((*history, (CUT, None)))
        if not alive:
            return dead_cut()
        cuts, _, picks = block
        return cuts[len(picks)]

    return fold, decide


def _forced_pick(sigma: Strategy, run: _Run):
    """Query a picker, resolving degenerate one-piece pending moves without
    consulting it (table strategies only cover enumerated moves)."""
    nonempty = [p for p in run.state.pending if p]
    if len(nonempty) == 1:
        return nonempty[0]
    return run.ask(sigma)


def _replay_aux(inst: GameInstance, moves: Sequence, role: str,
                ask: Callable[[_Run], object],
                details: dict) -> Optional[_Run]:
    """Replay an auxiliary run move by move: each move must be legal, and
    ``ask`` must reproduce every move of ``role``.  The first failure goes
    into ``details`` and gives ``None``."""
    run = _Run.start(inst)
    for mover, move in moves:
        try:
            validate_move(inst, run.state, move)
        except Exception as exc:
            details["illegal_aux"] = str(exc)
            return None
        if mover == role and ask(run) != move:
            details["inconsistent_aux"] = True
            return None
        run = run.then(move)
    return run


def _check_aux_run(inst: GameInstance, moves: Sequence, sigma: Strategy,
                   sigma_role: str, details: dict) -> bool:
    """Legality of an auxiliary run plus consistency with its strategy."""
    run = _replay_aux(inst, moves, sigma_role, lambda r: r.ask(sigma), details)
    if run is None:
        return False
    details["aux_final_core"] = format_mask(run.state.core)
    return True


def _check_aux_run_forced(inst: GameInstance, moves: Sequence,
                          sigma: Strategy, details: dict) -> bool:
    """Like _check_aux_run but picker moves go through _forced_pick."""
    return _replay_aux(inst, moves, inst.picker,
                       lambda r: _forced_pick(sigma, r), details) is not None


def _positives_desc(fam: MonotoneFamily, limit: int) -> list[int]:
    """The positive subsets of ``limit`` in descending mask value, so the
    whole set leads: ``submasks`` already descends."""
    return [s for s in submasks(limit) if s and is_positive(fam, s)]


# ---------------------------------------------------------------------------
# Digit splitting
# ---------------------------------------------------------------------------

def digit_split_instance(m: int, nu: int, n: int) -> GameInstance:
    ground = GroundSet(m)
    return GameInstance(game_family=U, start=ground.full_mask, rounds=n,
                        width=nu, ground=ground,
                        family=MonotoneFamily.size_at_most(ground, 1))


def digit_split_cut_strategy(m: int, nu: int, n: int) -> TransformOutput:
    """Positional cutter: split the core by its least still-splitting base-nu
    digit; after all rounds the core holds at most one point.

    Rejects parameters beyond the counting threshold m <= nu**n.
    """
    if nu < 2 or n < 1:
        raise ValidationError("need nu >= 2 and n >= 1")
    if m > nu ** n:
        raise ValidationError(
            f"digit splitting needs m <= nu**n ({m} > {nu}**{n})")
    inst = digit_split_instance(m, nu, n)

    def decide(inst_, state, history):
        core = state.core
        elems = mask_elements(core)
        if len(elems) == 1:
            return (core,)
        for d in range(n):
            groups: dict[int, int] = {}
            for x in elems:
                groups.setdefault((x // nu ** d) % nu, 0)
                groups[(x // nu ** d) % nu] |= 1 << x
            if len(groups) >= 2:
                return tuple(sorted(groups.values(), key=mask_key))
        return (core,)

    strategy = FunctionStrategy(CUT, decide, f"digit-split-{nu}")

    def certify(t: Transcript) -> TransformCertificate:
        final = t.states[-1].core
        holds = popcount(final) <= 1
        return TransformCertificate("digit_split", "final core has at most one point",
                                    holds, t, [], {"final": format_mask(final)})

    return TransformOutput("digit_split", inst, strategy, certify)


# ---------------------------------------------------------------------------
# Restriction along an embedding
# ---------------------------------------------------------------------------

def _embed_mask(embedding: Sequence[int], mask: int) -> int:
    out = 0
    for i, p in enumerate(embedding):
        if (mask >> i) & 1:
            out |= 1 << p
    return out


def _pullback_mask(embedding: Sequence[int], mask: int) -> int:
    out = 0
    for i, p in enumerate(embedding):
        if (mask >> p) & 1:
            out |= 1 << i
    return out


def restrict_choose_strategy(sigma: Strategy, inner: GameInstance,
                             outer: GameInstance,
                             embedding: Sequence[int]) -> TransformOutput:
    """Transplant a picker strategy to a larger ground: answer each cut by
    intersecting its pieces with the embedded copy and lifting the inner pick.

    Needs partition games with matching parameters and a family that
    restricts along the embedding (a subset is small on the inner ground
    exactly when its image is small on the outer one).
    """
    if inner.game_family != U or outer.game_family != U:
        raise ValidationError("restriction is defined for partition games")
    if (inner.rounds, inner.variant, inner.cut_current) != \
            (outer.rounds, outer.variant, outer.cut_current):
        raise ValidationError("instances must share rounds, variant, convention")
    if inner.width < outer.width:
        raise ValidationError("inner width must cover the outer width")
    emb = tuple(embedding)
    if len(emb) != inner.ground.size or len(set(emb)) != len(emb):
        raise ValidationError("embedding must be injective on the inner ground")
    if any(not (0 <= p < outer.ground.size) for p in emb):
        raise ValidationError("embedding leaves the outer ground")
    if _pullback_mask(emb, outer.start) != inner.start:
        raise ValidationError("outer start must pull back to the inner start")
    for s in range(1 << inner.ground.size):
        if (s in inner.family) != (_embed_mask(emb, s) in outer.family):
            raise ValidationError("family does not restrict along the embedding "
                                  f"(witness {format_mask(s)})")

    def step(stage, entry):
        """One cut entry (the trailing unanswered one too): a cut with two
        or more nonempty inner pieces extends the inner run by their inner
        cut and the inner picker's answer.  The stage is (inner run, the
        outer piece whose counterpart the inner pick is)."""
        run, _ = stage
        pieces = sorted_pieces(outer, entry[1])
        target = run.state.core if inner.cut_current else inner.start
        pb = {p: _pullback_mask(emb, p) & target for p in pieces}
        nonempty = sorted({v for v in pb.values() if v}, key=mask_key)
        if not nonempty:
            return run, pieces[0]
        if len(nonempty) >= 2:
            run = run.then(tuple(nonempty))
            pick = run.ask(sigma)
            run = run.then(pick)
        else:
            pick = nonempty[0]
        for p in pieces:
            if pb[p] == pick:
                return run, p
        raise TransformSoundnessError("inner pick has no outer counterpart")

    stages = _Fold(lambda: (_Run.start(inner), None), step)

    def decide(inst_, state, history):
        return stages(_cut_entries(history))[1]

    strategy = FunctionStrategy(CHOOSE, decide, f"restricted-{sigma.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, _ = stages(_cut_entries(t.moves))
        details: dict = {}
        holds = _check_aux_run(inner, run.history, sigma, CHOOSE, details)
        outer_core = t.states[-1].core
        if _pullback_mask(emb, outer_core) != run.state.core:
            holds = False
            details["pullback_mismatch"] = (format_mask(outer_core),
                                            format_mask(run.state.core))
        details["outer_core"] = format_mask(outer_core)
        details["inner_core"] = format_mask(run.state.core)
        return TransformCertificate(
            "restrict_choose", "outer core pulls back to the inner core",
            holds, t, list(run.history), details)

    return TransformOutput("restrict_choose", outer, strategy, certify, inner)


# ---------------------------------------------------------------------------
# Disjointification
# ---------------------------------------------------------------------------

def _doubled_instance(g_inst: GameInstance) -> GameInstance:
    size = popcount(g_inst.start)
    width = max(2, size if g_inst.width is None else min(g_inst.width, size))
    return GameInstance(game_family=U, start=g_inst.start,
                        rounds=2 * g_inst.rounds, width=width,
                        variant=g_inst.variant, cut_current=False,
                        ground=g_inst.ground, family=g_inst.family)


def _require_g_ideal(g_inst: GameInstance, op: str) -> None:
    if g_inst.game_family != G_IDEAL:
        raise ValidationError(f"{op} needs a generalized-cut ideal game")
    if g_inst.cut_current:
        raise ValidationError(f"{op} uses the cut-the-start convention")


def _disjointify_move(g_inst: GameInstance, w_move: tuple):
    """(sorted sources, refined pieces aligned with them, played partition,
    cover-versus-remainder split, cover).

    The split is canonically ordered when both pieces are nonempty so that it
    matches the move enumeration; a vacuous remainder stays in second place.
    """
    sources = sorted_masks(w_move)
    refined = full_disjointification(
        IPartition(g_inst.start, tuple(sources), g_inst.family))
    played = tuple(sorted_masks(p for p in refined if p))
    cover = _union(sources)
    rest = g_inst.start & ~cover
    split = tuple(sorted_masks((cover, rest))) if rest else (cover, rest)
    return sources, refined, played, split, cover


def _source_of(sources: list, refined: list, pick: int) -> Optional[int]:
    for alpha, piece in enumerate(refined):
        if piece == pick and piece:
            return sources[alpha]
    return None


def disjointify_cut_strategy(sigma_g: Strategy,
                             g_inst: GameInstance) -> TransformOutput:
    """Cutter transport into the doubled partition game: each generalized
    move becomes its full disjointification followed by the cover-versus-
    remainder split.

    Picking the remainder traps the core in the family, so the auxiliary run
    simply stops there; the certificate checks that the final partition-game
    core sits inside the intersection of the auxiliary picks.
    """
    _require_g_ideal(g_inst, "disjointify_cut_strategy")
    u_inst = _doubled_instance(g_inst)

    def expand(run: _Run):
        """The generalized cutter's move at the run becomes its
        disjointification and the cover split.  The first pick's source is
        the auxiliary pick; the second must take the cover, or the
        auxiliary run stops for good."""
        w_move = run.ask(sigma_g)
        sources, refined, played, split, cover = \
            _disjointify_move(g_inst, w_move)

        def recover(picks):
            g_pick = _source_of(sources, refined, picks[0])
            if picks[1] == cover and g_pick is not None:
                return w_move, g_pick
            return None

        return (played, split), recover

    stages, decide = _block_cutter(lambda: _Run.start(g_inst), expand,
                                   lambda: (g_inst.start,))
    strategy = FunctionStrategy(CUT, decide, f"disjointified-{sigma_g.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, alive, _, _ = stages(t.moves)
        details: dict = {"aux_rounds": len(run.history) // 2, "alive": alive}
        holds = _check_aux_run(g_inst, run.history, sigma_g, CUT, details)
        final = t.states[-1].core
        inter = g_inst.start
        for role, mv in run.history:
            if role == CHOOSE:
                inter &= mv
        if final & ~inter:
            holds = False
            details["core_escape"] = format_mask(final & ~inter)
        if not alive and core_positive(u_inst, final) and \
                not terminal_status(u_inst, t.states[-1]).ongoing:
            holds = False
            details["dead_but_positive"] = format_mask(final)
        details["u_core"] = format_mask(final)
        details["aux_pick_core"] = format_mask(inter)
        return TransformCertificate(
            "disjointify_cut",
            "final partition core inside the auxiliary picks",
            holds, t, list(run.history), details)

    return TransformOutput("disjointify_cut", u_inst, strategy, certify, g_inst)


def disjointify_choose_strategy(sigma_u: Strategy,
                                g_inst: GameInstance) -> TransformOutput:
    """Picker transport out of the doubled partition game: feed the
    disjointification and the cover split to the partition picker, answer
    with the source piece of its first pick.

    A winning partition picker transports: its picks must go through the
    cover each round, and then the generalized core contains the auxiliary
    core outright.
    """
    _require_g_ideal(g_inst, "disjointify_choose_strategy")
    u_inst = _doubled_instance(g_inst)

    def step(stage, entry):
        """One cut entry (the trailing unanswered one too): the auxiliary
        partition game plays its disjointification and cover split.  The
        stage keeps the blocks so far, the start trimmed by each block's
        pick within its cover, the blocks whose cover was not picked, and
        the source piece of the latest pick.

        Only real moves (two or more nonempty pieces) are fed; a one-piece
        move forces its pick without touching the auxiliary run, so table
        strategies are only consulted at positions the enumerated game can
        reach."""
        run, blocks, trimmed, degenerate, _ = stage
        sources, refined, played, split, cover = \
            _disjointify_move(g_inst, entry[1])
        if len(played) >= 2:
            run = run.then(played)
            y = _forced_pick(sigma_u, run)
            run = run.then(y)
        else:
            y = played[0]
        if 0 not in split:
            run = run.then(split)
            p2 = _forced_pick(sigma_u, run)
            run = run.then(p2)
        else:
            p2 = cover
        src = _source_of(sources, refined, y)
        if src is None:
            raise TransformSoundnessError(
                "auxiliary pick is not a disjointification piece")
        return (run, blocks + 1, trimmed & y & cover,
                degenerate + (p2 != cover), src)

    stages = _Fold(lambda: (_Run.start(u_inst), 0, g_inst.start, 0, None),
                   step)

    def decide(inst_, state, history):
        *_, src = stages(_cut_entries(history))
        return src

    strategy = FunctionStrategy(CHOOSE, decide,
                                f"disjointified-{sigma_u.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, blocks, trimmed, degenerate, _ = stages(_cut_entries(t.moves))
        details: dict = {"blocks": blocks}
        holds = _check_aux_run_forced(u_inst, run.history, sigma_u, details)
        g_core = t.states[-1].core
        if trimmed & ~g_core:
            holds = False
            details["relation_violated"] = format_mask(trimmed & ~g_core)
        details["g_core"] = format_mask(g_core)
        details["trimmed_aux_core"] = format_mask(trimmed)
        details["aux_core"] = format_mask(run.state.core)
        details["degenerate_cover_picks"] = degenerate
        return TransformCertificate(
            "disjointify_choose",
            "generalized core contains the trimmed auxiliary picks",
            holds, t, list(run.history), details)

    return TransformOutput("disjointify_choose", g_inst, strategy, certify,
                           u_inst)


# ---------------------------------------------------------------------------
# Antichain factorization and width transfer
# ---------------------------------------------------------------------------

@dataclass
class FactorResult:
    levels: list[tuple]      # beta maximal antichains of size <= nu
    level_sup: list[dict]    # per level: digit -> sup of its code class

    def recover(self, code: Sequence[int]) -> int:
        out = -1
        for i, digit in enumerate(code):
            out &= self.level_sup[i].get(digit, 0)
        return max(out, 0) if out != -1 else 0


def factor_antichain(algebra: FiniteBooleanAlgebra, x: int, w: Sequence[int],
                     nu: int, beta: int) -> FactorResult:
    """Split one maximal antichain of size at most nu**beta below x into beta
    maximal antichains of size at most nu, recoverable by infima.

    Verifies the three identities on the spot: every level is a maximal
    antichain below x, infima recover the original elements (zero exactly on
    unused codes), and distinct codes give incompatible infima.
    """
    if beta < 1:
        raise ValidationError("beta must be >= 1")
    if nu < 2:
        raise ValidationError("nu must be >= 2")
    pieces = sorted_masks(w)
    if len(pieces) > nu ** beta:
        raise ValidationError(f"antichain of size {len(pieces)} exceeds "
                              f"nu**beta = {nu ** beta}")
    if not algebra.is_maximal_antichain_below(x, pieces):
        raise ValidationError("input is not a maximal antichain below x")
    codes = {piece: code for piece, code in
             zip(pieces, itertools.product(range(nu), repeat=beta))}
    level_sup: list[dict] = []
    levels: list[tuple] = []
    for i in range(beta):
        sups: dict[int, int] = {}
        for piece, code in codes.items():
            sups[code[i]] = sups.get(code[i], 0) | piece
        level_sup.append(sups)
        levels.append(tuple(sorted_masks(v for v in sups.values() if v)))
    result = FactorResult(levels, level_sup)
    for level in levels:
        if not algebra.is_maximal_antichain_below(x, level):
            raise TransformSoundnessError(
                "factor level is not a maximal antichain below x")
    recovered = {}
    for code in itertools.product(range(nu), repeat=beta):
        rec = result.recover(code)
        recovered[code] = rec
        expected = next((p for p, c in codes.items() if c == code), 0)
        if rec != expected:
            raise TransformSoundnessError(
                f"recovery failed for code {code}: got {format_mask(rec)}, "
                f"expected {format_mask(expected)}")
    nonzero = [(c, r) for c, r in recovered.items() if r]
    for i, (c1, r1) in enumerate(nonzero):
        for c2, r2 in nonzero[i + 1:]:
            if r1 & r2:
                raise TransformSoundnessError(
                    f"codes {c1} and {c2} have compatible infima")
    return result


def _require_algebra_g(inst: GameInstance, op: str, nu: int,
                       beta: int) -> None:
    if inst.game_family != G_POSET or inst.algebra is None:
        raise ValidationError(f"{op} needs an antichain game on an algebra")
    if inst.cut_current:
        raise ValidationError(f"{op} uses antichains below the start")
    if nu < 2 or beta < 1:
        raise ValidationError(f"{op} needs nu >= 2 and beta >= 1")


def _algebra_g_instance(base: GameInstance, width: Optional[int],
                        rounds: int) -> GameInstance:
    return GameInstance(game_family=G_POSET, start=base.start, rounds=rounds,
                        width=width, variant=base.variant, cut_current=False,
                        algebra=base.algebra)


def _code_of(factor: FactorResult, picks: Sequence[int]) -> Optional[tuple]:
    code = []
    for lvl, pick in enumerate(picks):
        digit = next((d for d, s in factor.level_sup[lvl].items()
                      if s == pick), None)
        if digit is None:
            return None
        code.append(digit)
    return tuple(code)


def transfer_cut_big_to_small(sigma_big: Strategy, big_inst: GameInstance,
                              nu: int, beta: int) -> TransformOutput:
    """Simulate one wide-antichain cutter move by beta narrow moves.

    The picks across a block recover, by infimum, a unique element of the
    wide antichain, fed back as the auxiliary pick.  A block whose picks have
    zero infimum already dooms the picker; the cutter fills the remaining
    rounds with the trivial antichain.
    """
    _require_algebra_g(big_inst, "transfer_cut_big_to_small", nu, beta)
    if big_inst.width != nu ** beta:
        raise ValidationError("wide instance must have width nu**beta")
    small_inst = _algebra_g_instance(big_inst, nu, big_inst.rounds * beta)
    algebra = big_inst.algebra

    def expand(run: _Run):
        """The wide move the cutter makes at the run, as its beta factored
        levels.  The block's picks recover the auxiliary pick, or a zero
        infimum stops the run for good."""
        w_big = run.ask(sigma_big)
        factor = factor_antichain(algebra, big_inst.start, w_big, nu, beta)

        def recover(picks):
            code = _code_of(factor, picks)
            rec = factor.recover(code) if code else 0
            return (w_big, rec) if rec else None

        return tuple(factor.levels), recover

    stages, decide = _block_cutter(lambda: _Run.start(big_inst), expand,
                                   lambda: (small_inst.start,))
    strategy = FunctionStrategy(CUT, decide, f"narrowed-{sigma_big.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, alive, done, block = stages(t.moves)
        details: dict = {"blocks": len(done) + (block is not None),
                         "alive": alive}
        holds = _check_aux_run(big_inst, run.history, sigma_big, CUT, details)
        small_core = small_inst.start
        big_core = big_inst.start
        for _, picks, aux in done:
            for p in picks:
                small_core &= p
            if aux:
                big_core &= aux[1]
                if small_core != big_core:
                    holds = False
                    details["boundary_mismatch"] = (format_mask(small_core),
                                                    format_mask(big_core))
            else:
                if small_core != 0:
                    holds = False
                    details["dead_block_nonzero"] = format_mask(small_core)
                break
        details["small_core"] = format_mask(small_core)
        details["big_core"] = format_mask(big_core)
        return TransformCertificate(
            "transfer_cut_big_to_small",
            "narrow and auxiliary cores agree at block boundaries",
            holds, t, list(run.history), details)

    return TransformOutput("transfer_cut_big_to_small", small_inst, strategy,
                           certify, big_inst)


def transfer_choose_small_to_big(sigma_small: Strategy,
                                 small_inst: GameInstance, nu: int,
                                 beta: int) -> TransformOutput:
    """Answer one wide antichain by running the narrow-game picker through
    the beta factored levels and replying with the recovered element.

    A winning narrow picker transports: its final meet is nonzero, so every
    block infimum is nonzero and every recovered reply legal; the cores agree
    at block boundaries.
    """
    _require_algebra_g(small_inst, "transfer_choose_small_to_big", nu, beta)
    if small_inst.width != nu:
        raise ValidationError("narrow instance must have width nu")
    if small_inst.rounds % beta:
        raise ValidationError("narrow round count must be divisible by beta")
    big_inst = _algebra_g_instance(small_inst, nu ** beta,
                                   small_inst.rounds // beta)
    algebra = small_inst.algebra

    def step(stage, entry):
        """One wide cut (the trailing unanswered one too): the narrow picker
        answers its beta factored levels, and the reply is the element its
        picks recover (the first piece when they recover nothing).  The
        stage counts the blocks and those that recovered nothing."""
        run, blocks, dead, _ = stage
        factor = factor_antichain(algebra, big_inst.start, entry[1], nu, beta)
        picks = []
        for level in factor.levels:
            run = run.then(level)
            pick = run.ask(sigma_small)
            run = run.then(pick)
            picks.append(pick)
        code = _code_of(factor, picks)
        rec = factor.recover(code) if code else 0
        return (run, blocks + 1, dead + (not rec),
                rec if rec else sorted_masks(entry[1])[0])

    stages = _Fold(lambda: (_Run.start(small_inst), 0, 0, None), step)

    def decide(inst_, state, history):
        *_, reply = stages(_cut_entries(history))
        return reply

    strategy = FunctionStrategy(CHOOSE, decide, f"widened-{sigma_small.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, blocks, dead, _ = stages(_cut_entries(t.moves))
        details: dict = {"blocks": blocks, "dead_blocks": dead}
        holds = _check_aux_run(small_inst, run.history, sigma_small, CHOOSE,
                               details)
        small_core = run.state.core
        big_core = t.states[-1].core
        if details["dead_blocks"]:
            if small_core & ~big_core:
                holds = False
                details["relation_violated"] = True
        elif small_core != big_core:
            holds = False
            details["boundary_mismatch"] = (format_mask(small_core),
                                            format_mask(big_core))
        details["small_core"] = format_mask(small_core)
        details["big_core"] = format_mask(big_core)
        return TransformCertificate(
            "transfer_choose_small_to_big",
            "wide core equals narrow core at block boundaries",
            holds, t, list(run.history), details)

    return TransformOutput("transfer_choose_small_to_big", big_inst, strategy,
                           certify, small_inst)


# ---------------------------------------------------------------------------
# Witness sequences vs cutter strategies
# ---------------------------------------------------------------------------

def witness_to_cut_strategy(seq: Sequence[tuple],
                            inst: GameInstance) -> TransformOutput:
    """Play a fixed move sequence regardless of the picks.

    Winning exactly when the sequence admits no surviving branch; the
    equivalence is referee-checked in tests against the branch search.
    """
    if inst.cut_current:
        raise ValidationError("witness strategies use the cut-the-start convention")
    if len(seq) < inst.rounds:
        raise ValidationError("sequence shorter than the game")
    opening = _Run.start(inst).state
    for move in seq[:inst.rounds]:
        validate_move(inst, opening, tuple(move))

    def decide(inst_, state, history):
        return tuple(seq[state.round])

    strategy = FunctionStrategy(CUT, decide, "witness-sequence")

    def certify(t: Transcript) -> TransformCertificate:
        played = [move for role, move in t.moves if role == CUT]
        holds = played == [tuple(seq[i]) for i in range(len(played))]
        return TransformCertificate("witness_to_cut",
                                    "moves follow the sequence", holds, t,
                                    played, {})

    return TransformOutput("witness_to_cut", inst, strategy, certify)


def cut_strategy_to_witness(sigma: Strategy,
                            inst: GameInstance) -> list[tuple]:
    """Collapse a cutter strategy into one non-adaptive move sequence, asking
    the strategy at most ``WITNESS_BUDGET`` times.

    Level r collects the meets of every consistent pick history with the
    pieces of the strategy's response there; a surviving branch through the
    output corresponds exactly to a pick line defeating the strategy
    (checked exhaustively in tests at small scale).
    """
    if inst.cut_current:
        raise ValidationError("witness construction uses the cut-the-start convention")
    if inst.variant != EXACT:
        raise ValidationError("witness construction is defined for the exact variant")
    if inst.game_family == G_POSET and inst.algebra is None:
        raise ValidationError("witness construction needs meets "
                              "(set or algebra structure)")
    frontier = [_Run.start(inst)]
    positional = isinstance(sigma, TableStrategy)
    seq: list[tuple] = []
    nodes = 0
    for _ in range(inst.rounds):
        pieces: set = set()
        nxt: list[_Run] = []
        nxt_seen: set = set()
        for run in frontier:
            nodes += 1
            if nodes > WITNESS_BUDGET:
                raise CapacityError("witness construction exceeded its budget",
                                    {"nodes": nodes})
            move = run.ask(sigma)
            validate_move(inst, run.state, move)
            cut = run.then(move)
            for y in move:
                picked = cut.then(y)
                if picked.state.core:
                    pieces.add(picked.state.core)
                if positional and picked.state in nxt_seen:
                    continue
                nxt_seen.add(picked.state)
                nxt.append(picked)
        seq.append(tuple(sorted_masks(pieces)))
        frontier = nxt
    return seq


# ---------------------------------------------------------------------------
# Banach-Mazur bridges
# ---------------------------------------------------------------------------

def _require_bm_ideal(inst: GameInstance, op: str) -> None:
    if inst.game_family != BM_IDEAL:
        raise ValidationError(f"{op} needs a set Banach-Mazur game")


def weak_g_instance(bm_inst: GameInstance, start: int) -> GameInstance:
    """The weak, unbounded-width generalized game on ``start`` over the
    family of a set Banach-Mazur game, with the same number of rounds."""
    return GameInstance(game_family=G_IDEAL, start=start,
                        rounds=bm_inst.rounds, width=None, variant=WEAK,
                        cut_current=False, ground=bm_inst.ground,
                        family=bm_inst.family)


def witness_to_empty_strategy(seq: Sequence[tuple],
                              bm_inst: GameInstance) -> TransformOutput:
    """Walk the emptier along a sequence of positive families: at each stage
    intersect the opponent's set with a family piece meeting it positively.

    Maximal families always provide such a piece; when the sequence drops
    maximality the walk can detach (the strategy falls back to copying),
    which the certificate reports -- the finite shadow of why maximality
    matters.
    """
    _require_bm_ideal(bm_inst, "witness_to_empty_strategy")
    if len(seq) < bm_inst.rounds - 1:
        raise ValidationError("sequence too short for the game")
    fam = bm_inst.family

    def walk_pick(idx: int, y: int) -> Optional[int]:
        for x in sorted_masks(seq[idx]):
            if is_positive(fam, y & x):
                return x
        return None

    def decide(inst_, state, history):
        if not history:
            return bm_inst.start
        idx = sum(1 for role, _ in history if role == EMPTY) - 1
        y = history[-1][1]
        x = walk_pick(idx, y)
        return y & x if x is not None else y

    strategy = FunctionStrategy(EMPTY, decide, "witness-walk")

    def certify(t: Transcript) -> TransformCertificate:
        picks: list[Optional[int]] = []
        detach = None
        idx = 0
        for i, (role, move) in enumerate(t.moves):
            if role != EMPTY or i == 0:
                continue
            x = walk_pick(idx, t.moves[i - 1][1])
            picks.append(x)
            if x is None and detach is None:
                detach = idx
            idx += 1
        holds = True
        details: dict = {"detach_stage": detach,
                         "walk": [None if p is None else format_mask(p)
                                  for p in picks]}
        final = t.states[-1].core
        inter = bm_inst.start
        for p in picks:
            if p is None:
                break
            inter &= p
        if detach is None and final & ~inter:
            holds = False
            details["core_escape"] = format_mask(final & ~inter)
        details["walk_core"] = format_mask(inter)
        details["final"] = format_mask(final)
        return TransformCertificate(
            "witness_to_empty", "final core inside the realized walk",
            holds, t, picks, details)

    return TransformOutput("witness_to_empty", bm_inst, strategy, certify)


def empty_to_cut_strategy(sigma_e: Strategy,
                          bm_inst: GameInstance) -> TransformOutput:
    """From an emptier strategy, a cutter for the unbounded-width weak
    generalized game on the emptier's opening set.

    Each cut move is a maximal positive family assembled from the emptier's
    responses below the current auxiliary set, extended greedily (largest
    positive sets first) to a maximal family over the opening set.  Picks in
    the response part advance the auxiliary run -- so the picker's choices
    are exactly the emptier's moves -- and picks in the extension meet the
    running core in the family, losing on the spot.

    The emptier must answer one stage beyond the nominal round count
    (simulation strategies do, and a positional table must come from the
    game one round longer; finite bookkeeping in place of the absorption of
    one extra round).
    """
    _require_bm_ideal(bm_inst, "empty_to_cut_strategy")
    fam = bm_inst.family
    opening = _Run.start(bm_inst)
    x0 = opening.ask(sigma_e)
    g_inst = weak_g_instance(bm_inst, x0)

    def expand(run: _Run):
        """One cut: the greedy maximal positive family of emptier responses
        below the current auxiliary set, plus its canonical extension over
        the opening set.  A response pick advances the run through its
        dense call, an extension pick stops it for good."""
        responses: list[int] = []
        sources: dict[int, int] = {}
        while True:
            witness = next(
                (a for a in _positives_desc(fam, run.state.core)
                 if all((a & w) in fam for w in responses)), None)
            if witness is None:
                break
            r = run.then(witness).ask(sigma_e)
            if r in sources:
                raise TransformSoundnessError(
                    "emptier repeated a response across distinct dense calls")
            responses.append(r)
            sources[r] = witness
        extension: list[int] = []
        while True:
            witness = next(
                (b for b in _positives_desc(fam, x0)
                 if all((b & w) in fam for w in responses + extension)), None)
            if witness is None:
                break
            extension.append(witness)

        def recover(picks):
            pick = picks[0]
            return (sources[pick], pick) if pick in sources else None

        return (tuple(sorted_masks(responses + extension)),), recover

    def dead_cut():
        raise TransformSoundnessError(
            "cutter consulted after an extension pick ended the game")

    stages, decide = _block_cutter(lambda: opening.then(x0), expand,
                                   dead_cut)
    strategy = FunctionStrategy(CUT, decide, f"emptier-cut-{sigma_e.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, alive, done, _ = stages(t.moves)
        details: dict = {"alive": alive,
                         "aux_rounds": (len(run.history) - 1) // 2,
                         "extensions_played": sum(
                             aux is None for _, _, aux in done)}
        holds = _check_aux_run(bm_inst, run.history, sigma_e, EMPTY, details)
        empties = [mv for role, mv in run.history if role == EMPTY][1:]
        picks = [aux[1] for _, _, aux in done if aux]
        if picks != empties:
            holds = False
            details["choices_not_emptier_moves"] = True
        if not alive and t.winner != CUT:
            holds = False
            details["extension_pick_not_fatal"] = True
        cuts = [mv for role, mv in t.moves if role == CUT]
        stale = next((j for j, (block, mv) in enumerate(zip(done, cuts))
                      if block[0] != (mv,)), None)
        if stale is not None:
            holds = False
            details["cut_not_rebuilt"] = stale
        return TransformCertificate(
            "empty_to_cut",
            "picks are the emptier's moves; extension picks lose",
            holds, t, list(run.history), details)

    return TransformOutput("empty_to_cut", g_inst, strategy, certify, bm_inst)


def nonempty_to_choose_strategy(sigma_n: Strategy, bm_inst: GameInstance,
                                start: int) -> TransformOutput:
    """From a survivor strategy for the set Banach-Mazur game, a picker for
    the unbounded-width weak generalized game on any positive start.

    Maximality hands the picker a piece meeting the survivor's current set
    positively; the auxiliary run interleaves the trimmed piece with the
    survivor's responses, so the generalized core contains the auxiliary
    core, and a winning survivor transports to a winning picker.
    """
    _require_bm_ideal(bm_inst, "nonempty_to_choose_strategy")
    fam = bm_inst.family
    if not is_positive(fam, start):
        raise ValidationError("start must be I-positive")
    g_inst = weak_g_instance(bm_inst, start)

    def opening():
        run = _Run.start(bm_inst).then(start)
        return run.then(run.ask(sigma_n)), 0, start

    def step(stage, entry):
        """One pick (the cuts are this strategy's own), trimmed to the
        survivor's current set, the aux run's core: the emptier plays it
        and the survivor answers, except after the final pick.  The stage
        keeps the picks so far and the start trimmed by each of them."""
        run, picks, inter = stage
        trimmed = entry[1] & run.state.core
        if picks + 1 < g_inst.rounds:
            run = run.then(trimmed)
            run = run.then(run.ask(sigma_n))
        return run, picks + 1, inter & trimmed

    stages = _Fold(opening, step)

    def decide(inst_, state, history):
        y = stages(history[1::2])[0].state.core
        fits = [w for w in state.pending if is_positive(fam, w & y)]
        if not fits:
            raise TransformSoundnessError(
                "maximal family offered no piece meeting the survivor's set "
                "positively")
        return min(fits, key=mask_key)

    strategy = FunctionStrategy(CHOOSE, decide,
                                f"survivor-pick-{sigma_n.name}")

    def certify(t: Transcript) -> TransformCertificate:
        run, _, inter = stages(t.moves[1::2])
        details: dict = {}
        holds = _check_aux_run(bm_inst, run.history, sigma_n, NONEMPTY, details)
        g_core = t.states[-1].core
        if inter & ~g_core:
            holds = False
            details["relation_violated"] = format_mask(inter & ~g_core)
        details["g_core"] = format_mask(g_core)
        details["trimmed_core"] = format_mask(inter)
        return TransformCertificate(
            "nonempty_to_choose",
            "generalized core contains the trimmed auxiliary sets",
            holds, t, list(run.history), details)

    return TransformOutput("nonempty_to_choose", g_inst, strategy, certify,
                           bm_inst)


def choose_to_nonempty_strategy(provider: Callable[[int], Strategy],
                                bm_inst: GameInstance) -> TransformOutput:
    """From picker strategies (one per opening set) a survivor strategy.

    The survivor always moves to a set all of whose positive subsets are
    reachable picker responses; the search runs over positive subsets in
    decreasing canonical order and its exhaustion is a loud proof-violation
    error, never a game move.  The opening set is fixed by the opponent's
    first move; the quantifier over opening sets lives in the audit layer.
    """
    _require_bm_ideal(bm_inst, "choose_to_nonempty_strategy")
    fam = bm_inst.family
    games: dict[int, GameInstance] = {}
    pickers: dict[int, _Fold] = {}
    sets: dict = {}

    def game(x0: int) -> GameInstance:
        """The weak generalized game on ``x0``, one instance per opening set,
        so its cut moves (``start_cuts``) are enumerated once."""
        if x0 not in games:
            games[x0] = weak_g_instance(bm_inst, x0)
        return games[x0]

    def picker_run(x0: int, vec: tuple) -> _Run:
        """The picker's run in ``game(x0)`` against the cut prefix ``vec``."""
        if x0 not in pickers:
            sigma = provider(x0)

            def step(run: _Run, w) -> _Run:
                run = run.then(w)
                return run.then(run.ask(sigma))

            pickers[x0] = _Fold(lambda: _Run.start(game(x0)), step)
        return pickers[x0](vec)

    def response(x0: int, vec: tuple) -> int:
        """The picker's answer to the cut prefix ``vec`` (earlier picks its
        own)."""
        return picker_run(x0, vec).history[-1][1]

    def response_set(x0: int, vec: tuple) -> frozenset:
        key = (x0, vec)
        if key not in sets:
            sets[key] = frozenset(response(x0, vec + (w,))
                                  for w in game(x0).start_cuts)
        return sets[key]

    def step(stage, entry):
        """One opposing move: the first is the opening set, each later one
        is matched to the first cut whose picker response it is.  The stage
        is (opening set, reconstructed cut prefix)."""
        x0, vec = stage
        move = entry[1]
        if x0 is None:
            return move, ()
        found = next((w for w in game(x0).start_cuts
                      if response(x0, vec + (w,)) == move), None)
        if found is None:
            raise TransformSoundnessError(
                f"opposing move {format_mask(move)} is not a picker "
                "response")
        return x0, vec + (found,)

    stages = _Fold(lambda: (None, ()), step)

    def decide(inst_, state, history):
        x0, vec = stages(history[0::2])
        x_last = history[-1][1]
        responses = response_set(x0, vec)
        for y in _positives_desc(fam, x_last):
            if all(z in responses for z in submasks(y)
                   if z and is_positive(fam, z)):
                return y
        raise SigmaSearchError(
            "no positive set below the opposing move has all its positive "
            "subsets among the picker's responses")

    strategy = FunctionStrategy(NONEMPTY, decide, "picker-survivor")

    def certify(t: Transcript) -> TransformCertificate:
        try:
            x0, vec = stages(t.moves[0::2])
        except TransformSoundnessError as exc:
            return TransformCertificate(
                "choose_to_nonempty", "opposing moves are picker responses",
                False, t, [], {"error": str(exc)})
        holds = True
        details: dict = {"stages": len(vec)}
        empties = [mv for role, mv in t.moves if role == EMPTY]
        picks = [pick for _, pick in picker_run(x0, vec).history[1::2]]
        for j, pick in enumerate(picks):
            if pick != empties[j + 1]:
                holds = False
                details["pick_mismatch"] = j
        aux = list(zip(vec, picks))
        return TransformCertificate(
            "choose_to_nonempty",
            "opposing moves are exactly the picker's responses",
            holds, t, aux, details)

    return TransformOutput("choose_to_nonempty", bm_inst, strategy, certify)
