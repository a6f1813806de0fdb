"""Constructive strategy transformations with machine-checkable certificates.

Each transformation turns a strategy for one game into a strategy for a
related game by simulating an auxiliary run of the source game inside every
playout of the target game.  An output strategy is a fold that the walks
step (see ``engine.Strategy``): ``_Folded`` keeps its stages in one
``_Fold`` trie, a stage is a node there, and ``step`` is the node's
memoized child for the next history entry the transformation reads (the
cuts alone, say) and the same node for any other.  So a decision costs one
step, and a second walk over the same tree asks the source nothing new.
The auxiliary run is one immutable ``engine.Run`` -- instance, position,
the run one move shorter, and the source's stage -- extended move by move
with ``then`` and queried with ``ask``.

The source is asked in one of two shapes.  A source that cuts is simulated
by ``_block_cutter``, which plays each auxiliary cut as a block of target
cuts and asks the source on the first read of a block.  A source that picks
is simulated by ``_replies``, the run of its own game in which it answers
each cut of a sequence, memoized per cut prefix in a trie whose nodes the
output's stages hold, so it is asked once per history of its own game
however many target histories lead there.  Each ``TransformOutput``
declares its kind, the one relation between the output run and the
auxiliary run that its certificates check (containment or equality of
cores) and, for a transport, the auxiliary game and the source strategy
its certificates replay.  ``certify`` builds every certificate from the
verdict of its ``check`` hook, which folds a finished transcript through
the output's stages, replays the auxiliary run against the source and gives
whether the relation holds, the auxiliary moves and details; it raises
``TransformSoundnessError`` only for genuine bookkeeping violations, never
for mere game losses.  The replay is the checker's own, never the output's
stages: ``out.certify(t)`` replays from move 0, and ``certify_playouts``
replays each auxiliary prefix once for its call.

Length bookkeeping is explicit: where an auxiliary move expands into several
target moves, round counts double or multiply, since the ordinal absorption
identities have no finite counterpart.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .engine import (BM_IDEAL, CHOOSE, CUT, DEFAULT_NODE_BUDGET, EMPTY, EXACT,
                     G_IDEAL, G_POSET, NONEMPTY, U, FunctionStrategy,
                     GameInstance, Run, Strategy, Transcript, bridge_game,
                     core_positive, cut_target, enumerate_playouts,
                     initial_state, sorted_pieces, stage_after,
                     terminal_status, validate_move)
from .engine import fixed_point_choose_strategy  # re-exported: same toolbox
from .errors import (CapacityError, SigmaSearchError, TransformSoundnessError,
                     ValidationError)
from .structures import (FiniteBooleanAlgebra, GroundSet, IPartition,
                         MonotoneFamily, format_mask, full_disjointification,
                         is_positive, mask_elements, mask_key, popcount,
                         pull_back, sorted_masks, submasks)


# Cap on the strategy queries of one ``cut_strategy_to_witness`` call.
WITNESS_BUDGET = 200_000

__all__ = [
    "TransformCertificate", "TransformOutput", "certify_playouts",
    "source_instance",
    "digit_split_cut_strategy", "fixed_point_choose",
    "fixed_point_choose_strategy",
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
    """A transformed strategy and the one relation its certificates check;
    ``check(t, memos)`` gives a transcript's (holds, auxiliary moves,
    details), replaying and formatting through ``memos``.  A transport's
    certificates replay ``aux_instance`` against ``source``, which plays the
    output strategy's side there: the cutter when the output cuts, else the
    picker."""
    kind: str
    relation: str
    instance: GameInstance
    strategy: Strategy
    check: Callable[[Transcript, "_Memos"], tuple[bool, Sequence, dict]]
    aux_instance: Optional[GameInstance] = None
    source: Optional[Strategy] = None

    def certify(self, t: Transcript) -> TransformCertificate:
        """The certificate of one transcript, its auxiliary run replayed
        from move 0."""
        return self._certify(t, self._memos())

    def _memos(self) -> "_Memos":
        aux = self.aux_instance
        cuts = self.strategy.role == self.instance.cutter
        return _Memos(aux, self.source,
                      aux and (aux.cutter if cuts else aux.picker))

    def _certify(self, t: Transcript, memos: "_Memos"
                 ) -> TransformCertificate:
        holds, aux_moves, details = self.check(t, memos)
        return TransformCertificate(self.kind, self.relation, holds, t,
                                    list(aux_moves), details)


def certify_playouts(out: TransformOutput,
                     node_budget: int = DEFAULT_NODE_BUDGET
                     ) -> list[TransformCertificate]:
    """Certificates for every playout of the output strategy against all
    canonical adversary lines.  They share one ``_Memos`` for the call, so
    each auxiliary prefix is replayed once and each mask formatted once;
    every certificate is the one ``out.certify`` gives."""
    runs = enumerate_playouts(out.instance, out.strategy, out.strategy.role,
                              node_budget)
    memos = out._memos()
    return [out._certify(t, memos) for t in runs]


def source_instance(kind: str, inst: GameInstance,
                    start: Optional[int] = None) -> GameInstance:
    """The game whose strategy the transport ``kind`` takes as its source,
    for the transport called on the game ``inst`` (its first instance
    argument): the doubled partition game for ``disjointify_choose``; the
    game one round longer for ``empty_to_cut``, whose emptier answers one
    stage past the round count; ``engine.bridge_game`` on the opening set
    ``start`` for ``choose_to_nonempty``; ``inst`` itself for every other
    transport."""
    if kind == "disjointify_choose":
        return _doubled_instance(inst)
    if kind == "empty_to_cut":
        return replace(inst, rounds=inst.rounds + 1)
    if kind == "choose_to_nonempty":
        return bridge_game(inst, start)
    return inst


class _Node(NamedTuple):
    """A node of a ``_Fold`` trie: the fold's value at the node's item
    sequence, and the child node per next item."""
    value: object
    children: dict


class _Fold:
    """``fold(items) = step(fold(items[:-1]), items[-1])`` with ``fold(())
    = start()``, memoized over a trie of the item sequences seen.

    ``first()`` is the root and ``then(node, item)`` its child, stepped on
    its first request, so each new sequence costs one ``step`` and a walk
    that keeps its node steps forward in O(1).  ``fold(items)`` walks down
    from the root, iteratively (no depth limit).  A step that raises caches
    nothing.  Every longer sequence steps from a cached value, so values are
    immutable: tuples, runs and nodes.  A run shares its prefix with the run
    it stepped from, so a trie of runs holds O(1) per node."""
    __slots__ = ("start", "step", "root")

    def __init__(self, start: Callable[[], object],
                 step: Callable[[object, object], object]):
        self.start, self.step, self.root = start, step, None

    def first(self) -> _Node:
        if self.root is None:
            self.root = _Node(self.start(), {})
        return self.root

    def then(self, node: _Node, item) -> _Node:
        child = node.children.get(item)
        if child is None:
            child = node.children[item] = _Node(self.step(node.value, item),
                                                {})
        return child

    def __call__(self, items: Iterable):
        node = self.first()
        for item in items:
            node = self.then(node, item)
        return node.value


class _Folded(Strategy):
    """A transformation's output strategy.  Its stage is a node of one
    ``_Fold`` trie that the entries of the role ``reads`` step and every
    other entry keeps, and ``answer(state, value)`` decides from the
    node's value.  ``value(history)`` folds a whole history, for the
    certificates."""

    def __init__(self, role: str, name: str, reads: str,
                 start: Callable[[], object],
                 step: Callable[[object, tuple], object],
                 answer: Callable[[object, object], object]):
        super().__init__(role, name)
        self.reads, self.answer = reads, answer
        self.fold = _Fold(start, step)

    def start(self) -> _Node:
        return self.fold.first()

    def step(self, node: _Node, entry: tuple) -> _Node:
        return self.fold.then(node, entry) if entry[0] == self.reads else node

    def decide(self, inst, state, node: _Node):
        return self.answer(state, node.value)

    def value(self, history: Sequence):
        return stage_after(self, history).value


def _block_cutter(name: str, start: Callable[[], Run],
                  expand: Callable[[Run], tuple],
                  dead_cut: Callable[[], tuple]):
    """A cutter that plays each auxiliary cut as a block of target cuts,
    and ``fold(history)``: its stage after ``history`` with the finished
    blocks listed in order.

    Its stages step on the picks alone.  ``expand(run)`` is the one place
    the source is asked: it gives a block's cuts and ``recover(picks)``,
    the auxiliary (cut, pick) the picks stand for, or ``None`` when they
    end the auxiliary run; the cutter then plays ``dead_cut()``.  A stage
    is (run, alive, finished blocks, the open block's picks, the open
    block): the finished blocks are a chain ((cuts, picks, aux), earlier
    blocks or ``None``), so a stage adds O(1) to the stage it extends, and
    the open block is ``expand(run)`` on its first read, so a block that
    no cut follows asks the source nothing."""

    def opening(run: Run, done) -> tuple:
        return run, True, done, (), functools.cache(lambda: expand(run))

    def step(stage, entry):
        run, alive, done, picks, block = stage
        if not alive:
            return stage
        cuts, recover = block()
        picks += (entry[1],)
        if len(picks) < len(cuts):
            return run, True, done, picks, block
        aux = recover(picks)
        done = ((cuts, picks, aux), done)
        if aux is None:
            return run, False, done, (), None
        return opening(run.then(aux[0]).then(aux[1]), done)

    def answer(state, stage):
        _, alive, _, picks, block = stage
        if not alive:
            return dead_cut()
        return block()[0][len(picks)]

    strategy = _Folded(CUT, name, CHOOSE, lambda: opening(start(), None),
                       step, answer)

    def fold(history: Sequence):
        run, alive, done, picks, _ = strategy.value(history)
        blocks = []
        while done is not None:
            last, done = done
            blocks.append(last)
        return run, alive, blocks[::-1], picks

    return strategy, fold


def _replies(game: GameInstance, sigma: Strategy):
    """The reply fold of a picker, the counterpart of ``_block_cutter``:
    ``first()`` is the root node, and ``reply(node, cut)`` the node whose
    run (a run of ``game`` in which ``sigma`` picks) extends the node's
    run by ``cut`` and ``sigma``'s answer, and the answer.  Runs are
    memoized per cut prefix, so ``sigma`` is asked once per history of
    ``game``."""

    def step(run: Run, cut) -> Run:
        run = run.then(cut)
        return run.then(run.ask())

    runs = _Fold(lambda: Run.start(game, sigma), step)

    def reply(node: _Node, cut) -> tuple:
        node = runs.then(node, cut)
        return node, node.value.entry[1]

    return runs.first, reply


class _ReplayFailure(Exception):
    """The first failure of an auxiliary replay; its arguments are the
    ``details`` key and value it records."""


class _Memos:
    """What the certificates of one output share, dropped with them:
    ``certify`` makes one per certificate, ``certify_playouts`` one per
    call.  ``mask(m)`` is ``format_mask(m)``, formatted once.

    ``replay(moves, details)`` replays a run of the auxiliary game ``inst``
    move by move: each move must be legal, and ``source`` must reproduce
    every move of ``role``.  The first failure goes into ``details`` and
    gives ``None``; ``follows`` also records the final core.  Each prefix
    is replayed once, in one ``_Fold``; a step that fails caches nothing,
    so every replay through it fails there again with the same entry.  This
    memo is the checker's own: it steps ``source``'s stage along its own
    runs and never reads the output strategy's stages, so a certificate
    stays a second computation."""

    def __init__(self, inst, source, role):
        self.mask = functools.cache(format_mask)
        self.role = role

        def step(run: Run, entry) -> Run:
            mover, move = entry
            try:
                validate_move(inst, run.state, move)
            except Exception as exc:
                raise _ReplayFailure("illegal_aux", str(exc)) from None
            if mover == role and run.ask() != move:
                raise _ReplayFailure("inconsistent_aux", True)
            return run.then(move)

        self.runs = _Fold(lambda: Run.start(inst, source), step)

    def replay(self, moves: Sequence, details: dict) -> Optional[Run]:
        try:
            return self.runs(moves)
        except _ReplayFailure as failure:
            name, value = failure.args
            details[name] = value
            return None

    def follows(self, moves: Sequence, details: dict) -> bool:
        run = self.replay(moves, details)
        if run is None:
            return False
        details["aux_final_core"] = self.mask(run.state.core)
        return True


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

    def decide(inst_, state):
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

    def check(t: Transcript, memos: _Memos):
        final = t.run.state.core
        return popcount(final) <= 1, [], {"final": memos.mask(final)}

    return TransformOutput("digit_split", "final core has at most one point",
                           inst, strategy, check)


# ---------------------------------------------------------------------------
# The fixed-point picker
# ---------------------------------------------------------------------------

def fixed_point_choose(inst: GameInstance, alpha: int) -> TransformOutput:
    """``fixed_point_choose_strategy(alpha)`` on ``inst``; its certificate
    checks that every pick contains the point ``alpha``.  The game must have
    a Choose role whose picks are masks, and ``alpha`` must lie in the start
    set; an error on ``alpha`` names the ``--alpha`` option."""
    if inst.picker != CHOOSE:
        raise ValidationError("fixed_point needs a Choose role; "
                              f"a {inst.game_family} game has none")
    if inst.poset is not None:
        raise ValidationError("fixed_point needs picks that are sets; "
                              "a poset game's picks are elements")
    if not (inst.start >> alpha) & 1:
        raise ValidationError(f"point {alpha} is not in the start set "
                              f"{format_mask(inst.start)}", "--alpha")

    def check(t: Transcript, memos: _Memos):
        return all((move >> alpha) & 1 for role, move in t.moves
                   if role == inst.picker), [], {"alpha": alpha}

    return TransformOutput("fixed_point",
                           "every pick contains the fixed point", inst,
                           fixed_point_choose_strategy(alpha), check)


# ---------------------------------------------------------------------------
# Restriction along an embedding
# ---------------------------------------------------------------------------

def _embed_mask(embedding: Sequence[int], mask: int) -> int:
    out = 0
    for i, p in enumerate(embedding):
        if (mask >> i) & 1:
            out |= 1 << p
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
    if pull_back(emb, outer.start) != inner.start:
        raise ValidationError("outer start must pull back to the inner start")
    for s in range(1 << inner.ground.size):
        if (s in inner.family) != (_embed_mask(emb, s) in outer.family):
            raise ValidationError("family does not restrict along the embedding "
                                  f"(witness {format_mask(s)})")

    first, reply = _replies(inner, sigma)

    def step(stage, entry):
        """One cut: a cut with two or more nonempty inner pieces extends the
        inner run by their inner cut and the inner picker's answer.  The
        stage is (the inner run's reply node, the outer piece whose
        counterpart the inner pick is)."""
        node, _ = stage
        pieces = sorted_pieces(outer, entry[1])
        target = cut_target(inner, node.value.state)
        pb = {p: pull_back(emb, p) & target for p in pieces}
        nonempty = sorted({v for v in pb.values() if v}, key=mask_key)
        if not nonempty:
            return node, pieces[0]
        if len(nonempty) >= 2:
            node, pick = reply(node, tuple(nonempty))
        else:
            pick = nonempty[0]
        for p in pieces:
            if pb[p] == pick:
                return node, p
        raise TransformSoundnessError("inner pick has no outer counterpart")

    strategy = _Folded(CHOOSE, f"restricted-{sigma.name}", CUT,
                       lambda: (first(), None), step,
                       lambda state, stage: stage[1])

    def check(t: Transcript, memos: _Memos):
        run = strategy.value(t.moves)[0].value
        history = run.history
        details: dict = {}
        holds = memos.follows(history, details)
        outer_core = t.run.state.core
        if pull_back(emb, outer_core) != run.state.core:
            holds = False
            details["pullback_mismatch"] = (memos.mask(outer_core),
                                            memos.mask(run.state.core))
        details["outer_core"] = memos.mask(outer_core)
        details["inner_core"] = memos.mask(run.state.core)
        return holds, history, details

    return TransformOutput("restrict_choose",
                           "outer core pulls back to the inner core", outer,
                           strategy, check, inner, sigma)


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
    cover = 0
    for source in sources:
        cover |= source
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

    def expand(run: Run):
        """The generalized cutter's move at the run becomes its
        disjointification and the cover split.  The first pick's source is
        the auxiliary pick; the second must take the cover, or the
        auxiliary run stops for good."""
        w_move = run.ask()
        sources, refined, played, split, cover = \
            _disjointify_move(g_inst, w_move)

        def recover(picks):
            g_pick = _source_of(sources, refined, picks[0])
            if picks[1] == cover and g_pick is not None:
                return w_move, g_pick
            return None

        return (played, split), recover

    strategy, fold = _block_cutter(
        f"disjointified-{sigma_g.name}", lambda: Run.start(g_inst, sigma_g),
        expand, lambda: (g_inst.start,))

    def check(t: Transcript, memos: _Memos):
        run, alive, _, _ = fold(t.moves)
        history = run.history
        details: dict = {"aux_rounds": len(history) // 2, "alive": alive}
        holds = memos.follows(history, details)
        final = t.run.state.core
        inter = g_inst.start
        for role, mv in history:
            if role == CHOOSE:
                inter &= mv
        if final & ~inter:
            holds = False
            details["core_escape"] = memos.mask(final & ~inter)
        if not alive and core_positive(u_inst, final) and \
                not terminal_status(u_inst, t.run.state).ongoing:
            holds = False
            details["dead_but_positive"] = memos.mask(final)
        details["u_core"] = memos.mask(final)
        details["aux_pick_core"] = memos.mask(inter)
        return holds, history, details

    return TransformOutput("disjointify_cut",
                           "final partition core inside the auxiliary picks",
                           u_inst, strategy, check, g_inst, sigma_g)


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
    u_inst = source_instance("disjointify_choose", g_inst)

    first, reply = _replies(u_inst, sigma_u)

    def step(stage, entry):
        """One cut: the auxiliary partition game plays its
        disjointification and cover split.  The stage keeps the auxiliary
        run's reply node, the blocks so far, the start trimmed by each
        block's pick within its cover, the blocks whose cover was not
        picked, and the source piece of the latest pick.

        Only real moves (two or more nonempty pieces) are fed; a one-piece
        move forces its pick without touching the auxiliary run, so table
        strategies are only consulted at positions the enumerated game can
        reach."""
        node, blocks, trimmed, degenerate, _ = stage
        sources, refined, played, split, cover = \
            _disjointify_move(g_inst, entry[1])
        y, p2 = played[0], cover
        if len(played) >= 2:
            node, y = reply(node, played)
        if 0 not in split:
            node, p2 = reply(node, split)
        src = _source_of(sources, refined, y)
        if src is None:
            raise TransformSoundnessError(
                "auxiliary pick is not a disjointification piece")
        return (node, blocks + 1, trimmed & y & cover,
                degenerate + (p2 != cover), src)

    strategy = _Folded(CHOOSE, f"disjointified-{sigma_u.name}", CUT,
                       lambda: (first(), 0, g_inst.start, 0, None), step,
                       lambda state, stage: stage[-1])

    def check(t: Transcript, memos: _Memos):
        node, blocks, trimmed, degenerate, _ = strategy.value(t.moves)
        run = node.value
        history = run.history
        details: dict = {"blocks": blocks}
        holds = memos.replay(history, details) is not None
        g_core = t.run.state.core
        if trimmed & ~g_core:
            holds = False
            details["relation_violated"] = memos.mask(trimmed & ~g_core)
        details["g_core"] = memos.mask(g_core)
        details["trimmed_aux_core"] = memos.mask(trimmed)
        details["aux_core"] = memos.mask(run.state.core)
        details["degenerate_cover_picks"] = degenerate
        return holds, history, details

    return TransformOutput(
        "disjointify_choose",
        "generalized core contains the trimmed auxiliary picks", g_inst,
        strategy, check, u_inst, sigma_u)


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

    def expand(run: Run):
        """The wide move the cutter makes at the run, as its beta factored
        levels.  The block's picks recover the auxiliary pick, or a zero
        infimum stops the run for good."""
        w_big = run.ask()
        factor = factor_antichain(algebra, big_inst.start, w_big, nu, beta)

        def recover(picks):
            code = _code_of(factor, picks)
            rec = factor.recover(code) if code else 0
            return (w_big, rec) if rec else None

        return tuple(factor.levels), recover

    strategy, fold = _block_cutter(
        f"narrowed-{sigma_big.name}", lambda: Run.start(big_inst, sigma_big),
        expand, lambda: (small_inst.start,))

    def check(t: Transcript, memos: _Memos):
        run, alive, done, picks = fold(t.moves)
        history = run.history
        details: dict = {"blocks": len(done) + bool(picks), "alive": alive}
        holds = memos.follows(history, details)
        small_core = small_inst.start
        big_core = big_inst.start
        for _, picks, aux in done:
            for p in picks:
                small_core &= p
            if aux:
                big_core &= aux[1]
                if small_core != big_core:
                    holds = False
                    details["boundary_mismatch"] = (memos.mask(small_core),
                                                    memos.mask(big_core))
            else:
                if small_core != 0:
                    holds = False
                    details["dead_block_nonzero"] = memos.mask(small_core)
                break
        details["small_core"] = memos.mask(small_core)
        details["big_core"] = memos.mask(big_core)
        return holds, history, details

    return TransformOutput(
        "transfer_cut_big_to_small",
        "narrow and auxiliary cores agree at block boundaries", small_inst,
        strategy, check, big_inst, sigma_big)


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
    first, reply = _replies(small_inst, sigma_small)

    def step(stage, entry):
        """One wide cut: the narrow picker answers its beta factored
        levels, and the reply is the element its picks recover (the first
        piece when they recover nothing).  The stage keeps the narrow run's
        reply node and counts the blocks and those that recovered
        nothing."""
        node, blocks, dead, _ = stage
        factor = factor_antichain(algebra, big_inst.start, entry[1], nu, beta)
        picks = []
        for level in factor.levels:
            node, pick = reply(node, level)
            picks.append(pick)
        code = _code_of(factor, picks)
        rec = factor.recover(code) if code else 0
        return (node, blocks + 1, dead + (not rec),
                rec if rec else sorted_masks(entry[1])[0])

    strategy = _Folded(CHOOSE, f"widened-{sigma_small.name}", CUT,
                       lambda: (first(), 0, 0, None), step,
                       lambda state, stage: stage[-1])

    def check(t: Transcript, memos: _Memos):
        node, blocks, dead, _ = strategy.value(t.moves)
        run = node.value
        history = run.history
        details: dict = {"blocks": blocks, "dead_blocks": dead}
        holds = memos.follows(history, details)
        small_core = run.state.core
        big_core = t.run.state.core
        if details["dead_blocks"]:
            if small_core & ~big_core:
                holds = False
                details["relation_violated"] = True
        elif small_core != big_core:
            holds = False
            details["boundary_mismatch"] = (memos.mask(small_core),
                                            memos.mask(big_core))
        details["small_core"] = memos.mask(small_core)
        details["big_core"] = memos.mask(big_core)
        return holds, history, details

    return TransformOutput(
        "transfer_choose_small_to_big",
        "wide core equals narrow core at block boundaries", big_inst,
        strategy, check, small_inst, sigma_small)


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
    opening = initial_state(inst)
    for move in seq[:inst.rounds]:
        validate_move(inst, opening, tuple(move))

    def decide(inst_, state):
        return tuple(seq[state.round])

    strategy = FunctionStrategy(CUT, decide, "witness-sequence")

    def check(t: Transcript, memos: _Memos):
        played = [move for role, move in t.moves if role == CUT]
        return played == [tuple(seq[i]) for i in range(len(played))], \
            played, {}

    return TransformOutput("witness_to_cut", "moves follow the sequence", inst,
                           strategy, check)


def cut_strategy_to_witness(sigma: Strategy,
                            inst: GameInstance) -> list[tuple]:
    """Collapse a cutter strategy into one non-adaptive move sequence, asking
    the strategy at most ``WITNESS_BUDGET`` times.

    Level r collects the meets of every consistent pick history with the
    pieces of the strategy's response there; a surviving branch through the
    output corresponds exactly to a pick line defeating the strategy
    (checked exhaustively in tests at small scale).  A positional strategy
    (stage ``None``) is asked once per distinct position of a level.
    """
    if inst.cut_current:
        raise ValidationError("witness construction uses the cut-the-start convention")
    if inst.variant != EXACT:
        raise ValidationError("witness construction is defined for the exact variant")
    if inst.poset is not None:
        raise ValidationError("witness construction needs meets "
                              "(set or algebra structure)")
    frontier = [Run.start(inst, sigma)]
    positional = sigma.start() is None
    seq: list[tuple] = []
    nodes = 0
    for _ in range(inst.rounds):
        pieces: set = set()
        nxt: list[Run] = []
        nxt_seen: set = set()
        for run in frontier:
            nodes += 1
            if nodes > WITNESS_BUDGET:
                raise CapacityError("witness construction exceeded its budget",
                                    {"nodes": nodes})
            move = run.ask()
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

    def decide(inst_, state):
        # the current set is the survivor's last move, and the rounds
        # played count the emptier's moves so far
        if state.round == 0:
            return bm_inst.start
        y = state.core
        x = walk_pick(state.round - 1, y)
        return y & x if x is not None else y

    strategy = FunctionStrategy(EMPTY, decide, "witness-walk")

    def check(t: Transcript, memos: _Memos):
        picks: list[Optional[int]] = []
        detach = None
        idx = 0
        moves = t.moves
        for i, (role, move) in enumerate(moves):
            if role != EMPTY or i == 0:
                continue
            x = walk_pick(idx, moves[i - 1][1])
            picks.append(x)
            if x is None and detach is None:
                detach = idx
            idx += 1
        holds = True
        details: dict = {"detach_stage": detach,
                         "walk": [None if p is None else memos.mask(p)
                                  for p in picks]}
        final = t.run.state.core
        inter = bm_inst.start
        for p in picks:
            if p is None:
                break
            inter &= p
        if detach is None and final & ~inter:
            holds = False
            details["core_escape"] = memos.mask(final & ~inter)
        details["walk_core"] = memos.mask(inter)
        details["final"] = memos.mask(final)
        return holds, picks, details

    return TransformOutput("witness_to_empty",
                           "final core inside the realized walk", bm_inst,
                           strategy, check)


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
    (a function of the position does, and a table must come from the game
    one round longer; finite bookkeeping in place of the absorption of one
    extra round).
    """
    _require_bm_ideal(bm_inst, "empty_to_cut_strategy")
    fam = bm_inst.family
    opening = Run.start(bm_inst, sigma_e)
    x0 = opening.ask()
    g_inst = bridge_game(bm_inst, x0)

    def expand(run: Run):
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
            r = run.then(witness).ask()
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

    strategy, fold = _block_cutter(f"emptier-cut-{sigma_e.name}",
                                   lambda: opening.then(x0), expand, dead_cut)

    def check(t: Transcript, memos: _Memos):
        moves = t.moves
        run, alive, done, _ = fold(moves)
        history = run.history
        details: dict = {"alive": alive,
                         "aux_rounds": (len(history) - 1) // 2,
                         "extensions_played": sum(
                             aux is None for _, _, aux in done)}
        holds = memos.follows(history, details)
        empties = [mv for role, mv in history if role == EMPTY][1:]
        picks = [aux[1] for _, _, aux in done if aux]
        if picks != empties:
            holds = False
            details["choices_not_emptier_moves"] = True
        if not alive and t.winner != CUT:
            holds = False
            details["extension_pick_not_fatal"] = True
        cuts = [mv for role, mv in moves if role == CUT]
        stale = next((j for j, (block, mv) in enumerate(zip(done, cuts))
                      if block[0] != (mv,)), None)
        if stale is not None:
            holds = False
            details["cut_not_rebuilt"] = stale
        return holds, history, details

    return TransformOutput(
        "empty_to_cut", "picks are the emptier's moves; extension picks lose",
        g_inst, strategy, check, bm_inst, sigma_e)


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
    g_inst = bridge_game(bm_inst, start)

    def opening():
        run = Run.start(bm_inst, sigma_n).then(start)
        return run.then(run.ask()), 0, start

    def step(stage, entry):
        """One pick, trimmed to the survivor's current set, the aux run's
        core: the emptier plays it and the survivor answers, except after
        the final pick.  The stage keeps the picks so far and the start
        trimmed by each of them."""
        run, picks, inter = stage
        trimmed = entry[1] & run.state.core
        if picks + 1 < g_inst.rounds:
            run = run.then(trimmed)
            run = run.then(run.ask())
        return run, picks + 1, inter & trimmed

    def answer(state, stage):
        y = stage[0].state.core
        fits = [w for w in state.pending if is_positive(fam, w & y)]
        if not fits:
            raise TransformSoundnessError(
                "maximal family offered no piece meeting the survivor's set "
                "positively")
        return min(fits, key=mask_key)

    strategy = _Folded(CHOOSE, f"survivor-pick-{sigma_n.name}", CHOOSE,
                       opening, step, answer)

    def check(t: Transcript, memos: _Memos):
        run, _, inter = strategy.value(t.moves)
        history = run.history
        details: dict = {}
        holds = memos.follows(history, details)
        g_core = t.run.state.core
        if inter & ~g_core:
            holds = False
            details["relation_violated"] = memos.mask(inter & ~g_core)
        details["g_core"] = memos.mask(g_core)
        details["trimmed_core"] = memos.mask(inter)
        return holds, history, details

    return TransformOutput(
        "nonempty_to_choose",
        "generalized core contains the trimmed auxiliary sets", g_inst,
        strategy, check, bm_inst, sigma_n)


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

    def step(stage, entry):
        """One opposing move.  The first is the opening set and starts the
        picker's run in the weak generalized game on it; each later one
        must be a picker answer at the stage's run, and moves to the run it
        maps to.  The stage is (reply, the run's reply node, each answer to
        one more cut at the run -> the node its first cut in canonical
        order extends to)."""
        move = entry[1]
        if stage is None:
            g_inst = source_instance("choose_to_nonempty", bm_inst, move)
            first, reply = _replies(g_inst, provider(move))
            node = first()
        else:
            reply, node, answers = stage
            node = answers.get(move)
            if node is None:
                raise TransformSoundnessError(
                    f"opposing move {format_mask(move)} is not a picker "
                    "response")
        answers = {}
        for w in node.value.inst.start_cuts:
            nxt, pick = reply(node, w)
            answers.setdefault(pick, nxt)
        return reply, node, answers

    def answer(state, stage):
        # the opposing move just played is the current set
        responses = stage[2]
        for y in _positives_desc(fam, state.core):
            if all(z in responses for z in submasks(y)
                   if z and is_positive(fam, z)):
                return y
        raise SigmaSearchError(
            "no positive set below the opposing move has all its positive "
            "subsets among the picker's responses")

    strategy = _Folded(NONEMPTY, "picker-survivor", EMPTY, lambda: None, step,
                       answer)

    def check(t: Transcript, memos: _Memos):
        moves = t.moves
        try:
            _, node, _ = strategy.value(moves)
        except TransformSoundnessError as exc:
            return False, [], {"error": str(exc)}
        history = node.value.history
        holds = True
        details: dict = {"stages": len(history) // 2}
        empties = [mv for role, mv in moves if role == EMPTY]
        cuts = [cut for _, cut in history[0::2]]
        picks = [pick for _, pick in history[1::2]]
        for j, pick in enumerate(picks):
            if pick != empties[j + 1]:
                holds = False
                details["pick_mismatch"] = j
        return holds, zip(cuts, picks), details

    return TransformOutput("choose_to_nonempty",
                           "opposing moves are exactly the picker's responses",
                           bm_inst, strategy, check)
