"""Game instances, the referee, strategies, playouts, and verification.

Five game families share one engine:

* ``U``         -- one player repeatedly partitions a set, the other picks;
* ``G_ideal``   -- the cut moves are maximal almost-disjoint positive families;
* ``G_poset``   -- the cut moves are maximal antichains of a poset or algebra;
* ``BM_ideal``  -- both players shrink a positive set, weak inclusion;
* ``BM_poset``  -- both players descend in a poset or algebra.

An algebra is the trivial ideal on its atoms (``GameInstance`` fills
``ground`` and ``family`` from it), so an element is a mask exactly when
``inst.poset is None``; only its cut rules in ``structures`` are its own.

A position is abstracted to ``(round, to_move, core, pending)``: the running
intersection (or lower-bound set / current set) plus the cut move awaiting a
pick.  Two histories with equal abstractions are game-equivalent; the solver
relies on this and the test suite cross-checks it against raw history search.
A ``GameState`` is that named tuple, so it hashes and compares as the plain
tuple and serves as its own key in every memo, seen-set and strategy table.

The terminal rule is written once, as ``GameInstance.referee``: a function
of a position's round and core, for positions with no pending move, chosen
once per instance by game family, variant and structure.  A position with
a pending cut is never terminal, and an exact game is ongoing before its
last round without a test of the family.  ``terminal_status`` answers
through the referee and adds the reason: a verdict whose reason is fixed
is a module constant; the one reason that names a round is built only on
the branch that returns it.  The value fill calls the referee directly.

Legality comes in two tiers.  ``legal_moves`` is the canonical enumeration
used for solving and exhaustive verification; it omits dominated cut moves
with empty pieces.  ``apply_move`` accepts any *structurally* valid move, so
strategies produced by transformations may play degenerate partitions such as
``(X, {})`` and the referee tolerates them.  A cut's two tiers live side by
side in ``structures``: ``enumerate_cut_moves`` and ``cut_violation``.  A
game that cuts its start set (``cut_current`` False) offers the same cut
moves at every cut position, so its instance enumerates them once, as
``GameInstance.start_cuts``.  Such a game is the other side of the paper's
Banach-Mazur bridge, named once as ``bridge_game``: the audit solves it and
the bridge transports play it.

A strategy is a fold that the walks step, a finite-memory (Mealy)
strategy (Grädel, Thomas & Wilke (eds.), *Automata, Logics, and Infinite
Games*, LNCS 2500, 2002): ``start()``, ``step(stage, entry)`` and
``decide(inst, state, stage)``.  A walk extends one ``Run`` and one stage
per move, so a playout of depth d costs O(d) and the transcripts of one
walk share their prefixes; a caller that holds only a history folds it
with ``stage_after``.  A table or a ``FunctionStrategy`` is positional,
its stage ``None``.  The tree walk follows every canonical opposing line
in one of two modes: playouts keep every leaf, verification stops at the
first leaf the strategy loses.  The positional walk (tabulation) visits
each reachable position once to build a table.  Verifying a positional
strategy, the tree walk expands each position once too: it counts a
subtree it has already seen won without walking it again, so it still
reports tree nodes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (CapacityError, IllegalMoveError, StrategyError,
                     ValidationError)
from .structures import (DEFAULT_MOVE_BUDGET, FiniteBooleanAlgebra,
                         FinitePoset, GroundSet, MonotoneFamily, cut_violation,
                         enumerate_cut_moves, is_positive, mask_elements,
                         mask_key, positives_below)

# Roles
CUT = "Cut"
CHOOSE = "Choose"
EMPTY = "Empty"
NONEMPTY = "Nonempty"

# Game families
U = "U"
G_IDEAL = "G_ideal"
G_POSET = "G_poset"
BM_IDEAL = "BM_ideal"
BM_POSET = "BM_poset"

GAME_FAMILIES = (U, G_IDEAL, G_POSET, BM_IDEAL, BM_POSET)
MASK_GAMES = (U, G_IDEAL, BM_IDEAL)
BM_GAMES = (BM_IDEAL, BM_POSET)

# Variants
EXACT = "exact"
WEAK = "weak"
STRICT_PREFIX = "strict_prefix"
VARIANTS = (EXACT, WEAK, STRICT_PREFIX)

# Cap on the nodes of one tree walk and the positions of one tabulation.
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class GameInstance:
    """A fully parameterized game.

    ``cut_current`` selects the partition convention: cut the running
    intersection (the chain form) or always cut the starting set.  For
    full-partition and maximal moves the winner is the same either way;
    the test corpus asserts this invariance.
    """

    game_family: str
    start: int
    rounds: int
    width: Optional[int]
    variant: str = EXACT
    maximal: bool = True
    cut_current: bool = True
    ground: Optional[GroundSet] = None
    family: Optional[MonotoneFamily] = None
    poset: Optional[FinitePoset] = None
    algebra: Optional[FiniteBooleanAlgebra] = None

    def __post_init__(self):
        if self.algebra is not None and self.game_family not in MASK_GAMES:
            # an algebra plays as its trivial ideal on its atoms
            object.__setattr__(self, "ground", self.algebra.atoms)
            object.__setattr__(self, "family", self.algebra)
        # each refusal names its field, ``structure`` for a misfit structure
        if self.game_family not in GAME_FAMILIES:
            raise ValidationError(f"unknown game family {self.game_family!r}",
                                  "game_family")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}",
                                  "variant")
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1", "rounds")
        if self.game_family in MASK_GAMES:
            if self.ground is None or self.family is None:
                raise ValidationError(
                    f"{self.game_family} needs a ground set and a family",
                    "structure")
            self.ground.check_mask(self.start, "start")
            if not is_positive(self.family, self.start):
                raise ValidationError("start must be I-positive", "start")
        else:
            if (self.poset is None) == (self.algebra is None):
                raise ValidationError(
                    f"{self.game_family} needs exactly one of poset/algebra",
                    "structure")
            if self.poset is not None:
                if not (0 <= self.start < self.poset.size):
                    raise ValidationError("start element out of range",
                                          "start")
            else:
                self.ground.check_mask(self.start, "start")
                if self.start == 0:
                    raise ValidationError("start must be a nonzero element",
                                          "start")
        if self.game_family in BM_GAMES:
            if self.width is not None:
                raise ValidationError("Banach-Mazur games take no width bound",
                                      "width")
        elif self.width is None:
            if self.game_family == U:
                raise ValidationError(
                    "unbounded width is only for G/BM families", "width")
        elif self.width < 2:
            raise ValidationError("width must be >= 2" + (
                "" if self.game_family == U else " or unbounded"), "width")

    @property
    def cutter(self) -> str:
        return EMPTY if self.game_family in BM_GAMES else CUT

    @property
    def picker(self) -> str:
        return NONEMPTY if self.game_family in BM_GAMES else CHOOSE

    def opponent(self, role: str) -> str:
        return self.picker if role == self.cutter else self.cutter

    @property
    def structure(self):
        """The family (an algebra is one) or poset the game is played over."""
        return self.family if self.poset is None else self.poset

    @cached_property
    def start_cuts(self) -> tuple:
        """The cut moves on ``start``, enumerated on first use and kept:
        with ``cut_current`` False every cut position cuts the start set.
        A tuple, so no caller can change the shared list."""
        return tuple(_cut_moves(self, self.start))

    @cached_property
    def referee(self) -> Callable[[int, int], Optional[str]]:
        """The terminal rule: ``referee(round, core)`` is the winner at a
        position with no pending move, or None while it is ongoing.  Chosen
        once by game family, variant and structure; ``terminal_status``
        answers through it, and the value fill calls it directly."""
        rounds = self.rounds
        if self.game_family in BM_GAMES:
            # a poset core is an element: a lower bound of the chain
            element = self.poset is not None

            def banach_mazur(round_: int, core: int) -> Optional[str]:
                if round_ < rounds:
                    return None
                return NONEMPTY if element or core else EMPTY
            return banach_mazur
        # a core is small when the family holds it, a poset core when empty
        small = (self.family.__contains__ if self.poset is None
                 else {0}.__contains__)
        if self.variant == EXACT:
            def exact(round_: int, core: int) -> Optional[str]:
                if round_ < rounds:
                    return None
                return CUT if small(core) else CHOOSE
            return exact
        # weak and strict prefix: every intersection after a pick must stay
        # positive, the last one too under weak
        weak = self.variant == WEAK

        def prefix(round_: int, core: int) -> Optional[str]:
            if round_ < rounds:
                return CUT if round_ >= 1 and small(core) else None
            return CUT if weak and small(core) else CHOOSE
        return prefix


def bridge_game(bm: GameInstance, start: int) -> GameInstance:
    """The generalized game that the Banach-Mazur game ``bm`` is bridged to
    at ``start``: its structure and rounds, unbounded width and the maximal
    cuts of the start set, weak over a family and exact over a poset or an
    algebra.  ``bm``'s variant, ``maximal`` and ``cut_current`` play no
    part."""
    if bm.game_family not in BM_GAMES:
        raise ValidationError(f"{bm.game_family} is not a Banach-Mazur game",
                              "game_family")
    sets = bm.game_family == BM_IDEAL
    return replace(bm, game_family=G_IDEAL if sets else G_POSET, start=start,
                   width=None, variant=WEAK if sets else EXACT, maximal=True,
                   cut_current=False)


Move = Union[int, tuple]


class GameState(NamedTuple):
    round: int
    to_move: str
    core: int
    pending: Optional[tuple] = None


def initial_state(inst: GameInstance) -> GameState:
    if inst.game_family == G_POSET and inst.poset is not None:
        core = inst.poset.down[inst.start]
    else:
        core = inst.start
    return GameState(0, inst.cutter, core, None)


def core_positive(inst: GameInstance, core: int) -> bool:
    """The picker-side survival condition on the running core."""
    if inst.poset is None:
        return is_positive(inst.family, core)
    return core != 0


def _poset_core_max(inst: GameInstance, core: int) -> int:
    """Unique maximal element of a lower-bound set of a descending chain."""
    for e in mask_elements(core):
        if core & ~inst.poset.down[e] == 0:
            return e
    raise IllegalMoveError("lower-bound set has no maximum", "chain-core")


def cut_target(inst: GameInstance, state: GameState) -> int:
    """The set (or poset element) the next cut move must partition."""
    if not inst.cut_current:
        return inst.start
    if inst.poset is None:
        return state.core
    return _poset_core_max(inst, state.core)


# ---------------------------------------------------------------------------
# Terminal evaluation
# ---------------------------------------------------------------------------

ONGOING = "ongoing"


@dataclass(frozen=True)
class Outcome:
    status: str                      # "ongoing" or a role name
    reason: str = ""

    @property
    def ongoing(self) -> bool:
        return self.status == ONGOING


_ONGOING = Outcome(ONGOING)
# Every verdict with a fixed reason is built once.
_FINAL_NONEMPTY = Outcome(NONEMPTY, "final core nonempty")
_FINAL_EMPTY = Outcome(EMPTY, "final core empty")
_COMMON_LOWER_BOUND = Outcome(CHOOSE, "choices have a common lower bound")
_FINAL_POSITIVE = Outcome(CHOOSE, "final intersection positive")
_NO_LOWER_BOUND = Outcome(CUT, "choices have no common lower bound")
_FINAL_IN_FAMILY = Outcome(CUT, "final intersection in the family")
_SURVIVED = Outcome(CHOOSE, "survived every round")
_PREFIXES_POSITIVE = Outcome(CHOOSE, "every proper prefix stayed positive")


def terminal_status(inst: GameInstance, state: GameState) -> Outcome:
    """The referee's verdict with its reason.  A pending cut is never
    terminal; any other position is judged by ``inst.referee``, and this
    adds only the reason, built only where it is returned."""
    round_, _, core, pending = state
    if pending is not None:
        return _ONGOING
    winner = inst.referee(round_, core)
    if winner is None:
        return _ONGOING
    fam = inst.game_family
    if fam in BM_GAMES:
        return _FINAL_NONEMPTY if winner == NONEMPTY else _FINAL_EMPTY
    poset = fam == G_POSET
    if inst.variant == EXACT:
        if winner == CHOOSE:
            return _COMMON_LOWER_BOUND if poset else _FINAL_POSITIVE
        return _NO_LOWER_BOUND if poset else _FINAL_IN_FAMILY
    if winner == CHOOSE:
        return _SURVIVED if inst.variant == WEAK else _PREFIXES_POSITIVE
    # under weak and strict prefix the cutter wins only by a core that fell
    # into the family
    return Outcome(CUT, ("lower-bound set vanished" if poset else
                         "running intersection fell into the family")
                   + " at round " + str(round_))


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

def _cut_moves(inst: GameInstance, target: int) -> list:
    # A U game's family judges the picks only: its cuts are partitions.
    return enumerate_cut_moves(
        None if inst.game_family == U else inst.structure, target,
        inst.width, inst.maximal, DEFAULT_MOVE_BUDGET)


def legal_moves(inst: GameInstance, state: GameState) -> Sequence:
    """Canonically ordered move list at a non-terminal position.  A game
    that cuts its start set returns the instance's one ``start_cuts``."""
    fam = inst.game_family
    if state.pending is not None:
        return list(state.pending)
    if fam not in BM_GAMES:
        if not inst.cut_current:
            return inst.start_cuts
        return _cut_moves(inst, cut_target(inst, state))
    if inst.poset is None:
        return positives_below(inst.family, state.core)
    return list(mask_elements(inst.poset.down[state.core]))


def validate_move(inst: GameInstance, state: GameState, move) -> None:
    """Structural legality: raises IllegalMoveError naming the violated rule.

    Wider than the canonical enumeration: partitions with empty pieces pass.
    """
    fam = inst.game_family
    if fam in BM_GAMES:
        if inst.poset is None:
            if not isinstance(move, int):
                raise IllegalMoveError("move must be a subset mask", "bm-move-shape")
            if move & ~state.core:
                raise IllegalMoveError("move must be a subset of the current set",
                                       "bm-decreasing")
            if not is_positive(inst.family, move):
                raise IllegalMoveError("move must be I-positive", "bm-positive")
        else:
            if not isinstance(move, int) or not (0 <= move < inst.poset.size):
                raise IllegalMoveError("move must be a poset element",
                                       "bm-element")
            if not inst.poset.leq(move, state.core):
                raise IllegalMoveError("move must lie below the current element",
                                       "bm-decreasing")
        return

    if state.pending is not None:
        if move not in state.pending:
            raise IllegalMoveError("pick must be a piece of the pending move",
                                   "pick-from-pending")
        return

    err = cut_violation(None if fam == U else inst.structure,
                        cut_target(inst, state), move, inst.width,
                        inst.maximal)
    if err:
        raise IllegalMoveError(*err)


def apply_move(inst: GameInstance, state: GameState, move,
               check: bool = True) -> GameState:
    if check:
        validate_move(inst, state, move)
    fam = inst.game_family
    if fam in BM_GAMES:
        if state.to_move == EMPTY:
            return GameState(state.round, NONEMPTY, move, None)
        return GameState(state.round + 1, EMPTY, move, None)
    if state.pending is None:
        return GameState(state.round, CHOOSE, state.core, tuple(move))
    if inst.poset is not None:
        core = state.core & inst.poset.down[move]
    else:
        core = state.core & move
    return GameState(state.round + 1, CUT, core, None)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Strategy:
    """A deterministic decision procedure for one role, stepped with the
    walk that asks it.

    ``start()`` is the stage before any move, ``step(stage, entry)`` the
    stage one ``(role, move)`` entry of the history later (the opponent's
    entries and its own), and ``decide(inst, state, stage)`` the move at
    the position ``state`` that the history reaches.  All three are pure
    and stages immutable, so one strategy object serves many concurrent
    playouts and tree branches.  A strategy is positional exactly when its
    stage is ``None``, the empty stage, which no entry changes and the tree
    walk and ``Run`` do not step; this base class is.
    """

    def __init__(self, role: str, name: str = ""):
        self.role = role
        self.name = name or self.__class__.__name__

    def start(self):
        return None

    def step(self, stage, entry: tuple):
        return stage

    def decide(self, inst: GameInstance, state: GameState, stage):
        raise NotImplementedError


class TableStrategy(Strategy):
    """Positional strategy backed by an explicit state-to-move table."""

    kind = "positional_table"  # its strategy document's ``kind``

    def __init__(self, role: str, entries: dict, name: str = "table"):
        super().__init__(role, name)
        self.entries = entries

    def decide(self, inst, state, stage):
        try:
            return self.entries[state]
        except KeyError:
            raise StrategyError(f"{self.name}: no entry for position "
                                f"{tuple(state)}") from None


class FunctionStrategy(Strategy):
    """A positional strategy given as ``fn(inst, state)``."""

    def __init__(self, role: str, fn: Callable, name: str = "fn"):
        super().__init__(role, name)
        self.fn = fn

    def decide(self, inst, state, stage):
        return self.fn(inst, state)


def stage_after(sigma: Strategy, history: Iterable):
    """``sigma``'s stage after ``history``, folded from ``start()``: for a
    caller that holds a whole history instead of stepping with a walk."""
    stage = sigma.start()
    for entry in history:
        stage = sigma.step(stage, entry)
    return stage


def sorted_pieces(inst: GameInstance, pieces: Iterable) -> list:
    if inst.poset is not None:
        return sorted(pieces)
    return sorted(pieces, key=mask_key)


def greedy_picker_strategy(inst: GameInstance) -> Strategy:
    """Pick the first piece (canonical order) keeping the core positive.

    With maximal cut moves such a piece always exists; the fallback to the
    first piece only triggers on non-maximal move sets.  In Banach-Mazur
    games this degenerates to replaying the current set.
    """
    def fn(inst_, state):
        if state.pending is None:
            return state.core
        pieces = sorted_pieces(inst_, state.pending)
        for p in pieces:
            nxt = apply_move(inst_, state, p, check=False)
            if core_positive(inst_, nxt.core):
                return p
        return pieces[0]

    return FunctionStrategy(inst.picker, fn, "greedy-positivity")


def copy_strategy(inst: GameInstance) -> Strategy:
    """Banach-Mazur survival by repetition: always replay the current set."""
    def fn(inst_, state):
        return state.core

    return FunctionStrategy(inst.picker, fn, "copy")


def first_move_strategy(inst: GameInstance, role: str) -> Strategy:
    """Always play the canonically first legal move (a total baseline)."""
    def fn(inst_, state):
        moves = legal_moves(inst_, state)
        if not moves:
            raise StrategyError("no legal moves at position "
                                f"{tuple(state)}")
        return moves[0]

    return FunctionStrategy(role, fn, "first-move")


def seeded_table_strategy(inst: GameInstance, role: str, seed: int) -> Strategy:
    """Deterministic pseudo-random move selection keyed by position and seed.
    The key folds integers only (the role by its index), so ``PYTHONHASHSEED``
    cannot change it; Fibonacci hashing then spreads it over the moves."""
    def fn(inst_, state):
        moves = legal_moves(inst_, state)
        if not moves:
            raise StrategyError(f"no legal moves at position {tuple(state)}")
        h = seed
        for x in (state.round, (CUT, CHOOSE, EMPTY, NONEMPTY).index(
                state.to_move), state.core, *(state.pending or ())):
            h = (h * 0x100000001B3 + x) % ((1 << 61) - 1)
        return moves[(h * 0x9E3779B97F4A7C15 >> 32 & 0xFFFFFFFF) % len(moves)]

    return FunctionStrategy(role, fn, f"seeded-{seed}")


def fixed_point_choose_strategy(alpha: int) -> Strategy:
    """Always pick the piece containing a fixed point of the ground set.

    Errs if the point has already been excluded, which is reachable only when
    cut moves need not cover the running core.
    """
    def fn(inst_, state):
        for p in state.pending:
            if (p >> alpha) & 1:
                return p
        raise StrategyError(f"fixed point {alpha} excluded by every piece")

    return FunctionStrategy(CHOOSE, fn, f"fixed-point-{alpha}")


# ---------------------------------------------------------------------------
# Playouts and verification
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """A run of a game: its instance, the position reached, the run one
    move shorter (``None`` at the start) and the ``(role, move)`` entry that
    extended it; for a run along which one strategy ``sigma`` is asked,
    also ``sigma``'s stage there, stepped by every move.  Immutable, so a
    walk or a simulation can branch from any run it has kept, and every run
    shares its prefix with the runs it was extended from: keeping a run per
    prefix holds O(1) each, not a history each."""
    inst: GameInstance
    state: GameState
    before: Optional["Run"] = None
    entry: Optional[tuple] = None
    sigma: Optional[Strategy] = None
    stage: object = None

    @classmethod
    def start(cls, inst: GameInstance, sigma: Optional[Strategy] = None
              ) -> "Run":
        return cls(inst, initial_state(inst), None, None, sigma,
                   None if sigma is None else sigma.start())

    def then(self, move) -> "Run":
        """The run after the player to move plays ``move`` (unchecked)."""
        inst, state, _, _, sigma, stage = self
        entry = (state.to_move, move)
        # tuple.__new__ skips the generated __new__, a Python call per run
        return tuple.__new__(Run, (
            inst, apply_move(inst, state, move, check=False), self, entry,
            sigma, stage if stage is None else sigma.step(stage, entry)))

    def ask(self):
        """``sigma``'s move at this run."""
        return self.sigma.decide(self.inst, self.state, self.stage)

    @property
    def history(self) -> tuple:
        """The ``(role, move)`` entries from the start, built on each read
        by a loop: a deep run exceeds the recursion limit."""
        entries = []
        run = self
        while run.before is not None:
            entries.append(run.entry)
            run = run.before
        entries.reverse()
        return tuple(entries)

    def __repr__(self) -> str:
        # not the chain, for the same reason
        return f"Run({tuple(self.state)} after {len(self.history)} moves)"


@dataclass(eq=False)
class Transcript:
    """A finished line: its final run and the referee's verdict.  The
    moves and positions are read off the run's chain on each access, so
    the transcripts of one walk share their prefixes."""
    run: Run
    winner: str
    reason: str

    @property
    def instance(self) -> GameInstance:
        return self.run.inst

    @property
    def moves(self) -> list:
        return list(self.run.history)

    @property
    def states(self) -> list:
        states = []
        run = self.run
        while run is not None:
            states.append(run.state)
            run = run.before
        states.reverse()
        return states


def play_out(inst: GameInstance, cut_side: Strategy,
             choose_side: Strategy) -> Transcript:
    """Run both strategies to the end under the referee; fully deterministic.
    Each side's stage steps once per move."""
    sides = {inst.cutter: cut_side, inst.picker: choose_side}
    stages = {role: side.start() for role, side in sides.items()}
    run = Run.start(inst)
    outcome = terminal_status(inst, run.state)
    while outcome.ongoing:
        state = run.state
        try:
            if run.entry is not None:
                for role, side in sides.items():
                    stages[role] = side.step(stages[role], run.entry)
            move = sides[state.to_move].decide(inst, state,
                                               stages[state.to_move])
        except StrategyError as exc:
            raise StrategyError(f"{exc} (at position {tuple(state)})") from exc
        validate_move(inst, state, move)
        run = run.then(move)
        outcome = terminal_status(inst, run.state)
    return Transcript(run, outcome.status, outcome.reason)


@dataclass
class VerifyResult:
    verified: bool
    counterexample: Optional[Transcript]
    nodes: int

    def __bool__(self) -> bool:
        return self.verified


@contextmanager
def depth_limited(rounds: int, task: str, stats: Callable[[], dict]):
    """Turn a ``RecursionError`` in the block into a ``CapacityError`` that
    names the game's depth, ``rounds``.  The walks recurse once per position
    along a line, so a game with more rounds than Python's recursion limit
    allows is a capacity failure, not a crash; ``stats()`` gives the partial
    counts."""
    try:
        yield
    except RecursionError:
        raise CapacityError(
            f"game too deep to {task}: game.rounds = {rounds} exceeds "
            "the recursion limit", stats()) from None


def _walk_tree(inst: GameInstance, sigma: Strategy, role: str,
               node_budget: int, every_leaf: bool
               ) -> tuple[int, list[Transcript]]:
    """The tree walk: the nodes visited, terminal ones included, and the
    leaves it keeps as transcripts.  With ``every_leaf`` it keeps every
    leaf (the playouts); without, it stops at the first leaf ``role`` does
    not win and keeps that one (the counterexample).  ``sigma``'s stage
    steps into each ongoing position.

    Stopping at the first loss with a positional ``sigma``, the walk
    memoizes: the tree below a position depends on the position alone
    (AND-OR evaluation with transpositions), so each position with no
    pending move whose subtree ``role`` wins keeps that subtree's node
    count, and a later visit adds it without walking.  Nodes, the
    counterexample and the first error are the plain walk's.
    ``node_budget`` bounds the positions walked, a memo hit costing one, so
    a positional walk can finish under a budget below its node count.  The
    memo lives for one call."""
    nodes = walked = 0
    kept: list[Transcript] = []
    start = sigma.start()
    won: Optional[dict] = None if every_leaf or start is not None else {}
    step = sigma.step
    _new = tuple.__new__

    def walk(run: Run, stage) -> bool:
        """``stage`` is ``sigma``'s before the run's last entry."""
        nonlocal nodes, walked
        state = run.state
        keyed = won is not None and state.pending is None
        subtree = won.get(state, 0) if keyed else 0
        nodes += subtree or 1
        walked += 1
        if walked > node_budget:
            raise CapacityError("adversary tree exceeded the node budget",
                                {"nodes": nodes})
        if subtree:
            return False
        first = nodes
        outcome = terminal_status(inst, state)
        if not outcome.ongoing:
            if every_leaf or outcome.status != role:
                kept.append(Transcript(run, outcome.status, outcome.reason))
                return not every_leaf
            return False
        if stage is not None and run.entry is not None:
            stage = step(stage, run.entry)
        mover = state.to_move
        if mover == role:
            move = sigma.decide(inst, state, stage)
            validate_move(inst, state, move)
            options = (move,)
        else:
            options = legal_moves(inst, state)
        for move in options:
            # run.then(move) without a call: the walk's runs ask no strategy
            nxt = apply_move(inst, state, move, check=False)
            if walk(_new(Run, (inst, nxt, run, (mover, move), None, None)),
                    stage):
                return True
        if keyed:
            won[state] = nodes - first + 1
        return False

    try:
        with depth_limited(inst.rounds, "walk", lambda: {"nodes": nodes}):
            walk(Run.start(inst), start)
        return nodes, kept
    finally:
        walk = None  # see tabulate_strategy: frees the memo now


def verify_winning_strategy(inst: GameInstance, sigma: Strategy, role: str,
                            node_budget: int = DEFAULT_NODE_BUDGET
                            ) -> VerifyResult:
    """Exhaustively traverse every opposing line; verified iff ``role`` wins
    every leaf.  The first counterexample in canonical order is returned."""
    nodes, lost = _walk_tree(inst, sigma, role, node_budget, False)
    return VerifyResult(not lost, lost[0] if lost else None, nodes)


def enumerate_playouts(inst: GameInstance, sigma: Strategy, role: str,
                       node_budget: int = DEFAULT_NODE_BUDGET
                       ) -> list[Transcript]:
    """All playouts of ``sigma`` against every canonical adversary line."""
    return _walk_tree(inst, sigma, role, node_budget, True)[1]


def tabulate_strategy(inst: GameInstance, sigma: Strategy, role: str,
                      node_budget: int = DEFAULT_NODE_BUDGET
                      ) -> TableStrategy:
    """The positional walk: record a (possibly simulation-backed) strategy
    as a positional table over every position it can reach against
    canonical adversary lines.  At ``role``'s positions it records and
    follows ``sigma``'s checked move, decided at the stage of the line of
    the first visit.  ``node_budget`` bounds the positions visited."""
    table: dict[GameState, object] = {}
    seen: set[GameState] = set()
    step = sigma.step

    def visit(run: Run, stage) -> None:
        """``stage`` is ``sigma``'s before the run's last entry."""
        state = run.state
        if not terminal_status(inst, state).ongoing:
            return
        if state in seen:
            return
        seen.add(state)
        if len(seen) > node_budget:
            raise CapacityError("position walk exceeded the state budget",
                                {"states_visited": len(seen)})
        if run.entry is not None:
            stage = step(stage, run.entry)
        if state.to_move == role:
            move = sigma.decide(inst, state, stage)
            validate_move(inst, state, move)
            table[state] = move
            options = (move,)
        else:
            options = legal_moves(inst, state)
        for move in options:
            visit(run.then(move), stage)

    try:
        with depth_limited(inst.rounds, "tabulate",
                           lambda: {"states_visited": len(seen)}):
            visit(Run.start(inst), sigma.start())
        return TableStrategy(role, table, f"tabulated-{sigma.name}")
    finally:
        # visit refers to itself, so only the cyclic collector would free
        # what it holds; dropping the name frees ``seen`` now.
        visit = None

