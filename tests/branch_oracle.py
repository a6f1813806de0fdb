"""The per-sequence oracle of the distributivity checker: a branch through
one fixed move sequence, searched pick by pick, and the checker's outputs
rebuilt from it by trying every sequence in move order."""

from itertools import product

from cutchoose import analysis
from cutchoose.errors import CapacityError
from cutchoose.structures import (FinitePoset, MonotoneFamily,
                                  enumerate_cut_moves)


def find_branch(structure, x, seq, variant=analysis.PLAIN):
    """A branch through a fixed move sequence, or None: picks meet a running
    core, which dies when it falls into ``small``.

    ``plain`` needs the whole pick set bounded/positive, ``uniform`` only
    the proper prefixes, ``ideal_weak`` positive prefixes plus a nonempty
    total.  Picks of a poset meet through their down-sets; ``small`` is the
    family (an algebra is its trivial ideal), or ``{0}`` for a poset.
    """
    if isinstance(structure, MonotoneFamily):
        initial, down, small = x, None, structure
    elif isinstance(structure, FinitePoset):
        initial, down, small = structure.down[x], structure.down, {0}
    else:
        raise TypeError("unsupported structure")
    n = len(seq)

    def dfs(level, acc, picks):
        if level == n:
            if variant == analysis.UNIFORM or (
                    acc != 0 if variant == analysis.IDEAL_WEAK
                    else acc not in small):
                return list(picks)
            return None
        for pick in seq[level]:
            nxt = acc & (pick if down is None else down[pick])
            # plain: cores only shrink, so prefix pruning is sound;
            # otherwise only the proper prefixes are constrained
            if (variant == analysis.PLAIN or level < n - 1) and nxt in small:
                continue
            picks.append(pick)
            got = dfs(level + 1, nxt, picks)
            if got is not None:
                return got
            picks.pop()
        return None

    return dfs(0, initial, [])


def check_by_sequences(structure, x, rounds, width, variant=analysis.PLAIN,
                       maximal=True):
    """``(holds, failing_sequence, sequences_checked)`` from one oracle call
    per sequence, in move order, under the checker's budget."""
    budget = analysis.SEQUENCE_BUDGET
    moves = enumerate_cut_moves(structure, x, width, maximal, budget)
    checked = 0
    for seq in product(moves, repeat=rounds):
        checked += 1
        if checked > budget:
            raise CapacityError("sequence search exceeded the budget",
                                {"sequences_checked": checked})
        if find_branch(structure, x, seq, variant) is None:
            return False, list(seq), checked
    return True, None, checked
