"""Inputs, operations and output checks for the benchmark workloads.

Each workload is a list of operations that one closed-loop client (the
benchmark process) runs in order; a pass runs the whole list once.  The
inputs come from the seed.  Where the seed draws a family, it draws the
*placement* of a fixed shape (a random relabelling of the points), so every
seed asks for nearly the same amount of work.  Drawing the shapes too would
let the seed, not the program, set the run time: the corpus command, whose
generator draws shapes, varies threefold in run time between corpus seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

# Layer functions are called through their modules so that the tracer's
# rebinding catches these calls too.
from cutchoose import engine, serialize, solver, transforms
from cutchoose.engine import (BM_IDEAL, CHOOSE, CUT, G_IDEAL, G_POSET,
                              NONEMPTY, U, WEAK, GameInstance, copy_strategy,
                              first_move_strategy, greedy_picker_strategy)
from cutchoose.structures import (FiniteBooleanAlgebra, GroundSet, Ideal,
                                  MonotoneFamily)

PINNED_SEED = 2024


@dataclass
class Op:
    """One request of a pass.  ``run`` returns (checks attempted, problems);
    ``top`` marks the workload's largest request (timed as ``top_rung_s``)."""
    label: str
    run: Callable[[Callable], tuple[int, list[str]]]
    top: bool = False


def no_span(name: str):
    """Span factory of untraced passes; traced ones pass ``Tracer.span``."""
    return contextlib.nullcontext()


def _place(perm: list[int], points) -> int:
    return sum(1 << perm[p] for p in points)


def _family(ground: GroundSet, perm: list[int], shape: tuple) -> MonotoneFamily:
    kind, arg = shape
    if kind == "size_at_most":
        return MonotoneFamily.size_at_most(ground, arg)
    if kind == "generated_by":
        return MonotoneFamily.generated_by(ground, [_place(perm, g) for g in arg])
    return Ideal.generated_by(ground, [_place(perm, arg)])


# ---------------------------------------------------------------------------
# ladder: solve with strategy, serialize, parse, verify
# ---------------------------------------------------------------------------

LADDER_M = (8, 9, 10)
TINY_LADDER_M = (6,)
TOP_RUNG_M = 10


# Two generators of floor(m/2) points sharing one point; the seed places them.
def _ladder_generators(m: int) -> tuple:
    h = m // 2
    return (tuple(range(h)), tuple(range(h - 1, 2 * h - 1)))


# Winners by the binary threshold law (cutter wins iff m <= 2**rounds) and,
# for the seeded family, by isomorphism: every placement is the same game.
LADDER_WINNERS = {
    (6, "size_at_most"): CUT, (8, "size_at_most"): CUT,
    (9, "size_at_most"): CHOOSE, (10, "size_at_most"): CHOOSE,
    (6, "generated_by"): CHOOSE, (8, "generated_by"): CHOOSE,
    (9, "generated_by"): CHOOSE, (10, "generated_by"): CHOOSE,
}

# sha256 prefixes of the strategy JSON.  ``size_at_most`` games do not
# depend on the seed; the seeded family is pinned at PINNED_SEED only.
LADDER_DIGESTS = {
    (6, "size_at_most"): "b4e3b6124c86df2c",
    (8, "size_at_most"): "c20155ba270d3ac2",
    (9, "size_at_most"): "c00fd26ca9f35df2",
    (10, "size_at_most"): "49626ebec2266868",
}
LADDER_SEEDED_DIGESTS = {
    6: "258c080602bd6ad5", 8: "4b922948ef19198c",
    9: "4419cd7f1aa12567", 10: "2414d25ec2f9c522",
}


def ladder_games(seed: int, tiny: bool) -> list[tuple[tuple, GameInstance]]:
    rng = random.Random(seed)
    out = []
    for m in (TINY_LADDER_M if tiny else LADDER_M):
        ground = GroundSet(m)
        perm = list(range(m))
        rng.shuffle(perm)
        for kind, fam in (
                ("size_at_most", MonotoneFamily.size_at_most(ground, 1)),
                ("generated_by", _family(ground, perm, ("generated_by",
                                                        _ladder_generators(m))))):
            inst = GameInstance(game_family=U, start=ground.full_mask, rounds=3,
                                width=2, ground=ground, family=fam)
            out.append(((m, kind), inst))
    return out


def ladder_game(key: tuple, inst: GameInstance, seed: int, span=no_span):
    """solve -> serialize_strategy -> json.loads -> strategy_from_jsonable
    -> verify_winning_strategy, and the checks on each output."""
    result = solver.solve(inst)
    text = serialize.serialize_strategy(inst, result.strategy)
    with span("json.loads"):
        doc = json.loads(text)
    parsed = serialize.strategy_from_jsonable(inst, doc)
    verdict = engine.verify_winning_strategy(inst, parsed, result.winner)
    problems = []
    label = f"ladder m={key[0]} {key[1]}"
    if result.winner != LADDER_WINNERS[key]:
        problems.append(f"{label}: winner {result.winner}")
    if not verdict.verified:
        problems.append(f"{label}: strategy does not verify")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    pinned = (LADDER_DIGESTS[key] if key[1] == "size_at_most"
              else LADDER_SEEDED_DIGESTS[key[0]] if seed == PINNED_SEED
              else None)
    if pinned is not None and digest != pinned:
        problems.append(f"{label}: strategy digest {digest} != {pinned}")
    return 1, problems


def ladder_ops(seed: int, tiny: bool) -> list[Op]:
    ops = []
    top_m = TINY_LADDER_M[-1] if tiny else TOP_RUNG_M
    for key, inst in ladder_games(seed, tiny):
        def run(span, key=key, inst=inst):
            return ladder_game(key, inst, seed, span)
        ops.append(Op(f"m={key[0]} {key[1]}", run,
                      top=key == (top_m, "size_at_most")))
    return ops


# ---------------------------------------------------------------------------
# transport: strategy transformations, certificates and verification
# ---------------------------------------------------------------------------

# (ground, rounds, width, family shape, winner of the doubled partition game)
G_SHAPES = [
    (5, 1, 2, ("generated_by", ((0, 1), (2, 3))), CHOOSE),
    (5, 1, 3, ("generated_by", ((0, 1), (2, 3))), CHOOSE),
    (5, 1, 2, ("ideal", (0, 1)), CHOOSE),
    (5, 1, 3, ("ideal", (0, 1, 2)), CHOOSE),
    (5, 2, 2, ("size_at_most", 1), CUT),
    (5, 2, 2, ("generated_by", ((0, 1), (2, 3))), CHOOSE),
    (6, 1, 2, ("generated_by", ((0, 1, 2), (2, 3, 4))), CHOOSE),
    (6, 1, 2, ("ideal", (0, 1, 2)), CHOOSE),
]
# The top-rung request, the heaviest: one fixed placement for every seed,
# since its cost depends on where the canonical move order puts the
# generators (1.1 s to 2.2 s between placements).
TOP_G_SHAPE = (6, 1, 3, ("generated_by", ((0, 1), (2, 3))), CHOOSE)
# Seeded placements of each G_SHAPES and BM_SHAPES entry per pass, and
# repeats of the top-rung request: a pass of 10 s to 20 s averages out most
# of the placement dependence.
PLACEMENTS = 4
TOP_REPEATS = 4
# (ground, rounds, family shape)
BM_SHAPES = [
    (3, 2, ("generated_by", ((0,), (1,)))),
    (4, 1, ("ideal", (0, 1))),
    (4, 2, ("generated_by", ((0, 1), (2,)))),
    (4, 2, ("size_at_most", 1)),
    (4, 3, ("generated_by", ((0, 1), (2,)))),
    (3, 3, ("ideal", (0,))),
    (5, 1, ("generated_by", ((0, 1), (2, 3)))),
    (5, 1, ("ideal", (0, 1))),
]
ALGEBRA_ATOMS = (3, 4)


def _certify(out, tag: str) -> tuple[int, list[str]]:
    certs = transforms.certify_playouts(out)
    if not certs:
        return 1, [f"{tag}: no playouts"]
    return len(certs), [f"{tag}: certificate fails" for c in certs
                        if not c.holds]


def _verify(inst, sigma, role, tag, **kw) -> tuple[int, list[str]]:
    if engine.verify_winning_strategy(inst, sigma, role, **kw).verified:
        return 1, []
    return 1, [f"{tag}: transported strategy does not verify"]


def _combine(*parts) -> tuple[int, list[str]]:
    return sum(p[0] for p in parts), [x for p in parts for x in p[1]]


def _g_op(g_inst: GameInstance, expect: str, tag: str):
    def run(span):
        cut_out = transforms.disjointify_cut_strategy(
            first_move_strategy(g_inst, CUT), g_inst)
        parts = [_certify(cut_out, tag + " disjointify_cut")]
        u_inst = cut_out.instance
        res = solver.solve(u_inst)
        parts.append((1, [] if res.winner == expect
                      else [f"{tag}: doubled game winner {res.winner}"]))
        if res.winner == CHOOSE:
            out = transforms.disjointify_choose_strategy(res.strategy, g_inst)
            parts.append(_certify(out, tag + " disjointify_choose"))
            parts.append(_verify(g_inst, out.strategy, CHOOSE, tag))
        else:
            out = transforms.disjointify_choose_strategy(
                greedy_picker_strategy(u_inst), g_inst)
            parts.append(_certify(out, tag + " disjointify_choose"))
        return _combine(*parts)
    return run


def _bm_op(bm: GameInstance, tag: str):
    def provider(x0):
        return greedy_picker_strategy(GameInstance(
            game_family=G_IDEAL, start=x0, rounds=bm.rounds, width=None,
            variant=WEAK, cut_current=False, ground=bm.ground,
            family=bm.family))

    def run(span):
        out = transforms.nonempty_to_choose_strategy(copy_strategy(bm), bm,
                                                     bm.start)
        back = transforms.choose_to_nonempty_strategy(provider, bm)
        return _combine(
            _certify(out, tag + " nonempty_to_choose"),
            _verify(out.instance, out.strategy, CHOOSE, tag),
            _certify(back, tag + " choose_to_nonempty"),
            _verify(bm, back.strategy, NONEMPTY, tag, node_budget=500_000))
    return run


def _algebra_op(atoms: int, tag: str):
    alg = FiniteBooleanAlgebra(GroundSet(atoms))
    small = GameInstance(game_family=G_POSET, start=alg.top, rounds=2, width=2,
                         cut_current=False, algebra=alg)
    big = GameInstance(game_family=G_POSET, start=alg.top, rounds=1, width=4,
                       cut_current=False, algebra=alg)

    def run(span):
        res = solver.solve(small)
        if res.winner != CHOOSE:
            return 1, [f"{tag}: narrow game winner {res.winner}"]
        out = transforms.transfer_choose_small_to_big(res.strategy, small, 2, 2)
        cut = transforms.transfer_cut_big_to_small(
            first_move_strategy(big, CUT), big, 2, 2)
        return _combine((1, []),
                        _certify(out, tag + " transfer_choose"),
                        _verify(out.instance, out.strategy, CHOOSE, tag),
                        _certify(cut, tag + " transfer_cut"))
    return run


def _g_instance(shape: tuple, perm: list[int]) -> GameInstance:
    m, rounds, width, family, _ = shape
    ground = GroundSet(m)
    return GameInstance(game_family=G_IDEAL, start=ground.full_mask,
                        rounds=rounds, width=width, cut_current=False,
                        ground=ground, family=_family(ground, perm, family))


def transport_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    placements = 1 if tiny else PLACEMENTS
    ops = []
    for i, shape in enumerate(G_SHAPES[:2] if tiny else G_SHAPES):
        for k in range(placements):
            perm = list(range(shape[0]))
            rng.shuffle(perm)
            tag = f"G_ideal#{i}.{k}"
            ops.append(Op(tag, _g_op(_g_instance(shape, perm), shape[4], tag)))
    top = G_SHAPES[1] if tiny else TOP_G_SHAPE
    top_inst = _g_instance(top, list(range(top[0])))
    for k in range(1 if tiny else TOP_REPEATS):
        tag = f"G_ideal#top.{k}"
        ops.append(Op(tag, _g_op(top_inst, top[4], tag), top=True))
    for i, (m, rounds, shape) in enumerate(BM_SHAPES[:2] if tiny else BM_SHAPES):
        for k in range(placements):
            ground = GroundSet(m)
            perm = list(range(m))
            rng.shuffle(perm)
            bm = GameInstance(game_family=BM_IDEAL, start=ground.full_mask,
                              rounds=rounds, width=None, ground=ground,
                              family=_family(ground, perm, shape))
            tag = f"BM_ideal#{i}.{k}"
            ops.append(Op(tag, _bm_op(bm, tag)))
    for atoms in ALGEBRA_ATOMS[:1] if tiny else ALGEBRA_ATOMS:
        ops.append(Op(f"algebra{atoms}", _algebra_op(atoms, f"algebra{atoms}")))
    return ops


WORKLOAD_OPS = {"ladder": ladder_ops, "transport": transport_ops}


# ---------------------------------------------------------------------------
# corpus: the seeded audit pipeline, run through the command line
# ---------------------------------------------------------------------------

# The corpus seed stays at the pinned value: between corpus seeds the run
# time varies threefold (13 s to 41 s measured for seeds 1, 3, 6 and 2024),
# because a few drawn instances dominate.  The benchmark seed reaches the
# program as PYTHONHASHSEED instead, which must not change a byte.
CORPUS_SEED = 2024
CORPUS_PER_FAMILY = 25
TINY_CORPUS_PER_FAMILY = 2
CORPUS_SHA256 = "3d9e9360c97663f93e4125740ff74a99fe9e0700921eae770100da36abd676e9"


def corpus_argv(tiny: bool, jobs: int = 2) -> list[str]:
    per_family = TINY_CORPUS_PER_FAMILY if tiny else CORPUS_PER_FAMILY
    return ["corpus", "--seed", str(CORPUS_SEED), "--per-family",
            str(per_family), "--jobs", str(jobs), "--json"]


def check_corpus(code: int, stdout: bytes, tiny: bool) -> tuple[int, list[str]]:
    """Checks on one corpus run: one per instance, plus one on the bytes."""
    per_family = TINY_CORPUS_PER_FAMILY if tiny else CORPUS_PER_FAMILY
    expected = 5 * per_family
    attempted = expected + 1
    try:
        doc = json.loads(stdout)
        results = doc["results"]
    except (ValueError, KeyError, TypeError):
        return attempted, [f"corpus: exit {code}, unreadable output"] * attempted
    problems = []
    if code != 0:
        problems.append(f"corpus: exit code {code}")
    if not (doc.get("determinacy_verified") and doc.get("degeneracy_laws_hold")
            and doc.get("audit_disagreements") == 0):
        problems.append("corpus: summary flags report a failure")
    if len(results) != expected:
        problems.append(f"corpus: {len(results)} instances, expected {expected}")
    for r in results:
        family = r.get("game_family", "")
        degenerate = (family.startswith("G_") and r.get("winner") != CHOOSE
                      or family.startswith("BM_") and r.get("winner") != NONEMPTY)
        if (not r.get("strategy_verified") or not r.get("loser_refuted")
                or r.get("audit_disagreements") != 0 or degenerate):
            problems.append(f"corpus: instance {r.get('instance_id')} fails")
    if not tiny and hashlib.sha256(stdout).hexdigest() != CORPUS_SHA256:
        problems.append("corpus: output bytes differ from the pinned sha256")
    return attempted, problems
