"""Command-line workbench: solve, verify, transform, check, scan, audit,
ablate, play, corpus.  Every result is computed in the run: no subcommand
reads or writes a store of solved games.

Exit codes: 0 success, 1 validation failure (usage errors included), 2
capacity/budget exceeded.
With ``--json`` the machine-readable document goes to stdout; human-oriented
progress goes to stderr.  All emitted documents are byte-stable given equal
inputs, seeds, and flags.  ``corpus --jobs`` is accepted only because the
benchmark's argv passes it: the work runs in one thread.

``transform``: ``digit_split`` reads ``--m``, ``--nu`` and ``--rounds``, every
other transform an instance file, ``transfer_*`` also ``--nu`` and ``--beta``;
a missing input, or an instance file for ``digit_split``, names its field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import analysis, serialize, transforms
from ._version import ENGINE_VERSION
from .engine import (CHOOSE, CUT, EMPTY, NONEMPTY, GameInstance, apply_move,
                     copy_strategy, first_move_strategy,
                     greedy_picker_strategy, initial_state, legal_moves,
                     seeded_table_strategy, tabulate_strategy,
                     terminal_status, verify_winning_strategy)
from .errors import CapacityError, CutChooseError, ValidationError
from .solver import refute, solve, strategy_for
from .structures import format_mask

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAPACITY = 2

# Cap on the nodes of ``transform``'s playout walk and its tabulation.
TRANSFORM_NODE_BUDGET = 200_000


def _read_instance(path: str) -> GameInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.parse_instance(fh.read())


def _emit(doc, args, strategy_text: str | None = None) -> None:
    """Write ``doc`` to stdout under ``--json``; ``strategy_text``, a
    strategy document, is its ``strategy`` field."""
    if args.json:
        sys.stdout.write(
            serialize.dumps(doc) if strategy_text is None else
            serialize.dumps_embedding(doc, "strategy", strategy_text))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    result = solve(inst, want_strategy=not args.no_strategy)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "winner": result.winner,
        "stats": result.stats.to_jsonable(),
    }
    text = None
    if result.strategy is not None and (args.json or args.strategy_out):
        text = serialize.serialize_strategy(inst, result.strategy)
        if args.strategy_out:
            with open(args.strategy_out, "w", encoding="utf-8") as fh:
                fh.write(text)
    _emit(doc, args, text)
    if not args.json:
        print(f"winner: {result.winner}")
        print(f"states visited: {result.stats.states_visited}  "
              f"memo hits: {result.stats.memo_hits}")
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    with open(args.strategy, "r", encoding="utf-8") as fh:
        strategy = serialize.strategy_from_jsonable(inst, json.load(fh))
    result = verify_winning_strategy(inst, strategy, strategy.role)
    doc = {"schema_version": serialize.SCHEMA_VERSION,
           "role": strategy.role, "verified": result.verified,
           "nodes": result.nodes}
    if result.counterexample is not None:
        doc["counterexample"] = serialize.transcript_to_jsonable(
            result.counterexample)
    _emit(doc, args)
    if not args.json:
        print(f"verified: {result.verified} ({result.nodes} nodes)")
    return EXIT_OK if result.verified else EXIT_VALIDATION


def _sigma_for(args, inst: GameInstance, role: str):
    name = args.sigma
    if name in ("greedy", "copy"):
        # both play the current set, which no cut move is
        if role == CUT:
            raise ValidationError(f"{name} plays a set, not a cut; "
                                  f"the transform needs a {CUT} strategy",
                                  "--sigma")
        return (greedy_picker_strategy if name == "greedy"
                else copy_strategy)(inst)
    if name == "solver":
        return strategy_for(inst, role)[1]
    if name == "first":
        return first_move_strategy(inst, role)
    if name.startswith("seed:"):
        try:
            seed = int(name.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"seed:N needs an integer N, got {name!r}",
                                  "--sigma") from None
        return seeded_table_strategy(inst, role, seed)
    if name.startswith("file:"):
        with open(name.split(":", 1)[1], "r", encoding="utf-8") as fh:
            sigma = serialize.strategy_from_jsonable(inst, json.load(fh))
        if sigma.role != role:
            raise ValidationError(f"the file holds a {sigma.role} strategy; "
                                  f"the transform needs a {role} strategy",
                                  "--sigma")
        return sigma
    raise ValidationError(f"unknown sigma source {name!r}")


# The options each transform reads beside its instance file, if any.
TRANSFORM_OPTIONS = {"digit_split": ("m", "nu", "rounds"),
                     "transfer_cut": ("nu", "beta"),
                     "transfer_choose": ("nu", "beta")}


def cmd_transform(args) -> int:
    name = args.name
    if name == "digit_split" and args.instance is not None:
        raise ValidationError("digit_split reads no instance file",
                              "instance")
    if name != "digit_split" and args.instance is None:
        raise ValidationError(f"required by {name}", "instance")
    for option in TRANSFORM_OPTIONS.get(name, ()):
        if getattr(args, option) is None:
            raise ValidationError(f"required by {name}", f"--{option}")
    inst = None if name == "digit_split" else _read_instance(args.instance)
    if name == "digit_split":
        out = transforms.digit_split_cut_strategy(args.m, args.nu, args.rounds)
    elif name == "fixed_point":
        if args.alpha < 0:
            raise ValidationError("must be >= 0", "--alpha")
        sigma = transforms.fixed_point_choose_strategy(args.alpha)

        def certify_fp(t):
            picks = [m for r, m in t.moves if r == inst.picker]
            holds = all((p >> args.alpha) & 1 for p in picks)
            return transforms.TransformCertificate(
                "fixed_point", "every pick contains the fixed point",
                holds, t, [], {"alpha": args.alpha})

        out = transforms.TransformOutput("fixed_point", inst, sigma,
                                         certify_fp)
    elif name == "disjointify_cut":
        out = transforms.disjointify_cut_strategy(
            _sigma_for(args, inst, CUT), inst)
    elif name == "disjointify_choose":
        u_inst = transforms._doubled_instance(inst)
        out = transforms.disjointify_choose_strategy(
            _sigma_for(args, u_inst, CHOOSE), inst)
    elif name == "transfer_cut":
        out = transforms.transfer_cut_big_to_small(
            _sigma_for(args, inst, CUT), inst, args.nu, args.beta)
    elif name == "transfer_choose":
        out = transforms.transfer_choose_small_to_big(
            _sigma_for(args, inst, CHOOSE), inst, args.nu, args.beta)
    elif name == "empty_to_cut":
        # The transform asks the emptier one stage past the round count, so
        # its sigma comes from the game one round longer.
        longer = dataclasses.replace(inst, rounds=inst.rounds + 1)
        out = transforms.empty_to_cut_strategy(
            _sigma_for(args, longer, EMPTY), inst)
    elif name == "nonempty_to_choose":
        out = transforms.nonempty_to_choose_strategy(
            _sigma_for(args, inst, NONEMPTY), inst, inst.start)
    else:  # choose_to_nonempty, the last of the parser's choices
        def provider(x0):
            return greedy_picker_strategy(transforms.weak_g_instance(inst, x0))

        out = transforms.choose_to_nonempty_strategy(provider, inst)

    certs = transforms.certify_playouts(out, node_budget=TRANSFORM_NODE_BUDGET)
    # The tree walk above asked every question the positional walk asks, so
    # the table is built only where it is written.
    text = None
    if args.strategy_out or args.json:
        table = tabulate_strategy(out.instance, out.strategy,
                                  out.strategy.role, TRANSFORM_NODE_BUDGET)
        text = serialize.serialize_strategy(out.instance, table)
    if args.strategy_out:
        with open(args.strategy_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.game_out:
        with open(args.game_out, "w", encoding="utf-8") as fh:
            fh.write(serialize.serialize_instance(out.instance))
    if args.json:
        _emit({
            "schema_version": serialize.SCHEMA_VERSION,
            "transform": out.kind,
            "game": serialize.instance_to_jsonable(out.instance),
            "strategy": None,
            "playouts": len(certs),
            "all_hold": all(c.holds for c in certs),
            "certificates": [
                serialize.certificate_to_jsonable(c, out.aux_instance)
                for c in certs],
        }, args, text)
    if not args.json:
        print(f"transform {out.kind}: {len(certs)} playouts, "
              f"all certificates hold: {all(c.holds for c in certs)}")
    return EXIT_OK if all(c.holds for c in certs) else EXIT_VALIDATION


def cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    result = analysis.check_distributivity(
        inst.structure, inst.start, inst.rounds, inst.width,
        args.variant, inst.maximal)
    doc = {"schema_version": serialize.SCHEMA_VERSION,
           "variant": args.variant,
           "holds": result.holds,
           "sequences_checked": result.sequences_checked}
    if result.failing_sequence is not None:
        doc["failing_sequence"] = [
            serialize.move_to_jsonable(inst, tuple(m))
            for m in result.failing_sequence]
    _emit(doc, args)
    if not args.json:
        print(f"distributivity ({args.variant}): "
              f"{'holds' if result.holds else 'fails'}")
    return EXIT_OK


def _span(text: str, option: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"{option} must be lo:hi with integer bounds, "
                              f"got {text!r}") from None


def cmd_scan(args) -> int:
    n_lo, n_hi = _span(args.rounds, "--rounds")
    m_lo, m_hi = _span(args.ground, "--ground")
    rows = analysis.threshold_scan(args.nu, range(n_lo, n_hi + 1),
                                   range(m_lo, m_hi + 1), args.variant)
    doc = serialize.threshold_table_to_jsonable(rows)
    _emit(doc, args)
    if not args.json:
        for r in rows:
            print(f"rounds {r.rounds}: minimal picker win at "
                  f"{r.minimal_choose_win}")
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.instance:
        inst = _read_instance(args.instance)
        report = analysis.equivalence_audit(inst)
        doc = serialize.audit_report_to_jsonable(report)
        _emit(doc, args)
        if not args.json:
            print(serialize.audit_report_text(report))
        return EXIT_OK if not report.disagreements else EXIT_VALIDATION
    corpus = analysis.generate_corpus(args.seed, args.per_family)
    results = [{"instance_id": item.instance_id,
                "report": serialize.audit_report_to_jsonable(
                    analysis.equivalence_audit(item.instance))}
               for item in corpus]
    disagreements = sum(r["report"]["disagreements"] for r in results)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "seed": args.seed,
        "instances": len(results),
        "disagreements": disagreements,
        "reports": results,
    }
    _emit(doc, args)
    if not args.json:
        print(f"audited {len(results)} instances "
              f"(seed {args.seed}): {disagreements} disagreements")
    return EXIT_OK if disagreements == 0 else EXIT_VALIDATION


def cmd_ablate(args) -> int:
    inst = _read_instance(args.instance)
    report = analysis.maximality_ablation(inst)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "pieces": [format_mask(p) for p in report.pieces],
        "cutter_verified": report.cutter_verified,
        "restored_winner": report.restored_winner,
    }
    _emit(doc, args)
    if not args.json:
        print(f"forcing pieces {doc['pieces']}; cutter verified: "
              f"{report.cutter_verified}; with maximality restored the "
              f"winner is {report.restored_winner}")
    return EXIT_OK if report.cutter_verified else EXIT_VALIDATION


def cmd_corpus(args) -> int:
    results = []
    for item in analysis.generate_corpus(args.seed, args.per_family):
        inst = item.instance
        result = solve(inst)
        results.append({
            "instance_id": item.instance_id,
            "game_family": inst.game_family,
            "winner": result.winner,
            "strategy_verified": verify_winning_strategy(
                inst, result.strategy, result.winner).verified,
            "loser_refuted": not refute(
                inst, inst.opponent(result.winner)).has_winning_strategy,
            "audit_disagreements": len(
                analysis.equivalence_audit(inst).disagreements),
        })
    degeneracy_ok = all(
        r["winner"] == CHOOSE for r in results
        if r["game_family"].startswith("G_")) and all(
        r["winner"] == NONEMPTY for r in results
        if r["game_family"].startswith("BM_"))
    determinacy_ok = all(r["strategy_verified"] and r["loser_refuted"]
                         for r in results)
    disagreements = sum(r["audit_disagreements"] for r in results)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "seed": args.seed,
        "instances": len(results),
        "degeneracy_laws_hold": degeneracy_ok,
        "determinacy_verified": determinacy_ok,
        "audit_disagreements": disagreements,
        "results": results,
    }
    _emit(doc, args)
    if not args.json:
        print(f"corpus seed {args.seed}: {len(results)} instances; "
              f"degeneracy laws hold: {degeneracy_ok}; determinacy "
              f"verified: {determinacy_ok}; "
              f"audit disagreements: {disagreements}")
    ok = degeneracy_ok and determinacy_ok and disagreements == 0
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Interactive play
# ---------------------------------------------------------------------------

def _show_move(inst: GameInstance, move) -> str:
    if isinstance(move, tuple):
        return " | ".join(_show_move(inst, p) for p in move)
    if serialize.moves_are_masks(inst):
        return format_mask(move)
    return str(move)


def cmd_play(args) -> int:
    inst = _read_instance(args.instance)
    human_role = {"cut": inst.cutter, "choose": inst.picker}[args.role]
    machine_role = inst.opponent(human_role)
    # A positional table: it ignores the history it is handed.
    winner, machine = strategy_for(inst, machine_role)

    replay_inputs = None
    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as fh:
            log_doc = json.load(fh)
        if not isinstance(log_doc, dict) or \
                not isinstance(log_doc.get("inputs"), list):
            raise ValidationError("needs a list of move indices", "replay.inputs")
        if log_doc.get("instance") != serialize.instance_to_jsonable(inst):
            raise ValidationError("replay log belongs to another instance")
        if log_doc.get("human_role") != human_role:
            raise ValidationError("replay log uses the other role")
        replay_inputs = log_doc["inputs"]

    state = initial_state(inst)
    inputs: list[int] = []
    out = sys.stderr if args.json else sys.stdout
    print(f"you play {human_role}; the table plays {machine_role} "
          f"(solved winner: {winner})", file=out)
    outcome = terminal_status(inst, state)
    while outcome.ongoing:
        role = state.to_move
        if role == machine_role:
            move = machine.decide(inst, state, ())
            print(f"[{role}] plays {_show_move(inst, move)}", file=out)
        else:
            moves = legal_moves(inst, state)
            print(f"round {state.round}, core "
                  f"{_show_move(inst, state.core)}; your moves:", file=out)
            for i, mv in enumerate(moves):
                print(f"  {i}: {_show_move(inst, mv)}", file=out)
            where = ""
            if replay_inputs is not None:
                where = f"replay.inputs[{len(inputs)}]"
                if len(inputs) == len(replay_inputs):
                    raise ValidationError("the log ends before the game",
                                          where)
                idx = replay_inputs[len(inputs)]
            else:
                try:
                    idx = int(input("move index> "))
                except (EOFError, ValueError):
                    print("no input; resigning", file=out)
                    return EXIT_VALIDATION
            if type(idx) is not int or not (0 <= idx < len(moves)):
                raise ValidationError(f"move index {idx!r} out of range",
                                      where)
            inputs.append(idx)
            move = moves[idx]
        state = apply_move(inst, state, move)
        outcome = terminal_status(inst, state)
    print(f"winner: {outcome.status} ({outcome.reason})", file=out)
    session = {
        "schema_version": serialize.SCHEMA_VERSION,
        "instance": serialize.instance_to_jsonable(inst),
        "human_role": human_role,
        "inputs": inputs,
        "winner": outcome.status,
    }
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(session))
    if args.json:
        sys.stdout.write(serialize.dumps(session))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with 1: 2 is the exit code of a ``CapacityError``.
    Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutchoose",
        description="exact solving, strategy transformations, and audits for "
                    "finite cut-and-choose, poset, and Banach-Mazur games")
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout")

    p = sub.add_parser("solve", help="name the winner, extract the strategy")
    p.add_argument("instance")
    p.add_argument("--no-strategy", action="store_true")
    p.add_argument("--strategy-out")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check a strategy file exhaustively")
    p.add_argument("instance")
    p.add_argument("--strategy", required=True)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="apply a named strategy transform")
    p.add_argument("--name", required=True,
                   choices=["digit_split", "fixed_point", "disjointify_cut",
                            "disjointify_choose", "transfer_cut",
                            "transfer_choose", "empty_to_cut",
                            "nonempty_to_choose", "choose_to_nonempty"])
    p.add_argument("instance", nargs="?")
    p.add_argument("--sigma", default="solver",
                   help="solver|greedy|copy|first|seed:N|file:PATH")
    p.add_argument("--m", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--strategy-out", help="write the tabulated strategy here")
    p.add_argument("--game-out", help="write the output game instance here")
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("check", help="distributivity by direct search")
    p.add_argument("instance")
    p.add_argument("--variant", default=analysis.PLAIN,
                   choices=[analysis.PLAIN, analysis.UNIFORM,
                            analysis.IDEAL_WEAK])
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("scan", help="threshold scan over ground sizes")
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--rounds", default="1:3", help="lo:hi")
    p.add_argument("--ground", default="2:12", help="lo:hi")
    p.add_argument("--variant", default="exact",
                   choices=["exact", "weak", "strict_prefix"])
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("audit", help="two-sided characterization audit")
    p.add_argument("instance", nargs="?")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--per-family", type=int, default=25)
    common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("ablate", help="maximality ablation demonstration")
    p.add_argument("instance")
    common(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("play", help="interactive terminal session")
    p.add_argument("instance")
    p.add_argument("--role", choices=["cut", "choose"], default="choose")
    p.add_argument("--log")
    p.add_argument("--replay")
    common(p)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("corpus", help="generate and run the seeded corpus")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--per-family", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for the benchmark's argv; the work runs in "
                        "one thread and the output does not depend on it")
    common(p)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValidationError, CutChooseError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
