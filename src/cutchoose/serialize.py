"""Structured-text (JSON) schemas: instance, strategy, transcript, report.

Emitters build plain dicts with a fixed insertion order and serialize via
``dumps``; outputs are byte-stable across runs, which the golden tests pin.
A strategy document, the largest, is the exception: ``serialize_strategy``
writes its fixed shape as text, byte for byte what ``dumps`` makes of the
document built as dicts (the tests build it apart, as the writer's oracle).
Subset masks appear in text form as element lists like ``{0,2,3}``; hex
literals are accepted on input.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from . import engine
from .engine import GameInstance, GameState, TableStrategy, Transcript
from .errors import ValidationError
from .structures import (FiniteBooleanAlgebra, FinitePoset, GroundSet,
                         Ideal, Memo, MonotoneFamily, format_mask, parse_mask,
                         sorted_masks, validate_family)

SCHEMA_VERSION = 1


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def dumps_embedding(doc: dict, key: str, text: str) -> str:
    """``dumps(doc)`` where ``doc[key]`` is the document that ``dumps`` writes
    as ``text``: the text goes in one level deeper instead of through the
    encoder again.  The key keeps its place in ``doc``.  Only a top-level
    key starts a line with two spaces, so its line is found by its text."""
    line = f'\n  "{key}": '
    head, _, tail = dumps({**doc, key: 0}).partition(line + "0")
    return head + line + text.rstrip("\n").replace("\n", "\n  ") + tail


# ---------------------------------------------------------------------------
# Families and structures
# ---------------------------------------------------------------------------

def family_to_jsonable(family: MonotoneFamily) -> dict:
    out: dict[str, Any] = {"kind": family.kind}
    if family.kind == "size_at_most":
        out["bound"] = family.bound
    elif family.kind == "generated_by":
        out["generators"] = [format_mask(g) for g in family.generators]
    else:
        out["members"] = [format_mask(m) for m in sorted_masks(family.members)]
    return out


def family_from_jsonable(obj: dict, ground: GroundSet, ideal: bool,
                         path: str) -> MonotoneFamily:
    cls = Ideal if ideal else MonotoneFamily
    kind = _req(obj, "kind", str, path)
    if kind == "size_at_most":
        return _built(path + ".bound", cls.size_at_most, ground,
                      _req(obj, "bound", int, path))
    if kind == "generated_by":
        gens = _req(obj, "generators", list, path)
        return cls.generated_by(ground, _parse_masks(gens, ground.size,
                                                     path + ".generators"))
    if kind == "explicit":
        members = _parse_masks(_req(obj, "members", list, path), ground.size,
                               path + ".members")
        # The monotone-family invariants only.  Union closure and properness
        # stay unchecked for every kind: documents mark ``size_at_most 1``
        # families, which are not union-closed, as ideals.
        report = validate_family(MonotoneFamily.explicit(ground, members))
        if not report:
            raise ValidationError(
                f"not a monotone family: {report.violation} (witness "
                + ", ".join(format_mask(w) for w in report.witness) + ")",
                path + ".members")
        return cls.explicit(ground, members)
    raise ValidationError(f"unknown family kind {kind!r}", path + ".kind")


def _parse_masks(texts: list, size: int, path: str) -> list[int]:
    return [parse_mask(t, size, f"{path}[{i}]") for i, t in enumerate(texts)]


def instance_to_jsonable(inst: GameInstance) -> dict:
    if inst.game_family in engine.MASK_GAMES:
        structure: dict[str, Any] = {
            "kind": "family",
            "ground": inst.ground.size,
            "ideal": isinstance(inst.family, Ideal),
            "family": family_to_jsonable(inst.family),
        }
        start: Any = format_mask(inst.start)
    elif inst.poset is not None:
        structure = {
            "kind": "poset",
            "elements": inst.poset.size,
            "down": [format_mask(d) for d in inst.poset.down],
            "top": inst.poset.top,
        }
        start = inst.start
    else:
        structure = {"kind": "algebra", "atoms": inst.ground.size}
        start = format_mask(inst.start)
    return {
        "schema_version": SCHEMA_VERSION,
        "structure": structure,
        "game": {
            "family": inst.game_family,
            "start": start,
            "rounds": inst.rounds,
            "width": "unbounded" if inst.width is None else inst.width,
            "variant": inst.variant,
            "maximal": inst.maximal,
            "cut_current": inst.cut_current,
        },
    }


def _req(obj: dict, key: str, typ, path: str):
    if not isinstance(obj, dict):
        raise ValidationError("must be an object", path)
    if key not in obj:
        raise ValidationError("missing field", f"{path}.{key}")
    val = obj[key]
    if typ is not None and (not isinstance(val, typ)
                            or typ is int and isinstance(val, bool)):
        raise ValidationError(f"field {key!r} must be {typ.__name__}",
                              f"{path}.{key}")
    return val


def _opt(obj: dict, key: str, typ, default, path: str):
    return _req(obj, key, typ, path) if key in obj else default


def _built(path: str, make, *args):
    """``make(*args)``, its ``ValidationError`` naming the field at ``path``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(str(exc), path) from None


def instance_from_jsonable(obj: dict, path: str = "instance") -> GameInstance:
    version = _req(obj, "schema_version", None, path)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}",
                              path + ".schema_version")
    sobj = _req(obj, "structure", dict, path)
    gobj = _req(obj, "game", dict, path)
    spath, gpath = path + ".structure", path + ".game"
    kind = _req(sobj, "kind", str, spath)
    game_family = _req(gobj, "family", str, gpath)
    rounds = _req(gobj, "rounds", int, gpath)
    width_raw = _req(gobj, "width", None, gpath)
    if width_raw == "unbounded" or width_raw is None:
        width: Optional[int] = None
    elif isinstance(width_raw, int) and not isinstance(width_raw, bool):
        width = width_raw
    else:
        raise ValidationError("width must be an integer or 'unbounded'",
                              gpath + ".width")
    variant = gobj.get("variant", engine.EXACT)
    maximal = _opt(gobj, "maximal", bool, True, gpath)
    cut_current = _opt(gobj, "cut_current", bool, True, gpath)

    ground = family = poset = algebra = None
    if kind == "family":
        ground = _built(spath + ".ground", GroundSet,
                        _req(sobj, "ground", int, spath))
        family = family_from_jsonable(_req(sobj, "family", dict, spath),
                                      ground,
                                      _opt(sobj, "ideal", bool, False, spath),
                                      spath + ".family")
        start = parse_mask(_req(gobj, "start", None, gpath), ground.size,
                           gpath + ".start")
    elif kind == "poset":
        n = _req(sobj, "elements", int, spath)
        _built(spath + ".elements", FinitePoset.check_size, n)
        down = _parse_masks(_req(sobj, "down", list, spath), n,
                            spath + ".down")
        top = None if sobj.get("top") is None else _req(sobj, "top", int, spath)
        poset = _built(spath + ".down", FinitePoset, n, tuple(down))
        if top is not None:
            poset = _built(spath + ".top", FinitePoset, n, poset.down, top)
        start = _req(gobj, "start", int, gpath)
    elif kind == "algebra":
        algebra = FiniteBooleanAlgebra(_built(spath + ".atoms", GroundSet,
                                              _req(sobj, "atoms", int, spath)))
        start = parse_mask(_req(gobj, "start", None, gpath),
                           algebra.atoms.size, gpath + ".start")
    else:
        raise ValidationError(f"unknown structure kind {kind!r}", spath + ".kind")

    try:
        return GameInstance(game_family=game_family, start=start, rounds=rounds,
                            width=width, variant=variant, maximal=maximal,
                            cut_current=cut_current, ground=ground,
                            family=family, poset=poset, algebra=algebra)
    except ValidationError as exc:
        # the instance names its field; the game's "family" is game_family
        where = {"": gpath, "structure": spath,
                 "game_family": gpath + ".family"}
        raise ValidationError(exc.message, where.get(
            exc.path, f"{gpath}.{exc.path}")) from None


def parse_json(text: str, source: str = "") -> Any:
    """``json.loads(text)``; malformed text raises a ``ValidationError``
    whose path is its line and column, after ``source`` when one is named."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno} column {exc.colno}"
        raise ValidationError(f"malformed JSON: {exc.msg}",
                              f"{source}: {where}" if source else where
                              ) from None


def parse_instance(text: str) -> GameInstance:
    """Parse an instance document; diagnostics carry line or field positions."""
    return instance_from_jsonable(parse_json(text))


def serialize_instance(inst: GameInstance) -> str:
    return dumps(instance_to_jsonable(inst))


# ---------------------------------------------------------------------------
# Moves, states, strategies, transcripts
# ---------------------------------------------------------------------------

def moves_are_masks(inst: GameInstance) -> bool:
    """Moves (and pieces) are subset masks, except poset elements."""
    return inst.poset is None


def _cores_are_masks(inst: GameInstance) -> bool:
    # a G_poset core on a poset is a lower-bound set, a mask of elements
    return moves_are_masks(inst) or inst.game_family == engine.G_POSET


def _mask_size(inst: GameInstance) -> int:
    """The number of bits a mask of the instance may use."""
    return inst.ground.size if inst.poset is None else inst.poset.size


def move_to_jsonable(inst: GameInstance, move) -> Any:
    """A move, a sequence of moves, or ``None`` (kept as it is)."""
    if isinstance(move, (tuple, list)):
        return [move_to_jsonable(inst, p) for p in move]
    if move is None or not moves_are_masks(inst):
        return move
    return format_mask(move)


def state_to_jsonable(inst: GameInstance, state: GameState) -> dict:
    core: Any = state.core
    if _cores_are_masks(inst):
        core = format_mask(state.core)
    return {
        "round": state.round,
        "to_move": state.to_move,
        "core": core,
        "pending": None if state.pending is None
        else move_to_jsonable(inst, state.pending),
    }


def transcript_to_jsonable(t: Transcript) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "game": instance_to_jsonable(t.instance),
        "moves": [{"role": role, "move": move_to_jsonable(t.instance, move)}
                  for role, move in t.moves],
        "states": [state_to_jsonable(t.instance, s) for s in t.states],
        "winner": t.winner,
        "reason": t.reason,
    }


def _key_sort_key(state: GameState):
    # A parsed table may hold ``pending`` null and a list for the same core.
    rnd, to_move, core, pending = state
    return (rnd, to_move, core, pending if pending is not None else ())


def _json_at(v, depth: int) -> str:
    """``v`` as ``dumps`` writes it at ``depth`` (2 spaces each)."""
    if v.__class__ is int:
        return int.__repr__(v)
    if v.__class__ is str:
        return encode_basestring_ascii(v)
    return json.dumps(v, indent=2).replace("\n", "\n" + "  " * depth)


# A strategy entry as ``dumps`` lays it out (state fields at depth 4, the
# move at depth 3) is ``_STATE_HEAD`` filled in with its round, to_move and
# core, then its ``pending``, ``_MOVE_HEAD``, its move and ``_ENTRY_END``,
# which closes the entry and separates it from the next.
_STATE_HEAD = ('    {\n      "state": {\n        "round": %s,\n'
               '        "to_move": %s,\n        "core": %s,\n'
               '        "pending": ')
_MOVE_HEAD = '\n      },\n      "move": '
_ENTRY_END = '\n    },\n'


def serialize_strategy(inst: GameInstance, strategy: TableStrategy) -> str:
    """The strategy document of ``strategy``, byte for byte what ``dumps``
    makes of it, written for the document's fixed shape instead of through
    the generic encoder.  Entries are in state order, a null ``pending``
    sorting as an empty list.  Each mask is formatted, and each move
    written, once per call: a move's text depends only on its value."""
    table = strategy.entries
    try:
        states = sorted(table)
    except TypeError:
        # a null and a list ``pending`` under one (round, to_move, core):
        # the key sorts the null as an empty list, and agrees with plain
        # tuple order wherever that is defined
        states = sorted(table, key=_key_sort_key)
    masks = Memo(lambda mask: encode_basestring_ascii(format_mask(mask)))
    if moves_are_masks(inst):
        def piece(p, depth: int) -> str:
            return masks[p]
    else:
        piece = _json_at
    core = (masks.__getitem__ if _cores_are_masks(inst)
            else lambda c: _json_at(c, 4))

    # a list's opening, separator and closing at each depth
    frames = Memo(lambda depth: ("[\n" + "  " * (depth + 1),
                                 ",\n" + "  " * (depth + 1),
                                 "\n" + "  " * depth + "]"))

    def move(mv, depth: int) -> str:
        if not isinstance(mv, tuple):
            return piece(mv, depth)
        if not mv:
            return "[]"
        start, sep, end = frames[depth]
        return start + sep.join([move(p, depth + 1) if isinstance(p, tuple)
                                 else piece(p, depth + 1) for p in mv]) + end

    pending_text = Memo(lambda p: "null" if p is None else move(p, 4))
    move_text = Memo(lambda mv: move(mv, 3))
    head = ('{\n  "schema_version": %d,\n  "role": %s,\n  "kind": %s,\n'
            '  "entries": ' % (SCHEMA_VERSION, _json_at(strategy.role, 1),
                               _json_at(strategy.kind, 1)))
    if not states:
        return head + "[]\n}\n"
    parts = [head + "[\n"]
    group = None
    for state in states:
        if state[:3] != group:
            group = state[:3]
            state_head = _STATE_HEAD % (_json_at(group[0], 4),
                                        _json_at(group[1], 4), core(group[2]))
        parts += (state_head, pending_text[state[3]], _MOVE_HEAD,
                  move_text[table[state]], _ENTRY_END)
    parts[-1] = "\n    }\n  ]\n}\n"  # the last entry closes the document
    return "".join(parts)


def strategy_from_jsonable(inst: GameInstance, obj: dict) -> TableStrategy:
    """Parse a strategy document.  Every field of every entry is checked; an
    error names its field, the path being built only when a check fails.
    Each distinct mask text is parsed once per call.  A position listed
    twice is refused."""
    if _req(obj, "schema_version", None, "strategy") != SCHEMA_VERSION:
        raise ValidationError("unsupported", "strategy.schema_version")
    role = _req(obj, "role", str, "strategy")
    kind = _req(obj, "kind", str, "strategy")
    if kind != TableStrategy.kind:
        raise ValidationError(f"{kind!r} is not {TableStrategy.kind!r}",
                              "strategy.kind")
    size = _mask_size(inst)
    masks = Memo(lambda text: parse_mask(text, size))

    def mask(text) -> int:
        # a text that is not a string is not cached: ``parse_mask`` rejects it
        return masks[text] if isinstance(text, str) else parse_mask(text, size)

    def element(obj) -> int:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ValidationError("poset move must be an element index")
        return obj

    piece = mask if moves_are_masks(inst) else element
    core_masks = _cores_are_masks(inst)

    def move(obj):
        if not isinstance(obj, list):
            return piece(obj)
        pieces = []
        for i, p in enumerate(obj):
            try:
                pieces.append(move(p))
            except ValidationError as exc:
                raise _under(f"[{i}]", exc) from None
        return tuple(pieces)

    def at(rel: str, parse, obj):
        try:
            return parse(obj)
        except ValidationError as exc:
            raise _under(rel, exc) from None

    def entry(i: int, e) -> tuple:
        # the entry's position and move, each field checked on its own
        try:
            sobj = _req(e, "state", dict, "")
            pending = sobj.get("pending")
            core = _req(sobj, "core", None if core_masks else int, ".state")
            if core_masks:
                core = at(".state.core", mask, core)
            state = GameState(
                _req(sobj, "round", int, ".state"),
                _req(sobj, "to_move", str, ".state"), core,
                None if pending is None else at(".state.pending", move, _req(
                    sobj, "pending", list, ".state")))
            return state, at(".move", move, _req(e, "move", None, ""))
        except ValidationError as exc:
            raise _under(f"strategy.entries[{i}]", exc) from None

    # Entries of the common shape are read in one loop: each field by
    # subscription, each type by its class and each mask text through the
    # memo, whose lookup refuses a value that is not a string (with
    # ``parse_mask``'s error, or ``TypeError`` for a list).  Any other entry,
    # one with an error included, is read by ``entry``, which names the
    # field at fault.  ``tuple.__new__`` builds a ``GameState`` without the
    # named tuple's constructor, a Python call; ``(*map(...),)`` builds each
    # tuple at its size, where ``tuple(map(...))`` allocates ten slots and
    # shrinks.
    fast = moves_are_masks(inst)  # and then the cores are masks too
    get = masks.__getitem__
    new = tuple.__new__
    items = _req(obj, "entries", list, "strategy")
    entries = {}
    for i, e in enumerate(items):
        if fast:
            try:
                sobj = e["state"]
                rnd, to_move = sobj["round"], sobj["to_move"]
                pending, mv = sobj.get("pending"), e["move"]
                if (rnd.__class__ is int and to_move.__class__ is str
                        and (pending is None or pending.__class__ is list)):
                    entries[new(GameState, (
                        rnd, to_move, get(sobj["core"]),
                        None if pending is None
                        else (*map(get, pending),)))] = (
                        (*map(get, mv),) if mv.__class__ is list
                        else get(mv))
                    continue
            except (KeyError, TypeError, ValidationError):
                pass
        state, move_ = entry(i, e)
        entries[state] = move_
    if len(entries) < len(items):
        first = {}
        for j, e in enumerate(items):
            i = first.setdefault(entry(j, e)[0], j)
            if i != j:
                raise ValidationError(f"position repeats strategy.entries[{i}]",
                                      f"strategy.entries[{j}]")
    return TableStrategy(role, entries)


def _under(prefix: str, exc: ValidationError) -> ValidationError:
    """``exc`` with its field path placed under ``prefix``."""
    return ValidationError(exc.message, prefix + exc.path)

# ---------------------------------------------------------------------------
# Certificates, audit reports, threshold tables
# ---------------------------------------------------------------------------

def certificate_to_jsonable(cert, aux_instance: Optional[GameInstance] = None) -> dict:
    """With an ``aux_instance`` the certificate's ``aux_moves`` are the
    ``(role, move)`` pairs of a run of that auxiliary game; without one they
    are moves, or masks, of the output game."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": cert.kind,
        "relation": cert.relation,
        "holds": cert.holds,
        "output_run": transcript_to_jsonable(cert.output_run),
        "aux_moves": [move_to_jsonable(cert.output_run.instance, m)
                      if aux_instance is None
                      else [m[0], move_to_jsonable(aux_instance, m[1])]
                      for m in cert.aux_moves],
        "details": {k: _plain(v) for k, v in sorted(cert.details.items())},
    }


def _plain(v):
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def audit_report_to_jsonable(report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": instance_to_jsonable(report.instance),
        "rows": [{
            "id": r.row_id,
            "description": r.description,
            "left": _plain(r.left),
            "right": _plain(r.right),
            "left_provenance": r.left_provenance,
            "right_provenance": r.right_provenance,
            "agree": r.agree,
            "note": r.note,
        } for r in report.rows],
        "disagreements": len(report.disagreements),
    }


def audit_report_text(report) -> str:
    """Fixed-width table mirroring the characterization-table layout."""
    header = f"{'row':34} {'left':>10} {'right':>10} {'agree':>6}  provenance"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        agree = "-" if r.agree is None else ("yes" if r.agree else "NO")
        lines.append(f"{r.row_id:34} {str(r.left):>10} {str(r.right):>10} "
                     f"{agree:>6}  {r.left_provenance}/{r.right_provenance}")
    return "\n".join(lines) + "\n"


def threshold_table_to_jsonable(rows) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [{"rounds": r.rounds, "minimal_choose_win": r.minimal_choose_win}
                 for r in rows],
    }
