import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from cutchoose import serialize
from cutchoose.cli import main
from cutchoose.engine import GameInstance, U
from cutchoose.errors import ValidationError
from cutchoose.structures import GroundSet, Ideal, MonotoneFamily


def u_doc(m=4, rounds=2, width=2, variant="exact", start=None, bound=1):
    return {
        "schema_version": 1,
        "structure": {"kind": "family", "ground": m, "ideal": False,
                      "family": {"kind": "size_at_most", "bound": bound}},
        "game": {"family": "U",
                 "start": start or "{" + ",".join(map(str, range(m))) + "}",
                 "rounds": rounds, "width": width, "variant": variant,
                 "maximal": True, "cut_current": True},
    }


def _family_doc(m, family, game, rounds, width, ideal=True, cut_current=False):
    doc = u_doc(m=m, rounds=rounds, width=width)
    doc["structure"].update({"ideal": ideal, "family": family})
    doc["game"].update({"family": game, "cut_current": cut_current})
    return doc


# the game CI solves through the installed entry point
CI_U4 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), ".github", "ci", "u4.json")
CI_G4 = os.path.join(os.path.dirname(CI_U4), "g4.json")
CI_A4 = os.path.join(os.path.dirname(CI_U4), "a4.json")


@pytest.fixture
def u4(tmp_path):
    path = tmp_path / "u4.json"
    path.write_text(json.dumps(u_doc()))
    return str(path)


# ---------------------------------------------------------------------------
# parse_instance diagnostics
# ---------------------------------------------------------------------------

def test_parse_instance_round_trip():
    inst = serialize.parse_instance(json.dumps(u_doc()))
    text = serialize.serialize_instance(inst)
    assert serialize.parse_instance(text) == inst
    # canonical: serializing the parse of a hand-written doc is stable
    assert serialize.serialize_instance(serialize.parse_instance(text)) == text


def test_parse_rejects_small_width():
    doc = u_doc(width=1)
    with pytest.raises(ValidationError) as err:
        serialize.parse_instance(json.dumps(doc))
    assert "width" in str(err.value)


def test_parse_rejects_start_in_family():
    doc = u_doc(start="{0}")
    with pytest.raises(ValidationError) as err:
        serialize.parse_instance(json.dumps(doc))
    assert "positive" in str(err.value)


def test_parse_reports_positions():
    with pytest.raises(ValidationError) as err:
        serialize.parse_instance("{not json")
    assert "line 1" in str(err.value)
    with pytest.raises(ValidationError) as err:
        serialize.parse_instance(json.dumps({"schema_version": 1}))
    assert "instance" in str(err.value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_solve_verify_round_trip(tmp_path, u4, capsys):
    strategy_path = str(tmp_path / "sigma.json")
    assert main(["solve", u4, "--strategy-out", strategy_path]) == 0
    assert main(["verify", u4, "--strategy", strategy_path]) == 0
    out = capsys.readouterr().out
    assert "winner: Cut" in out and "verified: True" in out


def test_solve_json_deterministic(capsys):
    assert main(["solve", CI_U4, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", CI_U4, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["winner"] == "Cut"
    # the stats block, keys in document order; ``cached`` is always false
    assert list(doc["stats"].items()) == [
        ("states_visited", 13), ("memo_hits", 4), ("cached", False)]


def test_scan_subcommand(capsys):
    assert main(["scan", "--nu", "2", "--rounds", "1:2",
                 "--ground", "2:6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"rounds": 1, "minimal_choose_win": 3},
                           {"rounds": 2, "minimal_choose_win": 5}]


def test_check_subcommand(tmp_path, capsys):
    doc = u_doc(m=4, rounds=2, width=2)
    doc["game"]["family"] = "G_ideal"
    doc["game"]["maximal"] = False
    doc["game"]["cut_current"] = False
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--variant", "ideal_weak",
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is False and "failing_sequence" in out


def test_audit_single_instance(u4, capsys):
    assert main(["audit", u4, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["disagreements"] == 0


def test_audit_corpus_reproducible_across_runs(capsys):
    args = ["audit", "--seed", "9", "--per-family", "2", "--json"]
    assert main(args) == 0
    one = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == one
    assert json.loads(one)["disagreements"] == 0


def test_transform_subcommand(capsys):
    assert main(["transform", "--name", "digit_split", "--m", "4",
                 "--nu", "2", "--rounds", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_hold"] is True and doc["playouts"] == 4


def test_transform_json_encodes_auxiliary_runs(tmp_path, capsys):
    doc = u_doc(rounds=1)
    doc["structure"]["ideal"] = True
    doc["game"].update({"family": "G_ideal", "width": "unbounded",
                        "variant": "weak", "cut_current": False})
    path = tmp_path / "g4.json"
    path.write_text(json.dumps(doc))
    assert main(["transform", "--name", "disjointify_cut", str(path),
                 "--sigma", "solver", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_hold"] is True and out["playouts"] == 4
    # the auxiliary run is a G_ideal game on the input's ground
    assert out["certificates"][0]["aux_moves"] == [
        ["Cut", ["{0,1}", "{0,2}", "{0,3}", "{1,2}", "{1,3}", "{2,3}"]],
        ["Choose", "{0,1}"]]


@pytest.mark.parametrize("name, playouts, code, nodes, digest", [
    # the solver's Cut side of g4 loses, and so does its transform
    ("disjointify_cut", 3, 1, 9,
     "e32342894edf16477f06dc39e2b555dc8fb87479f86c8c7d37b9dd2dec747381"),
    ("disjointify_choose", 1, 0, 5,
     "0276774cbb865adc9c1447c268f71a1dfa72eaadce372fd4cb58511aa8984b6e"),
])
def test_transform_files_verify_as_the_readme_shows(tmp_path, capsys, name,
                                                    playouts, code, nodes,
                                                    digest):
    # the README's transform --strategy-out --game-out, then verify
    tau, game = tmp_path / "tau.json", tmp_path / "out_game.json"
    argv = ["transform", "--name", name, CI_G4, "--sigma", "solver"]
    assert main(argv + ["--strategy-out", str(tau),
                        "--game-out", str(game)]) == 0
    assert capsys.readouterr().out == (
        f"transform {name}: {playouts} playouts, all certificates hold: True\n")
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["playouts"] == playouts
    assert json.loads(tau.read_text()) == doc["strategy"]
    assert json.loads(game.read_text()) == doc["game"]
    assert main(["verify", str(game), "--strategy", str(tau),
                 "--json"]) == code
    out = capsys.readouterr().out
    result = json.loads(out)
    assert (result["verified"], result["nodes"]) == (code == 0, nodes)
    assert ("counterexample" in result) == (code == 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ablate_subcommand(tmp_path, capsys):
    doc = u_doc(m=4, rounds=2, width=6)
    doc["game"]["family"] = "G_ideal"
    doc["game"]["maximal"] = False
    doc["game"]["cut_current"] = False
    path = tmp_path / "abl.json"
    path.write_text(json.dumps(doc))
    assert main(["ablate", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cutter_verified"] is True
    assert out["restored_winner"] == "Choose"


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(u_doc(width=1)))
    assert main(["solve", str(bad)]) == 1
    assert main(["solve", str(tmp_path / "missing.json")]) == 1


def test_play_replay_round_trip(tmp_path, u4, capsys, monkeypatch):
    answers = iter(["0", "1"])
    monkeypatch.setattr("builtins.input", lambda *a: next(answers))
    log = str(tmp_path / "session.json")
    assert main(["play", u4, "--role", "choose", "--log", log]) == 0
    first = capsys.readouterr().out
    assert main(["play", u4, "--role", "choose", "--replay", log]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[-1] == second.splitlines()[-1]
    with open(log, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["inputs"] == [0, 1] and doc["winner"] == "Cut"


def test_transcript_golden_stability(u4):
    from cutchoose.engine import play_out, greedy_picker_strategy
    from cutchoose.solver import solve
    inst = serialize.parse_instance(open(u4).read())
    res = solve(inst)
    t = play_out(inst, res.strategy, greedy_picker_strategy(inst))
    text = serialize.dumps(serialize.transcript_to_jsonable(t))
    doc = json.loads(text)
    assert list(doc) == ["schema_version", "game", "moves", "states",
                         "winner", "reason"]
    t2 = play_out(inst, res.strategy, greedy_picker_strategy(inst))
    assert serialize.dumps(serialize.transcript_to_jsonable(t2)) == text


def test_certificate_golden_stability():
    from cutchoose.transforms import (certify_playouts,
                                      digit_split_cut_strategy)
    out = digit_split_cut_strategy(4, 2, 2)
    first = serialize.dumps([serialize.certificate_to_jsonable(c)
                             for c in certify_playouts(out)])
    second = serialize.dumps([serialize.certificate_to_jsonable(c)
                              for c in certify_playouts(out)])
    assert first == second
    doc = json.loads(first)
    assert list(doc[0]) == ["schema_version", "kind", "relation", "holds",
                            "output_run", "aux_moves", "details"]


def test_corpus_subcommand(capsys):
    assert main(["corpus", "--seed", "31", "--per-family", "2",
                 "--json", "--jobs", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degeneracy_laws_hold"] is True
    assert doc["determinacy_verified"] is True
    assert doc["audit_disagreements"] == 0


def test_capacity_exit_code(tmp_path):
    doc = u_doc(m=18, rounds=1, width=18)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2


def test_poset_and_algebra_instances_round_trip():
    from cutchoose.structures import FinitePoset, FiniteBooleanAlgebra
    poset_doc = {
        "schema_version": 1,
        "structure": {"kind": "poset", "elements": 3,
                      "down": ["{0}", "{1}", "{0,1,2}"], "top": 2},
        "game": {"family": "BM_poset", "start": 2, "rounds": 2,
                 "width": "unbounded", "variant": "exact",
                 "maximal": True, "cut_current": True},
    }
    inst = serialize.parse_instance(json.dumps(poset_doc))
    assert serialize.parse_instance(serialize.serialize_instance(inst)) == inst

    algebra_doc = {
        "schema_version": 1,
        "structure": {"kind": "algebra", "atoms": 3},
        "game": {"family": "G_poset", "start": "{0,1,2}", "rounds": 2,
                 "width": 2, "variant": "exact", "maximal": True,
                 "cut_current": False},
    }
    inst2 = serialize.parse_instance(json.dumps(algebra_doc))
    assert serialize.parse_instance(
        serialize.serialize_instance(inst2)) == inst2


def test_ideal_flag_round_trips_to_ideal_type():
    from cutchoose.structures import Ideal
    doc = u_doc()
    doc["structure"]["ideal"] = True
    doc["structure"]["family"] = {"kind": "generated_by",
                                  "generators": ["{3}"]}
    inst = serialize.parse_instance(json.dumps(doc))
    assert isinstance(inst.family, Ideal)
    assert serialize.parse_instance(
        serialize.serialize_instance(inst)) == inst


# ---------------------------------------------------------------------------
# Malformed inputs end in exit code 1 with the field named, not a traceback
# ---------------------------------------------------------------------------

def run_cli(*argv, stdin=None):
    """The command in a subprocess, ``stdin`` piped to it (empty if None)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        serialize.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "cutchoose.cli", *argv],
                          env=env, capture_output=True, text=True,
                          input=stdin, timeout=120)


def _verify_with_first_state_edited(tmp_path, u4, edit):
    strategy_path = tmp_path / "sigma.json"
    assert main(["solve", u4, "--strategy-out", str(strategy_path)]) == 0
    doc = json.loads(strategy_path.read_text())
    edit(doc["entries"][0]["state"])
    strategy_path.write_text(json.dumps(doc))
    return run_cli("verify", u4, "--strategy", str(strategy_path))


def test_strategy_entry_without_core_is_rejected(tmp_path, u4):
    proc = _verify_with_first_state_edited(tmp_path, u4,
                                           lambda state: state.pop("core"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "strategy.entries[0].state.core" in proc.stderr


@pytest.mark.parametrize("field, value", [("maximal", "no"),
                                          ("rounds", True)])
def test_instance_field_of_the_wrong_type_is_rejected(tmp_path, field,
                                                      value):
    doc = u_doc()
    doc["game"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"instance.game.{field}" in proc.stderr


def _algebra_doc(game_family):
    doc = u_doc(m=3, start="{0,1,2}")
    doc["structure"] = {"kind": "algebra", "atoms": 3}
    doc["game"]["family"] = game_family
    return doc


@pytest.mark.parametrize("doc, path", [
    (u_doc(rounds=0), "instance.game.rounds"),
    (u_doc(width=1), "instance.game.width"),
    (u_doc(start="{}"), "instance.game.start"),
    (u_doc(variant="strong"), "instance.game.variant"),
    ({**u_doc(), "game": {**u_doc()["game"], "family": "X"}},
     "instance.game.family"),
    # a game family the structure cannot carry
    (_algebra_doc("U"), "instance.structure"),
    ({**u_doc(), "game": {**u_doc()["game"], "family": "G_poset"}},
     "instance.structure")],
    ids=["rounds", "width", "start", "variant", "family", "U_on_algebra",
         "G_poset_on_family"])
def test_an_instance_refusal_names_its_field(tmp_path, doc, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ")


@pytest.mark.parametrize("argv", [
    ("solve", "{deep}"), ("audit", "{deep}"),
    # the playout walk of the transformed strategy, not the solver
    ("transform", "--name", "digit_split", "--m", "6", "--nu", "2",
     "--rounds", "1000"),
    # the sequence and branch searches of the independent checker
    ("check", "{deep}")], ids=["solve", "audit", "transform", "check"])
def test_a_game_too_deep_to_solve_is_a_capacity_error(tmp_path, argv):
    # a singleton core is cut into itself every round until the last
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(u_doc(m=6, rounds=1000)))
    proc = run_cli(*(a.format(deep=path) for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "game.rounds = 1000" in proc.stderr


def test_a_deep_winner_only_solve_is_a_capacity_error(tmp_path):
    # the size shortcut recurses once per round when a one-point core
    # cannot split
    doc = u_doc(m=1, rounds=5000, start="{0}", bound=0)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", str(path), "--no-strategy")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("capacity: game too deep to solve: game.rounds = "
                           "5000 exceeds the recursion limit\n")


def test_the_removed_disk_cache_is_refused_cleanly(tmp_path, u4,
                                                   monkeypatch):
    # solving has one path: no flag, subcommand or variable reaches a disk
    # cache
    for argv in (("solve", u4, "--cache-dir", str(tmp_path / "c")),
                 ("cache", "info")):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert "usage: cutchoose" in proc.stderr
        assert "Traceback" not in proc.stderr
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("CUTCHOOSE_CACHE_DIR", str(cache))
    assert run_cli("solve", u4).returncode == 0
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv, removed", [
    (("solve", "{u4}", "--output", "{out}"), "--output {out}"),
    (("play", "{u4}", "--output", "{out}"), "--output {out}"),
    (("verify", "{u4}", "--strategy", "{out}", "--role", "Choose"),
     "--role Choose"),
    # ``2`` fills the optional instance slot
    (("audit", "--jobs", "2"), "--jobs"),
    # accepted only because the benchmark's argv passes it
    (("corpus", "--seed", "31", "--per-family", "2", "--jobs", "2",
      "--json"), None),
], ids=["solve_output", "play_output", "verify_role", "audit_jobs",
        "corpus_jobs"])
def test_the_removed_options_are_refused_cleanly(tmp_path, u4, argv,
                                                 removed):
    # ``--json > file`` writes what ``--output`` did; a table verifies only
    # as its own role; the audit runs in one thread
    out = tmp_path / "x.json"
    proc = run_cli(*(a.format(u4=u4, out=out) for a in argv))
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    if removed is None:
        assert proc.returncode == 0
        return
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: cutchoose")
    assert proc.stderr.endswith("cutchoose: error: unrecognized arguments: "
                                f"{removed.format(out=out)}\n")


def _algebra_doc(atoms, rounds, width):
    return {"schema_version": 1,
            "structure": {"kind": "algebra", "atoms": atoms},
            "game": {"family": "G_poset",
                     "start": "{" + ",".join(map(str, range(atoms))) + "}",
                     "rounds": rounds, "width": width, "variant": "exact",
                     "maximal": True, "cut_current": False}}


def _poset_doc(down=("{0}", "{0,1}"), top=1):
    return {"schema_version": 1,
            "structure": {"kind": "poset", "elements": 2, "down": list(down),
                          "top": top},
            "game": {"family": "BM_poset", "start": 1, "rounds": 1,
                     "width": "unbounded"}}


def _poset_of_size(n):
    # an antichain of ``n`` elements: the down table is as long as it says
    doc = _poset_doc(top=None)
    doc["structure"].update(elements=n,
                            down=["{%d}" % i for i in range(n)])
    return doc


@pytest.mark.parametrize("field, doc", [
    ("structure.family.generators[0]",
     _family_doc(5, {"kind": "generated_by", "generators": [3]},
                 "G_ideal", 1, 2)),
    ("structure.family.members[1]",
     _family_doc(4, {"kind": "explicit", "members": ["{}", [0]]}, "U", 1, 2,
                 cut_current=True)),
    ("structure.down[0]", _poset_doc(down=(1, "{0,1}"))),
    ("structure.top", _poset_doc(top="x")),
    ("structure.top", _poset_doc(top=5)),
    ("structure.top", _poset_doc(top=0)),
    ("structure.down", _poset_doc(down=("{0}",))),
    ("structure.down", _poset_doc(down=("{0,1}", "{0,1}"), top=None)),
    ("structure.family.members",
     _family_doc(4, {"kind": "explicit", "members": ["{0}"]}, "U", 1, 2,
                 cut_current=True)),
    ("structure.family.members",
     _family_doc(4, {"kind": "explicit", "members": ["{}", "{0,1}"]}, "U",
                 1, 2, ideal=False, cut_current=True)),
    ("structure.family.bound", u_doc(bound=-1)),
    ("structure.ground", u_doc(m=0)),
    ("structure.atoms", _algebra_doc(0, 1, 2)),
    ("structure.elements", _poset_of_size(0)),
    ("structure.elements", _poset_of_size(30)),
])
def test_bad_mask_in_an_instance_names_its_field(tmp_path, field, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"instance.{field}" in proc.stderr


def test_an_ideal_document_need_not_be_union_closed():
    # the pinned transform inputs mark ``size_at_most 1`` as an ideal
    for doc in (TRANSFORM_INPUTS["g4"], _family_doc(
            4, {"kind": "explicit", "members": ["{}", "{0}", "{1}"]}, "U", 1,
            2, cut_current=True)):
        assert isinstance(serialize.instance_from_jsonable(doc).family, Ideal)


def test_strategy_entry_with_a_bad_core_mask_is_rejected(tmp_path, u4):
    proc = _verify_with_first_state_edited(
        tmp_path, u4, lambda state: state.update(core=[1]))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "strategy.entries[0].state.core" in proc.stderr


@pytest.mark.parametrize("argv, line", [
    (("solve", "{bad}"),
     "error: line 1 column 1: malformed JSON: Expecting value\n"),
    (("verify", "{u4}", "--strategy", "{bad}"),
     "error: --strategy: line 1 column 1: malformed JSON: Expecting value\n"),
    (("transform", "--name", "disjointify_cut", "{g4}", "--sigma",
      "file:{bad}"),
     "error: --sigma: line 1 column 1: malformed JSON: Expecting value\n"),
    (("play", "{u4}", "--replay", "{bad}"),
     "error: --replay: line 1 column 1: malformed JSON: Expecting value\n"),
    (("verify", "{u4}", "--strategy", "{bad}"),
     "error: --strategy: not UTF-8 text (invalid start byte at byte 1)\n"),
], ids=["instance", "strategy", "sigma", "replay", "strategy_not_utf8"])
def test_a_file_that_is_not_json_names_its_option(tmp_path, capsys, u4, argv,
                                                  line):
    # one error line and exit 1; an exception would escape ``main``
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[\xff]" if "UTF-8" in line else b"")
    g4 = tmp_path / "g4.json"
    g4.write_text(json.dumps(TRANSFORM_INPUTS["g4"]))
    assert main([a.format(bad=bad, u4=u4, g4=g4) for a in argv]) == 1
    assert capsys.readouterr().err == line


def test_replay_with_too_few_inputs_is_rejected(tmp_path, u4):
    inst = serialize.parse_instance(open(u4).read())
    log = tmp_path / "session.json"
    log.write_text(json.dumps({
        "instance": serialize.instance_to_jsonable(inst),
        "human_role": "Choose", "inputs": [0]}))
    proc = run_cli("play", u4, "--role", "choose", "--replay", str(log))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "replay.inputs[1]" in proc.stderr


def test_replay_with_inputs_past_the_end_is_rejected(tmp_path):
    # the g4 game asks Choose twice: the third input is the first surplus
    g4 = tmp_path / "g4.json"
    g4.write_text(json.dumps(TRANSFORM_INPUTS["g4"]))
    inst = serialize.parse_instance(g4.read_text())
    log = tmp_path / "session.json"
    log.write_text(json.dumps({
        "instance": serialize.instance_to_jsonable(inst),
        "human_role": "Choose", "inputs": [0, 0, 0, 0, 5]}))
    proc = run_cli("play", str(g4), "--role", "choose", "--replay", str(log))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: replay.inputs[2]: the game ends before the log\n")


@pytest.mark.parametrize("option, value", [("--rounds", "1"),
                                           ("--ground", "2:x"),
                                           ("--ground", "3:2"),
                                           ("--rounds", "2:1"),
                                           ("--nu", "1"),
                                           ("--ground", "0:3"),
                                           ("--ground", "25:25"),
                                           ("--rounds", "0:1")])
def test_scan_with_a_malformed_range_is_rejected(option, value):
    proc = run_cli("scan", option, value)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"error: {option}: " in proc.stderr


@pytest.mark.parametrize("command", ["audit", "corpus"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_corpus_of_no_instances_is_refused(capsys, command, count):
    # it would pass its checks vacuously
    assert main([command, "--per-family", count]) == 1
    assert capsys.readouterr().err == "error: --per-family: must be >= 1\n"


@pytest.mark.parametrize("options", [("--per-family", "-1", "--seed", "7"),
                                     ("--seed", "2024"),
                                     ("--per-family", "25")])
def test_audit_refuses_the_corpus_options_with_an_instance_file(u4, capsys,
                                                               options):
    assert main(["audit", u4, *options]) == 1
    captured = capsys.readouterr()
    option = "--seed" if "--seed" in options else "--per-family"
    assert (captured.out, captured.err) == (
        "", f"error: {option}: not read with an instance file\n")


def test_play_json_writes_its_prompts_to_stderr(tmp_path):
    # stdout is the session document alone, as the log holds it
    log = tmp_path / "session.json"
    proc = run_cli("play", CI_A4, "--role", "cut", "--json", "--log",
                   str(log), stdin="0\n0\n")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == json.loads(log.read_text())
    assert proc.stdout == log.read_text()
    assert proc.stderr.count("move index> ") == 2


def test_play_without_json_writes_prompts_and_moves_to_stdout(tmp_path):
    proc = run_cli("play", CI_U4, "--role", "choose", stdin="0\n0\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "you play Choose; the table plays Cut (solved winner: Cut)\n"
        "[Cut] plays {0,1} | {2,3}\n"
        "round 0, core {0,1,2,3}; your moves:\n"
        "  0: {0,1}\n"
        "  1: {2,3}\n"
        "move index> [Cut] plays {0} | {1}\n"
        "round 1, core {0,1}; your moves:\n"
        "  0: {0}\n"
        "  1: {1}\n"
        "move index> winner: Cut (final intersection in the family)\n")


def test_play_prints_a_poset_core_as_the_documents_do(tmp_path, capsys):
    # a G_poset core on a poset is a down-set mask
    game = tmp_path / "poset.json"
    game.write_text(json.dumps({
        "schema_version": 1,
        "structure": {"kind": "poset", "elements": 4,
                      "down": ["{0}", "{1}", "{0,1,2}", "{0,1,2,3}"],
                      "top": 3},
        "game": {"family": "G_poset", "start": 3, "rounds": 1, "width": 2,
                 "variant": "exact", "maximal": True,
                 "cut_current": False}}))
    inst = serialize.parse_instance(game.read_text())
    log = tmp_path / "log.json"
    log.write_text(json.dumps({
        "instance": serialize.instance_to_jsonable(inst),
        "human_role": "Choose", "inputs": [0]}))
    assert main(["play", str(game), "--replay", str(log)]) == 0
    assert "round 0, core {0,1,2,3}; your moves:" in (
        capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("argv", [("scan", "--rounds", "-1:1"), ("solve",)])
def test_usage_errors_exit_with_validation_code(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"usage: cutchoose {argv[0]}")
    assert f"cutchoose {argv[0]}: error:" in proc.stderr


def test_transform_takes_no_budget_option():
    # its walks are capped by the cli's TRANSFORM_NODE_BUDGET
    proc = run_cli("transform", "--name", "digit_split", "--m", "4",
                   "--nu", "2", "--rounds", "2", "--budget", "5")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: --budget" in proc.stderr


def test_help_and_version_exit_zero():
    assert run_cli("--version").returncode == 0
    assert run_cli("scan", "--help").returncode == 0


# ---------------------------------------------------------------------------
# `transform --json` bytes, pinned on small instance files
# ---------------------------------------------------------------------------

SIZE_AT_MOST_1 = {"kind": "size_at_most", "bound": 1}
TRANSFORM_INPUTS = {
    "u4": u_doc(),
    "g4": _family_doc(4, SIZE_AT_MOST_1, "G_ideal", 2, 2),
    "g5": _family_doc(5, {"kind": "generated_by",
                          "generators": ["{0,1}", "{2,3}"]},
                      "G_ideal", 1, 2, ideal=False),
    "a4_wide": _algebra_doc(4, 1, 4),
    "a4_narrow": _algebra_doc(4, 2, 2),
    "bm4_size": _family_doc(4, SIZE_AT_MOST_1, "BM_ideal", 2, "unbounded",
                            cut_current=True),
    "bm4": _family_doc(4, {"kind": "generated_by", "generators": ["{1}"]},
                       "BM_ideal", 2, "unbounded", cut_current=True),
    "bm3": _family_doc(3, {"kind": "generated_by", "generators": ["{0}"]},
                       "BM_ideal", 3, "unbounded", cut_current=True),
    "bm4_3": _family_doc(4, {"kind": "generated_by", "generators": ["{1}"]},
                         "BM_ideal", 3, "unbounded", cut_current=True),
}


# A poset game, read only where a transform refuses it.
REFUSED_INPUTS = {
    "p3": {"schema_version": 1,
           "structure": {"kind": "poset", "elements": 3,
                         "down": ["{0}", "{1}", "{0,1,2}"], "top": 2},
           "game": {"family": "G_poset", "start": 2, "rounds": 2,
                    "width": "unbounded", "variant": "exact",
                    "maximal": True, "cut_current": True}},
}


def _transform_argv(tmp_path, name, key, *rest):
    argv = ["transform", "--name", name]
    if key is not None:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**TRANSFORM_INPUTS,
                                    **REFUSED_INPUTS}[key]))
        argv.append(str(path))
    return argv + list(rest) + ["--json"]


@pytest.mark.parametrize("name, key, rest, digest", [
    ("digit_split", None, ("--m", "8", "--nu", "2", "--rounds", "3"),
     "8f54b6b4ed647ee0230209fec93d0011d7160ddfdd7cd585048c91ccc04c27f8"),
    ("fixed_point", "u4", ("--alpha", "1"),
     "9bd6d27aaa90686cd38bbdf51d54ed18398a5868b3e4bbb5462d1d614beee7c1"),
    ("disjointify_cut", "g4", ("--sigma", "solver"),
     "c0a6089c4fbc2274ed48469d11c5ba1de8ba991d4d3af86595dedff8d71002af"),
    ("disjointify_cut", "g5", ("--sigma", "seed:3"),
     "355399506ce831668ed624bf8d73f13a04ba664d35ddb08033c3f363bd1a9b8a"),
    ("disjointify_choose", "g5", ("--sigma", "solver"),
     "7e9ba92307ca4386b7d2630bedde25e5aac165d576c1613f0d4305e494ac31c5"),
    ("disjointify_choose", "g5", ("--sigma", "greedy"),
     "5c4d15dbb3367d2a36cb9f7fd886aa7e6366014a21837c188d85d2a5028d017d"),
    ("transfer_cut", "a4_wide", ("--nu", "2", "--beta", "2"),
     "0360a7297a48963f06e24b312266bf7b0672f4775e53fc73a48406c22c45e27a"),
    ("transfer_choose", "a4_narrow", ("--nu", "2", "--beta", "2"),
     "38dfa789ab13541dc8bee23051412a1e835158b80805a5fa53e253dd4728adfa"),
    ("nonempty_to_choose", "bm4", ("--sigma", "solver"),
     "b467f106bd13f18567294c2c2b9302b51510d6a748aaa9bfb625447222e7d882"),
    ("nonempty_to_choose", "bm4", ("--sigma", "copy"),
     "6114752a30ea86af8d1688e6b0e02fbc5edfe050b5a6b377d70db2709a92612e"),
    ("choose_to_nonempty", "bm4", (),
     "fb345cb403c9a5d8f3ce5d322e642cda5302c04c8b7815e547c6f0931cbe5d99"),
    ("empty_to_cut", "bm4", ("--sigma", "copy"),
     "07d4df48af93e252c06a96716679247f7197657cce8e50b5d7c138ca1791ed03"),
    ("empty_to_cut", "bm3", ("--sigma", "first"),
     "43623a5ac370ac83f385f7dce87c37f448c2189d2c821125ad27739107a82e44"),
    ("empty_to_cut", "bm4_3", ("--sigma", "seed:4"),
     "b8cc85cdb01e3f37ef728867e5513730ef85c48f3af37d813b44ba1961b8f094"),
])
def test_transform_json_bytes_are_pinned(tmp_path, capsys, name, key, rest,
                                         digest):
    assert main(_transform_argv(tmp_path, name, key, *rest)) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["all_hold"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_nodes_on_a_ladder_game(tmp_path, capsys):
    # U game, 9 points, width 2, 3 rounds, ``size_at_most 1``: the chooser
    # wins, and its table is verified over 161,815 tree nodes
    game = tmp_path / "u9.json"
    game.write_text(json.dumps(u_doc(m=9, rounds=3, width=2)))
    table = str(tmp_path / "table.json")
    assert main(["solve", str(game), "--strategy-out", table]) == 0
    capsys.readouterr()
    assert main(["verify", str(game), "--strategy", table, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["role"], doc["verified"], doc["nodes"]) == (
        "Choose", True, 161815)
    # the benchmark's pinned digest of the same game's strategy document
    digest = hashlib.sha256((tmp_path / "table.json").read_bytes()).hexdigest()
    assert digest[:16] == "c00fd26ca9f35df2"


def test_a_plain_solve_encodes_no_document(tmp_path, u4, capsys,
                                           monkeypatch):
    built = []

    def record(*args, real=serialize.dumps):
        built.append("dumps")
        return real(*args)
    monkeypatch.setattr(serialize, "dumps", record)
    table = tmp_path / "table.json"
    assert main(["solve", u4, "--strategy-out", str(table)]) == 0
    assert main(["solve", u4]) == 0
    assert built == []
    assert capsys.readouterr().out == (
        "winner: Cut\nstates visited: 13  memo hits: 4\n" * 2)
    assert main(["solve", u4, "--json"]) == 0
    # the strategy document's own text is spliced into the output
    assert built == ["dumps"]
    assert json.loads(capsys.readouterr().out)["strategy"] == json.loads(
        table.read_text())


# Each bad entry comes last, after entries that use the same mask texts;
# the expected lines must not depend on what those entries left in the
# parser's mask memo.  Each edit takes the list of entries.
@pytest.mark.parametrize("edit, line", [
    (lambda es: es[-1]["state"].update(core="{0,99}"),
     "strategy.entries[79].state.core: mask '{0,99}' has points outside "
     "ground of size 5"),
    (lambda es: es[-1]["state"].update(round=True),
     "strategy.entries[79].state.round: field 'round' must be int"),
    (lambda es: es[-1].pop("move"),
     "strategy.entries[79].move: missing field"),
    # a string ``pending`` is refused, not read as one mask
    (lambda es: es[-1]["state"].update(pending=es[-1]["state"]["pending"][0]),
     "strategy.entries[79].state.pending: field 'pending' must be list"),
    (lambda es: es[-1]["state"].update(
        pending=[es[-1]["state"]["pending"][0], ["{1}", "{1,99}"]]),
     "strategy.entries[79].state.pending[1][1]: mask '{1,99}' has points "
     "outside ground of size 5"),
    (lambda es: es[-1]["state"].update(to_move=1),
     "strategy.entries[79].state.to_move: field 'to_move' must be str"),
    (lambda es: es[-1]["state"].update(core=7),
     "strategy.entries[79].state.core: mask must be a string, got 7"),
    (lambda es: es.append([es.pop()]),
     "strategy.entries[79]: must be an object"),
    (lambda es: es[-1].update(state=[es[-1]["state"]]),
     "strategy.entries[79].state: field 'state' must be dict"),
    (lambda es: es[-1]["state"].pop("round"),
     "strategy.entries[79].state.round: missing field"),
    (lambda es: es[-1]["state"].update(pending=3),
     "strategy.entries[79].state.pending: field 'pending' must be list"),
    (lambda es: es[-1].update(move=None),
     "strategy.entries[79].move: mask must be a string, got None"),
    (lambda es: es[-1]["state"].update(
        pending=[es[-1]["state"]["pending"][0], 5]),
     "strategy.entries[79].state.pending[1]: mask must be a string, got 5"),
], ids=["core", "round", "move", "pending_string", "pending_nested",
        "to_move_int", "core_int", "entry_list", "state_list",
        "round_missing", "pending_number", "move_null", "piece_int"])
def test_a_bad_entry_behind_a_warm_cache_names_its_field(tmp_path, capsys,
                                                        edit, line):
    game = tmp_path / "u5.json"
    game.write_text(json.dumps(u_doc(m=5, rounds=2)))
    table = tmp_path / "table.json"
    assert main(["solve", str(game), "--strategy-out", str(table)]) == 0
    doc = json.loads(table.read_text())
    assert len(doc["entries"]) == 80
    assert doc["entries"][-1]["state"]["pending"] == ["{1,3,4}", "{2}"]
    edit(doc["entries"])
    table.write_text(json.dumps(doc))
    proc = run_cli("verify", str(game), "--strategy", str(table))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {line}\n"


def test_a_repeated_position_is_refused(tmp_path):
    # the same position as entry 3, its core written in hex and its move
    # another; reading either move would be a silent choice
    game = tmp_path / "u5.json"
    game.write_text(json.dumps(u_doc(m=5, rounds=2)))
    table = tmp_path / "table.json"
    assert main(["solve", str(game), "--strategy-out", str(table)]) == 0
    doc = json.loads(table.read_text())
    first = doc["entries"][3]
    assert first == {"state": {"round": 0, "to_move": "Choose",
                               "core": "{0,1,2,3,4}",
                               "pending": ["{0,1,2}", "{3,4}"]},
                     "move": "{0,1,2}"}
    doc["entries"].append({"state": {**first["state"], "core": "0x1f"},
                           "move": "{3,4}"})
    table.write_text(json.dumps(doc))
    proc = run_cli("verify", str(game), "--strategy", str(table))
    assert proc.returncode == 1
    assert proc.stderr == ("error: strategy.entries[80]: position repeats "
                           "strategy.entries[3]\n")


@pytest.mark.parametrize("edit, field", [
    (lambda e: e.update(move=True), "strategy.entries[2].move"),
    (lambda e: e["state"].update(pending=[True]),
     "strategy.entries[2].state.pending[0]"),
], ids=["move", "pending"])
def test_a_boolean_poset_element_names_its_field(tmp_path, capsys, edit,
                                                 field):
    # Python would take a JSON ``true`` for element 1; the parser refuses it
    game = tmp_path / "g_poset.json"
    game.write_text(json.dumps({
        "schema_version": 1,
        "structure": {"kind": "poset", "elements": 3,
                      "down": ["{0}", "{1}", "{0,1,2}"], "top": 2},
        "game": {"family": "G_poset", "start": 2, "rounds": 2,
                 "width": "unbounded", "variant": "exact", "maximal": True,
                 "cut_current": True}}))
    table = tmp_path / "table.json"
    assert main(["solve", str(game), "--strategy-out", str(table)]) == 0
    doc = json.loads(table.read_text())
    assert doc["entries"][2] == {
        "state": {"round": 1, "to_move": "Choose", "core": "{0}",
                  "pending": [0]},
        "move": 0}
    edit(doc["entries"][2])
    table.write_text(json.dumps(doc))
    proc = run_cli("verify", str(game), "--strategy", str(table))
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: {field}: poset move must be an element index\n")


@pytest.mark.parametrize("key", ["bm4_size", "bm4", "bm3"])
def test_empty_to_cut_with_the_solver_sigma(tmp_path, key):
    argv = _transform_argv(tmp_path, "empty_to_cut", key)
    proc = run_cli(*argv[:-1], "--sigma", "solver", "--json")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["all_hold"] is True


@pytest.mark.parametrize("name", ["disjointify_cut", "transfer_cut"])
@pytest.mark.parametrize("sigma", ["greedy", "copy"])
def test_a_set_playing_sigma_is_refused_for_the_cutter(tmp_path, name, sigma):
    # each transform is given only the options it reads
    widths = ("--nu", "2", "--beta", "2") if name == "transfer_cut" else ()
    argv = _transform_argv(tmp_path, name, "g4", "--sigma", sigma, *widths)
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: --sigma: {sigma} plays a set, not a cut;"
                           " the transform needs a Cut strategy\n")


def test_a_strategy_file_for_the_other_role_is_refused(tmp_path):
    argv = _transform_argv(tmp_path, "disjointify_cut", "g4")
    table = tmp_path / "table.json"
    # the picker wins g4, so the solver's file holds a Choose table
    assert main(["solve", argv[-2], "--strategy-out", str(table)]) == 0
    proc = run_cli(*argv[:-1], "--sigma", f"file:{table}")
    assert proc.returncode == 1
    assert proc.stderr == ("error: --sigma: the file holds a Choose strategy;"
                           " the transform needs a Cut strategy\n")


def test_solve_refuses_a_strategy_out_it_would_not_write(tmp_path, u4,
                                                          capsys):
    out = tmp_path / "sigma.json"
    assert main(["solve", u4, "--no-strategy", "--strategy-out",
                 str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: --strategy-out: not written with --no-strategy\n")
    assert not out.exists()


@pytest.mark.parametrize("key, role, name, line", [
    ("u4", "Bogus", None,
     "'Bogus' is not a role of a U game (Cut or Choose)"),
    ("u4", "Empty", None,
     "'Empty' is not a role of a U game (Cut or Choose)"),
    ("g4", "Nonempty", "disjointify_cut",
     "'Nonempty' is not a role of a G_ideal game (Cut or Choose)"),
    ("bm4", "Choose", "nonempty_to_choose",
     "'Choose' is not a role of a BM_ideal game (Empty or Nonempty)"),
])
def test_a_strategy_file_for_no_role_of_the_game_is_refused(
        tmp_path, capsys, key, role, name, line):
    # the solver's table for the game, relabelled
    game = tmp_path / "game.json"
    game.write_text(json.dumps(TRANSFORM_INPUTS[key]))
    table = tmp_path / "table.json"
    assert main(["solve", str(game), "--strategy-out", str(table)]) == 0
    doc = json.loads(table.read_text())
    table.write_text(json.dumps({**doc, "role": role}))
    capsys.readouterr()
    argv = (["verify", str(game), "--strategy", str(table)] if name is None
            else ["transform", "--name", name, str(game), "--sigma",
                  f"file:{table}"])
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: strategy.role: "
                                                f"{line}\n")


@pytest.mark.parametrize("kind, line", [
    (None, "missing field"),
    (5, "field 'kind' must be str"),
    ("simulation", "'simulation' is not 'positional_table'"),
])
def test_a_strategy_file_of_another_kind_is_refused(tmp_path, capsys, kind,
                                                     line):
    # the solver's table for the CI's u4 game, its kind removed or changed
    table = tmp_path / "table.json"
    assert main(["solve", CI_U4, "--strategy-out", str(table)]) == 0
    doc = json.loads(table.read_text())
    if kind is None:
        del doc["kind"]
    else:
        doc["kind"] = kind
    table.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", CI_U4, "--strategy", str(table)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: strategy.kind: "
                                                f"{line}\n")


def test_the_audit_of_a_long_u_game_is_pinned(tmp_path, capsys):
    # Its weak generalized games cut the start set at every cut position;
    # enumerated once per instance, the 12-round audit takes about a second.
    game = tmp_path / "u6.json"
    game.write_text(json.dumps(u_doc(m=6, rounds=12)))
    assert main(["audit", str(game), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["disagreements"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ccfb83d089ace7305e358412cffdf240fa2a7f7d2900c223573fa5500412488e")


def test_the_audit_of_the_seeded_corpus_is_pinned(capsys):
    # every row of all five families, posets and algebras among them
    assert main(["audit", "--seed", "2024", "--per-family", "25",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) == 333_289
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36ebd94d9d9a5bd292505c14edac25598e327af7f0556393b0da54080cb480d9")


@pytest.mark.parametrize("key, rest, line", [
    (None, ("--name", "fixed_point"),
     "error: instance: required by fixed_point\n"),
    (None, ("--name", "empty_to_cut", "--sigma", "copy"),
     "error: instance: required by empty_to_cut\n"),
    ("u4", ("--name", "digit_split", "--m", "4", "--nu", "2", "--rounds", "2"),
     "error: instance: digit_split reads no instance file\n"),
    (None, ("--name", "digit_split", "--m", "4", "--rounds", "2"),
     "error: --nu: required by digit_split\n"),
    (None, ("--name", "digit_split", "--nu", "2", "--rounds", "2"),
     "error: --m: required by digit_split\n"),
    ("a4_wide", ("--name", "transfer_cut", "--nu", "2"),
     "error: --beta: required by transfer_cut\n"),
    ("a4_narrow", ("--name", "transfer_choose", "--beta", "2"),
     "error: --nu: required by transfer_choose\n"),
    # values that would divide by zero or shift by a negative count
    ("a4_wide", ("--name", "transfer_cut", "--nu", "0", "--beta", "-1"),
     "error: --nu: must be >= 2\n"),
    ("a4_narrow", ("--name", "transfer_choose", "--nu", "2", "--beta", "0"),
     "error: --beta: must be >= 1\n"),
    ("u4", ("--name", "fixed_point", "--alpha", "-1"),
     "error: --alpha: must be >= 0\n"),
    ("g4", ("--name", "disjointify_cut", "--sigma", "seed:x"),
     "error: --sigma: seed:N needs an integer N, got 'seed:x'\n"),
    # an option the transform never reads
    ("u4", ("--name", "fixed_point", "--sigma", "seed:x", "--m", "9"),
     "error: --sigma: not read by fixed_point\n"),
    ("u4", ("--name", "fixed_point", "--m", "9"),
     "error: --m: not read by fixed_point\n"),
    (None, ("--name", "digit_split", "--m", "4", "--nu", "2", "--rounds",
            "2", "--sigma", "first"),
     "error: --sigma: not read by digit_split\n"),
    ("bm4", ("--name", "choose_to_nonempty", "--sigma", "solver"),
     "error: --sigma: not read by choose_to_nonempty\n"),
    ("g4", ("--name", "disjointify_cut", "--alpha", "0"),
     "error: --alpha: not read by disjointify_cut\n"),
    ("g4", ("--name", "disjointify_cut", "--nu", "2", "--beta", "2"),
     "error: --nu: not read by disjointify_cut\n"),
    ("a4_wide", ("--name", "transfer_cut", "--nu", "2", "--beta", "2",
                 "--rounds", "3"),
     "error: --rounds: not read by transfer_cut\n"),
    # fixed_point needs a Choose role picking sets that can hold the point
    ("bm4", ("--name", "fixed_point"),
     "error: fixed_point needs a Choose role; a BM_ideal game has none\n"),
    ("p3", ("--name", "fixed_point"),
     "error: fixed_point needs picks that are sets; a poset game's picks "
     "are elements\n"),
    ("u4", ("--name", "fixed_point", "--alpha", "10"),
     "error: --alpha: point 10 is not in the start set {0,1,2,3}\n"),
    # digit_split's counts, each named
    (None, ("--name", "digit_split", "--m", "30", "--nu", "2", "--rounds",
            "5"), "error: --m: must be <= 24\n"),
    (None, ("--name", "digit_split", "--m", "0", "--nu", "2", "--rounds",
            "5"), "error: --m: must be >= 1\n"),
    (None, ("--name", "digit_split", "--m", "4", "--nu", "1", "--rounds",
            "5"), "error: --nu: must be >= 2\n"),
    (None, ("--name", "digit_split", "--m", "4", "--nu", "2", "--rounds",
            "0"), "error: --rounds: must be >= 1\n"),
])
def test_a_bad_transform_input_is_one_error_line(tmp_path, capsys, key,
                                                  rest, line):
    argv = _transform_argv(tmp_path, rest[1], key, *rest[2:])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


@pytest.fixture(scope="module")
def transform_input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("transform_inputs")
    for key, doc in TRANSFORM_INPUTS.items():
        (root / f"{key}.json").write_text(json.dumps(doc))
    return {key: str(root / f"{key}.json") for key in TRANSFORM_INPUTS}


TRANSFORM_NAMES = ["digit_split", "fixed_point", "disjointify_cut",
                   "disjointify_choose", "transfer_cut", "transfer_choose",
                   "empty_to_cut", "nonempty_to_choose", "choose_to_nonempty"]


@given(name=st.sampled_from(TRANSFORM_NAMES),
       key=st.sampled_from([None, *sorted(TRANSFORM_INPUTS)]),
       values=st.tuples(*[st.none() | st.integers(-1, 4)] * 4))
@settings(max_examples=60, deadline=None)
@seed(17)
def test_every_transform_argv_exits_cleanly(transform_input_paths, name, key,
                                            values):
    # a missing, unread or out-of-range input is an exit code, never an
    # exception
    argv = ["transform", "--name", name]
    if key is not None:
        argv.append(transform_input_paths[key])
    for option, value in zip(("--m", "--nu", "--beta", "--rounds"), values):
        if value is not None:
            argv += [option, str(value)]
    assert main(argv) in (0, 1, 2)


def _exit_code(argv) -> int:
    """``main(argv)``'s exit code, a usage error's included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_BOUNDS = st.none() | st.tuples(st.integers(-1, 8), st.integers(-1, 8)).map(
    lambda b: f"{b[0]}:{b[1]}") | st.sampled_from(["3", "x:2", ""])


@given(scan=st.tuples(st.none() | st.integers(-1, 4), _BOUNDS, _BOUNDS,
                      st.none() | st.sampled_from(
                          ["exact", "weak", "strict_prefix", "bogus"])),
       game=st.tuples(st.integers(1, 8), st.integers(-1, 3),
                      st.none() | st.integers(-1, 4), st.integers(0, 2),
                      st.sampled_from([{}, {"family": "U"},
                                       {"family": "BM_ideal"},
                                       {"maximal": True},
                                       {"cut_current": True}])))
@settings(max_examples=60, deadline=None)
@seed(26)
def test_every_scan_and_ablate_argv_exits_cleanly(tmp_path_factory, scan,
                                                  game):
    # scan's ranges over grounds of at most 8 points, and ablate on a game
    # of at most 8 points, an ablation's game or one field off it: an exit
    # code, never an exception
    argv = ["scan"]
    for option, value in zip(("--nu", "--rounds", "--ground", "--variant"),
                             scan):
        if value is not None:
            argv += [option, str(value)]
    assert _exit_code(argv) in (0, 1, 2)
    m, rounds, width, bound, off = game
    doc = u_doc(m=m, rounds=rounds, width=width, bound=bound)
    doc["game"].update({"family": "G_ideal", "maximal": False,
                        "cut_current": False, **off})
    path = tmp_path_factory.mktemp("ablate") / "game.json"
    path.write_text(json.dumps(doc))
    assert _exit_code(["ablate", str(path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# Fuzzed input documents
# ---------------------------------------------------------------------------

# What a mutation puts in place of a field.  The ints are small (or refused:
# negative, huge), so every game that stays valid keeps a ground of at most
# 6 points and at most 3 rounds.
FUZZ_VALUES = [None, True, False, 0, 1, 2, 3, -1, 2 ** 70, "{}", "{0}",
               "{0,1,2,3}", "{0,9}", "{x}", "U", "G_ideal", "G_poset",
               "BM_ideal", "BM_poset", "exact", "weak", "unbounded", "Choose",
               [], [0, 0], ["{0}", "{1}"], {},
               {"kind": "size_at_most", "bound": 1}]


def _fields(doc):
    """Every (container, key or index) in the document, depth first."""
    found = []
    children = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in children:
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            found += _fields(value)
    return found


def _mutated(doc, mutations):
    """``doc`` with each (field index, replacement) applied in turn: a
    replacement ``()`` deletes the field, ``(value,)`` puts ``value``
    there."""
    doc = json.loads(json.dumps(doc))
    for index, replacement in mutations:
        fields = _fields(doc)
        if not fields:
            break
        container, key = fields[index % len(fields)]
        if replacement:
            container[key] = copy.deepcopy(replacement[0])
        else:
            del container[key]
    return doc


def _ci_doc(name):
    with open(os.path.join(os.path.dirname(CI_U4), name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The documents the fuzzer mutates, the commands that read each (with
    ``{doc}`` for the mutated file and ``{u4}`` for the CI game), and the
    directory it writes to."""
    root = tmp_path_factory.mktemp("fuzz")
    u4 = root / "u4.json"
    u4.write_text(json.dumps(_ci_doc("u4.json")))
    sigma = root / "sigma.json"
    assert main(["solve", str(u4), "--strategy-out", str(sigma)]) == 0
    inst = serialize.parse_instance(u4.read_text())
    log = {"schema_version": 1,
           "instance": serialize.instance_to_jsonable(inst),
           "human_role": "Choose", "inputs": [0, 0]}
    reads_instance = [("solve", "{doc}"), ("solve", "{doc}", "--no-strategy"),
                      ("check", "{doc}"), ("audit", "{doc}")]
    docs = [(_ci_doc(name), reads_instance)
            for name in ("u4.json", "g4.json", "a4.json")]
    docs += [(doc, reads_instance) for doc in TRANSFORM_INPUTS.values()]
    docs.append((json.loads(sigma.read_text()),
                 [("verify", "{u4}", "--strategy", "{doc}")]))
    docs.append((log, [("play", "{u4}", "--replay", "{doc}")]))
    return docs, root, str(u4)


@given(which=st.integers(0, 1000),
       mutations=st.lists(st.tuples(
           st.integers(0, 1000),
           st.just(()) | st.sampled_from(FUZZ_VALUES).map(lambda v: (v,))),
           min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
@seed(24)
def test_a_mutated_input_document_exits_cleanly(fuzz_inputs, which,
                                                mutations):
    # a document with a field deleted or replaced is read, refused naming
    # the field, or runs out of budget: an exit code, never an exception
    docs, root, u4 = fuzz_inputs
    doc, commands = docs[which % len(docs)]
    path = root / "doc.json"
    path.write_text(json.dumps(_mutated(doc, mutations)))
    for argv in commands:
        assert main([a.format(doc=path, u4=u4) for a in argv]) in (0, 1, 2)
