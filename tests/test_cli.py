"""The batch front-end: exit codes, JSON outputs, figure exports."""

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from corpus import cycle, is_simple
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import cases as golden_cases
from test_cli_golden import run as run_golden

from cofib import automata as aut
from cofib import cli, lifting, pcs, regex, samples
from cofib.automata import AUT_CARRIER, automata_generators, automaton
from cofib.automata import from_json_dict as aut_from_json
from cofib.automata import to_json_dict as aut_to_json
from cofib.cli import main, pcs_to_dot
from cofib.blowup import brick_generators
from cofib.lifting import lifting_reports, unique_rlp
from cofib.words import CubeWord

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, data = run_json(capsys, "pcs", "validate", str(FIXTURES / "circle.json"))
    assert code == 0 and data["ok"]


def test_validate_broken_closure_exits_1_with_witness(capsys):
    """Each command that charts or blows up a precubical set prints the
    validation report of an input that fails it, as ``pcs validate`` does."""
    for argv in (["pcs", "validate"],
                 ["pcs", "euclid", "-n", "2"],
                 ["pcs", "blowup", "-n", "2"],
                 ["pcs", "verify", "-n", "2"]):
        code, data = run_json(capsys, *argv, str(FIXTURES / "broken-closure.json"))
        assert code == 1
        assert not data["ok"]
        assert data["problems"][0]["witness"] == {
            "cube": "c",
            "word": "--",
            "missing": "v",
        }


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pcs", "validate", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["pcs", "validate", str(missing)]) == 2
    wrong = tmp_path / "wrong.json"
    for bound in ("x", "2", 2.7, True, None):
        wrong.write_text(json.dumps({"dim_bound": bound, "cubes": {"1": ["c"]}}))
        assert main(["pcs", "validate", str(wrong)]) == 2
        assert main(["pcs", "euclid", "-n", "1", str(wrong)]) == 2
    square = {"dim_bound": 1, "cubes": {"0": ["v"], "1": ["e"]}}
    for face in (
        {"cube": "e", "word": "-", "targets": [["v"]]},
        {"cube": ["e"], "word": "-", "targets": ["v"]},
        {"cube": "e", "word": "-", "targets": ["zz"]},
        {"cube": "zz", "word": "-", "targets": ["v"]},
        {"cube": "zz", "word": "-", "targets": []},
    ):
        wrong.write_text(json.dumps(dict(square, faces=[face])))
        assert main(["pcs", "validate", str(wrong)]) == 2
        assert main(["pcs", "euclid", "-n", "1", str(wrong)]) == 2
    # misgraded input is malformed (exit 2), not a failed check (exit 1)
    for doc in (
        dict(square, cubes={"0": ["v"], "1": ["v", "e"]}),
        dict(square, cubes={"0": ["v"], "2": ["e"]}),
        dict(square, cubes={"-1": ["v"], "1": ["e"]}),
        dict(square, cubes={"0": ["v"], "00": ["w"], "1": ["e"]}),
        dict(square, faces=[{"cube": "v", "word": "-", "targets": ["v"]}]),
        dict(square, faces=[{"cube": "e", "word": "--", "targets": ["v"]}]),
        dict(square, faces=[{"cube": "e", "word": "-", "targets": ["e"]}]),
        dict(square, faces=[{"cube": "e", "word": "", "targets": ["e"]}]),
        dict(square, faces=[{"cube": "e", "word": "0", "targets": ["e"]}]),
    ):
        wrong.write_text(json.dumps(doc))
        assert main(["pcs", "validate", str(wrong)]) == 2
        assert main(["pcs", "euclid", "-n", "1", str(wrong)]) == 2
    loop = {"alphabet": ["a"], "states": ["q"], "initial": ["q"], "accepting": ["q"]}
    for edge in (
        {"label": "a", "sources": [["q"]], "targets": ["q"]},
        {"label": "a", "sources": ["q"], "targets": [["q"]]},
    ):
        wrong.write_text(json.dumps(dict(loop, edges=[edge])))
        assert main(["aut", "conditions", str(wrong)]) == 2
    wrong.write_text(json.dumps(dict(loop, states=["q", "q"], edges=[])))
    assert main(["aut", "conditions", str(wrong)]) == 2
    assert "duplicate state" in capsys.readouterr().err


def _misspelled(name: str) -> dict:
    """A fixture's document with a key misspelled, as in ``edegs``, an
    edge's ``source`` or ``face``."""
    doc = json.loads((FIXTURES / name).read_text())
    if "edges" in doc:
        doc["edges"][0]["source"] = doc["edges"][0].pop("sources")
        return doc
    doc["face"] = doc.pop("faces")
    return doc


@pytest.mark.parametrize(
    "argv, document, key",
    [
        (["aut", "verify"], json.loads((FIXTURES / "one-square.json").read_text()), "cubes"),
        (["aut", "lang", "-L", "2"], {**json.loads((FIXTURES / "loop-a.json").read_text()), "edegs": []}, "edegs"),
        (["aut", "lang", "-L", "2"], _misspelled("loop-a.json"), "source"),
        (["pcs", "validate"], _misspelled("one-square.json"), "face"),
    ],
)
def test_an_unknown_key_exits_2(argv, document, key, tmp_path, capsys):
    """A PCS read as an automaton, an ``edegs`` typo, an edge's ``source``
    typo and a ``face`` typo were each read as an object with nothing
    there, and passed every check."""
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(document))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: unknown key {key!r}\n"


def test_a_face_entry_with_an_unknown_key_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "one-square.json").read_text())
    doc["faces"][1]["cubes"] = ["c"]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["pcs", "validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'cubes'\n"


def test_a_negative_dimension_bound_exits_2(tmp_path, capsys):
    """An empty input with bound -1 is malformed, not a valid empty object."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"dim_bound": -1, "cubes": {}}))
    for argv in (["pcs", "validate"], ["pcs", "verify", "-n", "1"], ["pcs", "blowup", "-n", "1"]):
        assert main([*argv, str(path)]) == 2
        assert "negative dimension bound -1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["1_0", "01", " 1", "1 ", "+1", "-0", "١", "x"])
def test_a_dimension_key_not_written_as_str_writes_it_exits_2(key, tmp_path, capsys):
    """``int`` reads each of these keys but ``x`` as a number, so a cube
    could be given at a dimension the file never names, and the JSON
    written back would name another."""
    path = tmp_path / "key.json"
    path.write_text(json.dumps({"dim_bound": 10, "cubes": {key: ["c"]}}))
    for argv in (["pcs", "validate"], ["pcs", "blowup", "-n", "1"]):
        assert main([*argv, str(path)]) == 2
        assert f"bad dimension key {key!r}" in capsys.readouterr().err


def test_a_canonical_negative_dimension_key_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "key.json"
    path.write_text(json.dumps({"dim_bound": 1, "cubes": {"-1": ["c"]}}))
    assert main(["pcs", "blowup", "-n", "1", str(path)]) == 2
    assert "dimension -1 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["pcs", "euclid", "-n", "1"], ["aut", "conditions"]])
def test_input_that_is_not_utf8_exits_2(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main([*argv, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {bad} is not UTF-8 text: ")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_path_exits_2(where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    assert main(["pcs", "blowup", "-n", "1", "-o", str(out), str(FIXTURES / "circle.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["blowup", "verify"])
@pytest.mark.parametrize("fixture", ["circle.json", "broken-closure.json"])
def test_blowup_commands_validate_once(command, fixture, monkeypatch, capsys):
    calls, validate = [], pcs.validate

    def counted(P):
        calls.append(P)
        return validate(P)

    monkeypatch.setattr(importlib.import_module("cofib.blowup"), "validate", counted)
    monkeypatch.setattr(pcs, "validate", counted)
    main(["pcs", command, "-n", "2", str(FIXTURES / fixture)])
    capsys.readouterr()
    assert len(calls) == 1


def _json_dumps(value, ensure_ascii):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)


# escapes, control characters, non-ASCII and non-BMP text, a lone surrogate,
# and letters whose code-point order ("B" < "a", "f" < "é") is not their
# dictionary order ("a" < "B", "é" < "f")
_PIECES = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "ß", "\U0001d11e", "\ud800", "a", "B", "Z", "f"]
_TEXT = st.text(st.sampled_from(_PIECES) | st.characters(exclude_categories=()), max_size=5)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT | st.builds(list) | st.builds(dict),
    lambda inner: st.lists(inner, max_size=4) | st.lists(_TEXT, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4) | st.dictionaries(_TEXT, _TEXT, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_JSON_VALUES)
def test_dumps_is_json_dumps_on_the_cli_domain(value):
    for ensure_ascii in (False, True):
        assert cli._dumps(value, ensure_ascii) == _json_dumps(value, ensure_ascii)


def test_dumps_is_json_dumps_on_every_golden_payload(monkeypatch):
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda data: (payloads.append(data), emit(data)))
    for argv in golden_cases():
        run_golden(argv)
    assert len(payloads) == len(golden_cases()) - 16  # the 16 figure exports emit no JSON
    for data in payloads:
        for ensure_ascii in (False, True):
            assert cli._dumps(data, ensure_ascii) == _json_dumps(data, ensure_ascii)


def test_dumps_leaves_no_reference_cycle():
    """A cycle would keep every chunk (15 MB for the largest word list) alive
    while the text is printed, until a cyclic GC pass."""
    gc.collect()
    gc.disable()
    try:
        cli._dumps({"words": ["a", "b"], "n": [1, {"k": None}]}, False)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "value", [1.5, ("a",), {"a"}, b"a", {1: "a"}, ["a", 2.0], {"k": ("a",)}, [{"k": None}, 1j]],
    ids=repr,
)
def test_dumps_rejects_what_the_cli_never_emits(value):
    """json would write some of these, differently from the CLI's domain."""
    for ensure_ascii in (False, True):
        with pytest.raises(TypeError):
            cli._dumps(value, ensure_ascii)


def _subprocess_env() -> dict:
    """The environment with this checkout's ``src`` first on the path."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "cofib", "pcs", "validate", str(FIXTURES / "circle.json")],
        cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"ok": True, "problems": []}


def test_closed_pipe_exits_141_quietly(tmp_path):
    """``cofib pcs euclid -n 2 t12.json | head -2``: the output (about
    100 KB) outgrows the pipe, so the reader closes it mid-write."""
    torus = tmp_path / "t12.json"
    torus.write_text(json.dumps(pcs.to_json_dict(pcs.tensor(cycle(12), cycle(12)))))
    err = tmp_path / "stderr.txt"
    with err.open("w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cofib", "pcs", "euclid", "-n", "2", str(torus)],
            cwd=ROOT, env=_subprocess_env(), stdout=subprocess.PIPE, stderr=stderr,
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert head == [b"{\n", b'  "charts": {\n']
    assert err.read_text() == ""
    assert code == 141


def _circle_named(tmp_path, name: str) -> Path:
    """A circle whose vertex is called ``name``."""
    path = tmp_path / "named.json"
    circle = {"dim_bound": 1, "cubes": {"0": [name], "1": ["e"]},
              "faces": [{"cube": "e", "word": w, "targets": [name]} for w in "-+"]}
    path.write_text(json.dumps(circle), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [["pcs", "euclid", "-n", "1"], ["pcs", "export", "--format", "tikz"]])
def test_stdout_is_utf8_whatever_the_locale(argv, tmp_path):
    circle = _circle_named(tmp_path, "é")
    outputs = {}
    for encoding in ("utf-8", "ascii", "latin-1", "cp1252"):
        done = subprocess.run(
            [sys.executable, "-m", "cofib", *argv, str(circle)], cwd=ROOT,
            env=dict(_subprocess_env(), PYTHONIOENCODING=encoding), capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b""), encoding
        outputs[encoding] = done.stdout
    assert "é".encode() in outputs["utf-8"]
    assert set(outputs.values()) == {outputs["utf-8"]}
    buffer = io.StringIO()  # an in-process caller's stream is written as it is
    with contextlib.redirect_stdout(buffer):
        assert main([*argv, str(circle)]) == 0
    assert buffer.getvalue().encode() == outputs["utf-8"]


def test_a_lone_surrogate_is_written_as_its_json_escape(tmp_path):
    """UTF-8 cannot encode U+D800, which a JSON input may spell \\ud800."""
    circle = _circle_named(tmp_path, "\ud800")
    done = subprocess.run(
        [sys.executable, "-m", "cofib", "pcs", "euclid", "-n", "1", str(circle)], cwd=ROOT,
        env=_subprocess_env(), capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert b'"\\ud800": {' in done.stdout
    assert "\ud800" in json.loads(done.stdout)["charts"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pcs", "blowup", "-n", "-1", "circle.json"],
        ["pcs", "verify", "-n", "x", "circle.json"],
        ["aut", "lang", "-L", "-1", "loop-a.json"],
        ["rx", "compile", "a*", "-L", "-2"],
        ["rx", "fuzz", "--seed", "1", "--count", "-3", "--depth", "2", "-L", "2"],
    ],
)
def test_negative_counts_exit_2(argv, capsys):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["pcs", "blowup", "-n", "8", "one-square.json"], 7),
        (["pcs", "euclid", "-n", "8", "one-square.json"], 7),
        (["pcs", "verify", "-n", "8", "one-square.json"], 7),
        (["rx", "fuzz", "--seed", "1", "--count", "1", "--depth", "3000", "-L", "2"], 16),
        (["aut", "lang", "-L", "13", "loop-ab.json"], 12),
        (["aut", "verify", "-L", "40", "loop-ab.json"], 12),
        (["rx", "compile", "(a|b)*", "-L", "13"], 12),
        (["rx", "fuzz", "--seed", "1", "--count", "1", "--depth", "2", "-L", "99"], 12),
        (["rx", "fuzz", "--seed", "1", "--count", "1000000000", "--depth", "2", "-L", "2"], 10000),
    ],
)
def test_oversized_requests_exit_2(argv, limit, capsys):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"exceeds the limit {limit}" in capsys.readouterr().err


def test_oversized_word_length_exits_2_at_once_without_a_traceback():
    # uncapped, this would list 2^1000001 words
    argv = ["aut", "lang", "-L", "1000000", str(FIXTURES / "loop-ab.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "cofib", *argv], cwd=ROOT, env=_subprocess_env(),
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "word length 1000000 exceeds the limit 12" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_brick_above_the_limit_exits_2(capsys):
    assert main(["pcs", "brick", "-e", "1" * 9]) == 2
    assert "exceeds the limit 7" in capsys.readouterr().err


def test_blowup_torus(capsys):
    code, data = run_json(
        capsys, "pcs", "blowup", "-n", "2", str(FIXTURES / "one-square.json")
    )
    assert code == 0
    assert data["cells_by_dimension"] == {"0": 1, "1": 2, "2": 1}
    assert set(data["beta"].values()) == {"v", "e", "c"}


def test_blowup_grades_its_input_once(capsys, monkeypatch):
    """The file's raw table is graded on reading; ``blowup`` validates the
    object read without grading it again.  An object built directly is
    still graded."""
    calls = []
    grade = pcs._grading_problems
    monkeypatch.setattr(pcs, "_grading_problems", lambda *args: calls.append(args) or grade(*args))
    code, _data = run_json(capsys, "pcs", "blowup", "-n", "2", str(FIXTURES / "one-square.json"))
    assert code == 0 and len(calls) == 1
    misgraded = pcs.RelPCS(1, {0: ["v"], 1: ["e", "f"]}, {("e", CubeWord.parse("-")): ["f"]})
    assert pcs.validate(misgraded).problems == [{"kind": "grading", "detail": "face 'f' of 'e' at - misgraded"}]
    assert len(calls) == 2


def test_blowup_provenance_flag(capsys):
    code, data = run_json(
        capsys,
        "pcs",
        "blowup",
        "-n",
        "2",
        "--provenance",
        str(FIXTURES / "one-square.json"),
    )
    assert code == 0
    entries = data["provenance"]
    assert {e["epsilon"] for e in entries} == {"00", "01", "10", "11"}
    assert all(set(e) == {"cube", "epsilon", "chart"} for e in entries)


def test_blowup_writes_output_file(tmp_path, capsys):
    out = tmp_path / "blown.json"
    code, _data = run_json(
        capsys,
        "pcs",
        "blowup",
        "-n",
        "2",
        "-o",
        str(out),
        str(FIXTURES / "one-square.json"),
    )
    assert code == 0
    reloaded = pcs.from_json_dict(json.loads(out.read_text()))
    assert reloaded.cube_counts() == {0: 1, 1: 2, 2: 1}


def test_blowup_output_file_bytes(tmp_path, capsys):
    """The ``-o`` file shares its dict with stdout's ``blowup`` entry; its
    bytes are pinned (sha256 of the file written before the two shared)."""
    out = tmp_path / "blown.json"
    code, data = run_json(
        capsys, "pcs", "blowup", "-n", "2", "-o", str(out), str(FIXTURES / "one-square.json")
    )
    assert code == 0
    written = out.read_bytes()
    assert hashlib.sha256(written).hexdigest() == (
        "0d4c1e5305bbf8dc769b5a03cae23b5a7e283cdf31b513f77634b742a1db898f"
    )
    assert json.loads(written) == data["blowup"]


@pytest.fixture(scope="module")
def torus_12x12(tmp_path_factory) -> Path:
    """C12⊗C12 as a JSON file: 144 squares, far larger than any fixture."""
    path = tmp_path_factory.mktemp("t12") / "t12.json"
    path.write_text(json.dumps(pcs.to_json_dict(pcs.tensor(cycle(12), cycle(12)))))
    return path


def test_large_euclid_output_bytes(torus_12x12, capsys):
    code, out = run(capsys, "pcs", "euclid", "-n", "2", str(torus_12x12))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4f1c7d64d1d520df3009bd3fabaa8614771c61e7406eb0acf0c66b3c354f9e4a"
    )


def test_large_blowup_output_file_bytes(torus_12x12, tmp_path, capsys):
    out = tmp_path / "blown.json"
    code, _out = run(capsys, "pcs", "blowup", "-n", "2", "-o", str(out), str(torus_12x12))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5d4c3ca074cdc0288f59156b3e0b6bbb25078bbce99ed4c8d8618d1e3ff0a084"
    )


def test_euclid_pass_and_fail(capsys):
    code, data = run_json(capsys, "pcs", "euclid", "-n", "1", str(FIXTURES / "circle.json"))
    assert code == 0 and data["ok"]
    code, data = run_json(capsys, "pcs", "euclid", "-n", "1", str(FIXTURES / "y-graph.json"))
    assert code == 1 and not data["ok"]
    assert "counterexample" in data


def test_verify_subcommand(capsys):
    code, data = run_json(
        capsys, "pcs", "verify", "-n", "2", str(FIXTURES / "one-square.json")
    )
    assert code == 0 and data["ok"]
    assert data["blowup_euclidean"] and data["unique_rlp"]


def test_brick_subcommand(capsys):
    code, data = run_json(capsys, "pcs", "brick", "-e", "11")
    assert code == 0
    assert {k: len(v) for k, v in data["cubes"].items()} == {"0": 1, "1": 4, "2": 4}
    assert main(["pcs", "brick", "-e", "x1"]) == 2
    capsys.readouterr()


def test_round_trip_export_import(tmp_path, capsys):
    code, data = run_json(capsys, "pcs", "brick", "-e", "10")
    path = tmp_path / "brick.json"
    path.write_text(json.dumps(data))
    code2, data2 = run_json(capsys, "pcs", "validate", str(path))
    assert code2 == 0 and data2["ok"]
    assert pcs.to_json_dict(pcs.from_json_dict(data)) == data


def test_export_dot_groups_by_dimension(tmp_path, capsys):
    code, brick_data = run_json(capsys, "pcs", "brick", "-e", "11")
    path = tmp_path / "b11.json"
    path.write_text(json.dumps(brick_data))
    code, out = run(capsys, "pcs", "export", "--format", "dot", str(path))
    assert code == 0
    assert "// dimension 0 (1 cells)" in out
    assert "// dimension 1 (4 cells)" in out
    assert "// dimension 2 (4 cells)" in out
    assert out.startswith("digraph")


def test_export_tikz_groups_by_dimension(tmp_path, capsys):
    code, brick_data = run_json(capsys, "pcs", "brick", "-e", "11")
    path = tmp_path / "b11.json"
    path.write_text(json.dumps(brick_data))
    code, out = run(capsys, "pcs", "export", "--format", "tikz", str(path))
    assert code == 0
    assert "% dimension 0 (1 cells)" in out
    assert "% dimension 1 (4 cells)" in out
    assert "% dimension 2 (4 cells)" in out
    assert out.count("\\node") == 9


def test_export_writes_names_the_way_each_tool_reads_them(tmp_path, capsys):
    """TikZ escapes LaTeX's special characters in a cube's name; DOT keeps
    a non-ASCII name as it is, since Graphviz reads no ``\\u`` escapes."""
    faces = {("é", CubeWord.parse("-")): ["a_1"], ("é", CubeWord.parse("+")): ["50%"]}
    P = pcs.relpcs(1, {0: ["a_1", "50%"], 1: ["é"]}, faces)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(pcs.to_json_dict(P)))
    code, tikz = run(capsys, "pcs", "export", "--format", "tikz", str(path))
    assert code == 0
    assert "{a\\_1};" in tikz and "{50\\%};" in tikz and "{é};" in tikz
    assert "{a_1}" not in tikz and "{50%}" not in tikz
    odd = "#$%&_{}\\^~"
    assert odd.translate(cli._TEX) == "\\#\\$\\%\\&\\_\\{\\}\\textbackslash{}\\textasciicircum{}\\textasciitilde{}"
    code, dot = run(capsys, "pcs", "export", "--format", "dot", str(path))
    assert code == 0
    assert '"é" [shape=box];' in dot and '"a_1" [shape=ellipse];' in dot and '"50%"' in dot
    assert "\\u" not in dot


def test_export_tikz_rejects_high_dimension(tmp_path, capsys):
    P = pcs.relpcs(3, {3: ["c"]}, {})
    path = tmp_path / "high.json"
    path.write_text(json.dumps(pcs.to_json_dict(P)))
    assert main(["pcs", "export", "--format", "tikz", str(path)]) == 2
    capsys.readouterr()


def test_aut_lang(capsys):
    code, data = run_json(capsys, "aut", "lang", "-L", "2", str(FIXTURES / "loop-ab.json"))
    assert code == 0
    assert data["words"] == ["", "a", "aa", "ab", "b", "ba", "bb"]


@pytest.mark.parametrize(
    "alphabet, label, letter",
    [
        # the words "a" "b" and "ab" would both print as "ab"
        (["a", "b", "ab"], "ab", "'ab'"),
        # the one-letter word would print as "", the empty word
        (["a", ""], "", "''"),
    ],
)
def test_letters_of_other_than_one_character_exit_2(tmp_path, capsys, alphabet, label, letter):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "alphabet": alphabet, "states": ["p", "q"], "initial": ["p"], "accepting": ["q"],
        "edges": [{"label": label, "sources": ["p"], "targets": ["q"]}],
    }))
    assert main(["aut", "lang", "-L", "2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"alphabet letter {letter} is not one character" in captured.err


def test_word_count_over_the_limit_exits_2(tmp_path, capsys):
    # three letters: 88,573 words up to length 10, and 265,720 up to 11
    path = tmp_path / "loop-abc.json"
    path.write_text(json.dumps({
        "alphabet": ["a", "b", "c"], "states": ["x"], "initial": ["x"], "accepting": ["x"],
        "edges": [{"label": a, "sources": ["x"], "targets": ["x"]} for a in "abc"],
    }))
    for argv in (["aut", "lang", "-L", "11", str(path)],
                 ["aut", "verify", "-L", "11", str(path)],
                 ["rx", "compile", "(a|b|c)*", "--alphabet", "abc", "-L", "11"],
                 ["rx", "fuzz", "--seed", "1", "--count", "20", "--depth", "6", "-L", "12", "--alphabet", "abcdefgh"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds the limit {aut.MAX_WORDS}" in captured.err
    assert 88_573 <= aut.MAX_WORDS < 265_720
    code, data = run_json(capsys, "aut", "lang", "-L", "10", str(path))
    assert code == 0 and len(data["words"]) == 88_573


def test_no_prefix_of_a_loop_that_never_accepts_is_extended(tmp_path):
    """Eight letters: 8^12 prefixes up to length 12, none of them a word."""
    path = tmp_path / "dead-loop.json"
    path.write_text(json.dumps({
        "alphabet": list("abcdefgh"), "states": ["x"], "initial": ["x"], "accepting": [],
        "edges": [{"label": a, "sources": ["x"], "targets": ["x"]} for a in "abcdefgh"],
    }))
    done = subprocess.run(
        [sys.executable, "-m", "cofib", "aut", "lang", "-L", "12", str(path)], cwd=ROOT,
        env=_subprocess_env(), capture_output=True, text=True, timeout=20,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"length_bound": 12, "words": []}


def test_aut_cofrep(capsys):
    code, data = run_json(capsys, "aut", "cofrep", str(FIXTURES / "loop-ab.json"))
    assert code == 0
    assert data["unique_rlp"]
    assert len(data["replacement"]["states"]) == 4
    assert len(data["certificate"]) >= 5


def test_aut_normalize(capsys):
    code, data = run_json(capsys, "aut", "normalize", str(FIXTURES / "loop-a.json"))
    assert code == 0
    A = aut_from_json(data["automaton"])
    assert len(A.initial) == 1 and is_simple(A)


def test_aut_conditions(capsys):
    code, data = run_json(capsys, "aut", "conditions", str(FIXTURES / "loop-ab.json"))
    assert code == 1
    assert data["witness"]["state"] == "v"
    code, data = run_json(capsys, "aut", "conditions", str(FIXTURES / "path-ab.json"))
    assert code == 0


def test_aut_verify(capsys):
    code, data = run_json(capsys, "aut", "verify", "-L", "4", str(FIXTURES / "relational-mess.json"))
    assert code == 0 and data["ok"]


def test_rx_compile(capsys):
    code, data = run_json(capsys, "rx", "compile", "a*b*", "-L", "3")
    assert code == 0
    assert data["words"] == ["", "a", "aa", "aaa", "aab", "ab", "abb", "b", "bb", "bbb"]
    automaton = aut_from_json(data["automaton"])
    assert is_simple(automaton)


def test_rx_compile_ascii_flag(capsys):
    code, data = run_json(capsys, "rx", "compile", "--ascii", "()|0", "-L", "2")
    assert code == 0
    assert data["words"] == [""]
    assert main(["rx", "compile", "()|0"]) == 2
    capsys.readouterr()


def test_rx_compile_deep_nesting_exits_0(capsys):
    code, data = run_json(capsys, "rx", "compile", "(" * 600 + "a" + ")" * 600, "-L", "2")
    assert code == 0
    assert data["regex"] == "a" and data["words"] == ["a"]


def test_rx_fuzz(capsys):
    code = main(["rx", "fuzz", "--seed", "7", "--count", "25", "--depth", "3", "-L", "6"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data["mismatches"] == 0
    assert data["regexes"] == 25


def test_rx_fuzz_empty_alphabet_exits_2(capsys):
    code = main(["rx", "fuzz", "--seed", "1", "--count", "1", "--depth", "2", "-L", "2", "--alphabet", ""])
    assert code == 2
    assert "alphabet" in capsys.readouterr().err


def test_rx_fuzz_deterministic(capsys):
    code1, out1 = run(capsys, "rx", "fuzz", "--seed", "9", "--count", "10", "--depth", "2", "-L", "5")
    code2, out2 = run(capsys, "rx", "fuzz", "--seed", "9", "--count", "10", "--depth", "2", "-L", "5")
    assert (code1, out1) == (code2, out2)


def test_toolkit_appendix(capsys):
    code, data = run_json(capsys, "toolkit", "appendix")
    assert code == 0 and data["ok"]
    for carrier in ("pcs", "automata"):
        assert data["carriers"][carrier].pop("failures") == []
        assert set(data["carriers"][carrier]) == set(lifting.APPENDIX_CHECKS)
        assert all(count > 0 for count in data["carriers"][carrier].values())


@pytest.mark.parametrize(
    "how, owner, name, fake, failures",
    [
        ("setitem", lifting.APPENDIX_CHECKS, "retract_identity", lambda carrier, f: False,
         ("retract_identity: i_01", "retract_identity: edge(a)")),
        ("setattr", lifting, "unique_lift_sides", lambda carrier, p, i: (True, False),
         ("unique_lift_equivalence: fold of one-square + one-square against i_0",
          "unique_lift_equivalence: fold of loop-ab + loop-ab against source(b)")),
    ],
    ids=["identity_check", "unique_lift_sides"],
)
def test_toolkit_appendix_fails_naming_the_identity_and_the_case(
    capsys, monkeypatch, how, owner, name, fake, failures
):
    getattr(monkeypatch, how)(owner, name, fake)
    code, out = run(capsys, "toolkit", "appendix")
    assert code == 1 and '"ok": false' in out
    carriers = json.loads(out)["carriers"]
    identity = failures[0].split(":")[0]
    for carrier, failure in zip(("pcs", "automata"), failures):
        assert failure in carriers[carrier]["failures"]
        assert carriers[carrier][identity] == 0


def test_aut_fixture_round_trip():
    for name in ("loop-ab", "relational-mess", "headless-edge", "two-start"):
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        assert aut_to_json(aut_from_json(data)) == data


def test_samples_equal_their_fixtures():
    builders = {name: builder for name, (builder, _n) in samples.PCS_SAMPLES.items()}
    builders["broken-closure"] = samples.broken_closure_square
    for name, builder in builders.items():
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        assert pcs.from_json_dict(data) == builder(), name
    for name, builder in samples.AUT_SAMPLES.items():
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        assert aut_from_json(data) == builder(), name
    assert len(builders) + len(samples.AUT_SAMPLES) == len(list(FIXTURES.glob("*.json")))


def test_dot_draws_a_face_with_two_targets_through_a_point_node():
    P = pcs.relpcs(1, {0: ["v", "w"], 1: ["e"]}, {("e", CubeWord.parse("+")): ["v", "w"]})
    lines = pcs_to_dot(P).splitlines()
    for line in [
        '  "rel0" [shape=point, label=""];',
        '  "e" -> "rel0" [label="+", arrowhead=none];',
        '  "rel0" -> "v";',
        '  "rel0" -> "w";',
    ]:
        assert line in lines


def _fold_reports():
    """Both lifting reports of the fold of two circles onto one: two
    fillers for a square against ``i_0``, none for one against its
    codiagonal."""
    carrier, circle = pcs.PCS_CARRIER, samples.circle()
    _two, legs = carrier.coproduct([circle, circle])
    fold = carrier.copair(legs, [carrier.identity(circle)] * 2)
    return lifting_reports(carrier, fold, brick_generators(1))


def _verify_with(monkeypatch, capsys, **reports):
    real = cli.verify_blowup
    monkeypatch.setattr(cli, "verify_blowup", lambda P, n: dataclasses.replace(real(P, n), **reports))
    return run_json(capsys, "pcs", "verify", "-n", "2", str(FIXTURES / "one-square.json"))


def test_verify_names_the_generator_where_lifting_failed(monkeypatch, capsys):
    unique, _codiag = _fold_reports()
    code, data = _verify_with(monkeypatch, capsys, lifting=unique)
    assert code == 1
    assert not data["ok"] and not data["unique_rlp"] and "codiagonal_failure" not in data
    assert data["lifting_failure"] == {
        "generator": "i_0",
        "lift_count": 2,
        "top": {},
        "bottom": {"0": "e"},
        "fillers": [{"0": "0/e"}, {"0": "1/e"}],
    }


def test_verify_names_the_square_where_codiagonal_lifting_failed(monkeypatch, capsys):
    _unique, codiag = _fold_reports()
    code, data = _verify_with(monkeypatch, capsys, codiagonal_lifting=codiag)
    assert code == 1
    assert not data["ok"] and data["unique_rlp"] and not data["codiagonal_rlp"]
    assert "lifting_failure" not in data
    assert data["codiagonal_failure"] == {
        "generator": "nabla_i_0",
        "lift_count": 0,
        "top": {"0/0": "0/e", "1/0": "1/e"},
        "bottom": {"0": "e"},
    }


def test_aut_verify_writes_automaton_cells_as_kind_and_name(monkeypatch, capsys):
    loop = samples.loop_a()
    forgetful = automaton("a", ["x"], [], ["x"], ["x"])
    p = AUT_CARRIER.make_morphism(forgetful, loop, {("st", "x"): ("st", "v")})
    failed = unique_rlp(AUT_CARRIER, p, automata_generators("a").positive)
    real = aut.verify_replacement
    monkeypatch.setattr(aut, "verify_replacement", lambda A, **kw: dataclasses.replace(real(A, **kw), lifting=failed))
    code, data = run_json(capsys, "aut", "verify", "-L", "3", str(FIXTURES / "loop-ab.json"))
    assert code == 1
    assert data["lifting_failure"] == {"generator": "edge(a)", "lift_count": 0, "top": {}, "bottom": {"ed:e": "ed:e0"}}


def test_a_failed_check_fails_the_report_and_its_exit_code():
    """For both carriers, each construction check counts in ``ok``; the
    facts ``input_euclidean`` and ``beta_is_isomorphism`` do not: the
    y-graph is not euclidean, and its blowup passes."""
    reports = [
        cli.verify_blowup(samples.y_graph(), 1),
        cli.verify_blowup(samples.one_square_torus(), 2),
        aut.verify_replacement(samples.loop_ab()),
    ]
    assert not reports[0].input_euclidean.ok and not reports[0].beta_iso
    for report in reports:
        for name in [None, *report.checks]:
            checks = {**report.checks, name: False} if name else report.checks
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli._emit_verdict(dataclasses.replace(report, checks=checks))
            data = json.loads(out.getvalue())
            assert (code, data["ok"]) == ((1, False) if name else (0, True)), name
            assert {key: data[key] for key in checks} == checks


def test_rx_fuzz_reports_a_mismatch_witness(monkeypatch, capsys):
    real = regex.compile_regex
    monkeypatch.setattr(regex, "compile_regex", lambda r, alphabet: real(regex.Empty(), alphabet))
    code = main(["rx", "fuzz", "--seed", "7", "--count", "5", "--depth", "2", "-L", "3"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 1
    assert data["regexes"] == 5 and data["mismatches"] > 0
    assert f"{data['mismatches']} mismatches" in captured.err
    for witness in data["witnesses"]:
        expected = regex.regex_lang_upto(regex.parse(witness["regex"]), 3)
        assert witness["compiled_only"] == []
        assert witness["oracle_only"] == witness["words"] == sorted("".join(w) for w in expected)[:3]


def test_aut_normalize_warns_without_an_initial_state(tmp_path, capsys):
    path = tmp_path / "no-initial.json"
    path.write_text(json.dumps(aut_to_json(automaton("a", ["s", "t"], [("a", ["s"], ["t"])], [], ["t"]))))
    code, data = run_json(capsys, "aut", "normalize", str(path))
    assert code == 0
    assert data["warning"] == "no initial state; nothing to normalize"
    assert data["automaton"] == json.loads(path.read_text())


# -- contract fuzz: exit codes 0, 1 or 2, never a traceback ------------------------

_FILE_COMMANDS = [
    ["pcs", "validate"],
    ["pcs", "blowup", "-n", "2"],
    ["pcs", "euclid", "-n", "2"],
    ["pcs", "verify", "-n", "2"],
    ["pcs", "export", "--format", "dot"],
    ["aut", "lang", "-L", "3"],
    ["aut", "cofrep"],
    ["aut", "normalize"],
    ["aut", "conditions"],
    ["aut", "verify", "-L", "3"],
]
_DOCUMENTS = {path.name: path.read_text() for path in sorted(FIXTURES.glob("*.json"))}
# wrong types, negative and huge integers, and names that nothing declares
_ODD_VALUES = st.sampled_from(
    [None, True, 0, -1, -(2**31), 2**63, 10**30, 1.5, "", "zz", "+-", [], {}, ["zz"], [[]], {"zz": []}]
)


@st.composite
def _mutated_documents(draw):
    """A fixture document with one value replaced, dropped or added at a
    drawn path: the walk goes down into a drawn non-empty container while
    a drawn coin says so."""
    doc = json.loads(_DOCUMENTS[draw(st.sampled_from(sorted(_DOCUMENTS)))])
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
        if not (inner and draw(st.booleans())):
            break
        node = node[draw(st.sampled_from(inner))]
    op = draw(st.sampled_from(["replace", "drop", "add"] if keys else ["add"]))
    if op == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["zz", "cube", "0", "-1", "99"]))] = draw(_ODD_VALUES)
    elif op == "add":
        node.insert(draw(st.integers(0, len(node))), draw(_ODD_VALUES))
    elif op == "drop":
        del node[draw(st.sampled_from(keys))]
    else:
        node[draw(st.sampled_from(keys))] = draw(_ODD_VALUES)
    return doc


def _exit_code_and_stderr(argv) -> tuple:
    """``main(argv)``'s exit code, argparse's included, and its stderr;
    any other exception propagates and fails the caller."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
def test_every_file_command_exits_0_1_or_2_on_a_mutated_fixture(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for command in _FILE_COMMANDS:
            code, err = _exit_code_and_stderr([*command, str(path)])
            assert code in (0, 1, 2) and "Traceback" not in err, (command, doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from("ab()|*ε∅0"), max_size=14), st.booleans())
def test_rx_compile_exits_0_or_2_on_any_text(text, ascii_aliases):
    argv = ["rx", "compile", text, "--alphabet", "ab"] + ["--ascii"] * ascii_aliases
    code, err = _exit_code_and_stderr(argv)
    assert code in (0, 2) and "Traceback" not in err, argv
