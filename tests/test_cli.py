import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minclique import canonical_form, oracle, parse_graph6, serialize_graph6, solvers
from minclique.cli import main
from minclique.solvers import chromatic_number, clique_number, independence_number


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    return code, payload, err.getvalue()


def test_q_command():
    code, payload, _ = run_cli("q", "4")
    assert code == 0
    assert payload["results"]["q"] == [2, 2]
    assert payload["results"]["parts"] == [2, 2]

    code, payload, _ = run_cli("q", "0")
    assert code == 0
    assert payload["results"]["q"] == [0, 0]
    assert payload["results"]["parts"] == []

    code, payload, _ = run_cli("q", "20")
    assert code == 0
    assert payload["results"]["q"] == [8, 9]
    assert payload["results"]["indeterminate"] is True
    assert payload["checks"][0]["status"] == "indeterminate"


def test_witness_command(tmp_path):
    out_file = tmp_path / "w.g6"
    code, payload, _ = run_cli("witness", "7", "2", "--out", str(out_file))
    assert code == 0
    g = parse_graph6(out_file.read_text())
    assert payload["results"]["graph6"] == serialize_graph6(g)
    assert clique_number(g) == payload["results"]["omega"] == 4
    assert chromatic_number(g) == payload["results"]["chi"] == 5

    code, payload, _ = run_cli("witness", "5", "0")
    assert code == 0
    assert payload["results"]["omega"] == 5  # complete graph

    code, _, err = run_cli("witness", "6", "2")
    assert code == 2
    assert "n >= 2k + 3" in err


def test_verify_command(tmp_path, c5):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(c5) + "\n")
    code, payload, _ = run_cli("verify", str(path))
    assert code == 0
    assert payload["results"] == {
        "n": 5, "edges": 5, "omega": 2, "chi": 3, "alpha": 2, "nu": 2,
    }

    code, payload, _ = run_cli("verify", str(path), "--props", "omega,nu")
    assert code == 0
    assert payload["results"] == {"n": 5, "edges": 5, "omega": 2, "nu": 2}

    bad = tmp_path / "bad.g6"
    bad.write_text("D?\n")
    code, _, err = run_cli("verify", str(bad))
    assert code == 2 and "error" in err

    code, _, err = run_cli("verify", str(tmp_path / "missing.g6"))
    assert code == 2

    code, _, err = run_cli("verify", str(path), "--props", "girth")
    assert code == 2


def test_check_theorem2():
    code, payload, _ = run_cli("check", "theorem2", "--kmax", "22")
    assert code == 0
    assert payload["results"]["indeterminate_k"] == [20]
    assert payload["results"]["single_block_exceptions"] == [4]
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["k=20"] == "indeterminate"
    assert all(s in ("pass", "indeterminate") for s in statuses.values())


def test_check_catalog():
    code, payload, _ = run_cli("check", "catalog")
    assert code == 0
    assert payload["results"]["witnesses_verified"] == 4
    names = {c["name"] for c in payload["checks"]}
    assert names == {"witness-5", "witness-8", "witness-13", "witness-17"}


def test_check_theorem1_small(tmp_path):
    csv_path = tmp_path / "table.csv"
    g6_path = tmp_path / "graphs.g6"
    code, payload, _ = run_cli(
        "check", "theorem1", "--nmax", "5",
        "--dump-csv", str(csv_path), "--dump-graph6", str(g6_path),
    )
    assert code == 0
    assert payload["results"]["class_counts"] == [1, 1, 2, 4, 11, 34]
    assert csv_path.read_text().startswith("n,c,min_clique")
    lines = [l for l in g6_path.read_text().splitlines() if l]
    assert len(lines) == 34
    parsed = [parse_graph6(l) for l in lines]
    assert all(g.n == 5 for g in parsed)
    # one member of each of the 34 classes, whichever members they are
    assert len({canonical_form(g) for g in parsed}) == 34


def test_check_gap_small():
    code, payload, _ = run_cli("check", "gap", "--nmax", "6")
    assert code == 0
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert [c["name"] for c in payload["checks"]] == [
        f"{kind}-n={n}" for n in range(1, 7) for kind in ("identity", "formula")
    ]


def test_gap_command():
    code, payload, _ = run_cli("gap", "5")
    assert code == 0 and payload["results"] == {"gap": [1, 1], "mode": "oracle"}

    code, payload, _ = run_cli("gap", "9")
    assert code == 0 and payload["results"] == {"gap": [1, 1], "mode": "formula"}

    code, payload, _ = run_cli("gap", "6")
    assert code == 0 and payload["results"]["mode"] == "oracle"

    # n picks the route; argparse reports the removed flag on main's err
    code, payload, err = run_cli("gap", "9", "--mode", "oracle")
    assert code == 2 and payload is None and "error" in err


def test_help_goes_to_out():
    out, err = io.StringIO(), io.StringIO()
    assert main(["check", "--help"], out=out, err=err) == 0
    assert "usage:" in out.getvalue() and err.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ("check", "catalog", "--nmax", "3"),
    ("check", "catalog", "--dump-csv", "{f}"),
    ("check", "theorem2", "--nmax", "3"),
    ("check", "theorem2", "--dump-graph6", "{f}"),
    ("check", "theorem1", "--kmax", "3"),
    ("check", "gap", "--kmax", "3"),
    ("check", "gap", "--dump-csv", "{f}"),
    ("gap", "5", "--mode", "formula"),
])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, argv):
    f = tmp_path / "f"
    code, payload, err = run_cli(*(a.format(f=f) for a in argv))
    assert code == 2 and payload is None and "error:" in err
    assert not f.exists()


def test_verify_rejects_unknown_property_before_solving(tmp_path, c5, monkeypatch):
    def unreachable(g):
        raise AssertionError("chi solved before the property list was checked")

    monkeypatch.setattr(solvers, "clique_and_chromatic_number", unreachable)
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(c5) + "\n")
    code, payload, err = run_cli("verify", str(path), "--props", "chi,girth")
    assert code == 2 and payload is None and "error:" in err


def test_readme_commands_run(tmp_path, monkeypatch, c5):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:]
                for line in block.splitlines() if line.startswith("minclique ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for name in ("a.g6", "b.g6"):
        (tmp_path / name).write_text(serialize_graph6(c5) + "\n")
    for argv in commands:  # `witness ... --out w.g6` writes the file `verify` reads
        code, _, err = run_cli(*argv)
        assert code == 0, (argv, err)


def test_parser_is_built_once(monkeypatch):
    run_cli("q", "1")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (("q", "2"), ("gap", "5"), ("witness", "5", "0")):
        assert run_cli(*argv)[0] == 0
    assert built == []


@pytest.mark.parametrize("argv", [
    ("witness", "7", "2", "--out"),
    ("compose", "{c5}", "{c5}", "--out"),
    ("check", "theorem1", "--nmax", "3", "--dump-csv"),
    ("check", "theorem1", "--nmax", "3", "--dump-graph6"),
])
def test_unwritable_output_path_is_input_error(tmp_path, c5, argv):
    c5_path = tmp_path / "c5.g6"
    c5_path.write_text(serialize_graph6(c5) + "\n")
    target = tmp_path / "missing" / "x"
    code, payload, err = run_cli(*(a.format(c5=c5_path) for a in argv), str(target))
    assert code == 2 and payload is None and "error" in err
    assert not target.exists()


def test_compose_command(tmp_path, c5):
    f1 = tmp_path / "a.g6"
    f2 = tmp_path / "b.g6"
    f1.write_text(serialize_graph6(c5) + "\n")
    f2.write_text(serialize_graph6(c5) + "\n")
    code, payload, _ = run_cli("compose", str(f1), str(f2))
    assert code == 0
    assert payload["results"]["n"] == 12
    assert payload["results"]["omega"] == 4
    assert payload["results"]["alpha"] <= 2
    merged = parse_graph6(payload["results"]["graph6"])
    assert independence_number(merged) <= 2

    code, payload, _ = run_cli(
        "compose", str(f1), str(f2), "--clique1", "1,2", "--clique2", "0,4",
    )
    assert code == 0 and payload["results"]["omega"] == 4

    code, _, err = run_cli("compose", str(f1), str(f2), "--clique1", "0,2")
    assert code == 2  # not a clique


def test_bad_usage(tmp_path, c5):
    code, _, _ = run_cli("q")
    assert code == 2
    code, _, _ = run_cli("frobnicate", "1")
    assert code == 2
    code, _, _ = run_cli("check", "gap", "--nmax", "12")
    assert code == 2
    # ranges that select no check are rejected, not passed vacuously
    for argv in (("theorem1", "--nmax", "-1"), ("theorem2", "--kmax", "-3"),
                 ("theorem2", "--kmax", "0"), ("gap", "--nmax", "-2"), ("gap", "--nmax", "0")):
        code, payload, err = run_cli("check", *argv)
        assert code == 2 and payload is None and "error" in err
    code, _, _ = run_cli("check", "theorem2", "--jobs", "2")
    assert code == 2
    blank = tmp_path / "blank.g6"
    blank.write_text("\n  \n\n")
    c5_path = tmp_path / "c5.g6"
    c5_path.write_text(serialize_graph6(c5) + "\n")
    for argv in (("verify", str(blank)),
                 ("compose", str(c5_path), str(c5_path), "--clique1", "a,b")):
        code, payload, err = run_cli(*argv)
        assert code == 2 and payload is None and "error:" in err


def test_failed_check_exits_1(monkeypatch):
    wrong = list(oracle.KNOWN_CLASS_COUNTS)
    wrong[3] += 1
    monkeypatch.setattr(oracle, "KNOWN_CLASS_COUNTS", tuple(wrong))
    code, payload, err = run_cli("check", "theorem1", "--nmax", "3")
    assert code == 1
    assert payload["command"] == "check theorem1"
    assert "FAIL count-n=3" in err


def test_json_shape_roundtrip():
    code, payload, _ = run_cli("q", "7")
    assert set(payload) == {"command", "inputs", "results", "checks", "timing_ms"}
    assert json.loads(json.dumps(payload)) == payload


def test_python_dash_m_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "minclique", "q", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["results"]["q"] == [2, 2]

    # answers depend only on argv: the catalog ignores RAMSEY_WITNESS_DIR
    (tmp_path / "6.g6").write_text("D?{\n")  # 5 vertices under a 6-vertex name
    proc = subprocess.run(
        [sys.executable, "-m", "minclique", "check", "catalog"],
        capture_output=True, text=True, timeout=60,
        env=dict(env, RAMSEY_WITNESS_DIR=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["witnesses_verified"] == 4
