"""CLI behaviour: payload values, determinism, exit codes, file formats."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hatlab.graphs import MAX_PRODUCT_VERTICES

CLI = [sys.executable, "-m", "hatlab.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args: str, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600, env=env, cwd=cwd
    )


def payload(*args: str) -> dict:
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


# --- solve ------------------------------------------------------------------


def test_solve_one_player():
    doc = payload("solve", "--t", "1", "--n", "5", "--family", "dict", "--mode", "exact")
    assert doc["result"]["value"] == "1/2"
    assert doc["result"]["decimal"] == "0.5"
    assert doc["command"] == "solve"


def test_solve_two_player_single_hat():
    doc = payload("solve", "--t", "2", "--n", "1", "--family", "dict")
    assert doc["result"]["value"] == "1/4"


def test_solve_golden_two_two():
    doc = payload("solve", "--t", "2", "--n", "2", "--family", "dict")
    assert doc["result"]["value"] == "5/16"


def test_solve_search_is_seeded():
    doc = payload("solve", "--t", "2", "--n", "2", "--mode", "search", "--seed", "4",
                  "--restarts", "8")
    assert doc["seed"] == 4
    assert doc["result"]["value"] == "5/16"
    assert doc["result"]["method"] == "local-search"


# --- alpha ------------------------------------------------------------------


def test_alpha_kneser3():
    doc = payload("alpha", "--graph", "kneser:3")
    assert doc["result"]["value"] == "1/2"
    assert doc["result"]["alpha"] == 4


def test_alpha_shift4():
    doc = payload("alpha", "--graph", "shift:4")
    assert doc["result"]["value"] == "1/4"


def test_alpha_power_matches_solve():
    a = payload("alpha", "--graph", "kneser:2", "--power", "2")
    s = payload("solve", "--t", "2", "--n", "2", "--family", "intersecting")
    assert a["result"]["value"] == s["result"]["value"]


def test_alpha_power_of_one_vertex_is_the_vertex():
    # this ran t - 1 products and had not finished after 20 s
    start = time.perf_counter()
    res = run_cli("alpha", "--graph", "edgeless:1", "--power", "1000000")
    assert res.returncode == 0, res.stderr
    assert time.perf_counter() - start < 10
    assert res.stdout == (
        '{"command":"alpha","params":{"graph":"edgeless:1","power":1000000},'
        '"result":{"alpha":1,"decimal":"1.0","label":"power(edgeless(1),1000000)",'
        '"nodes_explored":1,"value":"1/1","vcount":1},"seed":null,"version":"0.1.0"}\n'
    )


def test_alpha_on_a_core_over_1000_vertices_exits_0():
    # the search recurses once per branch level; this exited 1 with RecursionError
    doc = payload("alpha", "--graph", "gnp:1200:0.98:1")
    assert (doc["result"]["alpha"], doc["result"]["nodes_explored"]) == (4, 2559)


# --- alphastar --------------------------------------------------------------


def test_alphastar_exact_complete4():
    doc = payload("alphastar", "--graph", "complete:4", "--mode", "exact")
    assert doc["result"]["value"] == "15/64"


def test_alphastar_exact_edgeless8():
    doc = payload("alphastar", "--graph", "edgeless:8", "--mode", "exact")
    assert doc["result"]["value"] == "1/2"


def test_alphastar_mc_reports_stderr():
    doc = payload("alphastar", "--graph", "shift:4", "--mode", "mc",
                  "--samples", "2000", "--seed", "1")
    mean = float(doc["result"]["mean"])
    stderr = float(doc["result"]["stderr"])
    assert abs(mean - 0.2161) < 10 * stderr + 0.01
    assert doc["seed"] == 1


# --- blocker ----------------------------------------------------------------


def test_blocker_bound():
    doc = payload("blocker", "bound", "--k", "2", "--beta", "1")
    assert doc["result"]["value"] == "1/128"


@pytest.mark.parametrize(
    "k,beta",
    [("8000", "1"), ("7000", "1/1" + "0" * 400), ("100000000000", "1")],
    ids=["2^(2k+2)-unprintable", "denominator-unprintable", "k-1e11"],
)
def test_blocker_bound_past_the_printable_digits_exits_3(k, beta):
    # the first two exited 2 from the int-to-str limit; k = 10^11 raised MemoryError
    res = run_cli("blocker", "bound", "--k", k, "--beta", beta)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert "4300 digits" in res.stderr and "Traceback" not in res.stderr


def test_blocker_build_and_verify_round_trip(tmp_path):
    out = tmp_path / "fam.json"
    doc = payload("blocker", "build", "--n", "8", "--seed", "7", "--delta", "0.5",
                  "--out", str(out))
    assert doc["result"]["certified"] is True
    assert doc["result"]["k"] == 12
    ver = payload("blocker", "verify", "--file", str(out))
    assert ver["result"]["certified"] is True
    assert ver["result"]["mode"] == "explicit"


def test_blocker_build_product_form_verify(tmp_path):
    out = tmp_path / "big.json"
    doc = payload("blocker", "build", "--n", "16", "--seed", "7", "--delta", "0.8",
                  "--out", str(out))
    assert doc["result"]["certified"] is True
    ver = payload("blocker", "verify", "--file", str(out))
    assert ver["result"]["certified"] is True
    assert ver["result"]["mode"] == "product-classes"


def test_blocker_build_full_target_certified():
    doc = payload("blocker", "build", "--n", "16", "--seed", "7", "--delta", "0.15")
    assert doc["result"]["certified"] is True
    assert doc["result"]["k"] == 12
    assert doc["result"]["stalled"] is False
    num, _, den = doc["result"]["beta"].partition("/")
    from fractions import Fraction

    assert Fraction(85, 600) <= Fraction(int(num), int(den)) <= Fraction(1, 6)


# --- family and witness serialization ----------------------------------------


def test_family_command_hex_masks():
    doc = payload("family", "--kind", "dict", "--n", "2")
    assert doc["result"]["sets"] == ["0xa", "0xc"]
    assert doc["result"]["r"] == 2
    doc3 = payload("family", "--kind", "intersecting", "--n", "3")
    assert doc3["result"]["sets"] == ["0xaa", "0xcc", "0xe8", "0xf0"]


def test_solve_witness_tables():
    doc = payload("solve", "--t", "2", "--n", "2", "--witness")
    tables = doc["result"]["witness"]["tables"]
    assert len(tables) == 2 and all(len(tb) == 4 for tb in tables)
    # re-evaluate the emitted witness through the game definition
    from fractions import Fraction

    from hatlab.game import Strategy, enumerate_family, success_probability

    fam = enumerate_family("dictator", 2)
    s = Strategy(n=2, t=2, tables=tuple(tuple(tb) for tb in tables))
    assert success_probability(s, fam) == Fraction(5, 16)


# --- graph export / import --------------------------------------------------


@pytest.mark.parametrize("encoding", ["text", "binary"])
def test_graph_round_trip(tmp_path, encoding):
    out = tmp_path / f"g.{encoding}"
    doc = payload("graph", "export", "--graph", "kneser:3", "--encoding", encoding,
                  "--out", str(out))
    imp = payload("graph", "import", "--file", str(out))
    assert imp["result"]["vcount"] == doc["result"]["vcount"] == 8
    assert imp["result"]["edges"] == doc["result"]["edges"]
    assert imp["result"]["self_loops"] == 1


# --- record shape and determinism -------------------------------------------


def test_stdout_is_single_json_line_with_version():
    res = run_cli("solve", "--t", "1", "--n", "2")
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"command", "params", "seed", "version", "result"}


def test_record_golden_bytes():
    # freezing one record guards the on-the-wire format itself
    res = run_cli("blocker", "bound", "--k", "2", "--beta", "1")
    assert res.stdout == (
        '{"command":"blocker","params":{"beta":"1","k":2,"subcommand":"bound"},'
        '"result":{"decimal":"0.0078125","k":2,"value":"1/128"},'
        '"seed":null,"version":"0.1.0"}\n'
    )


def test_blocker_verify_reports_counterexample(tmp_path):
    # a hand-made family with one real blocker and one refutable set
    doc = {
        "t": 1, "n": 3, "k": 2, "beta": "1/2", "seed": None,
        "certified": False, "stalled": False,
        # {001,110} covers all coordinates; {100,010} leaves bit 0 uncovered
        "blockers": [[1, 6], [4, 2]],
    }
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    ver = payload("blocker", "verify", "--file", str(f))
    assert ver["result"]["certified"] is False
    entries = ver["result"]["blockers"]
    assert entries[0]["certified"] is True
    assert entries[1]["certified"] is False
    assert "counterexample" in entries[1]


# sha256 of the stdout of `solve --witness`, recorded before the t=2 and t=3
# exact engines were folded into one
SOLVE_WITNESS_DIGESTS = [
    ("dict", ("--t", "2", "--n", "3"),
     "45ff34a22c49b149ad32770673007704282fc5a1d18b6d00c721de1e385cf065"),
    ("dict", ("--t", "3", "--n", "2", "--allow-slow"),
     "f12f51dc2a1901267ef640aa674e5bd49318e05f0b962ed06bf8251dbb4fbb21"),
    ("intersecting", ("--t", "2", "--n", "3"),
     "78a86c9e8dd1d4ba5d9aa6cc3c4d2f7b9953ddd0d9089a9c92880575610a1e16"),
    ("intersecting", ("--t", "3", "--n", "2", "--allow-slow"),
     "e9e4bdf98e29ac3fb5940987a449fa74fdb49254e1bd052d802f442c9a70575c"),
    ("monotone", ("--t", "2", "--n", "3"),
     "0dc4bc1216bd5a29f0bc1dad1023f93a4ad6117f50d6cca4b440d69cf6f84da0"),
    ("monotone", ("--t", "3", "--n", "2", "--allow-slow"),
     "0be9f9fb7aa58999e1d0bd004bec21a6267dbcc214a756f038100c1222b15765"),
]


@pytest.mark.parametrize(
    "family,size,digest",
    SOLVE_WITNESS_DIGESTS,
    ids=[f"{f}-t{s[1]}" for f, s, _ in SOLVE_WITNESS_DIGESTS],
)
def test_solve_witness_stdout_pinned(family, size, digest):
    res = run_cli("solve", *size, "--family", family, "--witness")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# sha256 of stdout, recorded before the MIS search nodes were made cheaper;
# `alpha` prints nodes_explored, so these pin the search tree too
ALPHA_STDOUT_DIGESTS = [
    (("alpha", "--graph", "shift:8"),
     "0e1db108e31d929fee43c746428871c86f906ca212b3fa2d4a4df17df767fb27"),
    (("alpha", "--graph", "kneser:3", "--power", "2"),
     "9fdba41df3ccb29f63a3fddabc00bd6d91f27658ed50fbb96203d178e8c94275"),
    (("alpha", "--graph", "gnp:40:0.2:3"),
     "48ffb9090698565e78484ce6acdde6c37e6c9b363aca4a556c156b0ea80d171c"),
    (("alphastar", "--graph", "shift:8", "--mode", "mc", "--samples", "500", "--seed", "4"),
     "9874dcd1bd5d5c6d694eac850bbe889d67f0dfa853b41c8bb583482354c6eee6"),
]


@pytest.mark.parametrize(
    "args,digest", ALPHA_STDOUT_DIGESTS, ids=[" ".join(a[:3]) for a, _ in ALPHA_STDOUT_DIGESTS]
)
def test_alpha_stdout_pinned(args, digest):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_blocker_oracle_stdout_pinned(tmp_path):
    # sha256 of `blocker verify` stdout and of a `blocker build --out` file,
    # recorded before the oracle was rewritten as a lane test. The verified
    # family is the n=4 construction with the last point of every second
    # blocker moved to a fresh first coordinate, so certified blockers and
    # counterexamples alternate. The moved points avoid every other blocker,
    # as the decoder rejects blockers that share a point; the verify digest
    # was recorded on this family before that check came in.
    from hatlab.blockers import construct_blockers, family_to_json

    doc = json.loads(family_to_json(construct_blockers(4, 2, 0.5)))
    taken = {i for flat in doc["blockers"] for i in flat}
    for flat in doc["blockers"][1::2]:
        used = {i >> 4 for i in flat}
        flat[-1] = next(i for i in range(256) if i not in taken and i >> 4 not in used)
        taken.add(flat[-1])
    # the moved points change the union, so beta must follow it to decode
    doc["beta"] = f"{len({i for flat in doc['blockers'] for i in flat})}/256"
    (tmp_path / "fam.json").write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", "fam.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "6f4b85825f99ee2684d8501b030e2162cd076f91e22e3414560c65106b65c244"
    )
    out = tmp_path / "built.json"
    res = run_cli("blocker", "build", "--n", "8", "--seed", "7", "--delta", "0.5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f7fcb51af1fff3607d04c2a23b14f62120e12c3c40ffa22a28fab85201fc9a13"
    )


def test_fraction_round_trip_losslessly():
    from fractions import Fraction

    doc = payload("solve", "--t", "2", "--n", "3", "--family", "dict")
    num, _, den = doc["result"]["value"].partition("/")
    assert Fraction(int(num), int(den)) == Fraction(11, 32)


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--t", "2", "--n", "2", "--mode", "search", "--seed", "3"),
        ("alphastar", "--graph", "shift:4", "--mode", "mc", "--samples", "1500",
         "--seed", "2"),
        ("alpha", "--graph", "gnp:10:0.5:6"),
        ("blocker", "build", "--n", "8", "--seed", "9", "--delta", "0.5"),
    ],
)
def test_seeded_commands_byte_identical_across_runs_and_threads(args):
    outs = set()
    for threads in ("1", "8"):
        for _ in range(2):
            res = run_cli("--threads", threads, *args)
            assert res.returncode == 0, res.stderr
            outs.add(res.stdout)
    assert len(outs) == 1


def test_csv_format():
    res = run_cli("--format", "csv", "solve", "--t", "1", "--n", "3")
    header, row = res.stdout.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["result_value"] == "1/2"
    assert cols["command"] == "solve"


@pytest.mark.parametrize("args,label", [
    (("alpha", "--graph", "kneser:2", "--power", "2"), "power(kneser(2),2)"),
    (("alpha", "--graph", "gnp:10:0.2:3"), "gnp(10,0.2,3)"),
    (("graph", "export", "--graph", "kneser:3", "--power", "2"), "power(kneser(3),2)"),
], ids=["alpha-kneser2^2", "alpha-gnp10", "export-kneser3^2"])
def test_csv_quotes_values_that_hold_a_comma(tmp_path, args, label):
    if args[0] == "graph":
        args += ("--out", str(tmp_path / "g.txt"))
    res = run_cli("--format", "csv", *args)
    assert res.returncode == 0, res.stderr
    header, row = csv.reader(io.StringIO(res.stdout))
    assert len(header) == len(row)
    assert dict(zip(header, row))["result_label"] == label


def test_csv_without_commas_is_unchanged():
    # recorded before values holding a comma were quoted
    res = run_cli("--format", "csv", "alphastar", "--graph", "shift:4", "--mode", "mc",
                  "--samples", "100", "--seed", "3")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "cf3b44c83e3c8ad29b4892bce10f465eb3b20171300cfaa614e758413138b541"
    )


@pytest.mark.parametrize("args,key", [
    (("family", "--n", "2"), "sets"),
    (("solve", "--t", "2", "--n", "2", "--witness"), "witness"),
], ids=["family-sets", "solve-witness"])
def test_csv_writes_list_and_object_fields_as_json(args, key):
    res = run_cli("--format", "csv", *args)
    assert res.returncode == 0, res.stderr
    header, row = csv.reader(io.StringIO(res.stdout))
    assert len(header) == len(row)
    cell = dict(zip(header, row))[f"result_{key}"]
    assert json.loads(cell) == payload(*args)["result"][key]


def test_stderr_summary_of_family_and_graph_commands(tmp_path):
    out = str(tmp_path / "g.txt")
    for args, summary in (
        (("family", "--n", "3", "--kind", "intersecting"), "4"),
        (("graph", "export", "--graph", "kneser:3", "--out", out), "kneser(3)"),
        (("graph", "import", "--file", out), "imported"),
    ):
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        assert res.stderr.startswith(f"hatlab {args[0]}: {summary} ["), res.stderr


def test_package_runs_as_a_module():
    # `python -m hatlab` and `python -m hatlab.cli` are the same command line
    args = ("alphastar", "--graph", "shift:4", "--mode", "mc", "--samples", "200")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-m", "hatlab", *args],
                         capture_output=True, text=True, timeout=600, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli(*args).stdout


# --- exit codes -------------------------------------------------------------


def test_usage_error_exits_2():
    assert run_cli("solve", "--t", "2").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("alpha", "--graph", "torus:4").returncode == 2
    assert run_cli("alpha", "--graph", "kneser").returncode == 2
    assert run_cli("blocker", "verify", "--file", "/nonexistent.json").returncode == 2
    assert run_cli("blocker", "bound", "--k", "2", "--beta", "x/y").returncode == 2
    for args in (
        ("blocker", "bound", "--k", "2", "--beta", "0/0"),
        ("blocker", "bound", "--k", "2", "--beta", "1/0"),
        ("blocker", "build", "--n", "8", "--seed", "1", "--delta", "inf"),
        ("blocker", "build", "--n", "8", "--seed", "1", "--delta", "-inf"),
        ("blocker", "build", "--n", "8", "--seed", "1", "--stall-limit", "-5"),
        ("solve", "--t", "0", "--n", "2"),
        ("solve", "--t", "2", "--n", "0"),
        ("solve", "--t", "0", "--n", "2", "--mode", "search"),
        ("family", "--n", "-1"),
        ("alpha", "--graph", "shift:4", "--power", "0"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "spec", ["kneser:3:4", "shift:4:1", "complete:3:x", "edgeless:2:", "gnp:10:0.5:3:9"]
)
def test_graph_spec_with_an_extra_field_exits_2(spec):
    # these exited 0 and printed the graph without the extra field
    res = run_cli("alpha", "--graph", spec)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert f"bad graph spec {spec!r}" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("alpha", "--graph", "complete:0"),
        ("alpha", "--graph", "gnp:0:0.5:1"),
        ("alphastar", "--graph", "edgeless:0"),
        ("alphastar", "--graph", "edgeless:0", "--mode", "mc", "--samples", "5"),
        ("alpha", "--graph", "edgeless:-1"),
        ("alpha", "--graph", "gnp:-1:0.5:1"),
    ],
)
def test_empty_or_negative_graph_exits_2(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("alpha", "--graph", "kneser:0"),
        ("alpha", "--graph", "kneser:-1"),
        ("alpha", "--graph", "shift:0"),
        ("alpha", "--graph", "shift:-1"),
        ("blocker", "build", "--n", "0", "--seed", "1"),
        ("blocker", "build", "--n", "-2", "--seed", "1"),
    ],
)
def test_non_positive_graph_and_blocker_sizes_exit_2(args):
    # these exited 3 ("unsupported size") although the sizes are malformed
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("spec", ["shift:1", "kneser:14"])
def test_positive_graph_sizes_out_of_range_still_exit_3(spec):
    res = run_cli("alpha", "--graph", spec)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "name,data",
    [
        ("vertex_out_of_range.txt", b"2\n0: 5\n"),
        ("truncated.hlg", b"HLG1" + (1000).to_bytes(4, "little") + b"\x01"),
        ("count_2_70.txt", b"%d\n" % (1 << 70)),
        ("count_over_max.txt", b"%d\n" % (MAX_PRODUCT_VERTICES + 1)),
    ],
    ids=["text", "binary", "count-2^70", "count-over-max"],
)
def test_graph_import_malformed_exits_2(tmp_path, name, data):
    f = tmp_path / name
    f.write_bytes(data)
    res = run_cli("graph", "import", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "change,drop",
    [({"blockers": [[15, 999999]]}, None), ({"blockers": [[15]]}, None), ({}, "k"),
     ({"beta": "1/2"}, None),
     # the product was dropped silently and the blockers verified with exit 0
     ({"product": {"base": "complement-pairs", "tuples": [[3, 5, 6, 9, 10, 12]]}}, None),
     ({"blockers": 5}, None), ({"blockers": [5]}, None), ({"seed": "7"}, None)],
    ids=["index-out-of-range", "wrong-length", "missing-k", "beta-not-union-measure",
         "blockers-and-product", "blockers-not-a-list", "blocker-not-a-list",
         "seed-not-an-integer"],
)
def test_blocker_verify_malformed_exits_2(tmp_path, change, drop):
    doc = {"t": 2, "n": 4, "k": 2, "beta": "1/128", "seed": None,
           "certified": True, "stalled": False, "blockers": [[15, 240]], **change}
    doc.pop(drop, None)
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


def test_blocker_verify_product_tuple_with_a_repeated_point_exits_2(tmp_path):
    # six distinct points as k=12 asks, but seven entries: 14-point blockers
    doc = {"t": 2, "n": 4, "k": 12, "beta": "3/8",
           "product": {"base": "complement-pairs", "tuples": [[1, 1, 2, 3, 4, 5, 6]]}}
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr == (
        "hatlab: a product tuple must hold 12/2 distinct points, got [1, 1, 2, 3, 4, 5, 6]\n"
    )


def test_blocker_verify_names_the_bad_entry_of_a_long_blocker_and_exits_2(tmp_path):
    # the message used to echo all 100,001 entries, 688,948 characters
    doc = {"t": 2, "n": 4, "k": 2, "beta": "1/128", "blockers": [[0] * 100_000 + [256]]}
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr[:300]
    assert res.stdout == ""
    assert res.stderr == (
        "hatlab: a blocker must be a list of integers in [0, 2^8), "
        "but entry 100000 of 100001 is 256\n"
    )


@pytest.mark.parametrize("where", ["whole-file", "product-tuples"])
def test_blocker_verify_over_nested_family_file_exits_2(tmp_path, where):
    # too deep for the JSON decoder: this exited 1 with a RecursionError traceback
    nested = "[" * 100_000 + "]" * 100_000
    text = nested if where == "whole-file" else (
        '{"t": 2, "n": 4, "k": 12, "beta": "3/8", '
        f'"product": {{"base": "complement-pairs", "tuples": {nested}}}}}'
    )
    f = tmp_path / "fam.json"
    f.write_text(text)
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr == "hatlab: the blocker family JSON is nested too deeply to decode\n"


@pytest.mark.parametrize("base", ["other", None], ids=["other", "missing"])
def test_blocker_verify_product_base_other_than_complement_pairs_exits_2(tmp_path, base):
    # a base of "other" was read as complement pairs and certified with exit 0
    product = {"base": "complement-pairs", "tuples": [[3, 5, 6, 9, 10, 12]]}
    doc = {"t": 2, "n": 4, "k": 12, "beta": "3/8", "product": product}
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    assert run_cli("blocker", "verify", "--file", str(f)).returncode == 0
    if base is None:
        del product["base"]
    else:
        product["base"] = base
    f.write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr == (
        f"hatlab: a product family's base must be 'complement-pairs', got {base!r}\n"
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"t": 1, "n": 2, "k": 2, "beta": "1/2", "blockers": [[0, 3], [0, 3]]},
        {"t": 2, "n": 4, "k": 12, "beta": "3/8",
         "product": {"base": "complement-pairs",
                     "tuples": [[3, 5, 6, 9, 10, 12], [12, 10, 9, 6, 5, 3]]}},
    ],
    ids=["explicit", "product"],
)
def test_blocker_verify_overlapping_blockers_exits_2(tmp_path, doc):
    # beta is the union measure, so these used to verify as certified
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    res = run_cli("blocker", "verify", "--file", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "not pairwise disjoint" in res.stderr and "Traceback" not in res.stderr


def test_search_without_restarts_exits_2():
    res = run_cli("solve", "--t", "2", "--n", "2", "--mode", "search", "--restarts", "0")
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""


def test_unsupported_size_exits_3():
    res = run_cli("solve", "--t", "2", "--n", "6", "--family", "dict")
    assert res.returncode == 3
    assert "unsupported" in res.stderr


@pytest.mark.parametrize("spec", ["complete:4097", "edgeless:4097"])
@pytest.mark.parametrize(
    "command", [("alpha",), ("alphastar", "--mode", "mc", "--samples", "2")],
    ids=["alpha", "alphastar-mc"],
)
def test_generated_graph_over_the_vertex_cap_exits_3(spec, command):
    # alphastar --mode mc used to build the graph and exit 0
    res = run_cli(*command, "--graph", spec)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert "n <= 4096" in res.stderr and "Traceback" not in res.stderr


def test_alphastar_mc_over_the_mis_vertex_cap_exits_3_at_once():
    # kneser:2 --power 7 has 16384 vertices; this ran 75 s and exited 0
    start = time.perf_counter()
    res = run_cli("alphastar", "--graph", "kneser:2", "--power", "7", "--mode", "mc",
                  "--samples", "2")
    assert res.returncode == 3, res.stderr
    assert time.perf_counter() - start < 10
    assert res.stdout == ""
    assert "up to 4096 vertices" in res.stderr and "Traceback" not in res.stderr


def test_construction_stall_exits_4():
    # with the rejection budget forced to zero the first collision aborts the
    # build, which must exit 4 and still report the partial family
    res = run_cli("blocker", "build", "--n", "16", "--seed", "7",
                  "--delta", "0.15", "--stall-limit", "0")
    assert res.returncode == 4
    doc = json.loads(res.stdout)
    assert doc["result"]["stalled"] is True
    assert doc["result"]["certified"] is True  # partial family still certifies


def test_allow_slow_over_its_table_budget_exits_3_at_once():
    # before the table-count gate this walk ran for minutes with no output
    start = time.perf_counter()
    res = run_cli("solve", "--t", "2", "--n", "4", "--family", "intersecting", "--allow-slow")
    assert res.returncode == 3, res.stderr
    assert time.perf_counter() - start < 10
    assert "allow_slow budget" in res.stderr and res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [("solve", "--t", "2", "--n", "4", "--family", "dict"), ("solve", "--t", "3", "--n", "2")],
    ids=["t2-n4-dict", "t3-n2"],
)
def test_allow_slow_errors_name_the_cli_flag(args):
    res = run_cli(*args)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert "--allow-slow" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("n", ["17", "40"])
def test_blocker_build_over_the_dictator_limit_exits_3_at_once(n):
    # n=40 used to die with a MemoryError traceback and exit 1
    start = time.perf_counter()
    res = run_cli("blocker", "build", "--n", n, "--seed", "1")
    assert res.returncode == 3, res.stderr
    assert time.perf_counter() - start < 10
    assert res.stdout == ""
    assert "n <= 16" in res.stderr and "Traceback" not in res.stderr


def readme_commands() -> list[tuple[list[str], str | None]]:
    """The `hatlab` lines of README's "Command line" block, with any value
    their comment quotes."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("hatlab "):
            quoted = re.search(r'"([^"]+)"', comment)
            commands.append((shlex.split(command)[1:], quoted and quoted[1]))
    return commands


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    from hatlab.cli import main

    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 13
    for argv, value in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if value is not None:
            assert json.loads(out)["result"]["value"] == value, argv



# backticked README names that are math notation, not code
README_NOTATION = {"D_b"}


def test_readme_names_only_code_that_exists():
    # a backticked name with an underscore or a capital letter, alone or
    # called, must occur as a word in the package or the tests, and
    # `module.name` in that module when the package has one of that name
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "hatlab"
    files = sorted(package.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    corpus = "\n".join(p.read_text() for p in files)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", (root / "README.md").read_text()):
        m = re.fullmatch(r"(?:([a-z]\w*)\.)?([A-Za-z_]\w*)(?:\([^()]*\))?", span)
        if m and ("_" in m[2] or m[2][0].isupper()) and m[2] not in README_NOTATION:
            names.add((m[1] or "", m[2]))
    assert len(names) >= 40
    for module, name in sorted(names):
        where = package / f"{module}.py"
        text = where.read_text() if module and where.exists() else corpus
        assert re.search(rf"\b{name}\b", text), f"README names {name} ({module or 'any file'})"
