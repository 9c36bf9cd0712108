import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckekit import cli, coxeter, quotient
from heckekit.cli import main
from heckekit.hecke import HeckeAlgebra
from heckekit.parabolic import ParabolicModule
from heckekit.verify import SUITES
from oracles import eager_make_parser


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_table_a1(capsys):
    code, out, _ = run_cli(capsys, "kl-table", "--type", "A1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert "e\ts1\t1*v^1" in lines


def test_kl_table_dihedral_monomials(capsys):
    code, out, _ = run_cli(capsys, "kl-table", "--type", "I2(5)")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, _, poly = line.split("\t")
        assert poly.count("+") == 0 and poly.startswith("1*v^")


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, "parabolic-tables", "--type", "A3",
                          "--subset", "s1,s2")
    _, second, _ = run_cli(capsys, "parabolic-tables", "--type", "A3",
                           "--subset", "s1,s2")
    assert first == second


def test_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "inverse-tables", "--type", "A2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["system"] == "A2"
    assert obj["subset"] == []
    for row in obj["rows"]:
        assert set(row) == {"x", "z", "g"}
        for e, c in row["g"]:
            assert isinstance(e, int) and isinstance(c, int)


def test_rouquier_shape_a1(capsys):
    code, out, _ = run_cli(capsys, "rouquier-shape", "--type", "A1", "s1")
    assert code == 0
    assert "0\ts1:0:1" in out
    assert "1\te:1:1" in out


def test_rouquier_shape_negative(capsys):
    code, out, _ = run_cli(capsys, "rouquier-shape", "--type", "A1", "s1",
                           "--negative")
    assert code == 0
    assert "-1\te:-1:1" in out


def test_hom_rank_a1(capsys):
    code, out, _ = run_cli(capsys, "hom-rank", "--type", "A1", "s1", "s1")
    assert code == 0
    assert out.strip() == "1*v^0 + 1*v^2"


def test_example_a3(capsys):
    code, out, _ = run_cli(capsys, "example-a3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "e\t1*v^-1 + 1*v^1" in lines
    assert "s3\t1*v^0" in lines
    assert "s1.s2.s3\t1*v^0" in lines
    assert lines[-1] == "verdict\tnot perverse"


def test_example_a3_json(capsys):
    code, out, _ = run_cli(capsys, "example-a3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["perverse"] is False
    coeffs = {c["word"]: c["poly"] for c in obj["coeffs"]}
    assert coeffs["e"] == [[-1, 1], [1, 1]]
    assert coeffs["s1.s2.s3"] == [[0, 1]]


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A2", "--words", "5")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert "\tpass\t" in line


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1",
                           "--suite", "pairing,inversion")
    assert code == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()[1:]]
    assert names == ["pairing", "inversion"]


def test_verify_empty_suite_selection(capsys):
    # a selection of no suite once printed the header alone and exited 0
    code, out, err = run_cli(capsys, "verify", "--type", "A2", "--suite", ",")
    assert code == 2
    assert out == "" and "no suite selected" in err
    # an empty option still means every suite
    code, out, _ = run_cli(capsys, "verify", "--type", "A1", "--suite", "")
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == list(SUITES)


def test_verify_failure_exit_code(capsys, monkeypatch):
    from heckekit.verify import SuiteResult

    def failing(algebra, names=None, **kw):
        return [SuiteResult("pairing", checks=1, failures=1,
                            first_failure="injected")]

    monkeypatch.setattr("heckekit.cli.verify.run_suites", failing)
    code, out, _ = run_cli(capsys, "verify", "--type", "A1")
    assert code == 1
    assert "FAIL" in out and "injected" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1",
                           "--suite", "pairing", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suites"][0]["name"] == "pairing"
    assert obj["suites"][0]["passed"] is True


# Digests of stdout recorded before the table commands shared one row
# printer; any change in row order, word or polynomial text shows here.
TABLE_DIGESTS = [
    (("kl-table", "--type", "B3"),
     "08a2b79b3815849294cf4ca9cb1514afa0b5676e1a51abbd838186f3c6e0f5b0"),
    (("kl-table", "--type", "B4"),
     "d93b5b6f1ea0c0583c3e34fb0fdefddc6a8c9ac1f5af55bea74908a5f7c91a46"),
    (("kl-table", "--type", "D4"),
     "a8a5fe4c79e42a56eaa16580aa79970fc6091071536ae680198724b40d87b05e"),
    (("kl-table", "--type", "A3", "--format", "json"),
     "ef7a84f97b7f27cfc99fe68a3a239790bda40ee489a3809719c4cf67deff4bd9"),
    (("parabolic-tables", "--type", "B3", "--subset", "s1"),
     "e9367754cd28c694609e0bad5fb7ca40b528b91d62707cd89d21ab6a9bbf44e0"),
    (("inverse-tables", "--type", "B3", "--subset", "s2,s3"),
     "0d533dd6542f43481645320057853cf765fed18110a4f21513d93370013b5844"),
    # recorded before the table commands wrote their JSON column by column
    (("parabolic-tables", "--type", "B3", "--subset", "s1", "--format", "json"),
     "e1a74d0c26a03bf97bed42dd48a35c5c0c0a0e5fd11fc5fafc99627956c019b2"),
    (("inverse-tables", "--type", "B3", "--subset", "s2,s3", "--format", "json"),
     "9cf8fae7ae33b98352e8ee8249d815034f7a042259265e57dd3f59c0de4dbab3"),
    # module tables on larger groups, recorded before M and N had their own
    # KL table objects
    (("parabolic-tables", "--type", "F4", "--subset", "s1"),
     "b25e7351cbedd7fcc331087b14f7e8da525e2d230bbc424de918c6e259e08ad5"),
    (("inverse-tables", "--type", "F4", "--subset", "s1"),
     "7027e8875cd7d3644829b68ea63fb96153dfab3e885ad52f9d588ce4c0414999"),
    (("inverse-tables", "--type", "D5", "--subset", "s2"),
     "bcbe6d862ca12f1bfc0b59d5e9526fe953046dfad0e8908e4d2b38a031c2c75e"),
    # tables whose columns are read off their images under graph
    # automorphisms, recorded before the tables used them
    (("kl-table", "--type", "A2xA2"),
     "d15bb6883e80ced4fd54301bfecf5f86d9328f2b21c59cdf81fa0b95af785552"),
    (("kl-table", "--type", "A1xA1xA1"),
     "284bcaf0ec911eedf5b735e719d513bab752bf7778d4116fe884ef650f3c83e1"),
    (("kl-table", "--type", "I2(5)"),
     "98302e4402c42dc298b4ebe5e397932b8bbd05f6d1174e37f778d70192c70442"),
    (("parabolic-tables", "--type", "F4", "--subset", "s2,s3"),
     "7184b52cfd4ee43f2a875593eddfdc15f5d14019f98a849f1c5ea700aaf49ad4"),
    (("inverse-tables", "--type", "F4", "--subset", "s1,s4"),
     "f2972c6c04735dc2cc1415a79b93359d13faedc29143bdc2490b57e32352a317"),
    # the JSON of one shape and of one Hom rank
    (("rouquier-shape", "--type", "A3", "--subset", "s1", "s2.s3", "--format", "json"),
     "07ae01f3fe54ace8f643662330b783cf5be7e0b48983f1706e736b5c5fb27c15"),
    (("rouquier-shape", "--type", "B3", "--subset", "s2", "s1.s2.s3", "--negative",
      "--format", "json"),
     "b829c105e811487c78ad1e4cc27c570fa210c666b885c8e2efd8aea2e984cfbe"),
    (("hom-rank", "--type", "B3", "--subset", "s1,s3", "s2", "s2.s1.s3.s2",
      "--format", "json"),
     "9ba890712f83256238d8e04602096a7c16f70b734b5b4a0797a1c1153d986f60"),
]


@pytest.mark.parametrize("argv,digest", TABLE_DIGESTS,
                         ids=[" ".join(a) for a, _ in TABLE_DIGESTS])
def test_table_output_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TABLE_FAULTS = [
    # (command, class, method, the argument of its last call in the command)
    ("kl-table", HeckeAlgebra, "kl_basis", lambda obj: obj.system.size - 1),
    ("parabolic-tables", ParabolicModule, "kl_basis", lambda obj: obj.reps[-1]),
    ("inverse-tables", ParabolicModule, "inverse_col", lambda obj: obj.reps[-1]),
]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("command,cls,method,last", TABLE_FAULTS,
                         ids=[f[0] for f in TABLE_FAULTS])
def test_table_error_prints_no_rows(capsys, monkeypatch, command, cls, method,
                                    last, fmt):
    # the whole table is computed before the first byte is written
    original = getattr(cls, method)

    def failing(self, x):
        if x == last(self):
            raise ValueError("injected")
        return original(self, x)

    monkeypatch.setattr(cls, method, failing)
    subset = () if command == "kl-table" else ("--subset", "s1")
    code, out, err = run_cli(capsys, command, "--type", "A2", *subset,
                             "--format", fmt)
    assert code == 2
    assert out == ""
    assert "injected" in err


# -- error paths --------------------------------------------------------------


def test_unsupported_bond_exit_code(capsys):
    code, _, err = run_cli(capsys, "kl-table", "--type", "H3")
    assert code == 2
    assert "error:" in err


def test_group_too_large_exit_code(capsys):
    code, _, err = run_cli(capsys, "kl-table", "--type", "A3", "--cap", "5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("hom-rank", "--type", "A3", "s+1", "s 2"),
    ("parabolic-tables", "--type", "A3", "--subset", "s01"),
])
def test_lax_generator_label_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unknown generator label" in err


def test_lax_type_numeral_rejected(capsys):
    code, out, err = run_cli(capsys, "verify", "--type", "A03")
    assert code == 2
    assert out == ""
    assert "unknown type name: 'A03'" in err


def test_subset_labels_may_follow_spaces(capsys):
    code, out, _ = run_cli(capsys, "parabolic-tables", "--type", "A3",
                           "--subset", "s1, s2")
    assert code == 0
    assert out == run_cli(capsys, "parabolic-tables", "--type", "A3",
                          "--subset", "s1,s2")[1]


def test_negative_words_rejected(capsys):
    # a negative count is an input error line; no word is still a run
    code, out, _ = run_cli(capsys, "verify", "--type", "A2", "--suite",
                           "bs-positivity", "--words", "0")
    assert code == 0
    assert "\tpass\t" in out


def test_matrix_file_input(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("2  7\n")
    code, out, _ = run_cli(capsys, "kl-table", "--matrix", str(f))
    assert code == 0
    assert f"matrix:{f}" not in out  # tsv has no system echo
    code, out, _ = run_cli(capsys, "kl-table", "--matrix", str(f),
                           "--format", "json")
    obj = json.loads(out)
    assert obj["system"] == f"matrix:{f}"
    # dihedral of order 14: longest word has length 7
    assert len(obj["rows"]) > 0


@pytest.mark.parametrize("argv,line", [
    (["kl-table", "--matrix", "/nonexistent/x"],
     "[Errno 2] No such file or directory: '/nonexistent/x'"),
    (["kl-table"], "one of --type or --matrix is required"),
    (["kl-table", "--type", "A2", "--cap", "0"], "--cap must be positive"),
    (["example-a3", "--cap", "0"], "--cap must be positive"),
    (["parabolic-tables", "--type", "A2", "--subset", "s9"],
     "unknown generator label 's9'"),
    (["rouquier-shape", "--type", "A2", "q5"], "unknown generator label 'q5'"),
    (["hom-rank", "--type", "A2", "--subset", "s1", "s1", "e"],
     "s1 is not a minimal coset representative for the chosen subset"),
    (["rouquier-shape", "--type", "A2", "--subset", "s1", "s1"],
     "s1 is not a minimal coset representative for the chosen subset"),
    (["verify", "--type", "A1", "--suite", "nope"],
     "unknown suite(s): nope; available: bar-invariance, inversion, "
     "positivity, parity, euler-hom, q-monotonicity, pairing, bs-positivity, "
     "degree-one"),
    (["verify", "--type", "A1", "--words", "-3"],
     "bs_words must be non-negative, got -3"),
    # module subcommands on A3 take W^I alone
    (["parabolic-tables", "--type", "A3", "--subset", "s1,s9"],
     "unknown generator label 's9'"),
    (["rouquier-shape", "--type", "A3", "--subset", "s1", "q5"],
     "unknown generator label 'q5'"),
    (["hom-rank", "--type", "A3", "--subset", "s1", "s1", "e"],
     "s1 is not a minimal coset representative for the chosen subset"),
    (["rouquier-shape", "--type", "A3", "--subset", "s2", "s1.s3.s3.s2"],
     "s1.s2 is not a minimal coset representative for the chosen subset"),
    # W is built first on the route through W, so its cap comes first
    (["hom-rank", "--type", "E7", "--subset", "s1,s2,s3,s4,s5,s6", "s7", "q5"],
     "more than 50000 elements; the group is infinite or the cap is too small"),
], ids=["matrix-file", "no-system", "cap", "example-cap", "subset-label",
        "element-word", "coset-rep", "shape-coset-rep", "suite-name", "words",
        "quotient-subset-label", "quotient-element-word", "quotient-coset-rep",
        "quotient-non-reduced-coset-rep", "quotient-behind-the-cap"])
def test_input_error_lines(capsys, monkeypatch, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")
    # the route through W prints the same
    monkeypatch.setattr(quotient, "realizable", lambda matrix: False)
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ("rouquier-shape", "--type", "A3", "--subset", "s1", "s3.s1.s1.s2", "--format", "json"),
    ("hom-rank", "--type", "B3", "--subset", "s1,s3", "s2.s2.s2", "s1.s2.s1.s1.s3.s2"),
    ("rouquier-shape", "--type", "D4", "--subset", "s2", "s1.s2.s3.s2.s4.s2.s1", "--negative"),
])
def test_quotient_route_prints_as_the_route_through_w(capsys, monkeypatch, argv):
    # non-reduced words of reps are read and printed by their canonical words
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(quotient, "realizable", lambda matrix: False)
    assert got == run_cli(capsys, *argv)
    assert got[0] == 0


@pytest.mark.parametrize("matrix, argv, alone", [
    (None, ("parabolic-tables", "--type", "A3", "--subset", "s1"), True),
    (None, ("inverse-tables", "--type", "A3"), False),
    (None, ("hom-rank", "--type", "B2", "--subset", "s1", "s2", "e"), False),
    (None, ("rouquier-shape", "--type", "I2(5)xA1", "--subset", "s3", "s1"), False),
    ("3 3 3 3", ("parabolic-tables", "--cap", "1000", "--subset", "s1"), False),
    ("3 6 6 6", ("parabolic-tables", "--subset", "s1"), False),
])
def test_module_subcommands_take_w_i_alone_only_where_realizable(
        capsys, monkeypatch, tmp_path, matrix, argv, alone):
    # I = {}, rank 2, a dihedral factor and infinite groups build W
    routes = []
    for module in (coxeter, quotient):
        def record(*args, _name=module.__name__, _fn=module.build, **kwargs):
            routes.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "build", record)
    if matrix:
        path = tmp_path / "m.txt"
        path.write_text(matrix)
        argv = (*argv, "--matrix", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert routes == (["heckekit.quotient"] if alone else ["heckekit.coxeter"])
    if matrix:
        cap = 1000 if "--cap" in argv else 50000
        assert (code, out, err) == (2, "", f"error: more than {cap} elements; "
                                    "the group is infinite or the cap is too small\n")
    else:
        assert code == 0


def test_e7_over_e6_runs_under_the_cap_of_its_cosets(capsys):
    # E7 has 2,903,040 elements and E7 / E6 56 cosets; sha256 recorded on
    # the W^I route after inversion, positivity, parity and degree-one
    # passed on the module, as no route through W fits under the cap
    subset = ("--subset", "s1,s2,s3,s4,s5,s6")
    for command, digest in (
            ("parabolic-tables", "9b062ef8c4e2f630e58b23179100c049f9077dc57720d1ea8defd9a5f388225e"),
            ("inverse-tables", "abbaa4bd704730258f8b0b723556c13290bee334c6c5152b4cf93f01f0cc4098")):
        code, out, _ = run_cli(capsys, command, "--type", "E7", *subset)
        assert code == 0
        assert len({row.split("\t")[1] for row in out.splitlines()[1:]}) == 56
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- the parser ---------------------------------------------------------------

# one valid argv per subcommand
VALID_ARGVS = [
    ("kl-table", "--type", "A1"),
    ("parabolic-tables", "--type", "A2", "--subset", "s1"),
    ("inverse-tables", "--type", "A2", "--format", "json"),
    ("rouquier-shape", "--type", "A2", "s1", "--negative"),
    ("hom-rank", "--type", "A2", "s1", "s2"),
    ("example-a3", "--cap", "100"),
    ("verify", "--type", "A1", "--suite", "pairing", "--seed", "3", "--words", "2"),
]

PARSER_ARGVS = [
    ("--help",), ("-h",), (), ("nope",), ("nope", "--help"),
    # a prefix of a subcommand, and an option before the subcommand
    ("kl",), ("--type", "A2", "kl-table"),
    *((name, "--help") for name, _, _ in cli.COMMANDS),
    ("rouquier-shape", "-h"),
    # usage errors
    ("rouquier-shape", "--type", "A2"),
    ("hom-rank", "--type", "A2", "s1"),
    ("kl-table", "--type", "A2", "--format", "xml"),
    ("kl-table", "--type", "A2", "--matrix", "m.txt"),
    ("kl-table", "--type", "A2", "--cap", "x"),
    ("hom-rank", "--type", "A2", "s1", "s2", "s1"),
    *VALID_ARGVS,
    # options given as --opt=value
    ("kl-table", "--format=json", "--type=A1"),
]


@pytest.fixture
def constructed(monkeypatch):
    """Every ArgumentParser constructed while the test runs, in order."""
    parsers = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return parsers


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=[" ".join(a) or "no-arguments" for a in PARSER_ARGVS])
def test_lazy_and_eager_parsers_agree(capsys, monkeypatch, constructed, argv):
    # the reference constructs and fills every subcommand of the same
    # table as it is registered, so help texts of any Python version are
    # compared alike
    monkeypatch.setenv("COLUMNS", "80")
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)

    def run():
        parsed.clear()
        constructed.clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, list(parsed)

    lazy = run()
    monkeypatch.setattr(cli, "make_parser", eager_make_parser)
    assert run() == lazy
    assert len(constructed) == 1 + len(cli.COMMANDS)


def test_main_constructs_only_its_subcommand_parser_per_call(capsys, constructed):
    # the top-level parser, and the invoked subcommand's once argparse
    # dispatches to it; the saving is paid by every invocation, as no
    # parser outlives its call
    for argv in VALID_ARGVS:
        constructed.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert [p.prog for p in constructed] == ["heckekit", f"heckekit {argv[0]}"]
    for argv in [("--help",), (), ("nope",)]:
        constructed.clear()
        with pytest.raises(SystemExit):
            main(list(argv))
        assert [p.prog for p in constructed] == ["heckekit"]
    capsys.readouterr()
    constructed.clear()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "hom-rank", "--type", "A1", "s1", "s1")
        assert (code, out) == (0, "1*v^0 + 1*v^2\n")
    assert len({id(p) for p in constructed}) == len(constructed) == 4


def test_point_queries_at_w0_of_a_long_dihedral_group(capsys):
    # the columns of w0 are filled off a chain of 300 first letters
    w0 = ".".join(["s1", "s2"] * 150)
    code, out, _ = run_cli(capsys, "rouquier-shape", "--type", "I2(300)", w0)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 302
    assert lines[-1] == "300\te:300:1"
    code, out, _ = run_cli(capsys, "hom-rank", "--type", "I2(300)", w0, "e")
    assert (code, out) == (0, "1*v^300\n")


@pytest.mark.parametrize("type_name", ["A1", "B4"], ids=["final-flush", "mid-table"])
def test_closed_stdout_exits_141_quietly(type_name):
    # the read end is closed before the child writes, as `| head -1` may;
    # A1 fits the stdout buffer and fails in the final flush, B4 mid-table
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heckekit.cli", "kl-table", "--type", type_name],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""
