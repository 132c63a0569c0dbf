"""End-to-end CLI coverage: every subcommand, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liftedcodes import codes
from liftedcodes.analysis import SWEEP_LIMIT
from liftedcodes.cli import COMMANDS, build_parser, main
from liftedcodes.degrees import pdim


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_stdout_matches_published(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "4", "--m", "2")
    assert code == 0
    assert out == ("k,n_A,dim_A,R_A,n_P,dim_P,R_P,dim_PRM,R_PRM\n"
                   "1,16,1,0.0625,21,3,0.143,3,0.143\n"
                   "2,16,3,0.188,21,6,0.286,6,0.286\n"
                   "3,16,7,0.438,21,11,0.524,10,0.476\n")


def test_table_json_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "4", "--m", "2",
                           "--format", "json")
    assert code == 0
    blocks = json.loads(out)
    assert blocks[0]["q"] == 4
    assert [r["dim_P"] for r in blocks[0]["rows"]] == [3, 6, 11]


def test_table_file_and_krange(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "table", "--q", "8", "--m", "2",
                         "--kmin", "7", "--kmax", "7", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.splitlines()[1] == "7,64,37,0.578,73,45,0.616,36,0.493"


def test_table_rows_past_the_box(capsys):
    # the q=256 rows are the ones the exponent arrays gave (a 2^24 box);
    # q=1024, m=3 (a 2^30 box) is counted on its 4^10-cell digit-sum grid
    code, out, _ = run_cli(capsys, "table", "--q", "256", "--m", "3",
                           "--kmin", "128", "--kmax", "129")
    assert code == 0
    assert out.splitlines()[1:] == [
        "128,16777216,357760,0.0213,16843009,366145,0.0217,366145,0.0217",
        "129,16777216,366148,0.0218,16843009,374664,0.0222,374660,0.0222"]
    code, out, _ = run_cli(capsys, "table", "--q", "1024", "--m", "3",
                           "--kmin", "512", "--kmax", "512")
    assert code == 0
    assert out.splitlines()[1] == \
        "512,1073741824,22500864,0.021,1074791425,22632705,0.0211,22632705,0.0211"


def test_encode_corrupt_correct_pipeline(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(["[1,0]"] * 11) + "\n")
    word_file = tmp_path / "word.txt"
    code, _, _ = run_cli(capsys, "encode", "--kind", "PLift", "--q", "4",
                         "--m", "2", "--k", "3", "--msg-file", str(msg),
                         "--out", str(word_file))
    assert code == 0
    header = word_file.read_text().splitlines()[0]
    assert json.loads(header)["dim"] == 11

    noisy = tmp_path / "noisy.txt"
    code, _, _ = run_cli(capsys, "corrupt", "--in", str(word_file),
                         "--delta", "0.05", "--seed", "3", "--out", str(noisy))
    assert code == 0
    clean_lines = word_file.read_text().splitlines()[1:]
    noisy_lines = noisy.read_text().splitlines()[1:]
    diffs = sum(1 for a, b in zip(clean_lines, noisy_lines) if a != b)
    assert diffs == int(0.05 * 21)

    code, out, _ = run_cli(capsys, "local-correct", "--in", str(noisy),
                           "--point", "([1]:[0]:[0])", "--s", "4", "--seed", "9")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["queries"]) == 4
    # delta = 1/21 means the word is within the correctable radius often;
    # the symbol, when not an erasure, must be a field element literal
    if not rep["erasure"]:
        assert rep["symbol"].startswith("[")


def test_local_correct_recovers_clean_symbol(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(["[1,1]"] * 11) + "\n")
    word_file = tmp_path / "word.txt"
    run_cli(capsys, "encode", "--kind", "PLift", "--q", "4", "--m", "2",
            "--k", "3", "--msg-file", str(msg), "--out", str(word_file))
    expected = word_file.read_text().splitlines()[1]  # value at (1:0:0)
    code, out, _ = run_cli(capsys, "local-correct", "--in", str(word_file),
                           "--point", "([1]:[0]:[0])", "--s", "4", "--seed", "1")
    rep = json.loads(out)
    assert code == 0 and rep["symbol"] == expected


def test_experiment_deterministic(capsys):
    args = ["experiment", "--q", "4", "--m", "2", "--k", "3", "--s", "4",
            "--delta", "0.05", "--trials", "40", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["successes"] + rep["wrong"] + rep["erasures"] == 40
    assert sum(rep["query_histogram"]) == 4 * 40


def test_experiment_clean_channel(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--q", "8", "--m", "2",
                           "--k", "5", "--s", "8", "--delta", "0.0",
                           "--trials", "25", "--seed", "5")
    assert code == 0
    assert json.loads(out)["success_rate"] == 1.0


def test_analyze_all_checks(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--q", "4", "--m", "2", "--k", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["shorten_puncture"] == {"shorten": True, "puncture": True, "passed": True}
    assert rep["qc"]["index"] == 3
    assert rep["distance"]["exact"] == 6
    assert rep["dual"]["passed"]


def test_analyze_subset_of_checks(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--q", "8", "--m", "2", "--k", "5",
                           "--checks", "infoset,shorten-puncture")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"q", "m", "k", "infoset", "shorten_puncture", "passed"}


def test_analyze_eliminates_the_generator_once(capsys, monkeypatch):
    """qc and shorten-puncture share one reduced form of the PLift_8(3,7)
    generator, 184 x 585: one rref of that width, no [A; B] elimination
    and no rank.  The other rref is ExtensionIso's small inverse."""
    from liftedcodes import linalg
    calls = {"rref": [], "_rank_if_contains": [], "rank": []}

    def counting(name):
        fn = getattr(linalg, name)

        def counted(F, A, *rest):
            calls[name].append(linalg.as_matrix(A).shape)
            return fn(F, A, *rest)
        return counted

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name))
    codes._make_code_cached.cache_clear()  # no code keeps a reduced form
    code, out, _ = run_cli(capsys, "analyze", "--q", "8", "--m", "3", "--k", "7",
                           "--checks", "qc,shorten-puncture")
    assert code == 0 and json.loads(out)["passed"]
    assert [shape for shape in calls["rref"] if shape[1] == 585] == [(184, 585)]
    assert len(calls["rref"]) == 2
    assert calls["_rank_if_contains"] == [] and calls["rank"] == []


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--q", "4", "--m", "2", "--k", "3",
                           "--checks", "bogus")
    assert code == 2
    assert "bogus" in err
    for empty in ("", ",,", " , "):
        code, out, err = run_cli(capsys, "analyze", "--q", "4", "--m", "2", "--k", "3",
                                 "--checks", empty)
        assert (code, out) == (2, "")
        assert err.startswith("error: no checks given") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "encode", "--kind", "PLift", "--q", "4",
                           "--m", "2", "--k", "9", "--msg-file", "nope.txt")
    assert code == 2

    with pytest.raises(SystemExit) as exc:
        main(["table", "--m", "2"])  # missing required --q
    assert exc.value.code == 2
    capsys.readouterr()

    # past the exact int64 count (q^m >= 2^63) or the digit-sum grid's cells
    for argv, limit in (("table --q 4 --m 40", "limit 2^63"),
                        ("table --q 2048 --m 8", "limit 2^63"),
                        ("table --q 2048 --m 4 --kmin 512 --kmax 512", "limit 2^22")):
        code, out, err = run_cli(capsys, *argv.split())
        assert_one_line_usage_error(code, err)
        assert limit in err and out == ""

    # Reed-Muller codes name m when it is below 1
    for argv, msg in (("--kind RM --q 4 --m 0 --k 0", "RM needs m >= 1, got m=0"),
                      ("--kind RM --q 4 --m -1 --k 0", "RM needs m >= 1, got m=-1"),
                      ("--kind PRM --q 4 --m 0 --k 1", "PRM needs m >= 1, got m=0")):
        code, out, err = run_cli(capsys, "encode", *argv.split(), "--msg-file", "nope.txt")
        assert_one_line_usage_error(code, err)
        assert (out, err) == ("", f"error: {msg}\n")


def test_extension_field_above_limit_exits_2(capsys):
    # qc needs GF(64^4), past the 2^20 limit on extension fields
    code, out, err = run_cli(capsys, "analyze", "--q", "64", "--m", "3", "--k", "5",
                             "--checks", "qc")
    assert (code, out) == (2, "")
    assert err == ("error: extension field order 16777216 exceeds the supported "
                   "limit 2^20 = 1048576\n")


def _module_env(**extra):
    """The environment of a `python -m liftedcodes` child, importing src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_python_m_liftedcodes_matches_main(capsys):
    argv = ["table", "--q", "4", "--m", "2"]
    proc = subprocess.run([sys.executable, "-m", "liftedcodes", *argv],
                          capture_output=True, env=_module_env(), timeout=60)
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == out.encode()


def test_python_m_liftedcodes_help_matches_main(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "liftedcodes", "-h"],
                          capture_output=True, env=_module_env(), timeout=60)
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr()
    assert (proc.returncode, proc.stderr) == (exc.value.code, b"") == (0, b"")
    assert proc.stdout == out.out.encode() and out.out.startswith("usage: liftedcodes ")


def _past_generator_limit(dim, n):
    return f"generator has {dim} x {n} = {dim * n} cells, past the limit 2^25 = 33554432"


# Valid flags whose code cannot fit: each is refused by the size check (or,
# at m = 2000, by the exact count) before anything large is allocated, so
# a 1 GiB address space suffices.
@pytest.mark.parametrize("argv, says", [
    ("analyze --q 64 --m 3 --k 40 --checks infoset", _past_generator_limit(12821, 266305)),
    ("analyze --q 256 --m 3 --k 200 --checks infoset",
     _past_generator_limit(1636213, 16843009)),
    ("analyze --q 2048 --m 2 --k 1000 --checks qc", _past_generator_limit(501501, 4196353)),
    ("experiment --q 1024 --m 3 --k 500 --s 600 --delta 0.01 --trials 1 --seed 1",
     _past_generator_limit(21084251, 1074791425)),
    ("encode --kind RM --q 64 --m 3 --k 150 --msg-file nope.txt",
     _past_generator_limit(251484, 262144)),
    ("encode --kind PRM --q 2 --m 20 --k 20 --msg-file nope.txt",
     _past_generator_limit(2097150, 2097151)),
    ("encode --kind RM --q 2 --m 2000 --k 0 --msg-file nope.txt",
     "q^m = 2^2000, past the limit 2^63 of exact int64 counts"),
])
def test_code_too_large_exits_2_before_allocating(argv, says):
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "liftedcodes", *argv.split()],
                          capture_output=True, env=_module_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap_address_space, timeout=60)
    wall = time.perf_counter() - t0
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert_one_line_usage_error(proc.returncode, err)
    assert says in err
    assert wall < 1


def test_corrupt_leaves_an_erasure_erased(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("[1]\n[0,1]\n[1,1]\n")
    word_file = tmp_path / "word.txt"
    run_cli(capsys, "encode", "--kind", "PRS", "--q", "4", "--m", "1", "--k", "2",
            "--msg-file", str(msg), "--out", str(word_file))
    clean = word_file.read_text().splitlines()
    clean[2] = "?"  # erase position 1 of 5
    word_file.write_text("\n".join(clean) + "\n")
    code, out, err = run_cli(capsys, "corrupt", "--in", str(word_file),
                             "--delta", "1", "--seed", "1")
    assert (code, err) == (0, "")
    noisy = out.splitlines()
    assert len(noisy) == 6 and noisy[:1] == clean[:1] and noisy[2] == "?"
    assert all(noisy[i] != clean[i] for i in (1, 3, 4, 5))


# The parser of the named subcommand alone against the full parser: the
# same namespace, or the same exit code, stdout and stderr.
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["tab"], ["-x"], ["--q", "4", "table"],
    *([name, "-h"] for name in COMMANDS), ["table", "--help"],
    ["table", "--q", "4", "--q", "8", "--m", "2", "--kmin", "2", "--format", "json"],
    ["encode", "--kind", "PLift", "--q", "4", "--m", "2", "--k", "3", "--msg-file", "m.txt"],
    ["corrupt", "--in", "w.txt", "--delta", "0.1", "--seed", "1", "--out", "o.txt"],
    ["local-correct", "--in", "w.txt", "--point", "([1]:[0]:[0])", "--s", "4", "--seed", "9"],
    ["experiment", "--q", "4", "--m", "2", "--k", "3", "--s", "4", "--delta", "0.05",
     "--trials", "40", "--seed", "11"],
    ["analyze", "--q", "4", "--m", "2", "--k", "3", "--checks", "infoset"],
    ["selftest"],
    ["table"], ["table", "--m", "2"], ["experiment", "--q", "4"], ["local-correct"],
    ["table", "--q", "x", "--m", "2"], ["table", "--q", "4", "--m", "2", "--format", "xml"],
    ["encode", "--kind", "Foo", "--q", "4", "--m", "2", "--k", "3", "--msg-file", "m"],
    ["corrupt", "--in", "w", "--delta", "a", "--seed", "1"], ["table", "--q"],
    ["analyze", "--q", "4", "--m", "2", "--k", "3", "extra"], ["selftest", "extra"],
    ["table", "--q", "4", "--m", "2", "--bogus"], ["table", "--q", "4", "--m", "2", "encode"],
    ["selftest", "analyze", "--q", "4"],
]
ARGV_WORDS = [*COMMANDS, "tab", "-x", "-h", "--help", "--q", "--m", "--k", "--kmin",
              "--kmax", "--format", "csv", "json", "--out", "--kind", "PLift", "--msg-file",
              "--in", "--delta", "--seed", "--point", "--s", "--trials", "--checks",
              "infoset", "4", "2", "0.5", "-1", "x", "w.txt"]


def _parse_outcome(command, argv, columns):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": str(columns)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        parser = build_parser(command)
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _assert_parsers_agree(argv, columns):
    one = _parse_outcome(argv[0] if argv else None, argv, columns)
    assert one == _parse_outcome(None, argv, columns)


@pytest.mark.parametrize("columns", [80, 200])
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_named_command_parser_matches_full_parser(argv, columns):
    _assert_parsers_agree(argv, columns)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(argv=st.one_of(
           st.lists(st.sampled_from(ARGV_WORDS), max_size=6),
           st.builds(lambda name, rest: [name, *rest], st.sampled_from(list(COMMANDS)),
                     st.lists(st.sampled_from(ARGV_WORDS), max_size=8))),
       columns=st.sampled_from([80, 200]))
def test_drawn_argv_parse_alike(argv, columns):
    _assert_parsers_agree(argv, columns)


@pytest.mark.parametrize("argv, last", [
    ([], "liftedcodes: error: the following arguments are required: command"),
    (["table", "--q", "4", "--m", "2", "extra"],
     "liftedcodes: error: unrecognized arguments: extra"),
])
def test_top_level_usage_errors_are_argparse_bytes(argv, last):
    # the two top-level errors either parser writes, as the full parser
    # without a metavar wrote them
    usage = {80: "usage: liftedcodes [-h]\n"
                 "                   {table,encode,corrupt,local-correct,experiment,analyze,selftest}\n"
                 "                   ...\n",
             200: "usage: liftedcodes [-h] "
                  "{table,encode,corrupt,local-correct,experiment,analyze,selftest} ...\n"}
    for columns, text in usage.items():
        assert _parse_outcome(argv[0] if argv else None, argv, columns) == \
            (2, "", text + last + "\n")


def test_named_command_builds_only_its_parser():
    def subcommands(parser):
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return list(action.choices)

    for name in COMMANDS:
        assert subcommands(build_parser(name)) == [name]
    for command in (None, "tab", "-h"):
        assert subcommands(build_parser(command)) == list(COMMANDS)


def test_out_of_range_element_in_word_file_exits_2(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(["[1,0]"] * 11) + "\n")
    word_file = tmp_path / "word.txt"
    run_cli(capsys, "encode", "--kind", "PLift", "--q", "4", "--m", "2",
            "--k", "3", "--msg-file", str(msg), "--out", str(word_file))
    lines = word_file.read_text().splitlines()
    lines[1] = "[3,0]"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "corrupt", "--in", str(bad), "--delta", "0.05",
                           "--seed", "1")
    assert code == 2
    assert "[3,0]" in err and "Traceback" not in err


def _plift_word_file(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(["[1,0]"] * 11) + "\n")
    word_file = tmp_path / "word.txt"
    run_cli(capsys, "encode", "--kind", "PLift", "--q", "4", "--m", "2",
            "--k", "3", "--msg-file", str(msg), "--out", str(word_file))
    return word_file


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("point", ["([0]:[0]:[0])", "([1]:[0])", "([0,1]:[0]:[0])"])
def test_point_outside_support_exits_2(tmp_path, capsys, point):
    word_file = _plift_word_file(tmp_path, capsys)
    code, out, err = run_cli(capsys, "local-correct", "--in", str(word_file),
                             "--point", point, "--s", "4", "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert "not a point" in err and out == ""


@pytest.mark.parametrize("old, new, key", [('"q": 4, ', "", "q"),
                                           ('"dim": 11', '"dim": 99', "dim")])
def test_bad_word_header_exits_2(tmp_path, capsys, old, new, key):
    lines = _plift_word_file(tmp_path, capsys).read_text().splitlines()
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "corrupt", "--in", str(bad), "--delta", "0.05",
                           "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert key in err


@pytest.mark.parametrize("header", ["not json", "[1, 2]", ""])
def test_word_header_that_is_no_json_object_exits_2(tmp_path, capsys, header):
    lines = _plift_word_file(tmp_path, capsys).read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([header] + lines[1:]) + "\n")
    code, _, err = run_cli(capsys, "corrupt", "--in", str(bad), "--delta", "0.05",
                           "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert err == "error: word file must start with a JSON header object\n"


@pytest.mark.parametrize("new", ['"q": "4", ', '"q": 4.0, ', '"q": true, '])
def test_word_header_value_of_wrong_type_exits_2(tmp_path, capsys, new):
    lines = _plift_word_file(tmp_path, capsys).read_text().splitlines()
    lines[0] = lines[0].replace('"q": 4, ', new)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "corrupt", "--in", str(bad), "--delta", "0.05",
                           "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert "q=" in err and "integer" in err


@pytest.mark.parametrize("argv, says", [
    ("table --q 4 --m 0", "m >= 1"),
    ("analyze --q 4 --m 0 --k 2", "m >= 1"),
    ("table --q 4 --m -1", "m >= 1"),
    ("table --q 1 --m 2", "not a prime power"),
    ("corrupt --in {dir} --delta 0.1 --seed 1", "Is a directory"),
    ("encode --kind PRS --q 4 --m 1 --k 2 --msg-file {dir}", "Is a directory"),
    ("table --q 65537 --m 1", "exceeds the supported limit"),
    ("table --q 4096 --m 1", "exceeds the supported limit"),
    ("corrupt --in {dir} --delta 0.1 --seed -1", "--seed"),
    ("local-correct --in {dir} --point ([1]:[0]:[0]) --s 4 --seed -2", "--seed"),
    ("experiment --q 4 --m 2 --k 3 --s 4 --delta 0.1 --trials 3 --seed -1", "--seed"),
])
def test_bad_sizes_and_paths_exit_2(tmp_path, capsys, argv, says):
    code, out, err = run_cli(capsys, *argv.format(dir=tmp_path).split())
    assert_one_line_usage_error(code, err)
    assert says in err
    assert out == ""


@pytest.mark.parametrize("kind, m, k, dim, point", [("RM", 2, 2, 6, "([1]:[0])"),
                                                    ("Lift", 2, 2, 7, "([1]:[0])"),
                                                    ("RS", 1, 2, 3, "([1])")])
def test_local_correct_on_affine_word_exits_2(tmp_path, capsys, kind, m, k, dim, point):
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(["[1,0]"] * dim) + "\n")
    word_file = tmp_path / "word.txt"
    code, _, _ = run_cli(capsys, "encode", "--kind", kind, "--q", "4", "--m", str(m),
                         "--k", str(k), "--msg-file", str(msg), "--out", str(word_file))
    assert code == 0
    code, out, err = run_cli(capsys, "local-correct", "--in", str(word_file),
                             "--point", point, "--s", "4", "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert "projective" in err and out == ""


# a negative value in exponent notation is a value, not an option string
@pytest.mark.parametrize("delta", ["1.5", "nan", "-5.96e-08", "-1e-3"])
def test_delta_outside_unit_interval_exits_2(tmp_path, capsys, delta):
    word_file = _plift_word_file(tmp_path, capsys)
    says = f"corruption fraction delta must lie in [0, 1], got {float(delta)}"
    code, _, err = run_cli(capsys, "corrupt", "--in", str(word_file),
                           "--delta", delta, "--seed", "0")
    assert_one_line_usage_error(code, err)
    assert says in err
    code, _, err = run_cli(capsys, "experiment", "--q", "4", "--m", "2", "--k", "3",
                           "--s", "4", "--delta", delta, "--trials", "3", "--seed", "1")
    assert_one_line_usage_error(code, err)
    assert says in err


@pytest.mark.parametrize("flags, message", [
    ("--s 0 --delta nan --trials 3", "corruption fraction delta must lie in [0, 1], got nan"),
    ("--s 9 --delta 2 --trials 0", "need at least one trial"),
    ("--s 9 --delta 2 --trials 3", "corruption fraction delta must lie in [0, 1], got 2.0"),
    ("--s 0 --delta 0.1 --trials 3", "query budget must satisfy k+1 <= s <= q, got s=0"),
])
def test_experiment_reports_the_first_broken_check(capsys, flags, message):
    # the checks run in a fixed order, so flags that break two of them get
    # the first one's message
    code, out, err = run_cli(capsys, "experiment", "--q", "4", "--m", "2", "--k", "3",
                             *flags.split(), "--seed", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("krange", [("--kmin", "5", "--kmax", "2"), ("--kmin", "9")])
def test_empty_k_range_exits_2(tmp_path, capsys, krange):
    # kmax defaults to q-1 = 7; a range with no k would print a bare header
    out_file = tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "table", "--q", "8", "--m", "2", *krange,
                             "--out", str(out_file))
    assert_one_line_usage_error(code, err)
    assert "empty k range" in err and out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("krange, bad", [(("--kmin", "0", "--kmax", "0"), "k=0"),
                                         (("--kmin", "3", "--kmax", "9"), "k=4")])
def test_table_k_out_of_range_names_the_flag_value(capsys, krange, bad):
    # the message names the k the user gave and q, not the affine part's k-1
    code, out, err = run_cli(capsys, "table", "--q", "4", "--m", "2", *krange)
    assert_one_line_usage_error(code, err)
    assert bad in err and "q=4" in err and out == ""


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert len(lines) == 10


@pytest.mark.parametrize("argv, sha256", [
    ("experiment --q 4 --m 2 --k 3 --s 4 --delta 0.05 --trials 40 --seed 11",
     "b5ede8e28704b74661f1740723696255946109973903c9ed9810de77afdc419d"),
    ("experiment --q 8 --m 2 --k 5 --s 8 --delta 0.05 --trials 30 --seed 5",
     "325d571ad8d66aab87d3eb14970e6523070e9894831f799bea495292d71150bf"),
    ("experiment --q 9 --m 2 --k 5 --s 9 --delta 0.05 --trials 40 --seed 3",
     "f236d7858c7b5980f669d83617681adfef39159c5a687ac805c9564209aad71e"),
    ("experiment --q 5 --m 2 --k 2 --s 3 --delta 0.05 --trials 60 --seed 4",
     "b90d51851057be8c017e95b6ae9c16657db86d01100aa7050f7e4635b6e2f631"),
    ("analyze --q 4 --m 2 --k 3",
     "ea0ca8a97d4ad83ac779df5000a33d25d470aabdf6bdb9d6d3c5bfb5b28ab235"),
    ("local-correct --in {noisy} --point ([1]:[0]:[0]) --s 4 --seed 9",
     "d4128a50961cd2483554c53d655839000d7c4c474cb8cd89e77e6c0c146f5aa0"),
    ("corrupt --in {noisy} --delta 0.2 --seed 7",
     "de9e7030e9c483d40448942d91d348a2f24977b9ebe5b6ea791d35eb17225bcd"),
    ("experiment --q 4 --m 3 --k 3 --s 4 --delta 0.05 --trials 30 --seed 2",
     "02b1efbfda79a69466d4a6987873f0ec1874d4cb21956e6d5c10309ff4cf9b89"),
    ("analyze --q 8 --m 3 --k 7 --checks infoset,qc,shorten-puncture",
     "6c8a6f8327933743ecf78fd88090bcad64cddf3770279e51f467ef58ec92aae6"),
    ("analyze --q 9 --m 2 --k 5 --checks infoset,qc,shorten-puncture",
     "adb449a4d25679622bf07b0a9ca857ffaba6c04100e055f1cb9874153e9cffb9"),
], ids=["experiment-q4", "experiment-q8", "experiment-q9", "experiment-q5-t0",
        "analyze-q4", "local-correct-q4", "corrupt-q4", "experiment-q4-m3",
        "analyze-q8-m3", "analyze-q9"])
def test_stdout_bytes_pinned(tmp_path, capsys, argv, sha256):
    # identical flags and seed must keep giving identical bytes across
    # refactors of the field, geometry, decoder and analysis layers
    noisy = tmp_path / "noisy.txt"
    run_cli(capsys, "corrupt", "--in", str(_plift_word_file(tmp_path, capsys)),
            "--delta", "0.05", "--seed", "3", "--out", str(noisy))
    code, out, _ = run_cli(capsys, *argv.format(noisy=noisy).split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# Fuzzed flags: every subcommand, with q, m and k in range for small codes
# and far past every limit.  A run exits 0, or 2 with one "error:" line.
SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
BAD_Q = [-4, 0, 1, 6, 4096]  # not prime powers, or past the field-order limit
# supports of more than 2^25 points, or counts past 2^63
HUGE_QM = [(2, 26), (2, 2000), (3, 70), (64, 5), (1024, 3)]
SEEDS = st.integers(-2, 10)
BUDGETS = st.integers(-1, 12) | st.just(10 ** 6)
DELTAS = st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf")])


def _in_range(small_q, max_m):
    """(q, m, k) of a PLift code, in range for most other kinds too."""
    return st.sampled_from(small_q).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(1, max_m), st.integers(1, q - 1)))


def _qmk(small_q=SMALL_Q, max_m=3):
    """{q, m, k}: in range for a small code, or past a limit in q, m or k."""
    return st.one_of(
        _in_range(small_q, max_m),
        st.tuples(st.sampled_from(small_q), st.integers(-1, max_m), st.integers(-2, 30)),
        st.tuples(st.sampled_from(HUGE_QM), st.integers(-2, 10 ** 6))
        .map(lambda t: (*t[0], t[1])),
        st.tuples(st.sampled_from(BAD_Q), st.integers(1, 3), st.integers(0, 5)),
        # P^3 over GF(64) fits, the generators of these degrees do not
        st.tuples(st.just(64), st.just(3), st.sampled_from([150, 189, 10 ** 6])),
    ).map(lambda t: dict(zip("qmk", t)))


def _qmks():
    """{q, m, k, s}: a corrector in range, or any budget for any _qmk."""
    in_range = _in_range(SMALL_Q, 3).flatmap(
        lambda t: st.integers(t[2] + 1, t[0]).map(lambda s: (*t, s)))
    return in_range.map(lambda t: dict(zip("qmks", t))) | \
        st.tuples(_qmk(), BUDGETS).map(lambda t: {**t[0], "s": t[1]})


def _command(name, *parts, **flags):
    """Strategy for the argv of one subcommand, its flags drawn from parts
    (strategies of flag dicts) and flags; a None value leaves its flag out
    and a list value repeats it."""
    def argv(drawn):
        words = [name]
        for flag, value in {k: v for d in drawn for k, v in d.items()}.items():
            for v in value if isinstance(value, list) else [value]:
                if v is not None:
                    words += ["--" + flag.rstrip("_").replace("_", "-"), str(v)]
        return words
    return st.tuples(*parts, st.fixed_dictionaries(flags)).map(argv)


def _sweep_is_long(argv):
    # an exact distance sweep of q^dim words between 10^5 and SWEEP_LIMIT
    if argv[0] != "analyze" or "distance" not in argv[-1]:
        return False
    q, m, k = (int(argv[argv.index(f"--{f}") + 1]) for f in "qmk")
    try:
        dim = pdim(m, k, q)
    except ValueError:
        return False
    return 10 ** 5 < q ** dim <= SWEEP_LIMIT


FUZZ_ARGV = st.one_of(
    _command("table", q=st.lists(st.sampled_from(SMALL_Q + BAD_Q + [1024]), min_size=1,
                                 max_size=2),
             m=st.integers(-1, 4) | st.sampled_from([40, 70, 2000]),
             kmin=st.none() | st.integers(-1, 40), kmax=st.none() | st.integers(-1, 40),
             format=st.sampled_from(["csv", "json"])),
    _command("encode", _qmk(), kind=st.sampled_from(list(codes.KINDS)),
             msg_file=st.sampled_from(["{message}", "{message}", "{short}", "{junk}",
                                       "{missing}"])),
    _command("corrupt", in_=st.sampled_from(["{plift}", "{erased}", "{rm}", "{missing}"]),
             delta=DELTAS, seed=SEEDS),
    _command("local-correct", in_=st.sampled_from(["{plift}", "{erased}", "{rm}"]),
             point=st.sampled_from(["([1]:[0]:[0])", "([0]:[0]:[1])", "([0]:[0]:[0])",
                                    "([1]:[0])", "([1,1]:[1]:[0])", "x"]),
             s=st.just(4) | BUDGETS, seed=SEEDS),
    _command("experiment", _qmks(), delta=DELTAS, trials=st.integers(-1, 4), seed=SEEDS),
    _command("analyze", _qmk(small_q=[2, 3, 4, 5], max_m=2),
             checks=st.lists(st.sampled_from(["infoset", "qc", "distance", "dual",
                                              "shorten-puncture", "bogus"]), max_size=5)
             .map(",".join)),
    st.just(["selftest"]),
).filter(lambda argv: not _sweep_is_long(argv))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Word and message files the fuzzed argv name, by placeholder; the
    test writes {message} with one line per dimension of the drawn code."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: str(root / f"{name}.txt")
             for name in ("message", "short", "junk", "missing", "plift", "rm", "erased")}
    Path(files["short"]).write_text("[1]\n")
    Path(files["junk"]).write_text("[1\n")
    for name, argv in (("plift", "PLift --q 4 --m 2 --k 3"), ("rm", "RM --q 3 --m 2 --k 2")):
        C = codes.make_code(*[int(w) if w.isdigit() else w for w in argv.split()[::2]])
        Path(files["message"]).write_text("[1]\n" * C.dim)
        assert main(["encode", "--kind", *argv.split(), "--msg-file", files["message"],
                     "--out", files[name]]) == 0
    lines = Path(files["plift"]).read_text().splitlines()
    Path(files["erased"]).write_text("\n".join(lines[:3] + ["?"] + lines[4:]) + "\n")
    return files


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=FUZZ_ARGV)
def test_fuzzed_flags_exit_0_or_2_with_one_error_line(fuzz_files, argv):
    argv = [word.format(**fuzz_files) for word in argv]
    if fuzz_files["message"] in argv:
        flags = dict(zip(argv[1::2], argv[2::2]))
        dim = 1
        with contextlib.suppress(ValueError):
            dim = codes.make_code(flags["--kind"], *(int(flags[f"--{f}"]) for f in "qmk")).dim
        Path(fuzz_files["message"]).write_text("[1]\n" * dim)
    # argparse's own errors (a drawn "-1e-05" reads as an option) exit by
    # SystemExit after a usage line; every other error is one line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err, argv
    if code == 2:
        assert [ln for ln in err.splitlines() if "error:" in ln] == \
            err.splitlines()[-1:], argv
        assert out.getvalue() == "", argv
    else:
        assert (code, err) == (0, ""), argv
