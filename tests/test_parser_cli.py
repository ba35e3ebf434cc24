"""Morphism file grammar and the command-line interface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morphlab import DomainMismatchError, ParseError, parse_file
from morphlab import cli, spectral
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform
from morphlab.parser import MorphismFile, format_file, format_morphism
from morphlab.words import Morphism

from util import finite_by_orbit, stream_says_finite

BS_FILE = """
sigma' { a -> a b e ; b -> c e f b ; c -> b f d ; d -> d e f d ; e -> e f ; f -> ; }
tau'   { a -> 1 ; b -> 1 ; c -> 0 ; d -> 0 ; e -> ; f -> ; }
sigma  { a -> ab ; b -> cb ; c -> bd ; d -> dd ; }
tau    { a -> 1 ; b -> 1 ; c -> 0 ; d -> 0 ; }
pair = sigma', tau';
start = a;
"""

# the README's projection: n visible symbols sit among about n^1.58 symbols of f^w(a)
TM_FILE = """
f { a -> a b c ; b -> b a c ; c -> c c c ; }
g { a -> a ; b -> b ; c -> ; }
pair = f, g;
start = a;
"""


def cycles_file(lengths=(7, 8, 9, 11)):
    """a -> a x0 y0 ... with one cycle of letters per length (cyclicity =
    their lcm, 5544 by default); g keeps a and each cycle's first letter."""
    names = "pqrs"[: len(lengths)]
    f = ["a -> a " + " ".join(f"{c}0" for c in names)]
    g = ["a -> a"]
    for c, length in zip(names, lengths):
        for t in range(length):
            f.append(f"{c}{t} -> {c}{(t + 1) % length}")
            g.append(f"{c}{t} -> {c}{t}" if t == 0 else f"{c}{t} ->")
    return f"f {{ {' ; '.join(f)} ; }}\ng {{ {' ; '.join(g)} ; }}\npair = f, g;\nstart = a;\n"


def run_cli(*args, env_extra=None, timeout=None):
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "morphlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_parse_baum_sweet_file():
    mf = parse_file(BS_FILE)
    sp, tp, _ = baum_sweet_erasing()
    assert mf.morphism("sigma'") == sp
    assert mf.morphism("tau'") == tp
    sigma, tau, _ = baum_sweet_uniform()
    assert mf.morphism("sigma") == sigma  # compact mode splits "ab" into a, b
    assert mf.morphism("tau") == tau
    assert mf.start == "a"
    assert mf.pair == ("sigma'", "tau'")


def test_parse_empty_image_and_multichar_letters():
    mf = parse_file("k { x -> ; }")
    assert len(mf.morphism("k").image("x")) == 0
    mf = parse_file("m { foo -> bar foo ; bar -> bar ; }")
    assert mf.morphism("m").image("foo").letters() == ("bar", "foo")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_file("s { a -> b ")
    assert "line" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_file("s { a -> b ; a -> ; }")
    assert "duplicate rule" in str(err.value)
    with pytest.raises(ParseError):
        parse_file("s { a - b ; }")
    with pytest.raises(ParseError):
        parse_file("pair = s, missing;\ns { a -> a a ; }")
    with pytest.raises(ParseError):
        parse_file("s { a -> a b ; b -> b ; }\nstart = z;")


# (text, str(error), line, column): a tab or a carriage return is one
# column, and only "\n" starts a line
MALFORMED = [
    ('s { a - b ; }', "line 1, column 7: '-' must begin an arrow '->'", 1, 7),
    ('s { a -b ; }', "line 1, column 7: '-' must begin an arrow '->'", 1, 7),
    ('-', "line 1, column 1: '-' must begin an arrow '->'", 1, 1),
    ('s { a -> b ; }\n-x', "line 2, column 1: '-' must begin an arrow '->'", 2, 1),
    ('s { a -> b ; } -', "line 1, column 16: '-' must begin an arrow '->'", 1, 16),
    ('s { } a - b', "line 1, column 9: '-' must begin an arrow '->'", 1, 9),
    ('s\t{ a\t- b ; }', "line 1, column 7: '-' must begin an arrow '->'", 1, 7),
    ('s { a -> b ; }\r\nt { a - ; }', "line 2, column 7: '-' must begin an arrow '->'", 2, 7),
    ('s { a -> b ;\r\n\tb - ; }', "line 2, column 4: '-' must begin an arrow '->'", 2, 4),
    ('s {\xa0a -> b ;\u2028 a - }', "line 1, column 17: '-' must begin an arrow '->'", 1, 17),
    ('s { a -> b ', 'line 1, column 5: unterminated rule', 1, 5),
    ('s { a -> b ; ', "line 1, column 1: unterminated morphism 's'", 1, 1),
    ('s {', "line 1, column 1: unterminated morphism 's'", 1, 1),
    ('s', 'line 1, column 1: unexpected end of input', 1, 1),
    ('s { abc', 'line 1, column 5: unexpected end of input', 1, 5),
    ('start =', 'line 1, column 7: unexpected end of input', 1, 7),
    ('pair = f ,', 'line 1, column 10: unexpected end of input', 1, 10),
    ('{ a -> b ; }', "line 1, column 1: expected name, got '{'", 1, 1),
    ('=', "line 1, column 1: expected name, got '='", 1, 1),
    ('s a -> b ;', "line 1, column 3: expected punct, got 'a'", 1, 3),
    ('s { -> b ; }', "line 1, column 5: expected name, got '->'", 1, 5),
    ('s { a b ; }', "line 1, column 7: expected arrow, got 'b'", 1, 7),
    ('s { a => b ; }', "line 1, column 7: expected arrow, got '='", 1, 7),
    ('s { a -> b { ; }', "line 1, column 12: expected name, got '{'", 1, 12),
    ('s { a -> b ; } ;', "line 1, column 16: expected name, got ';'", 1, 16),
    ('start = a }', "line 1, column 11: expected ';', got '}'", 1, 11),
    ('start = ; ', "line 1, column 9: expected name, got ';'", 1, 9),
    ('pair = f g ;', "line 1, column 10: expected punct, got 'g'", 1, 10),
    ('pair = f, g, h;', "line 1, column 12: expected ';', got ','", 1, 12),
    ('begin = a ;', "line 1, column 1: unknown directive 'begin'", 1, 1),
    ('s { a -> a ; }\ns { a -> a ; }', "line 2, column 1: duplicate morphism 's'", 2, 1),
    ('s { a -> a ; }\r\n\r\ns { a -> a ; }\r\n', "line 3, column 1: duplicate morphism 's'", 3, 1),
    ('s { a -> b ; a -> ; }', "line 1, column 14: duplicate rule for 'a'", 1, 14),
    ('s {\n\t\ta -> ;\n\t\ta -> ; }', "line 3, column 3: duplicate rule for 'a'", 3, 3),
    ('s { }', "line 1, column 1: morphism 's' has no rules", 1, 1),
    ('s { a -> b ; }\n\n  t { }', "line 3, column 3: morphism 't' has no rules", 3, 3),
    ('pair = s, missing;\ns { a -> a a ; }', "line 1, column 11: pair references unknown morphism 'missing'", 1, 11),
    ('pair = nope, s;\ns { a -> a ; }', "line 1, column 8: pair references unknown morphism 'nope'", 1, 8),
    ('f { a -> b ; }\ng { a -> a ; }\npair = f, g;', "line 3, column 8: pair generator 'f' must be an endomorphism", 3, 8),
    ('f { a -> a ; }\ng { b -> b ; }\npair = f, g;', "line 3, column 11: pair morphisms 'f' and 'g' use different alphabets", 3, 11),
    ('f { a -> a ; }\ng { a -> x ; }\npair = f, g;\nstart = b;', "line 4, column 9: start letter 'b' is not in the pair's alphabet", 4, 9),
    ('s { a -> a b ; b -> b ; }\nstart = z;', "line 2, column 9: start letter 'z' is not declared by any morphism", 2, 9),
    ('start = a ;\r\n\tstart = zz ;', "line 2, column 10: start letter 'zz' is not declared by any morphism", 2, 10),
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED)
def test_malformed_file_error(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_file(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_unknown_morphism_name_has_no_position():
    with pytest.raises(ParseError) as err:
        parse_file("s { a -> a ; }").morphism("t")
    assert (str(err.value), err.value.line, err.value.column) == ("no morphism named 't'", None, None)


def test_round_trip():
    mf = parse_file(BS_FILE)
    text = format_file(mf)
    again = parse_file(text)
    assert again.morphisms == mf.morphisms
    assert again.start == mf.start and again.pair == mf.pair


@pytest.mark.parametrize(
    "write",
    [
        lambda: format_morphism("g", Morphism.from_rules({"a": ["xy"], "b": ["z"]})),  # compact mode reads x y
        lambda: format_morphism("g", Morphism.from_rules({"a b": ["a b"]})),
        lambda: format_morphism("g", Morphism.from_rules({"ab": ["x-y"]})),
        lambda: format_morphism("f{", Morphism.from_rules({"a": ["a"]})),
        lambda: format_file(MorphismFile({"f": Morphism.from_rules({"a": ["a"]})}, start="a b")),
        lambda: format_file(MorphismFile({"f": Morphism.from_rules({"a": ["a"]})}, pair=("f", "f;"))),
    ],
    ids=["long-image-letter", "spaced-letter", "dashed-letter", "brace-name", "start", "pair"],
)
def test_format_refuses_text_that_parses_back_otherwise(write):
    """Text that parse_file would read as another morphism, or not at all,
    is never written."""
    with pytest.raises(DomainMismatchError, match="name token|split"):
        write()


def test_cli_emit_name_that_is_no_name_token_writes_no_file(tmp_path, capsys):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    out = tmp_path / "out.mf"
    assert cli.main(["normalize", "--file", str(path), "--emit", str(out), "--emit-sigma", "a{", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "DomainMismatchError"
    assert not out.exists()


@pytest.mark.parametrize("names", [["--emit-sigma", "x", "--emit-tau", "x"], ["--emit-sigma", "normalized_tau"]])
def test_cli_emit_one_name_for_sigma_and_tau_writes_no_file(tmp_path, capsys, names):
    """Two morphisms of one name would not parse back: exit 2, no file."""
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    out = tmp_path / "same.mf"
    assert cli.main(["normalize", "--file", str(path), "--emit", str(out), *names, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "DomainMismatchError" and "--emit-tau" in error["message"]
    assert not out.exists()


def test_cli_expand(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    result = run_cli("expand", "--file", str(path), "--morphism", "sigma", "--start", "a", "--limit", "4")
    assert result.returncode == 0
    assert result.stdout.strip() == "abcb"


def test_cli_expand_image_and_env_budget(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    result = run_cli(
        "expand",
        "--file", str(path),
        "--morphism", "sigma'",
        "--image", "tau'",
        "--limit", "16",
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1101100101001001"
    # an absurdly small env budget turns the run into a domain error
    result = run_cli(
        "expand",
        "--file", str(path),
        "--morphism", "sigma'",
        "--image", "tau'",
        "--limit", "16",
        env_extra={"MORPHLAB_BUDGET": "2"},
    )
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"]["kind"] == "BudgetExceededError"


def test_cli_expand_binary(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "morphlab.cli", "expand", "--file", str(path),
         "--morphism", "sigma", "--start", "a", "--limit", "4", "--binary"],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0
    data = result.stdout
    symbols = []
    pos = 0
    while pos < len(data):
        n = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        symbols.append(data[pos : pos + n].decode("utf-8"))
        pos += n
    assert symbols == ["a", "b", "c", "b"]


@pytest.mark.parametrize("mode", [[], ["--json"], ["--binary"]], ids=["text", "json", "binary"])
def test_cli_expand_into_a_closed_pipe_exits_141_without_a_traceback(tmp_path, mode):
    """The reader takes a few bytes of 200,000 symbols and closes the pipe,
    as `| head -c 20` does: the writer stops with 128 + SIGPIPE, quietly."""
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "morphlab.cli", "expand", "--file", str(path),
         "--morphism", "f", "--limit", "200000", *mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert len(head) == 20
    assert "Traceback" not in err, err


def test_cli_verify_pairs(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    result = run_cli(
        "verify",
        "--file", str(path),
        "--pair1", "sigma',tau'",
        "--pair2", "sigma,tau",
        "--len", "10000",
        "--start", "a",
        "--json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload == {"equal": True, "length": 10000, "mismatch_index": None}


def test_cli_verify_mismatch_exit_code(tmp_path):
    path = tmp_path / "two.mf"
    path.write_text("u { a -> a b ; b -> b ; }\nv { a -> a a ; b -> b ; }\nid { a -> a ; b -> b ; }\n")
    result = run_cli(
        "verify",
        "--file", str(path),
        "--pair1", "u,id",
        "--pair2", "v,id",
        "--len", "10",
        "--start", "a",
        "--json",
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["equal"] is False


def test_cli_analyze_json_schema(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    result = run_cli("analyze", "--file", str(path), "--morphism", "sigma", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) == {"p", "blocks", "letter_growth"}
    assert payload["p"] == 1
    for block in payload["blocks"]:
        assert set(block) == {"letters", "kind", "radius"}
        assert block["kind"] in ("primitive", "zero")
        assert set(block["radius"]) == {"poly", "enclosure"}
    assert payload["letter_growth"]["a"] == {"lambda_per_step": "2", "d": 0}


def test_cli_matrix_demo_table(tmp_path):
    from importlib import resources

    grid = resources.files("morphlab").joinpath("data/demo9.mat").read_text()
    path = tmp_path / "demo.mat"
    path.write_text(grid)
    result = run_cli(
        "matrix", "--file", str(path), "--entries", "1,2", "1,5", "1,7", "--json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["p"] == 6
    table = {(e["i"], e["j"], e["r"]): e for e in payload["entries"]}
    assert table[(1, 2, 0)]["lambda_per_step"] == "27^(1/6)"
    assert table[(1, 2, 0)]["d"] == 0
    assert table[(1, 5, 1)]["d"] == 1
    assert table[(1, 7, 2)]["lambda_per_step"] == "2"
    assert table[(1, 2, 1)]["vanishes"] is True


def test_cli_matrix_row_and_column_sums(tmp_path):
    from importlib import resources

    grid = resources.files("morphlab").joinpath("data/demo9.mat").read_text()
    path = tmp_path / "demo.mat"
    path.write_text(grid)
    result = run_cli(
        "matrix", "--file", str(path), "--rows", "1", "9", "--cols", "1", "9", "--json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    rows = {r["i"]: r for r in payload["rows"]}
    cols = {c["j"]: c for c in payload["cols"]}
    # row 1 reaches the weight-2 cycle; row 9 and column 1 touch no walks at all
    assert rows[1]["lambda_per_step"] == "2"
    assert rows[9]["vanishes"] is True
    assert cols[1]["vanishes"] is True
    assert cols[9]["lambda_per_step"] == "2"


def test_cli_normalize_check_and_emit(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    out = tmp_path / "norm.mf"
    result = run_cli(
        "normalize",
        "--file", str(path),
        "--check", "2000",
        "--emit", str(out),
        "--json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verified_prefix"] == 2000
    assert payload["trichotomy_case"] == 1
    combined = tmp_path / "all.mf"
    combined.write_text(path.read_text() + out.read_text())
    check = run_cli(
        "verify",
        "--file", str(combined),
        "--pair1", "sigma',tau'",
        "--pair2", "normalized_sigma,normalized_tau",
        "--len", "10000",
        "--start", "a",
        "--start2", payload["start"],
    )
    assert check.returncode == 0


def test_cli_normalize_check_fails_fast_past_the_pump_budget(tmp_path):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    args = ("normalize", "--file", str(path), "--check", "10000", "--json")
    # the budget counts the letters g does not erase forever, one per output symbol here
    result = run_cli(*args, "--budget", "5000", timeout=60)
    assert result.returncode == 2
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "BudgetExceededError"
    assert "pump budget of 5000 kept letters" in error["message"] and "raise it" in error["message"]
    assert "finite" not in error["message"]
    result = run_cli(*args, timeout=60)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verified_prefix"] == 10000


def test_cli_normalize_check_within_the_default_budget(tmp_path):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    result = run_cli("normalize", "--file", str(path), "--check", "2000", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verified_prefix"] == 2000
    assert payload["q"] == 1


def test_cli_expand_image_fails_fast_past_the_pump_budget(tmp_path):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    args = ("expand", "--file", str(path), "--morphism", "f", "--image", "g", "--limit", "10000")
    result = run_cli(*args, "--budget", "5000", timeout=60)
    assert result.returncode == 2
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "BudgetExceededError"
    assert "pump budget of 5000 kept letters" in error["message"]
    result = run_cli(*args, timeout=60)
    assert result.returncode == 0
    assert len(result.stdout.strip()) == 10000


def test_cli_verify_fails_fast_past_the_pump_budget(tmp_path):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    args = ("verify", "--file", str(path), "--pair1", "f,g", "--pair2", "f,g", "--len", "10000", "--json")
    result = run_cli(*args, "--budget", "5000", timeout=60)
    assert result.returncode == 2
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "BudgetExceededError"
    assert "pump budget of 5000 kept letters" in error["message"]
    result = run_cli(*args, timeout=60)
    assert result.returncode == 0
    assert json.loads(result.stdout)["equal"] is True


def test_cli_expand_fixed_point_honours_the_pump_budget(tmp_path):
    """The first n symbols of f^w(a) are n source symbols: a limit past the
    budget is refused before the pump runs, by flag or environment; a
    morphism that is not prolongable is still refused as such."""
    path = tmp_path / "thue_morse.mf"
    path.write_text("f { a -> a b ; b -> b a ; }\nstart = a;\n")
    args = ("expand", "--file", str(path), "--morphism", "f")
    for budget_args, env in ((("--budget", "10"), None), ((), {"MORPHLAB_BUDGET": "10"})):
        result = run_cli(*args, "--limit", "100000", *budget_args, env_extra=env)
        assert result.returncode == 2
        error = json.loads(result.stdout)["error"]
        assert error["kind"] == "BudgetExceededError"
        assert "pump budget of 10" in error["message"] and "--budget" in error["message"]
        result = run_cli(*args, "--limit", "10", *budget_args, env_extra=env)
        assert result.returncode == 0
        assert result.stdout.strip() == "abbabaabba"
    path.write_text("f { a -> a b ; b -> ; }\nstart = a;\n")
    result = run_cli(*args, "--limit", "100000", "--budget", "10")
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"]["kind"] == "NotProlongableError"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_budget_must_be_positive(tmp_path, budget):
    """--budget 0 used to mean the default budget and -5 a pump error; both
    are refused as MORPHLAB_BUDGET=0 is, as a JSON domain error."""
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    for args in (
        ("normalize", "--check", "10"),
        ("expand", "--morphism", "f", "--image", "g", "--limit", "10"),
        ("verify", "--pair1", "f,g", "--pair2", "f,g", "--len", "10"),
    ):
        result = run_cli(args[0], "--file", str(path), *args[1:], "--budget", budget)
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == {
            "kind": "DomainMismatchError", "message": "--budget must be positive"
        }
    result = run_cli("expand", "--file", str(path), "--morphism", "f", "--limit", "10",
                     env_extra={"MORPHLAB_BUDGET": "0"})
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"]["kind"] == "DomainMismatchError"


@pytest.mark.parametrize("text, length", [
    ("f { a -> a ; }", 10),
    ("f { a -> a b ; b -> ; }", 10),
])
def test_cli_verify_rejects_a_generator_that_is_not_prolongable(tmp_path, text, length):
    """|f^k(a)| stays bounded: each pair's presentation refuses f before
    any pump runs."""
    path = tmp_path / "stuck.mf"
    path.write_text(text + "\n")
    result = run_cli("verify", "--file", str(path), "--pair1", "f,f", "--pair2", "f,f",
                     "--len", str(length), "--start", "a", timeout=60)
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"]["kind"] == "NotProlongableError"


def test_cli_finite_image_word_keeps_the_pump_error(tmp_path):
    """g(f^w(a)) = x: no budget would serve 10 symbols, and the pump says
    the word is finite, whatever the budget."""
    path = tmp_path / "finite.mf"
    path.write_text("f { a -> a b ; b -> b ; }\ng { a -> x ; b -> ; }\n")
    for args in (
        ("expand", "--morphism", "f", "--image", "g", "--limit", "10", "--start", "a"),
        ("verify", "--pair1", "f,g", "--pair2", "f,g", "--len", "10", "--start", "a"),
    ):
        for budget in ((), ("--budget", "1000")):
            result = run_cli(args[0], "--file", str(path), *args[1:], *budget, timeout=60)
            assert result.returncode == 2
            error = json.loads(result.stdout)["error"]
            assert error["kind"] == "BudgetExceededError"
            assert error["message"] == "the image word is finite: its length is 1, short of 10"


def test_image_finiteness_matches_the_letter_set_orbit():
    rng = random.Random(7411)
    letters = "abcde"
    verdicts = set()
    for _ in range(300):
        size = rng.randint(2, 5)
        alphabet = letters[:size]
        images = {b: " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2))) for b in alphabet}
        images["a"] = "a " + " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
        kept = {b: rng.choice(("", "x")) for b in alphabet}
        mf = parse_file(
            "f { " + " ".join(f"{b} -> {w} ;" for b, w in images.items()) + " }\n"
            + "g { " + " ".join(f"{b} -> {w} ;" for b, w in kept.items()) + " }\n"
        )
        f, g = mf.morphism("f"), mf.morphism("g")
        verdict = stream_says_finite(f, g, "a")
        assert verdict == finite_by_orbit(f, g, "a"), (images, kept)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cli_normalize_at_cyclicity_5544(tmp_path):
    path = tmp_path / "cycles.mf"
    path.write_text(cycles_file())
    result = run_cli("normalize", "--file", str(path), "--check", "1000", "--json")
    assert result.returncode == 0, result.stdout
    payload = json.loads(result.stdout)
    assert (payload["p"], payload["verified_prefix"]) == (5544, 1000)


def test_cli_matrix_demo9_matches_the_pinned_table(capsys):
    """The demo9 table equals tests/data/demo9_matrix.json in every field
    but the enclosure endpoints, which must overlap the pinned ones and
    keep the default width 1e-9."""
    demo = Path(__file__).resolve().parents[1] / "src" / "morphlab" / "data" / "demo9.mat"
    code = cli.main(["matrix", "--file", str(demo), "--entries", "1,2", "1,5", "1,7",
                     "--rows", "1", "--cols", "9", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    pinned = json.loads((Path(__file__).parent / "data" / "demo9_matrix.json").read_text())

    def enclosures(table):
        return [[Fraction(x) for x in block["radius"].pop("enclosure")] for block in table["blocks"]]

    got, want = enclosures(payload), enclosures(pinned)
    assert payload == pinned
    assert len(got) == len(want)
    for (lo, hi), (plo, phi) in zip(got, want):
        assert hi - lo <= Fraction(1, 10**9)
        assert max(lo, plo) <= min(hi, phi)


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.mf"
    path.write_text("s { a -> ")
    result = run_cli("analyze", "--file", str(path), "--morphism", "s", "--json")
    assert result.returncode == 3
    assert json.loads(result.stdout)["error"]["kind"] == "parse"


def test_cli_domain_error_exit_code(tmp_path):
    path = tmp_path / "bs.mf"
    path.write_text(BS_FILE)
    result = run_cli("expand", "--file", str(path), "--morphism", "nosuch", "--limit", "4")
    assert result.returncode == 3  # unknown name is reported by the parser layer


def test_import_leaves_numpy_unloaded():
    """The library has no runtime dependency: importing it, and running the
    radius engine, loads no numpy."""
    script = (
        "import sys\n"
        "import morphlab, morphlab.cli\n"
        "from morphlab.fixtures import demo_matrix\n"
        "morphlab.decompose(demo_matrix()).blocks_as_json()\n"
        "morphlab.spectral_radius_enclosure(((1, 1), (1, 0)))\n"
        "raise SystemExit(3 if 'numpy' in sys.modules else 0)\n"
    )
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_cli_width_belongs_to_the_radius_reports(tmp_path, capsys):
    """Only analyze and matrix report radii, so only they take --width;
    elsewhere it is a usage error."""
    mf = tmp_path / "fib.mf"
    mf.write_text("f { a -> a b ; b -> a ; }\ng { a -> a ; b -> b ; }\npair = f, g;\nstart = a;\n")
    mat = tmp_path / "fib.mat"
    mat.write_text("1 1\n1 0\n")
    for args in (
        ("normalize", "--file", str(mf)),
        ("expand", "--file", str(mf), "--morphism", "f", "--limit", "4"),
        ("verify", "--file", str(mf), "--pair1", "f,g", "--pair2", "f,g", "--len", "4"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--width", "1/10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --width" in capsys.readouterr().err

    def enclosure(*args):
        assert cli.main([*args, "--json"]) == 0
        lo, hi = json.loads(capsys.readouterr().out)["blocks"][0]["radius"]["enclosure"]
        return Fraction(lo), Fraction(hi)

    for args in (("analyze", "--file", str(mf), "--morphism", "f"), ("matrix", "--file", str(mat))):
        lo, hi = enclosure(*args, "--width", "1/10")
        assert hi - lo <= Fraction(1, 10) and (2 * lo - 1) ** 2 <= 5 <= (2 * hi - 1) ** 2  # phi
    # analyze decomposed the same entries, and its describe() refined the
    # shared locator past 1e-9: start the width comparison from cold caches
    spectral._DECOMP_CACHE.clear()
    spectral._RADIUS_REGISTRY.clear()
    coarse, fine = enclosure("matrix", "--file", str(mat), "--width", "1/10"), enclosure("matrix", "--file", str(mat))
    assert fine[1] - fine[0] <= Fraction(1, 10**9) < coarse[1] - coarse[0]


@pytest.mark.parametrize("grid, args, code, kind, message", [
    ("1 1\n1 x\n", (), 3, "parse", "line 2, column 3: 'x' is not an integer"),
    ("\n1 2.5\n1 0\n", (), 3, "parse", "line 2, column 3: '2.5' is not an integer"),
    ("1 1\n1 0\n", ("--entries", "a,b"), 2, "MorphlabError", "entries look like i,j (1-based), got 'a,b'"),
    ("1 1\n1 0\n", ("--entries", "1"), 2, "MorphlabError", "entries look like i,j (1-based), got '1'"),
    ("1 1\n1 0\n", ("--rows", "0"), 2, "DomainMismatchError", "row 0 is out of range 1..2"),
    ("1 1\n1 0\n", ("--entries", "0,1"), 2, "DomainMismatchError", "row 0 is out of range 1..2"),
    ("1 1\n1 0\n", ("--entries", "1,3"), 2, "DomainMismatchError", "column 3 is out of range 1..2"),
    ("1 1\n1 0\n", ("--cols", "3"), 2, "DomainMismatchError", "column 3 is out of range 1..2"),
])
def test_cli_matrix_malformed_input_is_a_typed_error(tmp_path, capsys, grid, args, code, kind, message):
    """A bad grid token is a parse error at its line and column; a bad
    entry spec or a 1-based index outside 1..n is a domain error that
    names what was given."""
    path = tmp_path / "bad.mat"
    path.write_text(grid)
    assert cli.main(["matrix", "--file", str(path), *args, "--json"]) == code
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["kind"], error["message"]) == (kind, message)


def test_print_json_writes_the_bytes_of_json_dumps(capsys):
    """The payload is written in batches of encoder chunks, never as one
    string, with the same bytes as json.dumps."""
    payload = {"sigma": {"a": [f"x{i}" for i in range(70000)], "b": []}, "q": None, "ok": True}
    assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload)) > 1 << 16
    cli._print_json(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _unreadable(tmp_path, case):
    if case == "missing":
        return tmp_path / "nosuch.mf", "No such file or directory"
    if case == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "latin1.mf"
    path.write_bytes("f { a -> \xe9 ; }\n".encode("latin-1"))
    return path, "not UTF-8 text"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("args", [
    ("analyze", "--morphism", "f"),
    ("normalize",),
    ("expand", "--morphism", "f", "--limit", "4"),
    ("verify", "--pair1", "f,g", "--pair2", "f,g", "--len", "4"),
    ("matrix",),
])
def test_cli_unreadable_file_is_a_domain_error(tmp_path, capsys, case, args):
    """A --file that is missing, a directory or not UTF-8 exits 2 with
    JSON that names the path, for morphism files and .mat grids alike."""
    path, reason = _unreadable(tmp_path, case)
    assert cli.main([args[0], "--file", str(path), *args[1:], "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "MorphlabError", "message": f"cannot read --file {str(path)!r}: {reason}"
    }


@pytest.mark.parametrize("args, flag, value", [
    (("normalize", "--pair", "f"), "--pair", "f"),
    (("normalize", "--pair", "f,g,h"), "--pair", "f,g,h"),
    (("verify", "--pair1", "f,g,h", "--pair2", "f,g", "--len", "4"), "--pair1", "f,g,h"),
    (("verify", "--pair1", "f,g", "--pair2", "g", "--len", "4"), "--pair2", "g"),
])
def test_cli_malformed_pair_is_a_domain_error(tmp_path, capsys, args, flag, value):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    assert cli.main([args[0], "--file", str(path), *args[1:], "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "MorphlabError", "message": f"{flag} names two morphisms as 'f,g', got {value!r}"
    }


@pytest.mark.parametrize("case, reason", [("directory", "Is a directory"), ("missing", "No such file or directory")])
def test_cli_unwritable_emit_is_a_domain_error(tmp_path, capsys, case, reason):
    """--emit naming a directory, or a path in a missing directory, exits 2
    with JSON that names the path, as an unreadable --file does."""
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    emit = tmp_path if case == "directory" else tmp_path / "nosuch" / "out.mf"
    assert cli.main(["normalize", "--file", str(path), "--emit", str(emit), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "MorphlabError", "message": f"cannot write --emit {str(emit)!r}: {reason}"
    }
