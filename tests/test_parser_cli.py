"""Morphism file grammar and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphlab import ParseError, parse_file
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform
from morphlab.parser import format_file

BS_FILE = """
sigma' { a -> a b e ; b -> c e f b ; c -> b f d ; d -> d e f d ; e -> e f ; f -> ; }
tau'   { a -> 1 ; b -> 1 ; c -> 0 ; d -> 0 ; e -> ; f -> ; }
sigma  { a -> ab ; b -> cb ; c -> bd ; d -> dd ; }
tau    { a -> 1 ; b -> 1 ; c -> 0 ; d -> 0 ; }
pair = sigma', tau';
start = a;
"""

# the README's projection: n visible symbols need about n^1.58 source symbols
TM_FILE = """
f { a -> a b c ; b -> b a c ; c -> c c c ; }
g { a -> a ; b -> b ; c -> ; }
pair = f, g;
start = a;
"""


def run_cli(*args, env_extra=None):
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


def test_round_trip():
    mf = parse_file(BS_FILE)
    text = format_file(mf)
    again = parse_file(text)
    assert again.morphisms == mf.morphisms
    assert again.start == mf.start and again.pair == mf.pair


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
    result = run_cli("normalize", "--file", str(path), "--check", "10000", "--json")
    assert result.returncode == 2
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "BudgetExceededError"
    # |g(f^13(a))| = 2^13 < 10000, so the pump must read past |f^13(a)| = 3^13 symbols
    assert "more than 1594323 source symbols" in error["message"]
    assert "--budget" in error["message"]


def test_cli_normalize_check_within_the_default_budget(tmp_path):
    path = tmp_path / "tm.mf"
    path.write_text(TM_FILE)
    # 2^11 >= 2000 visible symbols lie within |f^11(a)| = 3^11 = 177147 source symbols
    result = run_cli("normalize", "--file", str(path), "--check", "2000", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verified_prefix"] == 2000
    assert payload["q"] == 1


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
