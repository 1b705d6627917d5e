import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from betagrowth import cli, expansions, lyapunov, netautomaton, numberfield
from betagrowth.cli import build_parser, main
from conftest import automaton_doc_text, brute_prefix_count

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "golden", "--m", "2",
                           "--x", "1", "--n", "2")
    assert code == 0
    assert out.splitlines()[-1] == "2,1/1,3"


def test_count_past_int_str_digit_limit(capsys, monkeypatch):
    # an exact count may pass the interpreter's 4,300-digit int -> str
    # limit: the command lifts it while it runs and restores it afterwards
    monkeypatch.setattr(expansions, "count_prefixes", lambda _x, _n, _sys: 10 ** 5000)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "count", "--beta", "golden", "--x", "2/5", "--n", "50000")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "50000,2/5,1" + "0" * 5000
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_count_json_rationals(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "golden", "--m", "2",
                           "--x", "2/5", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["x"] == "2/5"
    assert doc["rows"][0]["count"] == "2"  # brute-force verified
    assert doc["config"]["beta"] == "golden"


def test_kappa(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--beta", "1.5", "--m", "2")
    assert code == 0
    assert "1/8" in out


def test_gamma_integer(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--beta", "int:2", "--m", "4",
                           "--method", "integer", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["gamma_over_log2"] == "1.0"


def test_exit_code_bad_input(capsys):
    code, _out, err = run_cli(capsys, "count", "--beta", "nonsense", "--m", "2",
                              "--x", "1", "--n", "2")
    assert code == 2
    assert "error:" in err
    # the multinacci series is the m = 2 gamma; it must not be paired with another m
    code, out, err = run_cli(capsys, "gamma", "--beta", "multinacci:3", "--m", "3",
                             "--method", "series")
    assert code == 2
    assert out == ""
    # an option the chosen gamma route does not read is rejected, not ignored
    for argv in (
        ("--beta", "int:2", "--m", "4", "--method", "integer", "--paths", "5", "--k-exact", "3"),
        ("--beta", "multinacci:3", "--method", "series", "--paths", "5000", "--chains", "3"),
        ("--beta", "multinacci:3", "--method", "mc", "--mc-budget", "100"),
        ("--beta", "int:2", "--m", "4", "--method", "integer", "--seed", "7"),
    ):
        code, out, err = run_cli(capsys, "gamma", *argv)
        assert (code, out) == (2, "")
        assert "applies only to --method" in err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gamma", "--beta", "golden", "--method", "mc",
                                   "--workers", "2"])
    assert exc.value.code == 2
    # tree is the prefix-count sweep, which the state cap alone bounds
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["tree", "--beta", "golden", "--x", "1", "--depth", "3",
                                   "--node-cap", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    # malformed text and negative sizes are bad input, not a traceback
    golden = ("--beta", "golden", "--x", "2/5")
    for argv in (
        ("dims", *golden, "--levels", "5,6,x"),
        ("dims", *golden, "--levels", "1..2..3"),
        ("tau", "--beta", "golden", "--levels", "5,6,x"),
        ("sparse", "--beta", "golden", "--m-seq", "1,x"),
        ("tau", "--beta", "golden", "--q-list", "1,a"),
        ("table1", "--n-range", "3"),
        ("count", "--beta", "poly:1,x", "--x", "1", "--n", "2"),
        ("count", "--beta", "poly:1,0,0,0,1", "--x", "1", "--n", "2"),  # x^4 + 1
        ("count", "--beta", "multinacci:x", "--x", "1", "--n", "2"),
        ("count", "--beta", "int:x", "--x", "1", "--n", "2"),
        ("count", "--beta", "golden", "--x", "1/0", "--n", "2"),
        ("tree", "--beta", "1.5", "--x", "1", "--depth", "-2"),
        ("simulate", *golden, "--n", "-3"),
        ("dims", *golden, "--levels=-20..-15"),
        ("dims", *golden, "--margin=-3"),
        ("tau", "--beta", "golden", "--levels=-3..0"),
        ("table1", "--n-range", "3..3", "--k-exact", "-1"),
        ("table1", "--n-range", "2..2", "--mc-budget", "1"),
        ("gamma", "--beta", "multinacci:3", "--method", "series", "--k-exact", "-1"),
        ("gamma", "--beta", "golden", "--method", "series", "--mc-budget", "1"),
        ("sums", "--beta", "golden", "--n-max", "-1"),
        ("automaton", "--beta", "golden", "--state-cap", "-1"),
        ("gamma", "--beta", "golden", "--method", "mc", "--seed", "-1"),
        ("gamma", "--beta", "golden", "--method", "series", "--seed", "-1"),
        ("table1", "--seed", "-1"),
        # only the n = 2 row reads --seed and --mc-budget
        ("table1", "--n-range", "3..4", "--mc-budget", "5"),
        ("table1", "--n-range", "3..4", "--seed", "9"),
        ("simulate", *golden, "--seed", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def _outcome(capsys, run, argv):
    """(exit code, stdout) of run(argv); an argparse error exits 2."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def _on_fresh_parser(argv):
    args = build_parser().parse_args(argv)
    return args.fn(args)


@pytest.mark.parametrize("calls", [
    # a --paths value must not carry over into the series route, which rejects
    # it, nor a --seed into the config of a command without one
    [("gamma --beta multinacci:3 --method mc --paths 3000 --chains 2 --seed 3", 0),
     ("gamma --beta multinacci:3 --method series", 0),
     ("count --beta golden --x 1 --n 3", 0)],
    [("count --beta golden --x 2/5 --n 6 --format json", 0),
     ("count --beta golden --x 2/5 --n 6", 0)],
    [("count --beta golden --x 1", 2),  # no --n: argparse exits
     ("count --beta golden --x 1 --n 3", 0)],
    [("kappa --beta 1.5", 0),
     ("tau --beta golden --q-list -1,0,2 --levels 6..9 --margin 4", 0)],
])
def test_one_parser_serves_many_calls(capsys, calls):
    # each call on the process's one parser gives the exit code and stdout
    # of the same call on a parser built for it alone
    cli._shared_parser.cache_clear()
    shared = [_outcome(capsys, main, line.split()) for line, _code in calls]
    assert cli._shared_parser.cache_info().misses == 1
    assert shared == [_outcome(capsys, _on_fresh_parser, line.split()) for line, _code in calls]
    assert [code for code, _out in shared] == [code for _line, code in calls]


def test_gamma_mc_validates_before_build(capsys, monkeypatch):
    def no_build(_sys):
        raise AssertionError("build_automaton called")

    monkeypatch.setattr("betagrowth.netautomaton.build_automaton", no_build)
    for bad in (("--seed", "-1"), ("--paths", "999"), ("--chains", "1")):
        code, out, err = run_cli(capsys, "gamma", "--beta", "poly:-1,-1,0,1", "--method", "mc",
                                 *bad)
        assert (code, out) == (2, ""), bad
        assert err.startswith("error:"), bad


def test_gamma_series_rejects_mc_options_beyond_golden(capsys):
    # only n = 2 adds the Monte-Carlo middle segment, which reads --seed and
    # --mc-budget; for n >= 3 they would be dropped
    for spec in ("multinacci:3", "poly:-1,-1,-1,-1,1"):
        for bad in (("--seed", "0"), ("--seed", "7"), ("--mc-budget", "100")):
            code, out, err = run_cli(capsys, "gamma", "--beta", spec, "--method", "series", *bad)
            assert (code, out) == (2, ""), (spec, bad)
            assert err.startswith("error:") and "n = 2" in err, (spec, bad)
        code, _out, _err = run_cli(capsys, "gamma", "--beta", spec, "--method", "series",
                                   "--k-exact", "8")
        assert code == 0, spec
    code, _out, _err = run_cli(capsys, "gamma", "--beta", "golden", "--method", "series",
                               "--k-exact", "8", "--mc-budget", "100", "--seed", "3")
    assert code == 0


def test_tau_validates_q_before_atoms(capsys, monkeypatch):
    def no_atoms(*_args, **_kwargs):
        raise AssertionError("level_atoms called")

    monkeypatch.setattr("betagrowth.bconv.level_atoms", no_atoms)
    for q_list in ("--q-list=5", "--q-list=1,5", "--q-list=-3,0"):
        code, out, err = run_cli(capsys, "tau", "--beta", "golden", q_list, "--levels", "12..20")
        assert (code, out) == (2, ""), q_list
        assert err.startswith("error:") and "q must lie in [-2, 4]" in err, q_list


def test_gamma_mc_rejects_non_pisot_before_build(capsys, monkeypatch):
    def no_build(_sys):
        raise AssertionError("build_automaton called")

    monkeypatch.setattr("betagrowth.netautomaton.build_automaton", no_build)
    # 13/10 is rational, not an integer; sqrt(3) has the conjugate -sqrt(3)
    for spec in ("13/10", "poly:-3,0,1"):
        code, out, err = run_cli(capsys, "gamma", "--beta", spec, "--method", "mc")
        assert (code, out) == (4, ""), spec
        assert err.startswith("error:") and "Pisot" in err, spec


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # an exhausted resource exits 3 with one error line, as a cap does
    def no_memory(_sys, state_cap):
        raise MemoryError

    monkeypatch.setattr("betagrowth.netautomaton.build_automaton", no_memory)
    code, out, err = run_cli(capsys, "automaton", "--beta", "golden")
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_tau_collision_free_cap_before_any_level(capsys, monkeypatch):
    # 13/10 with m = 2 has 2^k distinct level-k sums, so the level-24 atoms
    # pass the cap at level 22, which is known before the first step
    def no_step(*_args, **_kwargs):
        raise AssertionError("Lattice.step called")

    monkeypatch.setattr("betagrowth.expansions.Lattice.step", no_step)
    code, out, err = run_cli(capsys, "tau", "--beta", "13/10")
    assert (code, out) == (3, "")
    assert err == "error: 4194304 DP states at level 22 exceed the cap 4000000\n"


def test_sums_collision_free_cap_before_any_level(capsys, monkeypatch):
    # sums has the cap of tau: the 2^22 level-22 sums of 13/10 stop it
    # before the first step
    def no_step(*_args, **_kwargs):
        raise AssertionError("Lattice.step called")

    monkeypatch.setattr("betagrowth.expansions.Lattice.step", no_step)
    code, out, err = run_cli(capsys, "sums", "--beta", "13/10", "--n-max", "22")
    assert (code, out) == (3, "")
    assert err == "error: 4194304 DP states at level 22 exceed the cap 4000000\n"


def test_series_route_reads_the_polynomial(capsys):
    # golden and tribonacci given by their polynomials take the series route
    for spec, poly in (("golden", "poly:-1,-1,1"), ("multinacci:3", "poly:-1,-1,-1,1")):
        code, out, _ = run_cli(capsys, "gamma", "--beta", spec, "--method", "series")
        assert code == 0
        code, by_poly, _ = run_cli(capsys, "gamma", "--beta", poly, "--method", "series")
        assert code == 0
        assert by_poly.splitlines()[1:] == out.splitlines()[1:]
        assert by_poly.splitlines()[0] == out.splitlines()[0].replace(spec, poly)


def test_table1_builds_each_system_once(capsys, monkeypatch):
    built = []
    build = numberfield._system_from_minpoly
    monkeypatch.setattr(numberfield, "_system_from_minpoly",
                        lambda spec, *args: built.append(spec) or build(spec, *args))
    code, _out, _err = run_cli(capsys, "table1", "--n-range", "3..5")
    assert code == 0
    assert built == ["multinacci:3", "multinacci:4", "multinacci:5"]


def test_exit_code_cap(capsys):
    code, _out, err = run_cli(capsys, "automaton", "--beta", "poly:-3,0,1",
                              "--m", "2", "--state-cap", "200")
    assert code == 3


def test_exit_code_hypothesis(capsys):
    code, _out, err = run_cli(capsys, "kappa", "--beta", "golden", "--m", "2")
    assert code == 4
    code, _out, err = run_cli(capsys, "gamma", "--beta", "int:2", "--m", "3",
                              "--method", "integer")
    assert code == 4


def test_tree(capsys):
    code, out, _ = run_cli(capsys, "tree", "--beta", "1.5", "--m", "2",
                           "--x", "1", "--depth", "6")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "depth,nodes"
    assert len(lines) == 8


def tree_nodes(capsys, spec, x, depth):
    """The nodes column of `tree`, checked to list depths 0..depth."""
    code, out, _ = run_cli(capsys, "tree", "--beta", spec, "--x", x, "--depth", str(depth))
    assert code == 0
    config, header, *rows = out.splitlines()
    assert header == "depth,nodes"
    assert json.loads(config.removeprefix("# config: ")) == {
        "beta": spec, "depth": depth, "format": "csv", "m": 2, "x": x}
    assert [int(r.split(",")[0]) for r in rows] == list(range(depth + 1))
    return [int(r.split(",")[1]) for r in rows]


def test_tree_zero_is_a_path(capsys):
    assert tree_nodes(capsys, "golden", "0", 4) == [1, 1, 1, 1, 1]


def test_tree_golden_one(capsys):
    assert tree_nodes(capsys, "golden", "1", 2)[-1] == 3


def test_tree_matches_brute_force(capsys):
    b15 = numberfield.parse_beta("1.5", 2)
    assert tree_nodes(capsys, "1.5", "1", 10) == [brute_prefix_count(1, n, b15)
                                                  for n in range(11)]


def test_tree_depth_is_bounded_by_the_state_cap_alone(capsys):
    # 1,460,512 nodes over depths 0..60, while the sweep holds at most two
    # merged states per level: a node total is no memory the sweep holds
    golden = numberfield.parse_beta("golden", 2)
    nodes = tree_nodes(capsys, "golden", "2/5", 60)
    assert nodes == expansions.prefix_count_series(Fraction(2, 5), 60, golden)
    assert sum(nodes) == 1_460_512


def test_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--beta", "1.4", "--m", "2",
                           "--x", "1", "--n-max", "12")
    assert code == 0
    assert '"passed": true' in out or "True" in out


def test_sums(capsys):
    code, out, _ = run_cli(capsys, "sums", "--beta", "golden", "--m", "2",
                           "--n-max", "6")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert rows[2].startswith("3,7,")  # n=3 has 7 distinct sums


def test_sparse(capsys):
    code, out, _ = run_cli(capsys, "sparse", "--beta", "golden", "--m", "2",
                           "--m-seq", "1,2,3")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert [r.split(",")[1] for r in rows] == ["1", "2", "6"]


def test_simulate_deterministic(capsys):
    a = run_cli(capsys, "simulate", "--beta", "golden", "--m", "2",
                "--x", "2/5", "--n", "30", "--seed", "5")
    b = run_cli(capsys, "simulate", "--beta", "golden", "--m", "2",
                "--x", "2/5", "--n", "30", "--seed", "5")
    assert a == b and a[0] == 0


def test_simulate_digit_column(capsys):
    # m <= 10: one character per digit; above, a digit 10 must not read as 1, 0
    code, out, _ = run_cli(capsys, "simulate", "--beta", "golden", "--m", "2",
                           "--x", "2/5", "--n", "8", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1] == "00110000,0.38196601125010526,0.4"
    code, out, _ = run_cli(capsys, "simulate", "--beta", "10.5", "--m", "11",
                           "--x", "1", "--n", "6", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith('"10,5,2,6,5,9",')
    # no digits: the reconstruction is the float 0.0, not the int 0
    code, out, _ = run_cli(capsys, "simulate", "--beta", "golden", "--x", "1", "--n", "0")
    assert code == 0
    assert out.splitlines()[-1] == ",0.0,1.0"


# (exit code, sha256 of stdout, stderr) of `simulate --beta --m --x --n --seed`,
# recorded at 89e6a0f, where K_beta classified each point against switch
# intervals derived by hand: reading the digits off the prefix window must
# keep every digit and every coin.  The points include the cell boundaries
# j/beta of int:2 and int:3, the switch-region ends 2/5, 8/15, 4/5 and 14/15
# of 2.5 and golden's x = 1, the upper end of S_1; the last two are the m
# errors.
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
SIMULATE_STDOUT = {
    ("golden", "2", "2/5", "40", "5"):
        (0, "dda45d3868cf6ba225a7d6dc7fedae8197fe042f35eaddcd64ffb3ac489f7c15", ""),
    ("golden", "2", "1", "30", "3"):
        (0, "99edb4f17f9adfde3ca93d0049e3cc8d375fd3d84a674f5dec5959f989a68280", ""),
    ("golden", "2", "0", "10", "0"):
        (0, "ee2a86edb84bb6f7a6bfedf9196537b7023717336463bf4ff4f4f21210fd64cf", ""),
    ("2.5", "3", "7/10", "40", "2"):
        (0, "99d75cb200faaa028539076514571889e06bef184d1f378af013012e4f03afb6", ""),
    ("int:2", "2", "1/2", "20", "1"):
        (0, "4c3229af9acb05c2607e994530d660adc15ee9294535519be7eec0e4066e4153", ""),
    ("int:3", "3", "1/3", "20", "4"):
        (0, "cc6f348250ced9326aa88157fe2b80df1c7b32945db3bf587e423049fdcabe13", ""),
    ("int:3", "3", "2/3", "20", "4"):
        (0, "78801d29d25485f06790d839c6cbfae30f5921ccc3efae52aec9a517d4898357", ""),
    ("int:2", "2", "1", "10", "0"):
        (0, "9ba5d7ea6c0bedc813b5502484f7d56a32b5c7350be3766df7053c9409406013", ""),
    ("int:3", "3", "1", "10", "0"):
        (0, "481ac5b846380aa298cdd91cb137f53a92c5e9fe2763170e94ac17d84f6364d1", ""),
    ("2.5", "3", "2/5", "20", "3"):
        (0, "8e6fe848f32c33d91ad3909c45b44eea66d491fc4d48c33acf72a2d1e9511cdc", ""),
    ("2.5", "3", "8/15", "20", "3"):
        (0, "487f499109f84344ecea73dd80e990d88de2253522b2c8ed7c3d72e0ea199fcf", ""),
    ("2.5", "3", "4/5", "20", "3"):
        (0, "e90c3aea2447aa3ff1bb830298c6f16ce95b60fae691c7047bd6516b123c8027", ""),
    ("2.5", "3", "14/15", "20", "3"):
        (0, "2122ec7f7a774581b2435283083c1b9e50882547ac1a2ef940dbbfbfd67cf2cc", ""),
    ("1.5", "2", "1/2", "40", "7"):
        (0, "b86eef680d276b65013c78bcb4e524558d3899caca4dee1c14f9861789d7882c", ""),
    ("13/10", "2", "1/3", "40", "9"):
        (0, "8c378c6b0fbcf598dcc4d266da42259ca2562f2808419751a3606717674418c1", ""),
    ("multinacci:3", "2", "3/5", "40", "11"):
        (0, "c9a5781be8d862812f72e0f7ffc568da0c43f597777851a7cf82f0dcdf13edcb", ""),
    ("poly:-1,-1,0,1", "2", "1/2", "40", "6"):
        (0, "3eb76b20704830f761563f2508b6aa86b590ed76635f706e0552c085485ae66a", ""),
    ("10.5", "11", "1", "20", "1"):
        (0, "38a93c02cd8a574adb6176176554826997c16908a2b2189a97cbde316e14adaa", ""),
    ("golden", "3", "2/5", "10", "0"):
        (2, EMPTY_SHA256, "error: K_beta requires m = floor(beta) + 1\n"),
    ("int:2", "3", "1/2", "10", "0"):
        (2, EMPTY_SHA256, "error: integer base requires m = beta in K_beta mode\n"),
}


@pytest.mark.parametrize("spec, m, x, n, seed", SIMULATE_STDOUT)
def test_simulate_stdout_frozen(capsys, spec, m, x, n, seed):
    code, out, err = run_cli(capsys, "simulate", "--beta", spec, "--m", m, "--x", x,
                             "--n", n, "--seed", seed)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == SIMULATE_STDOUT[spec, m, x, n, seed]


def test_automaton_json(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--beta", "golden", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 7
    assert doc["states"][0]["v"] == 1
    # exact rationals serialized as numerator/denominator strings
    assert all("/" in c for c in doc["states"][0]["length"]["coeffs"])


def test_automaton_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _out, _ = run_cli(capsys, "automaton", "--beta", "golden", "--m", "2",
                            "--out", str(tmp_path / "a.json"), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


# SHA-256 of each base's --dot file as written before the streamed writer
AUTOMATON_DOT_SHA256 = {
    ("golden", "2"): "3244cc39405a6cf78915186da96a376a434fa7348479ce59b29f06a758ad783e",
    ("golden", "3"): "8b32b8a5fa929cbef3a2b89fbe79ba51a9f9283af7ac06b36b2d44564a4dbc41",
    ("golden", "4"): "f7cf9c35194cb53de0c2b923c6fd1dbbced722909cfe9b130ae1f17863b171fa",
    ("multinacci:3", "2"): "6c9b5d2ee1a9fa06eb26a060058505d46b9aba3c105a306d0c3a3df3fe51b32d",
    ("multinacci:4", "2"): "ebae1284b0e51561a455e7eb7b22135ef66b99d0a8cac20bafd5586605891ca5",
    ("multinacci:5", "2"): "d6e9398dde708297045c3e8495477d83e319bee5e7d5963ab724491179a365a1",
    ("poly:-1,0,-1,1", "2"): "20a9bb13d97a6b43a1d211851a4785615afc90d7ed82a0e41d51b652dc5a3e39",
}


@pytest.mark.parametrize("beta, m", sorted(AUTOMATON_DOT_SHA256))
def test_automaton_stream_matches_json_dumps(tmp_path, capsys, beta, m):
    argv = ["automaton", "--beta", beta, "--m", m]
    auto = netautomaton.build_automaton(numberfield.parse_beta(beta, int(m)))
    expected = automaton_doc_text(build_parser().parse_args(argv), auto, lyapunov.parry_chain(auto))
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    doc, dot = tmp_path / "a.json", tmp_path / "a.dot"
    assert run_cli(capsys, *argv, "--out", str(doc), "--dot", str(dot))[:2] == (0, "")
    assert doc.read_bytes() == expected.encode()
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == AUTOMATON_DOT_SHA256[beta, m]


def test_automaton_rejects_format(capsys):
    # the document is always JSON; its config echoes "format": "csv"
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "automaton", "--beta", "golden", "--format", fmt)
        assert (code, out) == (2, "")
        assert "--format" in err
    code, out, _ = run_cli(capsys, "automaton", "--beta", "golden")
    assert code == 0
    assert json.loads(out)["config"]["format"] == "csv"


def test_huge_rational_base_rejected(capsys):
    # q = 2^63 + 28 does not fit the lattice's int64 step matrix
    beta = "9223372036854775837/9223372036854775836"
    # bound checks the coefficients before kappa, whose power loop would take
    # about 44 * 2^63 steps on this base
    for argv in (("count", "--beta", beta, "--x", "1", "--n", "3"), ("automaton", "--beta", beta),
                 ("bound", "--beta", beta, "--x", "1", "--n-max", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "2^63 - 1" in err, argv
    # the largest q that fits still counts
    code, out, _ = run_cli(capsys, "count", "--beta", "9223372036854775807/9223372036854775806",
                           "--x", "1", "--n", "3")
    assert (code, out.splitlines()[-1]) == (0, "3,1/1,4")


def test_dims(capsys):
    code, out, _ = run_cli(capsys, "dims", "--beta", "int:2", "--m", "2",
                           "--x", "1/3", "--levels", "6..14", "--margin", "8")
    assert code == 0
    assert '"slope"' in out or "slope" in out


def test_tau(capsys):
    code, out, _ = run_cli(capsys, "tau", "--beta", "int:2", "--m", "2",
                           "--q-list", "0,1", "--levels", "8..12", "--margin", "6")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2


def test_table1_deterministic(tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    for target in (out1, out2):
        code, _o, _e = run_cli(capsys, "table1", "--n-range", "2..5",
                               "--k-exact", "12", "--seed", "9", "--out", str(target))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table1_config_echoes_mc_budget(capsys):
    # the budget changes the n = 2 row, so the config line says which one
    # ran; unset, it is left out and a default run keeps its bytes
    lines = []
    for budget in ((), ("--mc-budget", "500"), ("--mc-budget", "600")):
        code, out, _ = run_cli(capsys, "table1", "--n-range", "2..2", "--k-exact", "8", *budget)
        assert code == 0
        lines.append(out.splitlines()[0])
    configs = [json.loads(line.removeprefix("# config: ")) for line in lines]
    assert [c.get("mc_budget") for c in configs] == [None, 500, 600]
    assert lines[1] != lines[2]


def test_gamma_mc_deterministic(tmp_path, capsys):
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    for target in (out1, out2):
        code, _o, _e = run_cli(capsys, "gamma", "--beta", "golden", "--m", "2",
                               "--method", "mc", "--paths", "2000", "--chains", "3",
                               "--seed", "13", "--out", str(target))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of `gamma --method mc` stdout, recorded at 3be0f16, where the walk
# took one table lookup and one matrix gather per step: walking k steps per
# lookup must leave every chain value, and so every byte, as it was
GAMMA_MC_STDOUT_SHA256 = {
    ("multinacci:3", "2", "5000", "1"):
        "ca5df8abe86271ea858352f528c6f9dc2a9884ad92348f2327382a97e24c8a3e",
    ("multinacci:3", "2", "5000", "38"):
        "1d102f177fa35b60dc854e3dccd197930cc8799046c86588b453411985c96b89",
    ("int:2", "4", "3000", "1"):
        "f30c2d718d8cc9ae38c999bc5ae5d6e18751e252e9d5b807e5671e79a8b71692",
    ("int:2", "4", "3000", "38"):
        "f081f295ee5627990541e3f2458c3afa2934cfea44d09c03b08de1b5e00ec02e",
    ("golden", "3", "3000", "1"):
        "b26eb624aa9b8e0652df54adfa1b1ba163d70c8521ea6c1d4bf5d4416f053d30",
    ("golden", "3", "3000", "38"):
        "63fdba589ec6d99f04b49075a6cefabec958f388fde0c228e9327b8c28ccb312",
}


@pytest.mark.parametrize("spec, m, paths, seed", GAMMA_MC_STDOUT_SHA256)
def test_gamma_mc_stdout_frozen(capsys, spec, m, paths, seed):
    code, out, _ = run_cli(capsys, "gamma", "--beta", spec, "--m", m, "--method", "mc",
                           "--paths", paths, "--chains", "4", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_MC_STDOUT_SHA256[spec, m, paths, seed]


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_runs_without_mpmath():
    # mpmath is a test-only dependency: the package and its selftest must not need it
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from betagrowth.cli import main\n"
        "from betagrowth.numberfield import parse_beta\n"
        "assert main(['selftest']) == 0\n"
        "assert parse_beta('multinacci:5', 2).pisot\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_automaton_and_gamma_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma (0.6 MB, resident from then on); the
    # automaton build and the Monte-Carlo walk load no more of it than the
    # import of the CLI does (numpy 1.x loads it with numpy itself)
    script = (
        "import io, sys, contextlib\n"
        "import betagrowth.cli\n"
        "before = 'numpy.ma' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert betagrowth.cli.main(['automaton', '--beta', 'multinacci:3']) == 0\n"
        "    assert betagrowth.cli.main(['gamma', '--beta', 'int:2', '--m', '4', '--method', 'mc',\n"
        "                                '--paths', '2000', '--chains', '2']) == 0\n"
        "assert ('numpy.ma' in sys.modules) == before, before\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _cli_subprocess(*argv, timeout=60):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "betagrowth.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("digits", [18, 40, 300])
def test_huge_constant_term_parses_fast(digits):
    # x^2 - (10^k + 1): irreducible, beta ~ 10^(k/2) > m; parsing is
    # polynomial in the bit size, so the m check is reached in a moment
    spec = f"poly:-{10 ** digits + 1},0,1"
    result = _cli_subprocess("count", "--beta", spec, "--m", "2", "--x", "1", "--n", "1")
    assert result.returncode == 2
    assert "m=2 must not be smaller than beta" in result.stderr


def test_planted_large_rational_root_rejected():
    # (x - r)(x^2 + 1): r is the one integer in an isolating interval of
    # width <= 1 (the lead is 1), where f vanishes exactly
    r = 999999999989
    result = _cli_subprocess("count", "--beta", f"poly:{-r},1,{-r},1", "--m", "2",
                             "--x", "1", "--n", "1")
    assert result.returncode == 2
    assert "is reducible (rational root)" in result.stderr


@pytest.mark.parametrize("argv", [
    ("table1", "--k-exact", "76"),
    ("gamma", "--beta", "multinacci:3", "--method", "series", "--k-exact", "76"),
])
def test_series_k_exact_beyond_float_exactness(argv):
    # level 76 norms pass 2^53; the bound is checked before the 2^76-entry
    # levels are allocated, so the process exits at once
    result = _cli_subprocess(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        "error: k_exact must be at most 75: beyond it the series norms pass 2^53 "
        "and are not exact in float64"]


@pytest.mark.parametrize("argv,name", [
    (("table1", "--k-exact", "26"), "k_exact = 26"),
    (("gamma", "--beta", "golden", "--method", "series", "--k-exact", "4",
      "--mc-budget", "9586981"), "mc_budget = 9586981"),
])
def test_series_arrays_past_byte_budget(capsys, no_large_arrays, argv, name):
    # in process, under a guard that fails the test on any large array: the
    # byte budget rejects the input before its arrays are allocated
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} needs ") and err.endswith(" bytes, over the limit 536870912\n")


def test_prefix_count_sweep_hits_state_cap():
    # states grow about 1.5x a level at beta = 13/10: the sweep stops at the
    # first level over the 4,000,000-state cap instead of running out of memory
    result = _cli_subprocess("count", "--beta", "13/10", "--x", "1", "--n", "60")
    assert result.returncode == 3
    assert "DP states at level 35 exceed the cap 4000000" in result.stderr


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BETAGROWTH_OUT_DIR", str(tmp_path))
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("betagrowth ")]
    assert len(lines) >= 10
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()
    assert (tmp_path / "golden.dot").exists() and (tmp_path / "table1.csv").exists()
