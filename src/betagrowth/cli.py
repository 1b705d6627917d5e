"""Command-line front end.

Every subcommand resolves its configuration (including the seed) into the
report it emits, writes CSV or JSON with deterministic formatting, and maps
error classes to distinct exit codes: 2 bad input, 3 cap exceeded,
4 hypothesis violated, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import bconv, expansions, lyapunov, netautomaton
from .errors import (BetaGrowthError, CapExceededError, HypothesisError, InvalidInputError,
                     InvariantError)
from .numberfield import BetaSystem, FieldElement, parse_beta

TABLE1_COLUMNS = ["n", "beta_decimal", "gamma_over_log2", "gamma_error", "D", "D_error", "method"]

PAPER_TABLE1_D = {
    2: 1.0054, 3: 1.028876, 4: 1.012318, 5: 1.006510, 6: 1.003341,
    7: 1.001695, 8: 1.000854, 9: 1.000429, 10: 1.000215,
}


OUT_DIR_ENV = "BETAGROWTH_OUT_DIR"

# gamma options by flag: the one route that reads each, and its parameter there
GAMMA_ROUTE_OPTIONS = {"--paths": ("mc", "path_len"), "--chains": ("mc", "n_chains"),
                       "--k-exact": ("series", "k_exact"), "--mc-budget": ("series", "mc_budget")}


def _resolve_out(path: str | None) -> str | None:
    """Relative output paths land in $BETAGROWTH_OUT_DIR when it is set."""
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse(option: str, text: str, convert):
    """convert(text), reporting malformed text as bad input."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse {option} {text!r}") from exc


def _int_range(text: str) -> range:
    """'a..b', both ends included."""
    lo, hi = text.split("..")
    return range(int(lo), int(hi) + 1)


def _levels(text: str):
    """'a..b' or 'a,b,...'."""
    return _int_range(text) if ".." in text else [int(p) for p in text.split(",")]


def _emit(args, payload_rows: list[dict], columns: list[str], config: dict) -> None:
    """Write rows as CSV or JSON to --out (or stdout), deterministically."""
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        doc = {"config": config, "rows": payload_rows}
        text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(config, sort_keys=True, default=str) + "\n")
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in payload_rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        text = buf.getvalue()
    out = _resolve_out(getattr(args, "out", None))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _system(args) -> BetaSystem:
    return parse_beta(args.beta, args.m)


def _config(args, **extra) -> dict:
    # the output path is deliberately not echoed: identical configs and
    # seeds must produce byte-identical files wherever they are written
    cfg = {"beta": args.beta, "m": args.m}
    for key in ("seed", "format"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    sys_ = _system(args)
    x = _parse("--x", args.x, Fraction)
    value = expansions.count_prefixes(x, args.n, sys_)
    _emit(args, [{"n": args.n, "x": frac_str(x), "count": str(value)}],
          ["n", "x", "count"], _config(args, n=args.n, x=str(args.x)))
    return 0


def cmd_tree(args) -> int:
    sys_ = _system(args)
    x = _parse("--x", args.x, Fraction)
    # the depth-k nodes of the branching tree are the length-k prefixes
    counts = expansions.prefix_count_series(x, args.depth, sys_)
    rows = [{"depth": d, "nodes": str(c)} for d, c in enumerate(counts)]
    _emit(args, rows, ["depth", "nodes"], _config(args, x=str(args.x), depth=args.depth))
    return 0


def cmd_kappa(args) -> int:
    sys_ = _system(args)
    k = expansions.kappa(sys_)
    _emit(args, [{"kappa": frac_str(k), "kappa_float": float(k)}],
          ["kappa", "kappa_float"], _config(args))
    return 0


def cmd_bound(args) -> int:
    sys_ = _system(args)
    x = _parse("--x", args.x, Fraction)
    report = expansions.verify_growth_bound(sys_, x, args.n_max)
    rows = [
        {"n": r.n, "count": str(r.count), "bound": repr(r.bound), "ok": r.ok}
        for r in report.rows
    ]
    _emit(args, rows, ["n", "count", "bound", "ok"],
          _config(args, x=str(args.x), n_max=args.n_max,
                  kappa=frac_str(report.kappa), passed=report.passed))
    return 0


def cmd_sums(args) -> int:
    sys_ = _system(args)
    rows = expansions.garsia_report(sys_, args.n_max)
    out = [
        {
            "n": r.n,
            "count": str(r.count),
            "count_over_beta_n": repr(r.count_over_beta_n),
            "min_gap_scaled": repr(r.min_gap_scaled),
        }
        for r in rows
    ]
    _emit(args, out, ["n", "count", "count_over_beta_n", "min_gap_scaled"],
          _config(args, n_max=args.n_max))
    return 0


def cmd_sparse(args) -> int:
    sys_ = _system(args)
    m_seq = tuple(_parse("--m-seq", args.m_seq, lambda t: [int(p) for p in t.split(",")]))
    rows = expansions.sparse_profile(m_seq, sys_)
    out = [
        {
            "n": r.n,
            "block_product": str(r.block_product),
            "prefix_count": str(r.prefix_count),
            "log_product_over_n": repr(r.log_product_over_n),
            "log_prefix_over_n": repr(r.log_prefix_over_n),
        }
        for r in rows
    ]
    _emit(args, out,
          ["n", "block_product", "prefix_count", "log_product_over_n", "log_prefix_over_n"],
          _config(args, m_seq=args.m_seq))
    return 0


def cmd_simulate(args) -> int:
    sys_ = _system(args)
    x = _parse("--x", args.x, Fraction)
    if args.n < 0:
        raise InvalidInputError("--n must be nonnegative")
    if args.seed < 0:
        raise InvalidInputError("--seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    bits = rng.integers(0, 2, size=4 * args.n)
    digits = expansions.simulate_expansion(x, args.n, sys_, iter(int(b) for b in bits))
    # reconstruction error |x - sum digits beta^-k| <= tail
    approx = sum((d * float(sys_.rho) ** (k + 1) for k, d in enumerate(digits)), 0.0)
    sep = "" if sys_.m <= 10 else ","  # a digit above 9 needs a separator
    rows = [{"digits": sep.join(str(d) for d in digits),
             "reconstruction": repr(approx), "x_float": repr(float(sys_.element(x)))}]
    _emit(args, rows, ["digits", "reconstruction", "x_float"],
          _config(args, x=str(args.x), n=args.n))
    return 0


def _element_text(e: FieldElement, pad: str) -> str:
    """A field element as its JSON object {"approx", "coeffs"} at indent pad.

    A coefficient num_i / den is written in lowest terms, the text of
    frac_str(Fraction(num_i, den)); approx is repr of a finite float, the
    text json writes for it.
    """
    den = e.den
    coeffs = [f'"{c // (g := math.gcd(c, den))}/{den // g}"' for c in e.num]
    return (f'{{\n{pad}  "approx": {float(e)!r},'
            f'\n{pad}  "coeffs": {_list_text(coeffs, pad + "  ")}\n{pad}}}')


def _list_text(items: list[str], pad: str) -> str:
    """Encoded items as json's indent=2 list at indent pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _write_items(write, items, pad: str, brackets: str = "[]") -> None:
    """_list_text of a list (or an object's "key": value items), one item
    per call of write."""
    opening, closing = brackets
    first = True
    for item in items:
        write(f"{opening if first else ','}\n{pad}  {item}")
        first = False
    write(opening + closing if first else f"\n{pad}{closing}")


def _adjacency_rows(auto):
    """The dense 0/1 adjacency rows of the automaton document, as text."""
    sep = ",\n" + " " * 6
    zeros = sep.join("0" * auto.size)
    # cell j is the one character at stride * j
    stride = len(sep) + 1
    for kids in auto.children:
        cells, done = [], 0
        for j in sorted({j for j, _lo, _hi, _T in kids}):
            cells += (zeros[done:stride * j], "1")
            done = stride * j + 1
        cells.append(zeros[done:])
        yield "[\n      " + "".join(cells) + "\n    ]"


def _write_automaton(write, config: dict, auto, chain) -> None:
    """Write the automaton document, one state, adjacency row or matrix per
    call of write, as the text of json.dumps(doc, sort_keys=True, indent=2)
    of the same document held whole (DECISIONS.md)."""
    # few distinct field elements and matrix rows recur many times
    element = functools.cache(_element_text)
    row_text = functools.cache(lambda row: _list_text(list(map(str, row)), " " * 6))
    write('{\n  "adjacency": ')
    _write_items(write, _adjacency_rows(auto), "  ")
    essential = [str(i) for i in sorted(auto.essential)]
    write(',\n  "config": ' + json.dumps(config, sort_keys=True, indent=2).replace("\n", "\n  ")
          + ',\n  "essential": ' + _list_text(essential, "  ") + ',\n  "matrices": ')
    # a later edge i -> j would replace an earlier one, as in a dict
    matrices = {f"{i}->{j}": T for i, kids in enumerate(auto.children) for j, _lo, _hi, T in kids}
    _write_items(write, (f'"{key}": ' + _list_text(list(map(row_text, matrices[key])), " " * 4)
                         for key in sorted(matrices)), "  ", "{}")
    stationary = [f'"{p!r}"' for p in chain.stationary]
    write(',\n  "parry_stationary": ' + _list_text(stationary, "  ")
          + f',\n  "size": {auto.size},\n  "states": ')
    _write_items(write, (
        f'{{\n      "essential": {"true" if i in auto.essential else "false"},'
        f'\n      "index": {i},\n      "length": {element(st.length, " " * 6)},'
        f'\n      "offsets": {_list_text([element(o, " " * 8) for o in st.offsets], " " * 6)},'
        f'\n      "rank": {st.rank},\n      "v": {st.v}\n    }}'
        for i, st in enumerate(auto.states)), "  ")
    write("\n}\n")


def cmd_automaton(args) -> int:
    # the document is JSON whatever --format says; the config still echoes
    # the csv that --format used to default to (DECISIONS.md)
    if args.format is not None:
        raise InvalidInputError("--format does not apply to automaton, which always writes JSON")
    sys_ = _system(args)
    auto = netautomaton.build_automaton(sys_, state_cap=args.state_cap)
    chain = lyapunov.parry_chain(auto)
    config = _config(args, format="csv", state_cap=args.state_cap)
    out = _resolve_out(args.out)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_automaton(fh.write, config, auto, chain)
    else:
        _write_automaton(sys.stdout.write, config, auto, chain)
    if args.dot:
        with open(_resolve_out(args.dot), "w", encoding="utf-8") as fh:
            fh.write(netautomaton.automaton_to_dot(auto) + "\n")
    return 0


def _require_golden_series(args, n_values) -> None:
    """Only the golden ratio (n = 2) adds the Monte-Carlo middle segment to
    the multinacci series, and only it reads --seed and --mc-budget: for
    any other n they would be dropped, so they are rejected."""
    if 2 not in n_values and (args.seed is not None or args.mc_budget is not None):
        raise InvalidInputError("--seed and --mc-budget apply to the multinacci series "
                                "only on the golden ratio (n = 2)")


def cmd_gamma(args) -> int:
    sys_ = _system(args)
    # unset options take the library defaults; one that only another route
    # reads is rejected rather than ignored
    options = {}
    for flag, (route, param) in GAMMA_ROUTE_OPTIONS.items():
        if getattr(args, param) is not None:
            if route != args.method:
                raise InvalidInputError(f"{flag} applies only to --method {route}")
            options[param] = getattr(args, param)
    if args.method == "integer" and args.seed is not None:
        raise InvalidInputError("--seed applies only to --method mc or series")
    if args.method == "series":
        n = lyapunov.multinacci_index(sys_)
        _require_golden_series(args, [n])
    if args.seed is None:
        args.seed = 0  # every route's config echoes the seed, unset or not
    if args.method == "integer":
        est = lyapunov.gamma_integer_case(sys_)
    elif args.method == "series":
        est = lyapunov.gamma_multinacci_series(n, seed=args.seed, **options)
    else:
        lyapunov.check_mc_params(seed=args.seed, **options)
        # the automaton is proven finite only for Pisot bases (Feng 2005)
        if not sys_.pisot:
            raise HypothesisError(f"the Monte-Carlo route requires a Pisot base; {sys_.spec} is not")
        auto = netautomaton.build_automaton(sys_)
        chain = lyapunov.parry_chain(auto)
        est = lyapunov.estimate_gamma_mc(chain, auto, seed=args.seed, **options)
    dim = lyapunov.dimension(est, sys_)
    row = {
        "method": est.method,
        "gamma_nats": repr(est.value),
        "gamma_over_log2": repr(est.over_log2),
        "gamma_error": repr(est.stderr),
        "D": repr(dim.value),
        "D_error": repr(dim.stderr),
        "D_out_of_range": dim.out_of_range,
    }
    _emit(args, [row],
          ["method", "gamma_nats", "gamma_over_log2", "gamma_error", "D", "D_error",
           "D_out_of_range"],
          _config(args, method=args.method, params=est.params))
    return 0


def cmd_table1(args) -> int:
    n_values = _parse("--n-range", args.n_range, _int_range)
    if not n_values or n_values[0] < 2 or n_values[-1] > 10:
        raise InvalidInputError("n range must lie within 2..10")
    _require_golden_series(args, n_values)
    # unset, they take the library defaults; the config echoes the seed,
    # unset or not, and the Monte-Carlo budget when it is set
    if args.seed is None:
        args.seed = 0
    mc = {} if args.mc_budget is None else {"mc_budget": args.mc_budget}
    systems = [parse_beta(f"multinacci:{n}", 2) for n in n_values]
    estimates = lyapunov.gamma_series_table(systems, k_exact=args.k_exact, seed=args.seed, **mc)
    rows = []
    for n, sys_n, est in zip(n_values, systems, estimates):
        dim = lyapunov.dimension(est, sys_n)
        rows.append(
            {
                "n": n,
                "beta_decimal": f"{float(sys_n.beta):.6f}",
                "gamma_over_log2": f"{est.over_log2:.6f}",
                "gamma_error": f"{est.stderr_over_log2:.2e}",
                "D": f"{dim.value:.6f}",
                "D_error": f"{dim.stderr:.2e}",
                "method": est.method,
            }
        )
        if n == 3:
            internal = (math.log(2) - est.value) / math.log(float(sys_n.beta))
            if abs(internal - PAPER_TABLE1_D[3]) > 5e-5 and abs(internal - 1.020876) < 5e-5:
                print(
                    "# note: n=3 computed D = %.6f; the printed value %.6f "
                    "is inconsistent with D = (log2 - gamma)/log beta and is "
                    "flagged as a suspected misprint (digit transposition)."
                    % (internal, PAPER_TABLE1_D[3]),
                    file=sys.stderr,
                )
    _emit(args, rows, TABLE1_COLUMNS, _config(args, n_range=args.n_range, k_exact=args.k_exact, **mc))
    return 0


def cmd_dims(args) -> int:
    sys_ = _system(args)
    x = _parse("--x", args.x, Fraction)
    levels = _parse("--levels", args.levels, _levels)
    est = bconv.local_dim_estimate(x, sys_, levels, margin=args.margin)
    rows = [
        {
            "n": r.n,
            "radius": repr(r.radius),
            "mass_lower": frac_str(r.mass_lower),
            "mass_upper": frac_str(r.mass_upper),
        }
        for r in est.rows
    ]
    _emit(args, rows, ["n", "radius", "mass_lower", "mass_upper"],
          _config(args, x=str(args.x), levels=args.levels, margin=args.margin,
                  slope=repr(est.slope), residual=repr(est.residual)))
    return 0


def cmd_tau(args) -> int:
    sys_ = _system(args)
    q_list = _parse("--q-list", args.q_list, lambda t: [float(p) for p in t.split(",")])
    levels = _parse("--levels", args.levels, _levels)
    rows = bconv.lq_spectrum_table(q_list, sys_, levels, margin=args.margin)
    out = [
        {"q": repr(r.q), "tau_hat": repr(r.tau), "residual": repr(r.residual)}
        for r in rows
    ]
    _emit(args, out, ["q", "tau_hat", "residual"],
          _config(args, q_list=args.q_list, levels=args.levels, margin=args.margin))
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks():
    golden = parse_beta("golden", 2)
    yield "golden rho*beta == 1 exactly", (golden.rho * golden.beta == golden.field.one)
    yield "golden minimal polynomial kills beta", (golden.beta ** 2 - golden.beta - 1).is_zero()
    yield "N_2(1) = 3 for golden", expansions.count_prefixes(1, 2, golden) == 3
    yield "N_5(0) = 1", expansions.count_prefixes(0, 5, golden) == 1
    b15 = parse_beta("1.5", 2)
    yield "kappa(1.5) = 1/8", expansions.kappa(b15) == Fraction(1, 8)
    yield "kappa(1.4) = 1/6", expansions.kappa(parse_beta("1.4", 2)) == Fraction(1, 6)
    yield "growth bound holds for 1.5 at x=1, n<=16", expansions.verify_growth_bound(
        b15, 1, 16
    ).passed
    auto = netautomaton.build_automaton(golden)
    yield "golden automaton v_1 = 1", auto.v(0) == 1
    # the walk's intervals against the coding of their midpoints, and the
    # matrix counts against the lattice DP, which shares no code with them
    ok = True
    for n in range(1, 6):
        for a, b, word in netautomaton.net_intervals(auto, n):
            mid = (a + b) / 2
            ok = ok and netautomaton.coding_of_point(mid, n, auto) == word and (
                netautomaton.count_via_matrices(auto, word)
                == expansions.count_prefixes(golden.right_end * mid, n, golden))
    yield "net intervals: codings and matrix counts match prefix counts (n<=5)", ok
    chain = lyapunov.parry_chain(auto)
    yield "Parry rows sum to 1", bool(np.allclose(chain.matrix.sum(axis=1), 1, atol=1e-14))
    resid = float(np.abs(chain.stationary @ chain.matrix - chain.stationary).max())
    yield "stationary residual < 1e-12", resid < 1e-12
    yield "count_X_m(1..3) = 1,2,3", [
        expansions.count_X_m(k, golden) for k in (1, 2, 3)
    ] == [1, 2, 3]
    atoms = bconv.level_atoms(golden, 6)
    yield "atom weights sum to 1 exactly", atoms.total_weight() == 1
    yield "integer gamma log2", lyapunov.gamma_integer_case(
        parse_beta("int:2", 4)
    ).value == math.log(2)
    g1 = lyapunov.estimate_gamma_mc(chain, auto, path_len=2000, n_chains=2, seed=5)
    g2 = lyapunov.estimate_gamma_mc(chain, auto, path_len=2000, n_chains=2, seed=5)
    yield "seeded MC bit-identical", g1.value == g2.value

    def int2_mc(m):
        auto_m = netautomaton.build_automaton(parse_beta("int:2", m))
        return lyapunov.estimate_gamma_mc(lyapunov.parry_chain(auto_m), auto_m, path_len=4000,
                                          n_chains=4, seed=5)

    # integer bases multiply chunks of 32 steps exactly; gamma is log(m/2)
    g4 = int2_mc(4)
    yield "MC int:2 m=4 within 3 stderr of log 2", abs(g4.value - math.log(2)) <= 3 * g4.stderr
    yield "MC int:2 m=2 exactly 0.0", int2_mc(2).value == 0.0


def cmd_selftest(args) -> int:
    t0 = tick = time.perf_counter()
    failed = None
    for name, ok in _selftest_checks():
        seconds = time.perf_counter() - tick
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({seconds:.3f}s)")
        if not ok and failed is None:
            failed = name
        tick = time.perf_counter()
    print(f"selftest finished in {time.perf_counter() - t0:.1f}s")
    if failed is not None:
        raise InvariantError(f"selftest failed: {failed}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, format_default="csv"):
    p.add_argument("--beta", required=True, help="base spec: golden | multinacci:n | int:k | poly:c0,..,cd | decimal")
    p.add_argument("--m", type=int, default=2, help="digit count")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=format_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="betagrowth",
                                 description="growth rate of beta-expansions and Bernoulli-convolution dimensions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="prefix count N_n(x)")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("tree", help="branching-tree nodes per depth: N_0(x), ..., N_depth(x)")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("kappa", help="universal growth exponent for beta below golden")
    _add_common(p)
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("bound", help="verify N_n >= 2^(kappa n - 1)")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--n-max", type=int, default=24)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("sums", help="distinct power sums and Garsia gaps")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(fn=cmd_sums)

    p = sub.add_parser("sparse", help="sparse-expansion checkpoints (golden)")
    _add_common(p)
    p.add_argument("--m-seq", required=True, help="comma-separated strictly increasing")
    p.set_defaults(fn=cmd_sparse)

    p = sub.add_parser("simulate", help="random K_beta expansion digits")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("automaton", help="dump the coding automaton as JSON")
    # an explicit --format is rejected: the document is always JSON
    _add_common(p, format_default=None)
    p.add_argument("--state-cap", type=int, default=netautomaton.DEFAULT_STATE_CAP)
    p.add_argument("--dot", default=None, help="also write a DOT digraph here")
    p.set_defaults(fn=cmd_automaton)

    p = sub.add_parser("gamma", help="growth exponent gamma")
    _add_common(p)
    p.add_argument("--method", choices=("mc", "series", "integer"), required=True)
    p.add_argument("--seed", type=int, default=None, help="--method mc or series only (default 0)")
    for flag, (route, param) in GAMMA_ROUTE_OPTIONS.items():
        p.add_argument(flag, dest=param, type=int, help=f"--method {route} only")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("table1", help="multinacci gamma/D table as CSV")
    p.add_argument("--n-range", default="2..10")
    p.add_argument("--k-exact", type=int, default=20)
    p.add_argument("--mc-budget", type=int, default=None, help="n = 2 only (default 20000)")
    p.add_argument("--seed", type=int, default=None, help="n = 2 only (default 0)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_table1, beta="multinacci", m=2)

    p = sub.add_parser("dims", help="local dimension slope at a point")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--levels", default="10..24")
    p.add_argument("--margin", type=int, default=bconv.DEFAULT_MARGIN)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("tau", help="L^q spectrum estimates")
    _add_common(p)
    p.add_argument("--q-list", default="-1,0,0.5,1,2,3")
    # argparse takes "-1,0,1,2" for an option name unless it reads as a number
    p._negative_number_matcher = re.compile(r"^-\.?\d[\d.,-]*$")
    p.add_argument("--levels", default="10..16")
    p.add_argument("--margin", type=int, default=8)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("selftest", help="fast invariant battery")
    p.set_defaults(fn=cmd_selftest)
    return ap


# parse_args fills a new Namespace on every call and no action keeps state,
# so one parser serves every call in a process (DECISIONS.md)
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # exact counts and fractions may pass the interpreter's 4,300-digit
    # int -> str limit; it is lifted while the command runs
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except BetaGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:  # an exhausted resource, as a cap is
        print("error: out of memory", file=sys.stderr)
        return CapExceededError.exit_code
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
