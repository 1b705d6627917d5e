"""Command-line front end.

Every subcommand resolves its configuration (including the seed) into the
report it emits, writes CSV or JSON with deterministic formatting, and maps
error classes to distinct exit codes: 2 bad input, 3 cap exceeded,
4 hypothesis violated, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
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
from .errors import BetaGrowthError, InvalidInputError, InvariantError
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


def elem_json(e: FieldElement) -> dict:
    return {"coeffs": [frac_str(c) for c in e.coeffs], "approx": float(e)}


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
    counts = expansions.tree_level_counts(x, args.depth, sys_, node_cap=args.node_cap)
    rows = [{"depth": d, "nodes": str(c)} for d, c in enumerate(counts)]
    _emit(args, rows, ["depth", "nodes"],
          _config(args, x=str(args.x), depth=args.depth, node_cap=args.node_cap))
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
    rows = expansions.garsia_report(sys_, args.n_max, cap=args.cap)
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
    rng = np.random.default_rng(args.seed)
    bits = rng.integers(0, 2, size=4 * args.n)
    digits = expansions.simulate_expansion(x, args.n, sys_, iter(int(b) for b in bits))
    # reconstruction error |x - sum digits beta^-k| <= tail
    approx = sum(d * float(sys_.rho) ** (k + 1) for k, d in enumerate(digits))
    rows = [{"digits": "".join(str(d) for d in digits),
             "reconstruction": repr(approx), "x_float": repr(float(sys_.element(x)))}]
    _emit(args, rows, ["digits", "reconstruction", "x_float"],
          _config(args, x=str(args.x), n=args.n))
    return 0


def cmd_automaton(args) -> int:
    sys_ = _system(args)
    auto = netautomaton.build_automaton(sys_, state_cap=args.state_cap)
    chain = lyapunov.parry_chain(auto)
    doc = {
        "config": _config(args, state_cap=args.state_cap),
        "size": auto.size,
        "states": [
            {
                "index": i,
                "length": elem_json(st.length),
                "offsets": [elem_json(o) for o in st.offsets],
                "v": st.v,
                "rank": st.rank,
                "essential": i in auto.essential,
            }
            for i, st in enumerate(auto.states)
        ],
        "adjacency": auto.adjacency(),
        "matrices": {
            f"{i}->{j}": [list(row) for row in T]
            for i in range(auto.size)
            for j, _lo, _hi, T in auto.children[i]
        },
        "essential": sorted(auto.essential),
        "parry_stationary": [repr(p) for p in chain.stationary],
    }
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    out = _resolve_out(args.out)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        with open(_resolve_out(args.dot), "w", encoding="utf-8") as fh:
            fh.write(netautomaton.automaton_to_dot(auto) + "\n")
    return 0


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
    if args.method == "integer":
        est = lyapunov.gamma_integer_case(sys_)
    elif args.method == "series":
        if not args.beta.startswith("multinacci:") and args.beta != "golden":
            raise InvalidInputError("series route applies to multinacci bases")
        if args.m != 2:
            raise InvalidInputError("series route requires m = 2")
        n = 2 if args.beta == "golden" else int(args.beta.split(":")[1])
        est = lyapunov.gamma_multinacci_series(n, seed=args.seed, **options)
    else:
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
    estimates = lyapunov.gamma_multinacci_table(
        n_values, k_exact=args.k_exact, mc_budget=args.mc_budget, seed=args.seed
    )
    rows = []
    for n, est in zip(n_values, estimates):
        sys_n = parse_beta(f"multinacci:{n}", 2)
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
    cfg = _config(args, n_range=args.n_range, k_exact=args.k_exact)
    cfg["m"] = 2
    _emit(args, rows, TABLE1_COLUMNS, cfg)
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
    ok = True
    for n in range(1, 6):
        for iv in netautomaton.net_intervals(golden, n):
            mid = (iv.a + iv.b) / 2
            word = netautomaton.coding_of_point(mid, n, auto)
            if netautomaton.count_via_matrices(auto, word) != iv.multiplicity:
                ok = False
    yield "matrix counts match covering multiplicity (n<=5)", ok
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


def cmd_selftest(args) -> int:
    t0 = time.time()
    failed = None
    for name, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok and failed is None:
            failed = name
    print(f"selftest finished in {time.time() - t0:.1f}s")
    if failed is not None:
        raise InvariantError(f"selftest failed: {failed}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, m_default=2):
    p.add_argument("--beta", required=True, help="base spec: golden | multinacci:n | int:k | poly:c0,..,cd | decimal")
    p.add_argument("--m", type=int, default=m_default, help="digit count")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="betagrowth",
                                 description="growth rate of beta-expansions and Bernoulli-convolution dimensions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="prefix count N_n(x)")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("tree", help="branching tree level counts")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--node-cap", type=int, default=expansions.DEFAULT_NODE_CAP)
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
    p.add_argument("--cap", type=int, default=expansions.DEFAULT_SUM_CAP)
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
    _add_common(p)
    p.add_argument("--state-cap", type=int, default=netautomaton.DEFAULT_STATE_CAP)
    p.add_argument("--dot", default=None, help="also write a DOT digraph here")
    p.set_defaults(fn=cmd_automaton)

    p = sub.add_parser("gamma", help="growth exponent gamma")
    _add_common(p)
    p.add_argument("--method", choices=("mc", "series", "integer"), required=True)
    p.add_argument("--seed", type=int, default=0)
    for flag, (route, param) in GAMMA_ROUTE_OPTIONS.items():
        p.add_argument(flag, dest=param, type=int, help=f"--method {route} only")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("table1", help="multinacci gamma/D table as CSV")
    p.add_argument("--n-range", default="2..10")
    p.add_argument("--k-exact", type=int, default=20)
    p.add_argument("--mc-budget", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BetaGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
