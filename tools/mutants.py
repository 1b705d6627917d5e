"""Check that the tests catch a committed list of bugs.

    python tools/mutants.py            # every mutant
    python tools/mutants.py 3 7        # mutants 3 and 7 (1-based)

Each mutant names a file under `src/betagrowth`, an exact piece of its text,
the text that replaces it, and the tests expected to catch it.  For every
mutant the tool copies `src/`, `tests/`, `pyproject.toml` and `README.md`
into a temporary directory, replaces the one occurrence of the old text in
the copy, and runs only the named tests there, with `-x` and a fixed
hypothesis seed, so the run is repeatable and no hypothesis database is
written into the repository.  The named tests are first run once on an
unchanged copy: they must pass there, or a failure under a mutant would
show nothing.

A mutant is caught when pytest exits 1 (a test failed).  The tool exits 1
when a mutant survives (exit 0), when its old text does not occur exactly
once (the code moved: move the mutant with it), or when pytest ends in any
other way (a collection error, a test id that no longer exists).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
HYPOTHESIS_SEED = "0"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/betagrowth
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("float_error 10 times too small", "numberfield.py",
           "return mag * ((self.degree + 4) * 4e-16)",
           "return mag * ((self.degree + 4) * 4e-17)",
           ("tests/test_numberfield.py::test_sign_rows_near_zero_rows_fall_back",)),
    Mutant("float_error zero", "numberfield.py",
           "return mag * ((self.degree + 4) * 4e-16)",
           "return mag * 0.0",
           ("tests/test_bconv.py::test_ball_mass_brackets_match_interval_mass",)),
    Mutant("rank_rows never falls back to the comparison sort", "numberfield.py",
           "for tag in set(tagged[1:][check[negative]].tolist()):",
           "for tag in set():",
           ("tests/test_netautomaton.py::test_layer_pass_misordered_presort",)),
    Mutant("_widened without the digit term", "expansions.py",
           "grown = (self.row[0] * (top + 1) << shift) + (self.sys.m - 1) * scale",
           "grown = self.row[0] * (top + 1) << shift",
           ("tests/test_lattice.py::test_limb_step_matches_python_ints",)),
    Mutant("counts never switch to Python ints", "expansions.py",
           "if counts.dtype != object and m ** (k + 1) > INT64_MAX:",
           "if counts.dtype == object and m ** (k + 1) > INT64_MAX:",
           ("tests/test_lattice.py::test_kernel_switches_counts_to_python_ints",)),
    Mutant("Lattice.step's int64 bound without the digit term", "expansions.py",
           "if big * self.growth + (m - 1) * scale > INT64_MAX:",
           "if big * self.growth > INT64_MAX:",
           ("tests/test_lattice.py::test_step_bound_counts_the_digit_term",)),
    Mutant("a restart shift of the wrong sign", "bconv.py",
           "shifts[gap] = outer - outer * sys.rho_powers[gap]",
           "shifts[gap] = outer * sys.rho_powers[gap] - outer",
           ("tests/test_bconv.py::test_ball_mass_brackets_match_derived_windows",)),
    Mutant("the lower bracket without its R lead^L shift", "bconv.py",
           "inside = lattice.inside(states[0], lattice.narrowed(window, k, sys.right_end))",
           "inside = lattice.inside(states[0], window)",
           ("tests/test_bconv.py::test_ball_mass_brackets_match_derived_windows",)),
    Mutant("a window narrowed over the old denominator", "expansions.py",
           "return ends * (lcm // den) + np.array([shift, [-c for c in shift]], dtype=object), lcm",
           "return ends + np.array([shift, [-c for c in shift]], dtype=object), lcm",
           ("tests/test_lattice.py::test_carried_window_matches_derived",)),
    Mutant("a carried window's digit term not scaled by lead^(k+1)", "expansions.py",
           "ends[0, 0] += (self.sys.m - 1) * self.lead ** (k + 1) * den",
           "ends[0, 0] += (self.sys.m - 1) * den",
           ("tests/test_lattice.py::test_carried_window_matches_derived",)),
    Mutant("> for >= in _at_least", "expansions.py",
           "at_least = rows[:, -1] >= top",
           "at_least = rows[:, -1] > top",
           ("tests/test_lattice.py::test_degree_one_sign_rows_match_sign_int_coeffs",)),
    Mutant("one column's packing negated in _distinct_rows", "expansions.py",
           "            packed += cols[i]\n            packed -= lows[i]\n",
           "            packed -= cols[i]\n            packed += lows[i]\n",
           ("tests/test_lattice.py::test_distinct_rows_order_is_lexsort",)),
    Mutant("the limb carry without its mask", "expansions.py",
           "        limbs[i] &= LIMB_MASK\n",
           "",
           ("tests/test_lattice.py::test_limb_step_matches_python_ints",
            "tests/test_lattice.py::test_least_gap_matches_python_ints")),
    Mutant("_staged_key's dense ranks counted from 1", "expansions.py",
           "ranks = new.cumsum() - 1",
           "ranks = new.cumsum()",
           ("tests/test_lattice.py::test_staged_key_packs_dense_ranks",)),
    Mutant("float_rows adding its terms right to left", "numberfield.py",
           "val, mag = terms[:, 0], mags[:, 0]\n        for i in range(1, self.degree):",
           "val, mag = terms[:, -1], mags[:, -1]\n        for i in range(self.degree - 2, -1, -1):",
           ("tests/test_numberfield.py::test_float_rows_match_row_major_pass_at",)),
    Mutant("the digit added to the last coefficient", "expansions.py",
           "self._digit_units[0, :, 0] = range(1, sys.m)",
           "self._digit_units[-1, :, 0] = range(1, sys.m)",
           ("tests/test_lattice.py::test_step_matches_row_major_oracle",)),
    Mutant("the children's product by the untransposed matrix", "expansions.py",
           "np.matmul(matrix.T, cols, out=block[:, 0])",
           "np.matmul(matrix, cols, out=block[:, 0])",
           ("tests/test_lattice.py::test_step_matches_row_major_oracle",)),
    Mutant("one column's offset dropped from the packing", "expansions.py",
           "            packed += cols[i]\n            packed -= lows[i]\n",
           "            packed += cols[i]\n",
           ("tests/test_lattice.py::test_packing_at_the_int64_edge",)),
    Mutant("a coin on integer bases", "expansions.py",
           "digit = fits[0] if len(fits) > 1 and not integer and not next(bits) else fits[-1]",
           "digit = fits[0] if len(fits) > 1 and not next(bits) else fits[-1]",
           ("tests/test_expansions.py::test_simulate_matches_k_beta_oracle",)),
    Mutant("segment starts resolved one segment off", "lyapunov.py",
           "starts[i + 1] = ends[after[starts[i]] // n_words, i, chains]",
           "starts[i + 1] = ends[after[starts[i]] // n_words, i - 1, chains]",
           ("tests/test_lyapunov.py::test_walk_in_segments_equals_one_lookup_per_word",
            "tests/test_lyapunov.py::test_mc_equals_per_chain_loop")),
    Mutant("a block's logs summed by np.sum before logscale is added", "lyapunov.py",
           "return np.add.accumulate(rows, axis=0)[-1]",
           "return rows[0] + np.sum(rows[1:], axis=0)",
           ("tests/test_lyapunov.py::test_mc_matches_per_chain_reference",)),
    Mutant("the series norms written over the live lower half", "lyapunov.py",
           "level = top[width:2 * width] if k < k_max else top",
           "level = top[width - 1:2 * width - 1] if k < k_max else top",
           ("tests/test_lyapunov.py::test_inner_sums_equal_int64_enumeration",)),
    Mutant("_staged_key packing a column whose span passes int64", "expansions.py",
           "    if max(spans) > INT64_MAX:\n        return None\n",
           "",
           ("tests/test_lattice.py::test_distinct_rows_order_is_lexsort",)),
    Mutant("garsia_report reading below as above", "expansions.py",
           "[(above, _below)] = field.compare_rows(diffs, (field.zero.num, 1))",
           "[(_below, above)] = field.compare_rows(diffs, (field.zero.num, 1))",
           ("tests/test_expansions.py::test_garsia_report_misordered_presort",)),
    Mutant("limbs from p = 2^30 on, past the documented rule", "expansions.py",
           "self.limbs = d == 1 and row[0] < LIMB_P_BOUND",
           "self.limbs = d == 1 and row[0] <= LIMB_P_BOUND",
           ("tests/test_lattice.py::test_limb_bound_edge_matches_brute_force",)),
    Mutant("< true on equal elements", "numberfield.py",
           "return (self - self._coerce(other)).sign() < 0",
           "return (self - self._coerce(other)).sign() <= 0",
           ("tests/test_numberfield.py::test_comparisons_of_equal_elements",)),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)


def _pytest(where: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code on the named tests of the copy in `where`, and
    its last line, with the copy's `src` first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(where / "src"), os.environ.get("PYTHONPATH")])))
    # the copy must be the package the tests import
    found = subprocess.run([sys.executable, "-c", "import betagrowth; print(betagrowth.__file__)"],
                           cwd=where, env=env, capture_output=True, text=True)
    if not found.stdout.startswith(str(where)):
        return -1, f"betagrowth imported from {found.stdout.strip() or found.stderr.strip()}"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests],
                         cwd=where, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines() or run.stderr.strip().splitlines() or [""]
    return run.returncode, lines[-1]


def _check(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[bool, str]:
    """(as expected, what happened) for one mutant, or for the unchanged
    code when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        if mutant is not None:
            path = where / "src" / "betagrowth" / mutant.module
            text = path.read_text(encoding="utf-8")
            found = text.count(mutant.old)
            if found != 1:
                return False, f"old text found {found} times in {mutant.module}"
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code, last = _pytest(where, tests)
    outcomes = {0: "passed", 1: "FAILED"} if mutant is None else {0: "SURVIVED", 1: "caught"}
    return code == (mutant is not None), f"{outcomes.get(code, f'pytest exit {code}')}: {last}"


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(i) - 1] for i in argv] if argv else list(MUTANTS)
    tests = tuple(dict.fromkeys(t for mutant in chosen for t in mutant.tests))
    failed = 0
    start = time.perf_counter()
    ok, what = _check(None, tests)
    print(f"unchanged code, {len(tests)} tests: {what}", flush=True)
    if not ok:
        return 1
    for i, mutant in enumerate(MUTANTS, start=1):
        if mutant not in chosen:
            continue
        began = time.perf_counter()
        ok, what = _check(mutant, mutant.tests)
        failed += not ok
        print(f"{i:2d} {mutant.name} ({time.perf_counter() - began:.1f} s) {what}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
