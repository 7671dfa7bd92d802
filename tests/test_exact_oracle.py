"""An exact oracle for every "exact" cell of the goldens: vershik `alpha`
in exact mode, extend `exact_value` and stitch `alpha_used`, recomputed
here in exact arithmetic from the configs beside them, importing nothing
from the package.

- The stationary law is solved by Gaussian elimination in Fractions on
  the 2^m contexts, then extended to L-bit words by products,
  pi(c << 1 | a) = pi(c) P(a | c).
- The metric tables run on every pair of L-bit words: T_0 = |R_D(x) -
  R_D(y)|, and each step couples the two conditional laws monotonely
  where c00 + c11 - c01 - c10 <= 0, antitonely elsewhere (at a tie both
  give the same value).
- alpha_p = sum pi(u) pi(v) T_p(u, v), and the anchor integral of v is
  sum_u pi(u) T_p(u, v).

The tables are held as integers: T_p scaled by 3^D d^p, d the common
denominator of the kernel's table, since R_D is a multiple of 3^-D and
every coupling entry one of 1/d; the law is held over its common
denominator.  So every sum is an exact integer sum, and the module runs
in about 1.5 s on a 2-vCPU host; Fractions throughout took about 6 s.
The worst relative errors of the cells are 2.7e-15 (the stitch's
alpha_used at depth 10) and 2.2e-15 (vershik).
"""

import csv
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
CONFIGS = TESTS.parent / "scripts" / "configs"
# The builtin kernel of the demo configs, P(0 | last symbol).
MARKOV1_DEMO = {"0": 0.7, "1": 0.4}
# Relative error allowed to a float cell: a few roundings of each table
# step and of the sums against the law.
REL_BOUND = 4e-15


def kernel_table(config: dict) -> tuple[int, list[Fraction]]:
    """The memory m and P(0 | c) by context code c, as Fractions of the
    decimal numbers the config writes."""
    kernel = config["kernel"]
    table = MARKOV1_DEMO if kernel.get("name") == "markov1-demo" else kernel["table"]
    m = len(next(iter(table)))
    probs = [Fraction(0)] * (1 << m)
    for word, p in table.items():
        probs[int(word, 2)] = Fraction(str(p))
    return m, probs


def context_law(probs: list[Fraction]) -> list[Fraction]:
    """The stationary law of the shift chain on the 2^m contexts, c ->
    (c << 1 | a) & (2^m - 1): the balance equations, the last replaced
    by sum pi = 1, solved by Gauss-Jordan elimination."""
    n = len(probs)
    rows = [[Fraction(0)] * n + [Fraction(0)] for _ in range(n)]
    for c, f in enumerate(probs):
        for a, p in ((0, f), (1, 1 - f)):
            rows[(c << 1 | a) & (n - 1)][c] += p
        rows[c][c] -= 1
    rows[-1] = [Fraction(1)] * (n + 1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                k = rows[r][col]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def word_law(probs: list[Fraction], length: int) -> list[Fraction]:
    """The stationary law of `length`-bit words, length >= m."""
    mask = len(probs) - 1
    pi = context_law(probs)
    while len(pi) < 1 << length:
        pi = [pi[c] * (probs[c & mask] if a == 0 else 1 - probs[c & mask])
              for c in range(len(pi)) for a in (0, 1)]
    return pi


class Exact:
    """The exact tables and law of one golden config."""

    def __init__(self, config: dict):
        m, probs = kernel_table(config)
        self.depth = config["depth"]
        self.length = L = max(m, self.depth + 1)
        pi = word_law(probs, L)
        self.pi_den = math.lcm(*(p.denominator for p in pi))
        self.pi = [p.numerator * (self.pi_den // p.denominator) for p in pi]
        self.d = math.lcm(*(p.denominator for p in probs))
        self.nums = [p.numerator * (self.d // p.denominator) for p in probs]
        # R_D(x) 3^D = sum_n 3^(D - n) x_{-n}, bit n of x its lag n.
        r = [sum(3 ** (self.depth - n) * (x >> n & 1) for n in range(self.depth + 1))
             for x in range(1 << L)]
        self.tables = [[abs(a - b) for a in r for b in r]]

    def table(self, p: int) -> list[int]:
        """T_p 3^D d^p over the pair codes (u << L) | v."""
        while len(self.tables) <= p:
            self.tables.append(self._step(self.tables[-1]))
        return self.tables[p]

    def _step(self, t: list[int]) -> list[int]:
        L, d, nums = self.length, self.d, self.nums
        mask, cmask = (1 << L) - 1, len(nums) - 1
        out = []
        for u in range(1 << L):
            f = nums[u & cmask]
            row0 = ((u << 1) & mask) << L
            row1 = row0 | 1 << L
            for v in range(1 << L):
                g = nums[v & cmask]
                s0 = (v << 1) & mask
                c00, c01, c10, c11 = t[row0 | s0], t[row0 | s0 | 1], t[row1 | s0], t[row1 | s0 | 1]
                if c00 + c11 - c01 - c10 <= 0:  # monotone
                    l00 = min(f, g)
                    l01, l10, l11 = f - l00, g - l00, d - f - g + l00
                else:  # antitone
                    l00, l11 = max(f + g - d, 0), max(d - f - g, 0)
                    l01, l10 = min(f, d - g), min(d - f, g)
                out.append(l00 * c00 + l01 * c01 + l10 * c10 + l11 * c11)
        return out

    def _scale(self, p: int, pi_factors: int) -> int:
        return 3 ** self.depth * self.d ** p * self.pi_den ** pi_factors

    def alpha(self, p: int) -> Fraction:
        t, pi, L = self.table(p), self.pi, self.length
        total = sum(pi[u] * sum(pi[v] * t[u << L | v] for v in range(1 << L))
                    for u in range(1 << L))
        return Fraction(total, self._scale(p, 2))

    def anchor_integral(self, p: int, anchor: str) -> Fraction:
        t, pi, L = self.table(p), self.pi, self.length
        v = int(anchor, 2)
        return Fraction(sum(pi[u] * t[u << L | v] for u in range(1 << L)),
                        self._scale(p, 1))


@lru_cache(maxsize=None)
def exact_for(config_path: Path) -> Exact:
    return Exact(json.loads(config_path.read_text()))


def rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def relative_error(cell: str, exact: Fraction) -> float:
    return float(abs(Fraction(float(cell)) - exact) / exact)


# (golden CSV, the config it was run from), by name
CASES = {
    "vershik": (GOLDEN / "vershik" / "vershik.csv", CONFIGS / "vershik.json"),
    "extend": (GOLDEN / "extend" / "extend.csv", CONFIGS / "extend.json"),
    "stitch": (GOLDEN / "stitch" / "stitch.csv", CONFIGS / "stitch.json"),
    **{f"antitone-{name}": (GOLDEN / "antitone" / name / f"{kind}.csv",
                            GOLDEN / "antitone" / name / "config.json")
       for name, kind in (("vershik-exact", "vershik"), ("extend", "extend"),
                          ("extend-anchor", "extend"))},
}


@pytest.mark.parametrize("csv_path, config_path", CASES.values(), ids=CASES.keys())
def test_exact_cells_match_rationals(csv_path, config_path):
    exact = exact_for(config_path)
    errors = []
    for row in rows(csv_path):
        if "alpha" in row:  # vershik, exact mode
            errors.append(relative_error(row["alpha"], exact.alpha(int(row["p"]))))
        elif "alpha_used" in row:  # stitch: alpha at the block's depth
            p = 1 - int(row["N_j"])
            errors.append(relative_error(row["alpha_used"], exact.alpha(p)))
        else:  # extend: the anchor integral over [N; 0]
            p = 1 - int(row["N"])
            errors.append(relative_error(row["exact_value"],
                                         exact.anchor_integral(p, row["anchor"])))
    assert errors and max(errors) <= REL_BOUND, errors


def test_oracle_law_is_stationary():
    # The oracle's own law: markov1-demo's pi(0) = 0.4 / (0.3 + 0.4), and
    # the word law pushed one step is itself.
    m, probs = kernel_table({"kernel": {"name": "markov1-demo"}})
    assert context_law(probs) == [Fraction(4, 7), Fraction(3, 7)]
    pi = word_law(probs, 3)
    pushed = [Fraction(0)] * 8
    for c, mass in enumerate(pi):
        for a in (0, 1):
            step = probs[c & 1] if a == 0 else 1 - probs[c & 1]
            pushed[(c << 1 | a) & 7] += mass * step
    assert pushed == pi and sum(pi) == 1
