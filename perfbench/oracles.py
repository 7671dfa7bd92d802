"""Reference computations the benchmark checks the program's outputs
against.  None of them calls the program: each works from a kernel
spec (see workloads.kernel_spec) by its own method.

Contexts are integer codes with the most recent symbol at bit 0, as in
the program's CSVs and configs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

MAX_SOLVE_ORDER = 8  # dense stationary solve over 2^order contexts


def prob0_fractions(spec: dict) -> tuple[int, list[Fraction]]:
    """(memory m, exact P(0 | context) for every m-bit context code),
    with parameters read as the decimal numbers they are written as."""
    variant = spec["variant"]
    if variant == "iid":
        return 0, [Fraction(str(spec["p0"]))]
    if variant == "markov":
        order = int(spec["order"])
        table = [None] * (1 << order)
        for word, p in spec["table"].items():
            table[int(word, 2)] = Fraction(str(p))  # oldest symbol is the high bit
        return order, table
    if variant == "long_memory":
        c = Fraction(str(spec["c"]))
        weights = [Fraction(str(t)) for t in spec["weights"]]
        m = len(weights)
        return m, [
            c + sum(w for lag, w in enumerate(weights) if not (ctx >> lag) & 1)
            for ctx in range(1 << m)
        ]
    raise ValueError(f"no oracle for kernel variant {variant!r}")


# ---------------------------------------------------------------------------
# Memory-decay coefficients


def long_memory_gammas(c, weights, p_max: int) -> list[Fraction]:
    """Closed form for the additive kernel c + sum_p w_p 1(x_{-p} = 0):

        gamma_p = 1 - min(c / (c + T_p), (1 - c - W) / (1 - c - S_p))

    with S_p the weight at lags <= p, T_p the weight beyond and
    W = S_p + T_p; gamma_p = 0 for p >= m.  The first ratio is the worst
    case for symbol 0 (shared lags all 1), the second for symbol 1
    (shared lags all 0)."""
    c = Fraction(str(c))
    w = [Fraction(str(t)) for t in weights]
    total = sum(w, Fraction(0))
    out = []
    for p in range(p_max + 1):
        if p >= len(w):
            out.append(Fraction(0))
            continue
        s = sum(w[:p], Fraction(0))
        out.append(1 - min(c / (c + total - s), (1 - c - total) / (1 - c - s)))
    return out


def brute_gammas(m: int, prob0: list[Fraction], p_max: int) -> list[Fraction]:
    """gamma_p = 1 - min P(a | x) / P(a | y) over symbols a and all pairs
    of contexts x, y that agree on their last p symbols."""
    out = []
    for p in range(p_max + 1):
        low = (1 << p) - 1
        worst = Fraction(1)
        for x in range(1 << m):
            for y in range(1 << m):
                if (x ^ y) & low:
                    continue
                worst = min(worst, prob0[x] / prob0[y],
                            (1 - prob0[x]) / (1 - prob0[y]))
        out.append(1 - worst)
    return out


def kernel_gammas(spec: dict, p_max: int) -> list[Fraction]:
    if spec["variant"] == "long_memory":
        return long_memory_gammas(spec["c"], spec["weights"], p_max)
    m, prob0 = prob0_fractions(spec)
    return brute_gammas(m, prob0, p_max)


def reset_chain_cdf(gammas, n: int, k: int) -> float:
    """P(Z_n <= k) for the reset chain started at 0 that moves i -> i+1
    with probability 1 - gamma_i and i -> 0 with probability gamma_i
    (gamma_i = 0 beyond the list).  One step is a shift plus a dot."""
    g = np.zeros(n + 1)
    g[: min(len(gammas), n + 1)] = [float(x) for x in gammas[: n + 1]]
    probs = np.zeros(n + 1)
    probs[0] = 1.0
    for _ in range(n):
        new = np.empty_like(probs)
        new[1:] = probs[:-1] * (1.0 - g[:-1])
        new[0] = probs @ g
        probs = new
    return float(probs[: min(k, n) + 1].sum())


# ---------------------------------------------------------------------------
# Stationary laws


def stationary_law(m: int, prob0) -> np.ndarray:
    """Stationary law of the order-m context chain, by a dense linear
    solve of pi (P - I) = 0 with sum(pi) = 1."""
    if m > MAX_SOLVE_ORDER:
        raise ValueError(f"order {m} too large for a dense solve")
    size = 1 << m
    f = np.array([float(p) for p in prob0])
    trans = np.zeros((size, size))
    for ctx in range(size):
        nxt = (ctx << 1) & (size - 1)
        trans[ctx, nxt] += f[ctx]
        trans[ctx, (nxt | 1) & (size - 1)] += 1.0 - f[ctx]  # m = 0: one context
    system = np.vstack([(trans - np.eye(size)).T, np.ones(size)])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def stationary_p0(spec: dict) -> float:
    """Stationary P(X = 0).  For the additive long-memory kernel taking
    expectations of c + sum_p w_p 1(X_{-p} = 0) gives pi0 = c / (1 - W)."""
    if spec["variant"] == "long_memory":
        c = Fraction(str(spec["c"]))
        total = sum((Fraction(str(t)) for t in spec["weights"]), Fraction(0))
        return float(c / (1 - total))
    m, prob0 = prob0_fractions(spec)
    pi = stationary_law(m, prob0)
    return float(np.dot(pi, [float(p) for p in prob0]))


def word_law(m: int, prob0, length: int) -> np.ndarray:
    """Stationary law of `length` consecutive symbols by the product
    formula: the law of the first m symbols times one transition
    probability per further symbol."""
    f = np.array([float(p) for p in prob0])
    law = stationary_law(m, prob0)
    kmask = (1 << m) - 1
    for _ in range(max(length - m, 0)):
        codes = np.arange(law.size)
        p0 = f[codes & kmask]
        new = np.zeros(2 * law.size)
        new[codes << 1] = law * p0
        new[(codes << 1) | 1] = law * (1.0 - p0)
        law = new
    if length < m:
        law = np.bincount(np.arange(law.size) & ((1 << length) - 1),
                          weights=law, minlength=1 << length)
    return law


def alpha0(spec: dict, depth: int) -> float:
    """E|R_D(X) - R_D(Y)| for independent stationary pasts X, Y, where
    R_D = sum_{n=0..D} 3^-n x_{-n}."""
    m, prob0 = prob0_fractions(spec)
    law = word_law(m, prob0, depth + 1)
    codes = np.arange(law.size)
    r = sum(3.0 ** -n * ((codes >> n) & 1) for n in range(depth + 1))
    return float(law @ np.abs(r[:, None] - r[None, :]) @ law)


# ---------------------------------------------------------------------------
# Exact replay mismatch probability


def mismatch_probability(spec: dict, n_start: int, k: int) -> float:
    """Exact P(the replay from an all-zero prehistory disagrees with the
    truth on the last k+1 symbols of [n_start; 0]), by a DP over pairs of
    (true, replay) windows; the true chain starts from its stationary
    law and both threshold one shared uniform per step."""
    m, prob0 = prob0_fractions(spec)
    f = [float(p) for p in prob0]
    keep = max(k + 1, m)
    mask, kmask = (1 << keep) - 1, (1 << m) - 1
    states = {(ctx, 0): float(p) for ctx, p in enumerate(stationary_law(m, prob0))}
    for _ in range(-n_start + 1):
        new: dict[tuple[int, int], float] = {}
        for (ct, ch), prob in states.items():
            a, b = f[ct & kmask], f[ch & kmask]
            for xt, xh, p in ((0, 0, min(a, b)), (0, 1, max(a - b, 0.0)),
                              (1, 0, max(b - a, 0.0)), (1, 1, 1.0 - max(a, b))):
                if p > 0.0:
                    key = (((ct << 1) | xt) & mask, ((ch << 1) | xh) & mask)
                    new[key] = new.get(key, 0.0) + prob * p
        states = new
    window = (1 << (k + 1)) - 1
    return sum(p for (ct, ch), p in states.items() if (ct ^ ch) & window)
