"""Output checks: each experiment's CSV against the oracles or against
properties the method must have.  Every check returns a list of failure
messages; an empty list means the output passed."""

from __future__ import annotations

import math

import numpy as np

import oracles
from workloads import Invocation, kernel_spec

# Two-sided Monte Carlo comparisons against exact values use this many
# standard errors, so a correct program fails one only about once in
# 10^6 comparisons.  One-sided checks reuse the program's own 3 sigma.
MC_SIGMAS = 5.0


def parse_csv(text: str) -> list[dict[str, str]]:
    header, *lines = text.rstrip("\n").split("\n")
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_manifest(inv: Invocation, manifest: dict) -> list[str]:
    errors = []
    if manifest.get("kind") != inv.kind or manifest.get("seed") != inv.config["seed"]:
        errors.append(f"{inv.name}: manifest does not echo kind and seed")
    failed = [v["check"] for v in manifest.get("verdicts", []) if not v["passed"]]
    if failed or not manifest.get("verdicts"):
        errors.append(f"{inv.name}: manifest verdicts failed: {failed}")
    return errors


def check_gamma(inv, rows, csvs):
    cfg = inv.config
    spec = kernel_spec(cfg["kernel"])
    expected = oracles.kernel_gammas(spec, cfg["p_max"])
    if [int(r["p"]) for r in rows] != list(range(cfg["p_max"] + 1)):
        return [f"{inv.name}: rows are not p = 0..{cfg['p_max']}"]
    # The program rounds an exact rational once, as float(Fraction) does.
    return [
        f"{inv.name}: gamma_{r['p']} = {r['gamma_p']}, closed form {float(g)!r}"
        for r, g in zip(rows, expected) if float(r["gamma_p"]) != float(g)
    ]


def check_reconstruct(inv, rows, csvs):
    cfg = inv.config
    spec = kernel_spec(cfg["kernel"])
    m, _ = oracles.prob0_fractions(spec)
    gammas = oracles.kernel_gammas(spec, max(m, 1))
    markov = spec["variant"] != "long_memory"
    errors = []
    if [int(r["N"]) for r in rows] != cfg["n_list"]:
        errors.append(f"{inv.name}: rows do not follow n_list")
    for r in rows:
        n, k, trials = int(r["N"]), int(r["K"]), int(r["trials"])
        freq, stderr, bound = float(r["freq"]), float(r["stderr"]), float(r["dp_bound"])
        where = f"{inv.name} N={n}"
        if k != cfg["k"] or trials != cfg["trials"]:
            errors.append(f"{where}: K or trials differ from the config")
        own = oracles.reset_chain_cdf(gammas, -n, k)
        if not _close(bound, own, 1e-9):
            errors.append(f"{where}: dp_bound {bound!r}, reset chain gives {own!r}")
        if freq > bound + 3.0 * stderr:
            errors.append(f"{where}: freq {freq} exceeds bound {bound} + 3 stderr")
        if markov:
            exact = oracles.mismatch_probability(spec, n, k)
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            if abs(freq - exact) > MC_SIGMAS * sigma + 1e-12:
                errors.append(f"{where}: freq {freq} vs exact {exact!r}")
            if exact > own + 1e-12:
                errors.append(f"{where}: exact {exact!r} exceeds the bound {own!r}")
    shortest = max(rows, key=lambda r: int(r["N"]))
    if not markov and float(shortest["freq"]) == 0.0:
        errors.append(f"{inv.name}: no mismatches on the shortest window")
    return errors


def _alphas(rows):
    return np.array([float(r["alpha"]) for r in rows])


def check_vershik(inv, rows, csvs):
    cfg = inv.config
    spec = kernel_spec(cfg["kernel"])
    alpha = _alphas(rows)
    errors = []
    if len(rows) != cfg["p_max"] + 1:
        errors.append(f"{inv.name}: expected {cfg['p_max'] + 1} rows")
    if cfg["mode"] == "exact":
        own = oracles.alpha0(spec, cfg["depth"])
        if not _close(alpha[0], own, 1e-12):
            errors.append(f"{inv.name}: alpha_0 {alpha[0]!r}, word law gives {own!r}")
        if np.any(alpha[1:] > alpha[:-1] * (1 + 1e-12) + 1e-15):
            errors.append(f"{inv.name}: alpha increases with p")
    else:
        exact = _alphas(parse_csv(csvs[inv.reference]))[: len(alpha)]
        stderr = np.array([float(r["stderr"]) for r in rows])
        bad = np.nonzero(np.abs(alpha - exact) > MC_SIGMAS * stderr + 1e-12)[0]
        if bad.size:
            errors.append(f"{inv.name}: monte-carlo alpha off the exact values at p={bad.tolist()}")
    return errors


def check_extend(inv, rows, csvs):
    (r,) = rows
    mc, stderr, exact = float(r["mc_estimate"]), float(r["stderr"]), float(r["exact_value"])
    if abs(mc - exact) <= 3.0 * stderr + 3.0 ** -inv.config["depth"]:
        return []
    return [f"{inv.name}: mc {mc} vs exact {exact} beyond 3 stderr + 3^-D"]


def check_stitch(inv, rows, csvs):
    cfg = inv.config
    m, _ = oracles.prob0_fractions(kernel_spec(cfg["kernel"]))
    length = max(m, cfg["depth"] + 1)
    errors = []
    if [float(r["delta_j"]) for r in rows] != cfg["deltas"]:
        errors.append(f"{inv.name}: blocks do not follow the tolerance schedule")
    m_j = 1
    for r in rows:
        where = f"{inv.name} block {r['j']}"
        if int(r["M_j"]) != m_j or int(r["K_j"]) != m_j - length:
            errors.append(f"{where}: M_j or K_j off the block recursion")
        m_j = int(r["M_j"]) + int(r["N_j"]) - 1
        if float(r["exceed_freq"]) > float(r["delta_j"]) + 3.0 * float(r["stderr"]):
            errors.append(f"{where}: exceed_freq {r['exceed_freq']} above delta_j")
    return errors


def check_audit(inv, rows, csvs):
    stats = [r["statistic"] for r in rows]
    if stats != ["cdf_sup_distance", "max_lag_correlation", "pair_chi2_pvalue"]:
        return [f"{inv.name}: unexpected audit statistics {stats}"]
    return []


CHECKS = {
    "gamma": check_gamma,
    "audit": check_audit,
    "reconstruct": check_reconstruct,
    "vershik": check_vershik,
    "extend": check_extend,
    "stitch": check_stitch,
}


def check_output(inv: Invocation, csv_text: str, manifest: dict,
                 csvs: dict[str, str]) -> list[str]:
    """All checks of one invocation's CSV and manifest; `csvs` holds the
    CSV of every invocation of the workload by name."""
    errors = check_manifest(inv, manifest)
    if inv.kind == "stitch":
        audit = [v for v in manifest.get("verdicts", []) if v["check"] == "stitched_u_audit"]
        if not (audit and audit[0]["passed"]):
            errors.append(f"{inv.name}: stitched_u_audit did not pass")
    return errors + CHECKS[inv.kind](inv, parse_csv(csv_text), csvs)


def check_path(inv: Invocation, kernel, sample) -> list[str]:
    """Checks of a path simulated for an audit (traced runs only): the
    program's codec and replay reproduce it, and its frequency of 0 is
    within MC_SIGMAS batch-means standard errors of the stationary P(0)."""
    from coupledchains.innovation import decode_xv
    from coupledchains.reconstruction import window_reconstruct

    errors = []
    x_dec, _ = decode_xv(sample.w, sample.f)
    if not np.array_equal(x_dec, sample.x):
        errors.append(f"{inv.name}: decode_xv(w, f) does not return the path")
    if not np.array_equal(window_reconstruct(kernel, sample.w, sample.init_ctx), sample.x):
        errors.append(f"{inv.name}: window_reconstruct from init_ctx differs from the path")
    batches = (sample.x[: sample.x.size // 100 * 100] == 0).reshape(100, -1).mean(axis=1)
    freq = float(batches.mean())
    stderr = float(batches.std(ddof=1) / 10.0)
    p0 = oracles.stationary_p0(kernel_spec(inv.config["kernel"]))
    if abs(freq - p0) > MC_SIGMAS * stderr:
        errors.append(f"{inv.name}: frequency of 0 is {freq}, stationary P(0) {p0}")
    return errors
