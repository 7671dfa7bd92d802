"""Command-line harness: JSON experiment configs, deterministic seeding,
CSV + manifest emission.

One subcommand per experiment kind (gamma, audit, reconstruct, vershik,
extend, stitch); flags --config PATH, --seed N (overrides the config),
--out DIR.  Exit codes: 0 success, 1 verdict failure, 2 config error,
3 internal error (with a traceback).
The renewal regime that gamma reports comes from the kernel: its finite
memory m makes gamma_p = 0 for p >= m, so the regime is always
diverges-certified.  A gamma `tail` may say the same (`eventually-zero`)
or nothing (`unknown`); any other tail contradicts the kernel.
The environment variable COUPLEDCHAINS_MAX_THREADS caps numeric library
threads (reports are computed with deterministic reductions regardless).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if "COUPLEDCHAINS_MAX_THREADS" in os.environ:
        os.environ.setdefault(_var, os.environ["COUPLEDCHAINS_MAX_THREADS"])

from . import __version__
from .extension import generator_error_check, stitch_blocks
from .innovation import AUDIT_LEVEL, innovation_audit
from .kernels import (
    CapExceededError,
    IIDKernel,
    Kernel,
    LongMemoryKernel,
    MarkovKernel,
    builtin_kernels,
    gamma_profile,
)
from .reconstruction import disagreement_experiment, simulate_path
from .reports import emit_csv, emit_pretty
from .vershik import (
    CouplingEngine,
    GeneratorConfig,
    alpha_sequence,
    alpha_sequence_mc,
    alpha_sup_bound,
)
from .words import parse_word

# Every experiment parameter of each kind, with its default.  None marks
# a default worked out from the kernel (gamma's p_max) or the engine
# (extend's all-zero anchor).  A key outside its kind's table, or a value
# of another type than its default, is a configuration error.
PARAMS = {
    "gamma": {"p_max": None, "tail": {"kind": "unknown"}},
    "audit": {"steps": 100_000},
    "reconstruct": {"n_list": [-10], "k": 2, "trials": 10_000},
    "vershik": {"p_max": 8, "depth": 6, "mode": "exact", "trials": 100_000},
    "extend": {"n": -6, "trials": 100_000, "depth": 6, "anchor": None},
    "stitch": {"deltas": [0.2, 0.1, 0.05], "trials": 10_000, "depth": 6},
}
KINDS = tuple(PARAMS)
# Lower bounds of integer parameters, by name in every kind: a standard
# error needs two trials, and the audit's tests need 100 samples.
_MINIMUM = {"trials": 2, "k": 0, "p_max": 0, "steps": 100}
# Upper bounds, under the same rule and for each entry of a list: a
# window [N; 0] starts at or before time 0.
_MAXIMUM = {"n": 0, "n_list": 0}
# The type a parameter with a None default takes when given.
_NONE_DEFAULT_TYPES = {"p_max": int, "anchor": str}
_TYPE_NAMES = {int: "integer", float: "number", str: "string", dict: "object",
               list: "list"}
# The fields of each kernel variant and their types, under the same rule;
# the entries of a markov table and of a weights list are numbers.
KERNEL_FIELDS = {
    "builtin": {"name": str},
    "iid": {"p0": float},
    "markov": {"order": int, "table": dict},
    "long_memory": {"c": float, "weights": list},
}
# The gamma tail kinds, which have no fields.  Every other tail family
# is positive at every lag, against gamma_p = 0 for p >= m.
_TAIL_KINDS = {"eventually-zero": {}, "unknown": {}}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is(value, typ) -> bool:
    """Whether a JSON value has the Python type of a default: a float
    parameter also takes an integer, and no parameter takes a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if typ is float else typ)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    kernel: dict
    seed: int
    out: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        # The random streams read the seed as 64 bits (rng.stream_rng).
        if not _is(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ConfigError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}"
            )
        unknown = sorted(set(self.params) - set(PARAMS[self.kind]))
        if unknown:
            raise ConfigError(
                f"unknown {self.kind} parameter(s): {', '.join(unknown)}"
            )
        for key, value in self.params.items():
            default = PARAMS[self.kind][key]
            if default is None and value is None:
                continue
            if isinstance(default, list):
                item = type(default[0])
                ok = _is(value, list) and len(value) > 0
                ok = ok and all(_is(v, item) for v in value)
                expected = f"non-empty list of {_TYPE_NAMES[item]}s"
            else:
                typ = _NONE_DEFAULT_TYPES[key] if default is None else type(default)
                ok, expected = _is(value, typ), _TYPE_NAMES[typ]
            if not ok:
                raise ConfigError(
                    f"{self.kind} parameter {key!r} must be a JSON {expected}, "
                    f"got {value!r}"
                )
            entries = value if isinstance(value, list) else [value]
            if key in _MINIMUM and min(entries) < _MINIMUM[key]:
                raise ConfigError(
                    f"{self.kind} parameter {key!r} must be >= {_MINIMUM[key]}, "
                    f"got {value!r}"
                )
            if key in _MAXIMUM and max(entries) > _MAXIMUM[key]:
                raise ConfigError(
                    f"{self.kind} parameter {key!r} must be <= {_MAXIMUM[key]}, "
                    f"got {value!r}"
                )

    @property
    def settings(self) -> dict:
        """Every parameter of the kind: the config's values over the defaults."""
        return {**PARAMS[self.kind], **self.params}


def load_config(path: str, kind: str, seed_override=None, out_override=None):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind != kind:
        raise ConfigError(
            f"{path}: config kind {cfg_kind!r} does not match subcommand {kind!r}"
        )
    spec = raw.get("kernel")
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: missing 'kernel' object")
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError(f"{path}: missing 'seed'")
    out = out_override if out_override is not None else raw.get("out", ".")
    params = {
        k: v for k, v in raw.items() if k not in ("kind", "kernel", "seed", "out")
    }
    return ExperimentConfig(kind, spec, seed, str(out), params)


def _check_fields(spec: dict, tag: str, tables: dict, what: str) -> None:
    """Check a spec whose `tag` field names its entry in `tables`: every
    other field belongs to that entry and has its type, and the entries
    of an object or list field are numbers."""
    name = spec.get(tag)
    fields = tables.get(name) if _is(name, str) else None
    if fields is None:
        raise ConfigError(f"unknown {what} {tag} {name!r}")
    unknown = sorted(set(spec) - {tag, *fields})
    if unknown:
        raise ConfigError(f"unknown {name} {what} field(s): {', '.join(unknown)}")
    for key, typ in fields.items():
        value = spec.get(key)
        ok, expected = _is(value, typ), _TYPE_NAMES[typ]
        if typ in (dict, list):
            expected += " of numbers"
            if ok:
                entries = value.values() if typ is dict else value
                ok = all(_is(v, float) for v in entries)
        if not ok:
            raise ConfigError(
                f"{name} {what} field {key!r} must be a JSON {expected}, "
                f"got {value!r}"
            )


def build_kernel(spec: dict) -> Kernel:
    _check_fields(spec, "variant", KERNEL_FIELDS, "kernel")
    variant = spec["variant"]
    if variant == "builtin":
        kernels = builtin_kernels()
        if spec["name"] not in kernels:
            raise ConfigError(f"unknown builtin kernel {spec['name']!r}")
        return kernels[spec["name"]]
    try:
        if variant == "iid":
            return IIDKernel(spec["p0"])
        if variant == "markov":
            return MarkovKernel.from_table(spec["order"], spec["table"])
        return LongMemoryKernel(spec["c"], tuple(spec["weights"]))
    except ValueError as exc:
        raise ConfigError(f"invalid kernel spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment runners: each returns (header, rows, verdicts)


def _run_gamma(kernel, config):
    p = config.settings
    tail = {"kind": "unknown", **p["tail"]}
    if _is(tail["kind"], str) and tail["kind"] not in _TAIL_KINDS:
        raise ConfigError(
            f"tail {tail['kind']!r} contradicts the kernel: {kernel.label} "
            f"has gamma_p = 0 for p >= {kernel.memory}"
        )
    _check_fields(tail, "kind", _TAIL_KINDS, "tail")
    p_max = p["p_max"] if p["p_max"] is not None else max(kernel.memory, 4)
    prof = gamma_profile(kernel, p_max)
    header = ("p", "gamma_p", "certified")
    rows = [(i, g, "exact") for i, g in enumerate(prof.values)]
    # Finite memory m means gamma_p = 0 for p >= m: the partial products
    # of the renewal series end up constant and positive, so it diverges.
    verdicts = [("regime", "diverges-certified", True)]
    return header, rows, verdicts


def _run_audit(kernel, config):
    sample = simulate_path(kernel, config.settings["steps"], config.seed)
    report = innovation_audit(sample.w)
    header = ("statistic", "value", "threshold", "verdict")
    rows = [
        ("cdf_sup_distance", report.ks_stat, report.dkw_bound,
         "ok" if report.uniform_ok else "fail"),
        ("max_lag_correlation", report.max_lag_corr, report.corr_bound,
         "ok" if report.max_lag_corr <= report.corr_bound else "fail"),
        ("pair_chi2_pvalue", report.chi2_pvalue, AUDIT_LEVEL,
         "ok" if report.chi2_pvalue > AUDIT_LEVEL else "fail"),
    ]
    verdicts = [(name, v, v == "ok") for name, _, _, v in rows]
    return header, rows, verdicts


def _run_reconstruct(kernel, config):
    p = config.settings
    header = ("N", "K", "trials", "freq", "stderr", "dp_bound", "verdict")
    rows, verdicts = [], []
    for n in p["n_list"]:
        r = disagreement_experiment(kernel, n, p["k"], p["trials"], config.seed)
        rows.append((r.n_start, r.k_lags, r.trials, r.freq, r.stderr,
                     r.dp_bound, r.verdict))
        verdicts.append((f"N={n}", r.verdict, r.verdict == "within-bound"))
    return header, rows, verdicts


def _run_vershik(kernel, config):
    p = config.settings
    gen = GeneratorConfig(p["depth"])
    mode = p["mode"]
    if mode == "exact":
        seq = alpha_sequence(kernel, p["p_max"], gen)
    elif mode == "monte-carlo":
        seq = alpha_sequence_mc(kernel, p["p_max"], p["trials"], config.seed, gen)
    else:
        raise ConfigError(f"unknown vershik mode {mode!r}")
    header = ("p", "alpha", "mode", "stderr", "bound")
    rows = []
    for i, a in enumerate(seq.values):
        stderr = seq.stderr[i] if seq.stderr else ""
        bound = alpha_sup_bound(gen, i) if kernel.memory == 0 else ""
        rows.append((i, a, seq.mode, stderr, bound))
    decayed = seq.values[-1] <= seq.values[0] or len(seq.values) == 1
    verdicts = [("alpha_decay", "ok" if decayed else "flat", decayed)]
    return header, rows, verdicts


def _run_extend(kernel, config):
    p = config.settings
    n = p["n"]
    engine = CouplingEngine.build(kernel, -n + 1, GeneratorConfig(p["depth"]))
    anchor = (
        parse_word(p["anchor"]) if p["anchor"] is not None
        else tuple([0] * engine.length)
    )
    if len(anchor) > engine.length:
        raise ConfigError(
            f"extend anchor {p['anchor']!r} is longer than the table "
            f"length {engine.length}"
        )
    r = generator_error_check(engine, n, anchor, p["trials"], config.seed)
    header = ("N", "anchor", "mc_estimate", "stderr", "exact_value",
              "tolerance", "verdict")
    rows = [(r.n_start, r.anchor, r.mc_estimate, r.stderr, r.exact_value,
             r.tolerance, r.verdict)]
    verdicts = [("generator_gap", r.verdict, r.verdict == "match")]
    return header, rows, verdicts


def _run_stitch(kernel, config):
    p = config.settings
    deltas = tuple(float(d) for d in p["deltas"])
    gen = GeneratorConfig(p["depth"])
    report = stitch_blocks(kernel, deltas, p["trials"], config.seed, gen)
    header = ("j", "N_j", "M_j", "K_j", "delta_j", "alpha_used", "anchor",
              "exceed_freq", "stderr", "verdict")
    rows = [
        (r.j, r.n_j, r.m_j, r.k_j, r.delta_j, r.alpha_used, r.anchor,
         r.exceed_freq, r.stderr, r.verdict)
        for r in report.rows
    ]
    verdicts = [(f"block_{r.j}", r.verdict, r.verdict == "ok") for r in report.rows]
    verdicts.append(
        ("stitched_u_audit", "ok" if report.audit.passed else "fail",
         report.audit.passed)
    )
    return header, rows, verdicts


_RUNNERS = {
    "gamma": _run_gamma,
    "audit": _run_audit,
    "reconstruct": _run_reconstruct,
    "vershik": _run_vershik,
    "extend": _run_extend,
    "stitch": _run_stitch,
}


def run_experiment(config: ExperimentConfig) -> tuple[int, tuple, list]:
    """Run one experiment and write CSV + manifest; return the exit code
    together with the header and rows written."""
    kernel = build_kernel(config.kernel)
    header, rows, verdicts = _RUNNERS[config.kind](kernel, config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.kind}.csv"
    csv_path.write_bytes(emit_csv(header, rows).encode())
    manifest = {
        "kind": config.kind,
        "kernel": config.kernel,
        "seed": config.seed,
        "params": config.params,
        "version": __version__,
        "outputs": [csv_path.name],
        "verdicts": [
            {"check": name, "result": str(result), "passed": bool(ok)}
            for name, result, ok in verdicts
        ],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    failed = [name for name, _, ok in verdicts if not ok]
    if failed:
        print(f"verdict failure: {', '.join(failed)}", file=sys.stderr)
        return 1, header, rows
    return 0, header, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coupledchains",
        description="Coupling and filtration experiments for binary chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--pretty", action="store_true",
                        help="also print a human-readable table")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.command, args.seed, args.out)
        code, header, rows = run_experiment(config)
        if args.pretty:
            print(emit_pretty(header, rows), end="")
        return code
    except (ConfigError, CapExceededError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
