import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coupledchains import harness, kernels
from coupledchains.extension import MAX_TOLERANCES
from coupledchains.harness import (
    ConfigError,
    ExperimentConfig,
    build_kernel,
    emit_csv,
    emit_pretty,
    load_config,
    main,
    run_experiment,
)
from coupledchains.innovation import _audit, innovation_audit
from coupledchains.kernels import CapExceededError
from coupledchains.reconstruction import simulate_path, window_reconstruct
from coupledchains.rng import _BLOCK
from coupledchains.vershik import AlphaSequence


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GAMMA_CFG = {
    "kind": "gamma",
    "kernel": {"variant": "builtin", "name": "markov1-demo"},
    "seed": 11,
    "p_max": 3,
    "tail": {"kind": "eventually-zero"},
}


# ---------------------------------------------------------------------------
# Config parsing and kernel building


def test_build_kernels():
    iid = build_kernel({"variant": "iid", "p0": 0.5})
    assert (iid.memory, iid.label) == (0, "iid(p0=0.5)")
    assert iid.prob0_table.tolist() == [0.5]
    mk = build_kernel(
        {"variant": "markov", "order": 1, "table": {"0": 0.7, "1": 0.4}}
    )
    assert (mk.memory, mk.label) == (1, "markov(order=1)")
    assert mk.prob0_table.tolist() == [0.7, 0.4]
    lm = build_kernel({"variant": "long_memory", "c": 0.3, "weights": [0.2, 0.1]})
    assert (lm.memory, lm.label) == (2, "long_memory(c=0.3, depth=2)")
    assert lm.prob0_table.tolist() == [0.6, 0.4, 0.5, 0.3]


def test_build_kernel_rejects_unknown():
    with pytest.raises(ConfigError):
        build_kernel({"variant": "nope"})
    with pytest.raises(ConfigError):
        build_kernel({"variant": "iid"})  # missing p0
    with pytest.raises(ConfigError):
        build_kernel({"variant": "long_memory", "c": 0.3, "weights": [0.2, None]})


def test_load_config(tmp_path):
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    cfg = load_config(path, "gamma")
    assert cfg.kind == "gamma" and cfg.seed == 11
    assert cfg.params["p_max"] == 3
    # Seed override wins.
    assert load_config(path, "gamma", seed_override=99).seed == 99
    # Kind mismatch is a config error.
    with pytest.raises(ConfigError):
        load_config(path, "stitch")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path), "gamma")


def test_experiment_config_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig("unknown-kind", {}, 1)
    with pytest.raises(ConfigError):
        ExperimentConfig("gamma", {}, -1)
    for seed in (7.5, True):
        with pytest.raises(ConfigError):
            ExperimentConfig("gamma", {}, seed)
    # The random streams read 64 bits of the seed: a larger seed would
    # give the same outputs as a smaller one.
    for seed in (2**64, 2**64 + 7):
        with pytest.raises(ConfigError, match=r"seed must be .* \[0, 2\^64\)"):
            ExperimentConfig("gamma", {}, seed)
    ExperimentConfig("gamma", {}, 2**64 - 1)
    # The audit's count has its bound checked like every other count.
    for steps in (-5, 50):
        with pytest.raises(ConfigError, match="'steps' must be >= 100"):
            ExperimentConfig("audit", {}, 1, params={"steps": steps})
    ExperimentConfig("audit", {}, 1, params={"steps": 100})


# ---------------------------------------------------------------------------
# Report emission


def test_emit_csv_format():
    text = emit_csv(("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.33333333333333331"  # 17 significant digits
    assert text.endswith("\n") and "\r" not in text


def test_emit_csv_empty():
    assert emit_csv(("a", "b"), []) == "a,b\n"


def test_emit_pretty_aligns():
    text = emit_pretty(("col", "x"), [(1, 2)])
    assert "col" in text and "---" in text


# ---------------------------------------------------------------------------
# End-to-end runs


# The depth-12 kernel of the benchmark's long-memory audit.
LONG_MEMORY_12 = {
    "variant": "long_memory",
    "c": 0.3,
    "weights": [0.1, 0.08, 0.06, 0.05, 0.04, 0.03,
                0.02, 0.02, 0.01, 0.01, 0.01, 0.01],
}


def test_audit_runner_memory_holds_its_path(tmp_path):
    # The audit reads the innovations as the path is simulated, one block
    # at a time, so the run holds block-sized buffers, the audit's
    # histograms and the kernel's tables, whatever the number of steps; a
    # fresh kernel object solves its stationary law inside the trace too.
    # A short run first imports what the package loads on first use
    # (numpy.random), which is no part of the run's own memory.  It peaks
    # at 2.88 MiB at 10^6 steps and at 4 * 10^6; with the audit counting
    # whole windows by bincount, at 3.63 MiB.
    short = ExperimentConfig("audit", LONG_MEMORY_12, 7, str(tmp_path), {"steps": 1000})
    assert run_experiment(short)[0] == 0
    for steps in (10**6, 4 * 10**6):
        cfg = ExperimentConfig("audit", LONG_MEMORY_12, 7, str(tmp_path),
                               {"steps": steps})
        tracemalloc.start()
        try:
            assert run_experiment(cfg)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (steps, peak)


def test_audit_runner_sample_reads_whole_as_audited(tmp_path, monkeypatch):
    # A traced benchmark run wraps harness.simulate_path and checks the
    # sample it returns, read whole, once the run is over: the runner
    # calls it once, and that sample audits as the runner's streamed
    # report and replays from its start context to its own symbols.
    samples, reports = [], []

    def simulate(*args):
        samples.append(simulate_path(*args))
        return samples[-1]

    def audit(*args):
        reports.append(_audit(*args))
        return reports[-1]

    monkeypatch.setattr(harness, "simulate_path", simulate)
    monkeypatch.setattr(harness, "_audit", audit)
    cfg = ExperimentConfig("audit", LONG_MEMORY_12, 7, str(tmp_path),
                           {"steps": 3 * _BLOCK + 5})
    assert run_experiment(cfg)[0] == 0
    (sample,), (report,) = samples, reports
    assert repr(innovation_audit(sample.w)) == repr(report)
    replay = window_reconstruct(sample.kernel, sample.w, sample.init_ctx)
    assert np.array_equal(replay, sample.x)


def test_gamma_run_writes_outputs(tmp_path):
    cfg = ExperimentConfig(
        "gamma", GAMMA_CFG["kernel"], 11, str(tmp_path),
        {"p_max": 3, "tail": {"kind": "eventually-zero"}},
    )
    assert run_experiment(cfg)[0] == 0
    csv = (tmp_path / "gamma.csv").read_text()
    assert csv.splitlines()[0] == "p,gamma_p,certified"
    assert csv.splitlines()[1] == "0,0.5,exact"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "gamma"
    assert all(v["passed"] for v in manifest["verdicts"])


def test_cli_contradicting_tail_exits_2(tmp_path, capsys):
    # Every kernel has finite memory m, so gamma_p = 0 for p >= m; a tail
    # family that stays positive at every lag is a configuration error.
    tails = [
        {"kind": "one-minus-geometric", "amp": 0.5, "ratio": 0.5},
        {"kind": "rational-decay", "a": 0.9, "b": 2.0},
    ]
    for i, tail in enumerate(tails):
        path = write_config(tmp_path, f"t{i}.json", {**GAMMA_CFG, "tail": tail})
        out = tmp_path / f"out{i}"
        assert main(["gamma", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert repr(tail["kind"]) in err
        assert "gamma_p = 0 for p >= 1" in err


def test_cli_gamma_regime_comes_from_kernel(tmp_path):
    cfg = {k: v for k, v in GAMMA_CFG.items() if k != "tail"}
    path = write_config(tmp_path, "g.json", cfg)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == [
        {"check": "regime", "passed": True, "result": "diverges-certified"}
    ]


def test_demo_and_benchmark_configs_load(tmp_path, monkeypatch):
    # Every config the demo scripts, the scaled configs and the benchmark
    # workloads send must parse and build its kernel; gamma configs also
    # pass the tail check.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    configs = [json.loads(p.read_text())
               for p in sorted((root / "scripts" / "configs").rglob("*.json"))]
    for build in workloads.WORKLOADS.values():
        configs += [inv.config for inv in build(1)]
    assert {cfg["kind"] for cfg in configs} == set(harness.KINDS)
    for i, cfg in enumerate(configs):
        path = write_config(tmp_path, f"c{i}.json", cfg)
        out = str(tmp_path / f"out{i}")
        config = load_config(path, cfg["kind"], out_override=out)
        build_kernel(config.kernel)
        if config.kind == "gamma":
            assert run_experiment(config)[0] == 0


def load_bench_scaled():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_scaled", root / "scripts" / "bench_scaled.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_scaled_bench_launcher_reports_exit_and_peak():
    # scripts/bench_scaled.py reads each run's exit code and its own peak
    # RSS through a launcher: a child that holds 64 MB and exits 3.
    bench = load_bench_scaled()
    child = "import sys; held = b'x' * (64 << 20); sys.exit(3)"
    row = bench.launch([sys.executable, "-c", child], dict(os.environ))
    assert row["exit_code"] == 3
    assert 64 <= row["peak_rss_mb"] < 200 and row["wall_s"] > 0


def test_scaled_bench_compares_medians():
    # Compared with a base tree, a row reads the medians of each tree's
    # runs and their ratios, and keeps the first nonzero exit code.
    bench = load_bench_scaled()
    runs = [{"exit_code": 0, "wall_s": w, "peak_rss_mb": m}
            for w, m in ((3.0, 40.0), (1.0, 44.0), (2.0, 42.0))]
    ours = bench.summarize(runs)
    assert ours == {"exit_code": 0, "wall_s": 2.0, "peak_rss_mb": 42.0}
    failed = runs + [{"exit_code": 3, "wall_s": 0.1, "peak_rss_mb": 9.0},
                     {"exit_code": 1, "wall_s": 0.1, "peak_rss_mb": 9.0}]
    assert bench.summarize(failed)["exit_code"] == 3
    row = bench.compare(ours, {"exit_code": 0, "wall_s": 4.0, "peak_rss_mb": 84.0})
    assert row["wall_ratio"] == 0.5 and row["rss_ratio"] == 0.5
    assert row["base"]["wall_s"] == 4.0 and row["wall_s"] == 2.0


def test_cli_round_trip(tmp_path):
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 0
    assert (out / "gamma.csv").exists()


def test_cli_determinism(tmp_path):
    cfg = {
        "kind": "reconstruct",
        "kernel": {"variant": "builtin", "name": "markov1-demo"},
        "seed": 5,
        "n_list": [-8],
        "k": 2,
        "trials": 2000,
    }
    path = write_config(tmp_path, "r.json", cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["reconstruct", "--config", path, "--out", str(out)]) == 0
        outs.append((out / "reconstruct.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_config_error_no_partial_output(tmp_path):
    path = write_config(
        tmp_path, "bad.json",
        {"kind": "gamma", "kernel": {"variant": "nope"}, "seed": 1},
    )
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_csv_headers(tmp_path):
    cases = {
        "vershik": ({"p_max": 2, "depth": 4}, "p,alpha,mode,stderr,bound"),
        "stitch": (
            {"deltas": [0.2, 0.1], "trials": 500, "depth": 5},
            "j,N_j,M_j,K_j,delta_j,alpha_used,anchor,exceed_freq,stderr,verdict",
        ),
        "extend": (
            {"n": -4, "trials": 2000, "depth": 4},
            "N,anchor,mc_estimate,stderr,exact_value,tolerance,verdict",
        ),
    }
    for kind, (params, header) in cases.items():
        cfg = {
            "kind": kind,
            "kernel": {"variant": "builtin", "name": "markov1-demo"},
            "seed": 9,
            **params,
        }
        path = write_config(tmp_path, f"{kind}.json", cfg)
        out = tmp_path / f"out_{kind}"
        assert main([kind, "--config", path, "--out", str(out)]) == 0
        assert (out / f"{kind}.csv").read_text().splitlines()[0] == header


def test_cli_rejects_unknown_parameter(tmp_path, monkeypatch):
    cfg = {
        "kind": "reconstruct",
        "kernel": {"variant": "builtin", "name": "markov1-demo"},
        "seed": 5,
        "trails": 50,
    }
    path = write_config(tmp_path, "typo.json", cfg)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError):
        ExperimentConfig("reconstruct", cfg["kernel"], 5, params={"trails": 50})
    # Known keys with malformed values are configuration errors too.
    malformed = [
        ("gamma", {"tail": "eventually-zero"}),
        ("gamma", {"tail": {"kind": "rational-decay"}}),
        ("reconstruct", {"n_list": -5}),
        # Integer parameters take no fractional numbers, and list
        # parameters are never empty.
        ("reconstruct", {"n_list": [-8.7]}),
        ("reconstruct", {"k": 2.9}),
        ("reconstruct", {"trials": 1500.5}),
        ("gamma", {"p_max": 3.5}),
        ("stitch", {"deltas": []}),
        ("reconstruct", {"n_list": []}),
        # An extend anchor is a word of at most the table length L = 5.
        ("extend", {"depth": 4, "anchor": "1111111111"}),
        # Kernel fields obey the same types: a markov order is an
        # integer, and a spec holds only its variant's fields.
        ("gamma", {"kernel": {"variant": "markov", "order": 1.9,
                              "table": {"0": 0.7, "1": 0.4}}}),
        ("gamma", {"kernel": {"variant": "markov", "order": True,
                              "table": {"0": 0.7, "1": 0.4}}}),
        ("gamma", {"kernel": {"variant": "markov", "order": 1,
                              "table": {"0": "0.7", "1": 0.4}}}),
        ("gamma", {"kernel": {"variant": "iid", "p0": 0.5, "order": 1}}),
        ("gamma", {"kernel": {"variant": ["iid"], "p0": 0.5}}),
        ("gamma", {"kernel": {"variant": "markov", "order": 1,
                              "table": [0.7, 0.4]}}),
        ("gamma", {"kernel": {"variant": "long_memory", "c": 0.3,
                              "weights": 0.2}}),
        # A tail family other than eventually-zero or unknown contradicts
        # every kernel, and those two kinds have no fields.
        ("gamma", {"tail": {"kind": "rational-decay", "a": "1.5", "b": "3"}}),
        ("gamma", {"tail": {"kind": "rational-decay", "a": True, "b": 3}}),
        ("gamma", {"tail": {"kind": "one-minus-geometric", "amp": 0.5,
                            "ratio": "0.5"}}),
        ("gamma", {"tail": {"kind": "eventually-zero", "a": 1.5}}),
        ("gamma", {"tail": {"kind": ["unknown"]}}),
        # Counts below their lower bound: a standard error needs two
        # trials, and lag counts and depths are nonnegative.
        ("reconstruct", {"trials": 0}),
        ("stitch", {"trials": 0}),
        ("vershik", {"p_max": -1}),
        ("reconstruct", {"k": -1}),
        ("extend", {"trials": 0}),
        ("extend", {"trials": 1}),
        ("vershik", {"mode": "monte-carlo", "trials": 0}),
        ("vershik", {"mode": "monte-carlo", "trials": 1}),
        # Window starts after time 0: [1; 0] is empty, and [3; 0] would
        # have a negative number of steps.
        ("extend", {"n": 1}),
        ("extend", {"n": 3}),
        ("reconstruct", {"n_list": [1]}),
        ("reconstruct", {"n_list": [-5, 2]}),
        # The audit needs 100 samples, and a seed fits in 64 bits.
        ("audit", {"steps": -5}),
        ("audit", {"steps": 50}),
        ("reconstruct", {"seed": 2**64 + 7}),
        # Numbers are finite: JSON's Infinity and NaN are no probability,
        # and a tolerance of Infinity would make a verdict that cannot fail.
        ("gamma", {"kernel": {"variant": "long_memory", "c": float("inf"),
                              "weights": [0.1]}}),
        ("gamma", {"kernel": {"variant": "long_memory", "c": 0.3,
                              "weights": [float("inf")]}}),
        ("stitch", {"deltas": [float("inf")], "trials": 50, "depth": 4}),
        ("stitch", {"deltas": [0.2, float("nan")], "trials": 50, "depth": 4}),
        ("vershik", {"mode": "exhaustive"}),
    ]
    for i, (kind, params) in enumerate(malformed):
        path = write_config(
            tmp_path, f"bad{i}.json",
            {"kind": kind, "kernel": cfg["kernel"], "seed": 5, **params},
        )
        out = tmp_path / f"out{i}"
        assert main([kind, "--config", path, "--out", str(out)]) == 2, params
        assert not out.exists()
    # An `out` that is not a string is an error, even under --out, and
    # nothing is written where it points.
    monkeypatch.chdir(tmp_path)
    valid = {"kind": "reconstruct", "kernel": cfg["kernel"], "seed": 5,
             "n_list": [-2], "trials": 2}
    for i, out in enumerate([None, ["x"]]):
        path = write_config(tmp_path, f"out{i}.json", {**valid, "out": out})
        for flags in ([], ["--out", str(tmp_path / f"given{i}")]):
            before = set(tmp_path.iterdir())
            assert main(["reconstruct", "--config", path, *flags]) == 2, out
            assert set(tmp_path.iterdir()) == before
    # --seed goes through the same check.
    path = write_config(
        tmp_path, "seeded.json",
        {"kind": "reconstruct", "kernel": cfg["kernel"], "seed": 5},
    )
    out = tmp_path / "out-seed"
    assert main(["reconstruct", "--config", path, "--seed", str(2**64 + 7),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_window_start_bound_names_parameter():
    kernel = {"variant": "builtin", "name": "markov1-demo"}
    with pytest.raises(ConfigError, match="'n' must be <= 0"):
        ExperimentConfig("extend", kernel, 5, params={"n": 1})
    with pytest.raises(ConfigError, match="'n_list' must be <= 0"):
        ExperimentConfig("reconstruct", kernel, 5, params={"n_list": [-3, 1]})
    # Time 0 itself is a window of one step.
    ExperimentConfig("extend", kernel, 5, params={"n": 0})
    ExperimentConfig("reconstruct", kernel, 5, params={"n_list": [0, -4]})


@pytest.mark.parametrize("kind, params, named", [
    ("extend", {"n": -2, "trials": 50, "depth": 2, "anchor": "0a1"},
     "field 'anchor': a word is a string of 0s and 1s, not '0a1'"),
    ("gamma", {"kernel": {"variant": "markov", "order": 1,
                          "table": {"x": 0.7, "1": 0.4}}},
     "a word is a string of 0s and 1s, not 'x'"),
])
def test_cli_bad_word_names_it(tmp_path, capsys, kind, params, named):
    # A word with a symbol other than 0 or 1 is a config error that
    # quotes the word, not Python's text for int().
    cfg = {"kind": kind, "kernel": {"variant": "builtin", "name": "markov1-demo"},
           "seed": 3, **params}
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err and "invalid literal" not in err


@pytest.mark.parametrize("order, table, message", [
    (1, {"01": 0.7, "1": 0.4}, "markov table key '01' has 2 symbols, not the order 1"),
    (1, {"x": 0.7, "1": 0.4},
     "markov table key 'x': a word is a string of 0s and 1s, not 'x'"),
    (2, {"00": 0.7, "11": 0.4, "10": 0.2},
     "markov table of order 2 misses the context '01'"),
])
def test_cli_bad_markov_table_names_key(tmp_path, capsys, order, table, message):
    # A bad key is quoted as written, with the order; a missing context
    # is named oldest symbol first.
    cfg = {"kind": "gamma", "seed": 3,
           "kernel": {"variant": "markov", "order": order, "table": table}}
    path = write_config(tmp_path, "m.json", cfg)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"invalid kernel spec: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("deltas", [[0.2, -0.1], [0.0], [0.3, 0.2, 0.0]])
def test_cli_stitch_nonpositive_tolerance_exits_2(tmp_path, capsys, deltas):
    # A tolerance <= 0 is named as such, not blamed on the depth.
    cfg = {"kind": "stitch", "kernel": {"variant": "builtin", "name": "markov1-demo"},
           "seed": 1, "deltas": deltas, "trials": 50, "depth": 4}
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert main(["stitch", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    j = len(deltas) - 1
    assert f"tolerance delta_{j} = {float(deltas[j])!r} must be > 0" in err
    assert "depth" not in err


def test_cli_stitch_depth_cap_exits_2(tmp_path, capsys):
    # A chain this persistent keeps alpha_p above the block thresholds
    # out to the planner's depth cap: a cap, reported as exit 2.
    cfg = {
        "kind": "stitch",
        "kernel": {"variant": "markov", "order": 1,
                   "table": {"0": 0.995, "1": 0.005}},
        "seed": 1,
        "deltas": [0.2, 0.1],
        "depth": 6,
    }
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert main(["stitch", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert "_MAX_BLOCK_DEPTH" in capsys.readouterr().err


def test_cli_stitch_too_few_innovations_exits_2(tmp_path, capsys):
    # One block of depth 1 is 2 steps wide, so 2 trials stitch 4
    # innovations, fewer than the audit reads: a config error that names
    # the trials and the width, before any trial is run.
    cfg = {
        "kind": "stitch",
        "kernel": {"variant": "builtin", "name": "markov1-demo"},
        "seed": 1,
        "deltas": [0.5],
        "trials": 2,
        "depth": 1,
    }
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert main(["stitch", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "trials x width = 2 x 2 innovations" in err and "raise trials" in err


@pytest.mark.parametrize("kind, counts", [
    ("audit", {"steps": 10**15}),
    ("stitch", {"deltas": [0.2, 0.1], "trials": 10**15}),
])
def test_cli_count_too_large_to_allocate_exits_2(tmp_path, capsys, kind, counts):
    # A count of 10^15 is above its bound, so the config is rejected at
    # load, before any work.
    cfg = {"kind": kind, "kernel": {"variant": "builtin", "name": "markov1-demo"},
           "seed": 1, **counts}
    path = write_config(tmp_path, "big.json", cfg)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    bound = harness.MAX_STEPS if kind == "audit" else harness.MAX_TRIALS
    assert f"must be <= {bound}, got {10**15}" in capsys.readouterr().err


# Every count that sizes a loop or an array, with its bound: an upper
# bound on counts, a lower one on window starts.
COUNT_BOUNDS = [
    ("gamma", "p_max", {}, harness.MAX_P),
    ("audit", "steps", {}, harness.MAX_STEPS),
    ("reconstruct", "trials", {}, harness.MAX_TRIALS),
    ("reconstruct", "n_list", {}, harness.MIN_N),
    ("vershik", "p_max", {}, harness.MAX_P),
    ("vershik", "trials", {"mode": "monte-carlo"}, harness.MAX_TRIALS),
    ("extend", "n", {}, harness.MIN_N),
    ("extend", "trials", {}, harness.MAX_TRIALS),
    ("stitch", "trials", {}, harness.MAX_TRIALS),
]


@pytest.mark.parametrize("kind, key, extra, bound", COUNT_BOUNDS)
def test_cli_count_past_its_bound_exits_2(tmp_path, capsys, kind, key, extra,
                                          bound):
    # reconstruct, extend and monte-carlo vershik stream their trials, so
    # no allocation would stop an endless run: the config is rejected
    # when it loads, before any work starts.
    past, rule = (bound + 1, "<=") if bound > 0 else (bound - 1, ">=")

    def config(value):
        value = [-5, value] if key == "n_list" else value
        cfg = {"kind": kind, "seed": 1, **extra, key: value,
               "kernel": {"variant": "builtin", "name": "markov1-demo"}}
        return write_config(tmp_path, f"{value}.json", cfg)

    with pytest.raises(ConfigError, match=f"'{key}' must be {rule} {bound}"):
        load_config(config(past), kind)
    out = tmp_path / "out"
    assert main([kind, "--config", config(past), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"'{key}' must be {rule} {bound}, got" in capsys.readouterr().err
    load_config(config(bound), kind)  # the bound itself loads


def test_cli_stitch_schedule_past_its_bound_exits_2(tmp_path, capsys):
    # Each tolerance adds a block of the stitch and a replay lane, so the
    # schedule's length sizes work as a count does: one past the bound
    # exits 2 and writes nothing, and a schedule at the bound runs.
    def run(n):
        cfg = {"kind": "stitch", "seed": 1, "trials": 50, "depth": 6,
               "deltas": [0.4 - 0.02 * j for j in range(n)],
               "kernel": {"variant": "builtin", "name": "markov1-demo"}}
        out = tmp_path / f"out{n}"
        code = main(["stitch", "--config", write_config(tmp_path, f"{n}.json", cfg),
                     "--out", str(out)])
        return code, out

    code, out = run(MAX_TOLERANCES + 1)
    assert code == 2 and not out.exists()
    assert (f"holds {MAX_TOLERANCES + 1} tolerances, more than MAX_TOLERANCES"
            in capsys.readouterr().err)
    code, out = run(MAX_TOLERANCES)
    assert code in (0, 1)
    assert len((out / "stitch.csv").read_text().splitlines()) == MAX_TOLERANCES + 1


def test_cli_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    # A count within its bound may still be too large to allocate: a
    # MemoryError is a configuration error, and nothing is written.
    def too_large(kernel, config):
        raise MemoryError("Unable to allocate 7.28 PiB for an array")

    monkeypatch.setitem(harness._RUNNERS, "gamma", too_large)
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: Unable to allocate")


def test_cli_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(kernel, config):
        raise RuntimeError("internal fault")

    monkeypatch.setitem(harness._RUNNERS, "gamma", broken)
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    assert "RuntimeError: internal fault" in capsys.readouterr().err


def test_stationary_budget_is_a_cap(tmp_path, monkeypatch):
    # A strongly persistent chain needs ~10^7 power-iteration sweeps;
    # running out of the sweep budget is a cap, reported as exit 2.
    monkeypatch.setattr(kernels, "_STATIONARY_MAX_ITER", 1000)
    sticky = {"variant": "markov", "order": 1,
              "table": {"0": 0.999998, "1": 0.000001}}
    with pytest.raises(CapExceededError, match="1000 power-iteration sweeps"):
        kernels.stationary_ctx_vector(build_kernel(sticky), 1)
    path = write_config(
        tmp_path, "a.json", {"kind": "audit", "kernel": sticky, "seed": 1}
    )
    out = tmp_path / "out"
    assert main(["audit", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_output_that_is_no_file_writes_nothing(tmp_path, capsys):
    # A CSV or manifest path that is there but no file would fail after
    # the other output was written: exit 2, and nothing new is written.
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    for name in ("manifest.json", "gamma.csv"):
        out = tmp_path / f"out-{name}"
        (out / name).mkdir(parents=True)
        assert main(["gamma", "--config", path, "--out", str(out)]) == 2
        assert "is not a file" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())


@pytest.mark.parametrize("failing", ["gamma.csv", "manifest.json"])
def test_cli_failed_output_write_exits_2(tmp_path, monkeypatch, capsys, failing):
    # An I/O error while writing an output (a full disk) is exit 2, and
    # an output written before it is removed: the directory stays empty.
    def write(original):
        def patched(self, data, *args, **kwargs):
            if self.name == failing:
                raise OSError(28, "No space left on device")
            return original(self, data, *args, **kwargs)
        return patched

    for name in ("write_bytes", "write_text"):
        monkeypatch.setattr(Path, name, write(getattr(Path, name)))
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert "cannot write" in capsys.readouterr().err


def test_alpha_decay_verdict_can_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(
        harness, "alpha_sequence",
        lambda kernel, p_max, depth: AlphaSequence((0.1, 0.2, 0.3)),
    )
    cfg = {
        "kind": "vershik",
        "kernel": {"variant": "builtin", "name": "markov1-demo"},
        "seed": 3,
        "p_max": 2,
        "depth": 4,
    }
    path = write_config(tmp_path, "v.json", cfg)
    out = tmp_path / "out"
    assert main(["vershik", "--config", path, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == [
        {"check": "alpha_decay", "passed": False, "result": "flat"}
    ]


def test_cli_pretty_runs_experiment_once(tmp_path, monkeypatch, capsys):
    calls = []
    runner = harness._RUNNERS["gamma"]

    def counting(kernel, config):
        calls.append(config.kind)
        return runner(kernel, config)

    monkeypatch.setitem(harness._RUNNERS, "gamma", counting)
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out), "--pretty"]) == 0
    assert calls == ["gamma"]
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "p", "gamma_p", "certified"
    ]


def test_cli_long_memory_needs_stationary_law(tmp_path):
    # vershik and extend integrate against the exact stationary law,
    # which a truncated long-memory kernel has like any finite-order chain.
    cases = {
        "vershik": {"p_max": 4, "depth": 4},
        "extend": {"n": -4, "trials": 2000, "depth": 4},
    }
    for kind, params in cases.items():
        cfg = {
            "kind": kind,
            "kernel": {"variant": "builtin", "name": "long-memory-demo"},
            "seed": 13,
            **params,
        }
        path = write_config(tmp_path, f"{kind}.json", cfg)
        out = tmp_path / f"out_{kind}"
        assert main([kind, "--config", path, "--out", str(out)]) == 0


# One small valid config per kind, each on another kernel variant, so
# that every variant's fields are fuzzed too.
FUZZ_BASE = {
    "gamma": ({"variant": "long_memory", "c": 0.3, "weights": [0.2, 0.1]},
              {"p_max": 3, "tail": {"kind": "eventually-zero"}}),
    "audit": ({"variant": "iid", "p0": 0.4}, {"steps": 200}),
    "reconstruct": ({"variant": "markov", "order": 1,
                     "table": {"0": 0.7, "1": 0.4}},
                    {"n_list": [-3], "k": 1, "trials": 50}),
    "vershik": ({"variant": "builtin", "name": "markov1-demo"},
                {"p_max": 2, "depth": 2, "mode": "monte-carlo", "trials": 50}),
    "extend": ({"variant": "long_memory", "c": 0.3, "weights": [0.2]},
               {"n": -2, "trials": 50, "depth": 2, "anchor": "01"}),
    "stitch": ({"variant": "markov", "order": 1, "table": {"0": 0.6, "1": 0.3}},
               {"deltas": [0.3], "trials": 50, "depth": 3}),
}
# Small integers only, so that no run sizes its work from the value.
FUZZ_VALUES = [-1, 0, 1, 2, 0.5, -0.0, float("nan"), float("inf"), float("-inf"),
               "", "01", [], [0.5], {}, None, True]


def test_cli_fuzzed_field_never_exits_3(tmp_path):
    # Exit 3 means an internal bug: every config, however malformed, exits
    # 0, 1 or 2, and exit 2 writes nothing.
    cases = []
    for kind, (kernel, params) in FUZZ_BASE.items():
        for key in params:
            cases += [(kind, kernel, {**params, key: v}) for v in FUZZ_VALUES]
        for key in kernel:
            cases += [(kind, {**kernel, key: v}, params) for v in FUZZ_VALUES]
    bad = []
    for i, (kind, kernel, params) in enumerate(cases):
        path = write_config(tmp_path, f"f{i}.json",
                            {"kind": kind, "kernel": kernel, "seed": 3, **params})
        out = tmp_path / f"out{i}"
        code = main([kind, "--config", path, "--out", str(out)])
        if code not in (0, 1, 2) or code == 2 and out.exists():
            bad.append((code, kind, kernel, params))
    assert not bad
    # An anchor with no symbols would run the all-zero anchor unasked.
    kernel, params = FUZZ_BASE["extend"]
    for anchor in ("", "  "):
        path = write_config(tmp_path, "a.json", {"kind": "extend", "kernel": kernel,
                                                 "seed": 3, **params, "anchor": anchor})
        assert main(["extend", "--config", path, "--out", str(tmp_path / "a")]) == 2
        assert not (tmp_path / "a").exists()
    # An output path that names a file, or a path under one, is unusable.
    path = write_config(tmp_path, "g.json", GAMMA_CFG)
    (tmp_path / "file").write_text("kept")
    for out in ("file", "file/sub"):
        assert main(["gamma", "--config", path, "--out", str(tmp_path / out)]) == 2
    assert (tmp_path / "file").read_text() == "kept"
