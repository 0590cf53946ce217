import argparse
import hashlib
import inspect
import json
import math

import pytest

from dyncolor.cli import (
    EPS_DELTA_FLOOR,
    EPS_SMALL,
    EXIT_ENGINE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    main,
    resolve_epsilon,
    resolve_seed,
    resolve_zeta,
    run_engine,
)
from dyncolor.config import Config, auto_zeta
from dyncolor.engine import Engine, InlierPaletteEmpty
from dyncolor.report import Violation, summarize


# ---------------------------------------------------------------------------
# resolution helpers


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("COLOR_SEED", raising=False)
    assert resolve_seed(None) == 0
    assert resolve_seed(42) == 42
    monkeypatch.setenv("COLOR_SEED", "7")
    assert resolve_seed(None) == 7
    assert resolve_seed(42) == 42  # explicit flag still wins
    monkeypatch.setenv("COLOR_SEED", "seven")
    with pytest.raises(UsageError):
        resolve_seed(None)


def test_resolve_epsilon_by_delta():
    # the auto epsilon is Config's from the Delta where Delta*eps^2 >= 1 on
    assert EPS_DELTA_FLOOR == 12_100
    large = (Config().epsilon, "default-large-delta")
    assert resolve_epsilon(EPS_DELTA_FLOOR, None) == resolve_epsilon(200000, None) == large
    eps2, origin2 = resolve_epsilon(EPS_DELTA_FLOOR - 1, None)
    assert (eps2, origin2) == (EPS_SMALL, "fallback-small-delta")
    assert eps2 > Config().epsilon
    eps3, origin3 = resolve_epsilon(100, "1/4")
    assert origin3 == "explicit" and eps3 * 4 == 1


def test_auto_mode_thresholds():
    # Engine's mode=auto runs phased iff Config.dense_path_active(delta);
    # at zeta=auto and Delta = n-1 that first holds at n = 262,209 with
    # epsilon 1/8, and needs n > 12,100^3 with the auto epsilon
    def auto_mode(n, eps_flag):
        eps, _ = resolve_epsilon(n - 1, eps_flag)
        cfg = Config(epsilon=eps, zeta=auto_zeta(n))
        return "phased" if cfg.dense_path_active(n - 1) else "naive"

    assert auto_mode(262_208, "1/8") == "naive"
    assert auto_mode(262_209, "1/8") == "phased"
    assert auto_mode(10**9, None) == "naive"


def test_knob_census():
    # every run_engine keyword and every CLI flag has a caller that needs
    # it; a new knob has to be added here on purpose
    assert list(inspect.signature(run_engine).parameters) == [
        "n", "delta", "cfg", "seed", "mode", "verify", "updates", "adversary", "steps",
    ]
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        cmd: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for cmd, p in sub.choices.items()
    }
    assert flags == {
        "gen": ["--delta", "--density", "--n", "--out", "--seed", "--steps"],
        "run": [
            "--adversary", "--delta", "--epsilon", "--gamma", "--mode", "--n", "--out",
            "--seed", "--steps", "--trace", "--verify", "--zeta",
        ],
        "scaling": ["--n-grid", "--out-csv", "--out-json", "--reps", "--seed", "--steps"],
    }


def test_resolve_zeta_auto_matches_formula():
    for n in (10, 100, 1000, 4096):
        assert resolve_zeta(n, "auto") == auto_zeta(n) == math.ceil(n ** (2 / 3))
    assert resolve_zeta(100, "5") == 5


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    flags = ["gen", "--n", "30", "--delta", "6", "--steps", "200", "--seed", "5"]
    assert main(flags + ["--out", str(a)]) == EXIT_OK
    assert main(flags + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "30 6"


def test_gen_usage_errors(tmp_path):
    out = str(tmp_path / "x.trace")
    assert main(["gen", "--n", "10", "--delta", "0", "--steps", "5", "--out", out]) == EXIT_USAGE
    assert main(["gen", "--n", "10", "--delta", "10", "--steps", "5", "--out", out]) == EXIT_USAGE
    assert main(["gen", "--n", "10", "--delta", "3", "--steps", "-1", "--out", out]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# run


def _gen_trace(tmp_path, n=40, delta=8, steps=300, seed=3):
    p = tmp_path / "t.trace"
    assert (
        main(
            [
                "gen", "--n", str(n), "--delta", str(delta),
                "--steps", str(steps), "--seed", str(seed), "--out", str(p),
            ]
        )
        == EXIT_OK
    )
    return p


def test_run_trace_verified_clean(tmp_path):
    trace = _gen_trace(tmp_path)
    out = tmp_path / "m.json"
    code = main(
        ["run", "--trace", str(trace), "--verify", "every", "--seed", "1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "dyncolor-metrics/1"
    assert doc["violations"]["count"] == 0
    assert doc["updates"] == 300
    assert doc["header"]["n"] == 40


def test_run_metrics_reproducible_modulo_timing(tmp_path):
    trace = _gen_trace(tmp_path)
    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert (
            main(["run", "--trace", str(trace), "--seed", "9", "--out", str(out)])
            == EXIT_OK
        )
        d = json.loads(out.read_text())
        d.pop("timing")
        docs.append(d)
    assert docs[0] == docs[1]


def test_run_different_seeds_differ(tmp_path):
    # naive recoloring is deterministic, so exercise the randomized path
    trace = _gen_trace(tmp_path)
    snaps = []
    for seed in ("9", "10"):
        out = tmp_path / f"s{seed}.json"
        main(
            ["run", "--trace", str(trace), "--mode", "phased", "--zeta", "4",
             "--seed", seed, "--out", str(out)]
        )
        snaps.append(json.loads(out.read_text())["state"]["phi"])
    assert snaps[0] != snaps[1]


def test_run_adversary_without_size_is_usage_error():
    assert main(["run", "--adversary", "conflict"]) == EXIT_USAGE


def test_run_without_source_is_usage_error():
    assert main(["run"]) == EXIT_USAGE


def test_run_bad_trace_is_usage_error(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("6 3\nx 1 2\n")
    assert main(["run", "--trace", str(p)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "body, line",
    [(b"6 3\xff\n+ 1 2\n", 1), (b"6 3\n+ 1 2\n+ 2 \xff3\n", 3)],
    ids=["header", "update"],
)
def test_run_trace_not_utf8_is_trace_error(tmp_path, capsys, body, line):
    p = tmp_path / "bin.trace"
    p.write_bytes(body)
    assert main(["run", "--trace", str(p)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"trace error: {p}:{line}: not UTF-8 text" in err
    assert "Traceback" not in err


def test_run_trace_header_not_integers_is_trace_error(tmp_path, capsys):
    p = tmp_path / "hdr.trace"
    p.write_text("3 x\n")
    assert main(["run", "--trace", str(p)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"trace error: {p}:1: bad header '3 x'\n"


def test_run_trace_skips_blank_lines(tmp_path):
    p = tmp_path / "gap.trace"
    p.write_text("6 3\n+ 1 2\n\n+ 2 3\n")
    out = tmp_path / "m.json"
    assert main(["run", "--trace", str(p), "--verify", "every", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["updates"] == 2 and doc["violations"]["count"] == 0


RUN_ADV = ["run", "--adversary", "conflict", "--n", "20", "--delta", "4"]


@pytest.mark.parametrize(
    "trace, argv, code",
    [
        ("+ 1 2\n+ 2 1\n", ["run", "--trace", "bad.trace"], EXIT_USAGE),
        ("+ 1 2\n- 1 3\n", ["run", "--trace", "bad.trace"], EXIT_USAGE),
        ("+ 1 2\n+ 1 7\n", ["run", "--trace", "bad.trace"], EXIT_USAGE),
        (None, ["run", "--trace", "missing.trace"], EXIT_USAGE),
        (None, RUN_ADV + ["--epsilon", "1/5"], EXIT_USAGE),
        (None, RUN_ADV + ["--gamma", "abc"], EXIT_USAGE),
        (None, RUN_ADV + ["--steps", "-5"], EXIT_USAGE),
        (None, ["gen", "--n", "10", "--delta", "3", "--steps", "5", "--density", "0",
                "--out", "x.trace"], EXIT_USAGE),
        (None, ["scaling", "--n-grid", "64,128", "--reps", "0"], EXIT_USAGE),
        (None, ["scaling", "--n-grid", "2,64"], EXIT_USAGE),
        (None, RUN_ADV, EXIT_ENGINE),
    ],
    ids=[
        "duplicate-insert", "missing-delete", "vertex-out-of-range", "missing-trace",
        "epsilon-too-large", "gamma-not-a-number", "negative-steps", "zero-density",
        "zero-reps", "grid-size-below-4", "inlier-palette-empty",
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, monkeypatch, trace, argv, code):
    monkeypatch.chdir(tmp_path)
    if trace is not None:
        (tmp_path / "bad.trace").write_text("6 3\n" + trace)
    if code == EXIT_ENGINE:
        def broken(self, upd):
            raise InlierPaletteEmpty("no palette color for inlier 1")

        monkeypatch.setattr(Engine, "apply", broken)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    if trace is not None:
        # the offending update is on the trace's third line
        assert "bad.trace:3: " in err


@pytest.mark.parametrize(
    "header, argv",
    [
        ("3000000000 4\n", ["run", "--trace", "big.trace"]),
        (None, ["run", "--adversary", "conflict", "--n", str(2**31), "--delta", "4"]),
        (None, ["gen", "--n", str(2**31), "--delta", "4", "--steps", "5", "--out", "x.trace"]),
    ],
    ids=["trace-header", "run-n", "gen-n"],
)
def test_vertex_ids_past_int32_are_refused(tmp_path, capsys, monkeypatch, header, argv):
    monkeypatch.chdir(tmp_path)
    if header is not None:
        (tmp_path / "big.trace").write_text(header)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "2**31" in err and "Traceback" not in err
    if header is not None:
        assert "big.trace:1: " in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (RUN_ADV + ["--zeta", "0"], EXIT_USAGE, "usage error: zeta must be >= 1 or 'auto'"),
        (["run", "--adversary", "conflict", "--n", "10", "--delta", "10"], EXIT_USAGE,
         "usage error: need 1 <= delta <= n-1"),
        (["scaling", "--n-grid", "8,x"], EXIT_USAGE, "usage error: bad --n-grid '8,x'"),
        (["--help"], EXIT_OK, ""),
    ],
    ids=["zeta-zero", "delta-not-below-n", "grid-not-a-number", "help"],
)
def test_usage_branches(capsys, argv, code, message):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.strip() == message
    if code == EXIT_OK:
        assert out.startswith("usage: dyncolor")


def test_run_zero_steps_aggregates_to_zero(tmp_path):
    out = tmp_path / "m.json"
    assert main(RUN_ADV + ["--steps", "0", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["updates"] == 0
    assert doc["per_update"] == {
        key: {"mean": 0.0, "median": 0.0, "max": 0}
        for key in ("class_scans", "color_trials", "palette_probes")
    }


def test_run_without_out_prints_the_metrics(capsys):
    assert main(RUN_ADV + ["--steps", "5", "--seed", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["schema"] == "dyncolor-metrics/1" and doc["updates"] == 5
    assert err == ""


def test_summarize_ends_with_what_it_leaves_out():
    violations = [Violation("propriety", f"v={v}", "uncolored vertex") for v in range(1, 13)]
    lines = summarize(violations, limit=10).splitlines()
    assert lines[:10] == [f"propriety @ v={v}: uncolored vertex" for v in range(1, 11)]
    assert lines[10:] == ["... and 2 more"]


def test_run_adaptive_adversary_smoke(tmp_path):
    out = tmp_path / "adv.json"
    code = main(
        ["run", "--adversary", "conflict", "--n", "60", "--delta", "12",
         "--steps", "200", "--zeta", "4", "--mode", "phased",
         "--verify", "phase", "--seed", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["updates"] == 200
    assert doc["header"]["mode"] == "phased"


def test_run_zeta_auto_recorded(tmp_path):
    trace = _gen_trace(tmp_path, n=50)
    out = tmp_path / "z.json"
    main(["run", "--trace", str(trace), "--seed", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["header"]["config"]["zeta"] == math.ceil(50 ** (2 / 3))
    # the --gamma default is Config's
    assert doc["header"]["config"]["gamma"] == str(Config().gamma)


# metrics of two fixed runs, minus timing, hashed: every other figure,
# class_scans and the figures derived from it included, is part of the
# contract, since every availability check meters its whole color class
GOLDEN_EXCLUDED = (("timing",),)
GOLDEN = {
    "phased-trace": "82811cbb0513c7cf263310e293b1b5ca13f147439d71244f32af0cb454cb5eb9",
    "conflict-every": "a9ba4fbde4c325ad8f9568f89f218dd9008af71f5974be48e7c98347d5a0c6d9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_metrics_match_recorded_digest(tmp_path, name):
    out = tmp_path / "m.json"
    if name == "phased-trace":
        trace = _gen_trace(tmp_path, n=80, delta=16, steps=2000, seed=4)
        argv = ["run", "--trace", str(trace), "--mode", "phased", "--zeta", "8", "--seed", "5"]
    else:
        argv = ["run", "--adversary", "conflict", "--n", "256", "--delta", "64",
                "--steps", "500", "--verify", "every", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    for path in GOLDEN_EXCLUDED:
        d = doc
        for k in path[:-1]:
            d = d[k]
        del d[path[-1]]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[name]


# ---------------------------------------------------------------------------
# scaling


def test_scaling_usage_errors():
    assert main(["scaling", "--n-grid", ""]) == EXIT_USAGE


def test_scaling_smoke(tmp_path, capsys):
    out_json = tmp_path / "sc.json"
    out_csv = tmp_path / "sc.csv"
    code = main(
        ["scaling", "--n-grid", "64,128", "--steps", "60", "--seed", "1",
         "--out-json", str(out_json), "--out-csv", str(out_csv)]
    )
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["schema"] == "dyncolor-scaling/1"
    assert {r["engine"] for r in doc["rows"]} == {"phased", "naive"}
    header = out_csv.read_text().splitlines()[0]
    assert header == "n,delta,adversary,engine,amortized_ops,amortized_trials,slope"
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(printed) == {"slope_phased", "slope_naive"}


# sha256 of the JSON and CSV files of two fixed scaling runs
SCALING_DIGESTS = {
    ("64,128,256", "60", "1", "1"): (
        "6bf1b6bd186b535fef5e3ed0e16e5e8d6dd447f7b9a57ee6c5e922a083181d43",
        "be08b9080a50aa02c11985c2a293ed38fe43af3a8549ebff16743504a2e74e53",
    ),
    ("64,128", "40", "2", "3"): (
        "ff9093ec9422334f127beb3612f9c3add80ef555806b12c7bb3d767772f62b7d",
        "b32f98703624f749d85b3afc2d4aafd3159b5f8406e2de1687f3169b558221fd",
    ),
}


@pytest.mark.parametrize("grid, steps, reps, seed", sorted(SCALING_DIGESTS))
def test_scaling_matches_recorded_digest(tmp_path, grid, steps, reps, seed):
    out_json, out_csv = tmp_path / "sc.json", tmp_path / "sc.csv"
    argv = ["scaling", "--n-grid", grid, "--steps", steps, "--reps", reps, "--seed", seed,
            "--out-json", str(out_json), "--out-csv", str(out_csv)]
    assert main(argv) == EXIT_OK
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out_json, out_csv))
    assert digests == SCALING_DIGESTS[grid, steps, reps, seed]
