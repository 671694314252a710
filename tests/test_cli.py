"""CLI verbs, exit codes, diagnostics, and report round-trips."""

from __future__ import annotations

import json
import time

import pytest

from qstab import cli
from qstab.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_OK, build_parser, run
from qstab.netmodel import build_push_pull, dump_spec
from test_netmodel import GRAMMAR_SLIPS


@pytest.fixture
def spec_dir(tmp_path):
    files = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        files[name] = str(path)
        return files[name]

    write("pp-critical.json", {"family": "pushpull", "lambda": ["1", "1"], "mu": ["1", "1"]})
    write("pp-stable.json", {"family": "pushpull", "lambda": ["1", "1"], "mu": ["2", "2"]})
    write("ring3.json", {"family": "ring", "lambda": ["1"] * 3, "mu": ["1"] * 3})
    write("ring4.json", {"family": "ring", "lambda": ["1", "2", "3", "4"], "mu": ["1", "2", "3", "4"]})
    files["write"] = write
    return files


def test_certify_exit_codes_and_payload(spec_dir, capsys):
    assert run(["certify", spec_dir["pp-critical.json"], "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "non-stabilizable"
    assert payload["alpha"] == ["1", "-1"]
    assert payload["rank"] == 1 and payload["M"] == 2 and payload["L"] == 4
    assert payload["critical"] is True

    assert run(["certify", spec_dir["ring3.json"], "--format", "json"]) == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inconclusive" and payload["rank"] == 3
    assert payload["alpha"] is None


def test_drift_payload(spec_dir, capsys):
    assert run(["drift", spec_dir["pp-critical.json"], "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "M": 2,
        "L": 4,
        "rank": 1,
        "rows": [["1/2", "1/2"], ["-1/2", "-1/2"], ["0", "0"], ["0", "0"]],
    }


def test_alpha_verb(spec_dir, capsys):
    assert run(["alpha", spec_dir["ring4.json"], "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"family": "ring", "alpha": ["1", "-1/2", "1/3", "-1/4"]}
    assert run(["alpha", spec_dir["pp-stable.json"]]) == EXIT_ERROR
    assert "closed-form" in capsys.readouterr().err


def test_simulation_verbs(spec_dir, capsys):
    base = ["--trials", "50", "--steps", "40", "--cap", "100", "--format", "json"]
    assert run(["simulate", spec_dir["pp-critical.json"], *base]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 50 and summary["steps"] == 40

    assert run(["return-time", spec_dir["pp-stable.json"], *base]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert stats["trials"] == 50 and stats["returned"] + 0 <= 50

    assert run(["martingale", spec_dir["pp-critical.json"], "--alpha", "1,-1", *base]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"mean_delta_Z", "std_error", "max_abs_increment", "bound"}
    assert report["bound"] == 1

    assert run(["blowup", spec_dir["pp-critical.json"], "--x0", "1,0", *base]) == EXIT_OK
    growth = json.loads(capsys.readouterr().out)
    assert set(growth) == {"slope_per_step", "fraction_grew"}


def test_martingale_alpha_defaults_to_certificate(spec_dir, capsys):
    args = ["--trials", "30", "--steps", "30", "--format", "json"]
    assert run(["martingale", spec_dir["pp-critical.json"], *args]) == EXIT_OK
    capsys.readouterr()
    assert run(["martingale", spec_dir["pp-stable.json"], *args]) == EXIT_ERROR
    assert "inconclusive" in capsys.readouterr().err


def test_policy_parsing(spec_dir, capsys):
    args = ["--trials", "20", "--steps", "20", "--format", "json"]
    assert run(["simulate", spec_dir["pp-critical.json"], "--policy", "threshold:2", *args]) == EXIT_OK
    capsys.readouterr()
    assert run(["simulate", spec_dir["pp-critical.json"], "--policy", "bogus", *args]) == EXIT_ERROR
    assert "policy" in capsys.readouterr().err
    assert run(["simulate", spec_dir["pp-critical.json"], "--policy", "threshold:x", *args]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("spec,x0", [("pp-critical.json", "3,3"), ("ring4.json", "3,3,3,3")])
def test_threshold_beyond_int64_always_pushes(spec_dir, capsys, spec, x0):
    # No queue reaches 2**63, so a larger cutoff never lets a server pull.
    args = [spec_dir[spec], "--trials", "40", "--steps", "30", "--x0", x0, "--format", "json"]
    assert run(["simulate", *args, "--policy", "push-priority"]) == EXIT_OK
    pushes = capsys.readouterr().out
    assert run(["simulate", *args, "--policy", "threshold:99999999999999999999"]) == EXIT_OK
    assert capsys.readouterr().out == pushes
    assert run(["simulate", *args, "--policy", "threshold:2"]) == EXIT_OK
    assert capsys.readouterr().out != pushes


def test_diagnostics_and_exit_codes(spec_dir, capsys, tmp_path):
    write = spec_dir["write"]
    missing = str(tmp_path / "missing.json")
    assert run(["certify", missing]) == EXIT_ERROR
    capsys.readouterr()

    bad_json = write("syntax.json", '{"family": ')
    assert run(["certify", bad_json]) == EXIT_ERROR
    assert "line 1" in capsys.readouterr().err

    unknown = write("unknown.json",
                    '{"family": "pushpull", "lambda": ["1","1"], "mu": ["1","1"], "zap": 1}')
    assert run(["certify", unknown]) == EXIT_ERROR
    assert "'zap'" in capsys.readouterr().err

    assert run(["simulate", spec_dir["pp-critical.json"], "--x0", "1,2,3"]) == EXIT_ERROR
    assert "queues" in capsys.readouterr().err

    assert run(["simulate", spec_dir["pp-critical.json"], "--x0", "a,b"]) == EXIT_ERROR
    assert "--x0 must be comma-separated integers, got 'a,b'" in capsys.readouterr().err

    assert run(["frobnicate"]) == EXIT_ERROR
    assert "verb" in capsys.readouterr().err

    assert run([]) == EXIT_ERROR
    capsys.readouterr()


# The malformed specs that CI's exact-without-numpy job also gives the installed
# console script: each must end in exit 1 and one error line naming the entry.
MALFORMED_SPECS = {
    "invalid-json": ('{"family": "ring", "lambda": [1, 2', "invalid JSON at line 1"),
    "float-rate": ('{"family": "pushpull", "lambda": [1, 1.5], "mu": [1, 1]}', "lambda[1]: "),
    "underscore-rate": ('{"family": "ring", "lambda": ["1", "1"], "mu": ["1_2", "1"]}',
                        "mu[0]: not a rational number: '1_2'"),
    "server-3": ('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1"}, '
                 '{"server": 3, "rate": "1"}]]}', "streams[0][1].server must be 1 or 2, got 3"),
    "short-disp": ('{"family": "custom", "M": 2, "actions": [{"label": "a", "outcomes": '
                   '[{"disp": [1], "rate": "1"}]}]}', "actions[0].outcomes[0]: displacement (1,)"),
}


@pytest.mark.parametrize("text,where", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_spec_is_one_error_line(spec_dir, capsys, text, where):
    assert run(["certify", spec_dir["write"]("bad.json", text)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert where in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("text", GRAMMAR_SLIPS.values(), ids=GRAMMAR_SLIPS.keys())
def test_numbers_take_only_ascii_digits(spec_dir, capsys, text):
    sim = ["--trials", "5", "--steps", "5"]
    pp = spec_dir["pp-critical.json"]
    spec = spec_dir["write"]("slip.json", {"family": "pushpull", "lambda": [text, "1"], "mu": ["1", "1"]})
    assert run(["certify", spec]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: lambda[0]: not a rational number: {text!r}\n"
    assert run(["martingale", pp, *sim, "--alpha", f"1,{text}"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: alpha[1]: not a rational number: {text!r}\n"
    assert run(["simulate", pp, *sim, "--x0", f"{text},0"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: --x0 must be comma-separated integers, got '{text},0'\n"


def test_numbers_take_a_leading_sign_and_surrounding_spaces(spec_dir, capsys):
    sim = ["--trials", "5", "--steps", "5"]
    assert run(["martingale", spec_dir["pp-critical.json"], *sim, "--alpha=-1/2,1/2"]) == EXIT_OK
    assert run(["simulate", spec_dir["pp-critical.json"], *sim, "--x0", " +1 , 2"]) == EXIT_OK


INTEGER_SLIPS = {"underscore": "1_0", "arabic-indic": "\u0665", "fullwidth": "\uff11\uff10"}


@pytest.mark.parametrize("text", INTEGER_SLIPS.values(), ids=INTEGER_SLIPS.keys())
@pytest.mark.parametrize("option", ["--seed", "--trials", "--steps", "--cap", "--policy", "--x0"])
def test_integer_options_take_only_ascii_digits(spec_dir, capsys, option, text):
    value, what = {"--policy": (f"threshold:{text}", "--policy threshold:<c>"),
                   "--x0": (f"{text},0", None)}.get(option, (text, option))
    sim = ["--trials", "5", "--steps", "5"]
    assert run(["simulate", spec_dir["pp-critical.json"], *sim, option, value]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {what} must be an integer, got {text!r}\n" if what else
                            f"error: --x0 must be comma-separated integers, got {value!r}\n")


@pytest.mark.parametrize("text", [" 7 ", "+7"])
def test_integer_options_take_a_sign_and_surrounding_spaces(spec_dir, capsys, text):
    def argv(n):
        return ["simulate", spec_dir["pp-critical.json"], "--format", "json", "--seed", n,
                "--trials", n, "--steps", n, "--cap", n, "--policy", f"threshold:{n}",
                "--x0", f"{n},{n}"]

    assert run(argv("7")) == EXIT_OK
    plain = capsys.readouterr().out
    assert run(argv(text)) == EXIT_OK
    assert capsys.readouterr().out == plain and json.loads(plain)["trials"] == 7


def test_custom_export_round_trips(spec_dir, capsys, tmp_path):
    first = tmp_path / "exported.json"
    first.write_text(dump_spec(build_push_pull(1, 2, 1, 2)))
    assert run(["certify", str(first), "--format", "json"]) == EXIT_OK
    out1 = capsys.readouterr().out

    # Re-export the loaded custom network and certify again: identical output.
    from qstab.netmodel import load_spec

    second = tmp_path / "exported-again.json"
    second.write_text(dump_spec(load_spec(first)))
    assert run(["certify", str(second), "--format", "json"]) == EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "non-stabilizable"
    assert payload["critical"] is None
    assert payload["alpha"] == ["2", "-1"]


def test_text_format_renders_floats_deterministically(spec_dir, capsys):
    args = ["--trials", "25", "--steps", "25"]
    assert run(["return-time", spec_dir["pp-critical.json"], *args]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert run(["return-time", spec_dir["pp-critical.json"], *args]) == EXIT_OK
    assert out1 == capsys.readouterr().out
    assert "censored_fraction:" in out1


def test_certify_has_no_budget_option(spec_dir, capsys):
    assert run(["certify", spec_dir["pp-critical.json"], "--budget", "3"]) == EXIT_ERROR
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [f"{10**308},-{10**308}", f"{17 * 10**308},-{10**308}"],
                         ids=["stats-overflow", "bound-overflow"])
def test_martingale_huge_alpha_is_an_error(spec_dir, capsys, alpha):
    args = ["--alpha", alpha, "--trials", "20", "--steps", "20", "--format", "json"]
    assert run(["martingale", spec_dir["pp-critical.json"], *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha is too large" in captured.err and "Traceback" not in captured.err


def test_martingale_zero_alpha_is_an_error(spec_dir, capsys):
    args = ["--alpha", "0,0/3", "--trials", "20", "--steps", "20"]
    assert run(["martingale", spec_dir["pp-critical.json"], *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: alpha must be nonzero" in captured.err


def test_seed_at_or_above_2_64_is_an_error(spec_dir, capsys):
    # A seed of 2**64 would alias seed 0 inside the 64-bit substream mix.
    args = ["--trials", "5", "--steps", "5", "--format", "json"]
    assert run(["simulate", spec_dir["pp-critical.json"], "--seed", str(2**64 - 1), *args]) == EXIT_OK
    capsys.readouterr()
    assert run(["simulate", spec_dir["pp-critical.json"], "--seed", str(2**64), *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be an integer in [0, 2**64)" in captured.err


@pytest.mark.parametrize("verb", ["martingale", "blowup"])
def test_too_many_trials_for_memory_is_an_error(spec_dir, capsys, verb):
    # One float per trial is 8 PB here, beyond any 64-bit address space,
    # so the allocation fails at once and nothing is ever simulated.
    args = ["--trials", "1000000000000000", "--steps", "5", "--format", "json"]
    assert run([verb, spec_dir["pp-critical.json"], *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory") and "Traceback" not in captured.err


@pytest.mark.parametrize("extra", [
    ["--x0", "99999999999999999999,0"],
    ["--policy", "push-priority", "--x0", f"{2**63 - 1},{2**63 - 1}"],
    ["--x0", f"{2**63 - 20},0", "--steps", "5", "--cap", "20"],
], ids=["beyond-int64", "int64-max", "cap-headroom"])
def test_huge_start_state_is_an_error(spec_dir, capsys, extra):
    args = ["--trials", "5", "--steps", "5", "--format", "json", *extra]
    assert run(["simulate", spec_dir["pp-critical.json"], *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("option", ["--steps", "--cap"])
def test_unbounded_steps_or_cap_is_an_error(spec_dir, capsys, option):
    args = ["--trials", "5", "--steps", "5", "--cap", "5", option, "99999999999999999999"]
    assert run(["simulate", spec_dir["pp-critical.json"], *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: steps/cap 99999999999999999999 is too large: "
                            "the origin plus 99999999999999999999 steps reaches 2**63\n")


@pytest.mark.parametrize("text", ["[" * 200_000, '{"family": ' + '{"x": ' * 200_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_spec_is_an_error(spec_dir, capsys, text):
    path = spec_dir["write"]("deep.json", text)
    assert run(["certify", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err and "Traceback" not in captured.err


def _big_ring(m: int) -> dict:
    lam = [("1", "2", "3/2", "5/3")[k % 4] for k in range(m)]
    return {"family": "ring", "lambda": lam, "mu": lam}


def test_certify_and_alpha_take_rings_of_any_size(spec_dir, capsys):
    path = spec_dir["write"]("ring40.json", _big_ring(40))
    start = time.perf_counter()
    assert run(["certify", path, "--format", "json"]) == EXIT_OK
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"] == 1099511627776 == 2**40
    assert payload["verdict"] == "non-stabilizable" and payload["rank"] == 39
    assert elapsed < 1.0  # 2^40 actions are never listed
    assert run(["alpha", path, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["alpha"][:2] == ["1", "-1/2"]


@pytest.mark.parametrize("m", [40, 70])
@pytest.mark.parametrize("verb", ["drift", "simulate", "return-time", "martingale", "blowup"])
def test_verbs_that_list_actions_refuse_huge_networks(spec_dir, capsys, verb, m):
    path = spec_dir["write"](f"ring{m}.json", _big_ring(m))
    extra = [] if verb == "drift" else ["--trials", "2", "--steps", "2", "--cap", "2"]
    assert run([verb, path, *extra]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the network has {2**m} actions" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: qstab "), (["certify", "--help"], "usage: qstab certify "),
], ids=["top", "verb"])
def test_help_returns_exit_ok(capsys, monkeypatch, argv, usage):
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""
    monkeypatch.setattr("sys.argv", ["qstab", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == captured.out


def _fresh_out(argv, capsys) -> tuple[int, str]:
    build_parser.cache_clear()
    rc = run(argv)
    return rc, capsys.readouterr().out


def test_cached_parser_keeps_no_state_between_calls(spec_dir, capsys):
    pp = spec_dir["pp-critical.json"]
    assert run(["simulate", pp, "--x0", "1,0", "--trials", "7", "--steps", "20"]) == EXIT_OK
    assert "trials: 7" in capsys.readouterr().out
    assert run(["simulate", pp, "--trials", "seven"]) == EXIT_ERROR
    assert capsys.readouterr().out == ""
    plain = ["simulate", pp, "--steps", "20", "--format", "json"]
    assert run(plain) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["trials"] == 10_000
    assert _fresh_out(plain, capsys) == (EXIT_OK, out)


def test_cached_parser_alternates_verbs(spec_dir, capsys):
    pp, ring4 = spec_dir["pp-critical.json"], spec_dir["ring4.json"]
    sim = ["--trials", "50", "--steps", "30"]
    calls = [
        ["certify", pp], ["martingale", pp, *sim], ["drift", ring4, "--format", "json"],
        ["martingale", pp, *sim, "--alpha", "2,-2"], ["certify", ring4, "--format", "json"],
        ["martingale", pp, *sim], ["drift", pp],
    ]
    cached = []
    for argv in calls:
        rc = run(argv)
        cached.append((rc, capsys.readouterr().out))
    assert [_fresh_out(argv, capsys) for argv in calls] == cached
    assert all(rc == EXIT_OK for rc, _ in cached)


def test_parser_is_built_once_per_process(spec_dir, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    build_parser.cache_clear()
    pp = spec_dir["pp-critical.json"]
    for argv in [["certify", pp], ["drift", pp], ["--help"], ["alpha", pp], ["certify", "--help"],
                 ["simulate", pp, "--trials", "3", "--steps", "3"], ["bogus"], ["certify", pp],
                 ["drift"], ["blowup", pp, "--trials", "3", "--steps", "3"]]:
        run(argv)
    capsys.readouterr()
    assert len(built) == 8  # the top parser and one per verb
