"""Pinned output of the Monte Carlo engine.

Each case writes one spec file and runs one simulation verb in json and
text format through the CLI. The sha256 of both reports (exit code,
stdout and stderr of each) must match the digest recorded here, so any
change to the simulator that alters a single byte of a report fails this
test: the RNG streams, how they are chunked into refills, the policies,
outcome sampling and the reductions. The cases cross several refills
with trials retiring between them, run more than one lockstep batch, and
use seeds at both ends of [0, 2**64). Regenerate a digest only for a
deliberate change of the report format, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from qstab.cli import run

PUSHPULL = {"family": "pushpull", "lambda": ["1", "2"], "mu": ["1", "2"]}
RING8 = {"family": "ring", "lambda": ["1", "2", "3", "1", "2", "3", "1", "1"],
         "mu": ["2", "1", "1", "3", "1", "2", "1", "2"]}
TWO_STREAM = {"family": "reentrant", "streams": [
    [{"server": s, "rate": r} for s, r in ((1, "1"), (2, "1"), (1, "1"), (2, "1"))],
    [{"server": s, "rate": r} for s, r in ((2, "3/2"), (1, "1"), (2, "3/2"), (1, "1"), (2, "3/2"))],
]}

# name -> (spec, argv after the spec path)
CASES = {
    # critical push-pull return times: trials outlive several refills and
    # retire between them; some are censored at the cap
    **{f"pushpull-return-time-seed{seed}": (
        PUSHPULL, ["return-time", "--trials", "300", "--cap", "3000", "--seed", str(seed)])
       for seed in (0, 2**32, 2**64 - 1)},
    "pushpull-martingale": (
        PUSHPULL, ["martingale", "--trials", "200", "--steps", "1100", "--seed", str(2**32)]),
    "ring8-blowup": (
        RING8, ["blowup", "--trials", "300", "--steps", "300", "--seed", str(2**64 - 1)]),
    "two-stream-simulate": (
        TWO_STREAM, ["simulate", "--trials", "300", "--steps", "400", "--seed", "0"]),
    # ring rows are 8 outcomes wide; martingale looks up each outcome's
    # increment and marks it used for max_abs_increment
    "ring8-martingale-pull-priority": (
        RING8, ["martingale", "--trials", "300", "--steps", "300", "--seed", "7",
                "--policy", "pull-priority", "--alpha", "1,-2,3/2,4,-5,6,7/3,-8"]),
    "two-stream-martingale-push-priority": (
        TWO_STREAM, ["martingale", "--trials", "300", "--steps", "300", "--seed", str(2**64 - 1),
                      "--policy", "push-priority"]),
    # from a nonzero start, trials return to it and retire across three refills
    "pushpull-return-time-x0": (
        PUSHPULL, ["return-time", "--trials", "300", "--cap", "700", "--seed", "0",
                   "--x0", "2,1", "--policy", "threshold:1"]),
    # step 257 draws the first uniform of the second refill
    "pushpull-martingale-refill-boundary": (
        PUSHPULL, ["martingale", "--trials", "200", "--steps", "257", "--seed", "5"]),
    # 4100 trials take two lockstep batches
    "pushpull-simulate-two-batches": (
        PUSHPULL, ["simulate", "--trials", "4100", "--steps", "40", "--seed", "0",
                   "--policy", "threshold:1", "--x0", "3,2"]),
}

DIGESTS = {
    "pushpull-martingale": "700214c32493e668655747cc272b4003485eac12213a1c62e7c635ec5627a51e",
    "pushpull-martingale-refill-boundary": "e6a7caae56f3191433c45d0a68369c83ce2a77784ee2533e7f481d6ee7777f42",
    "pushpull-return-time-seed0": "6e7e56de08f57bd0068eca42497a0f7d86dd7f5bd815a1d1aa2948f094cb32eb",
    "pushpull-return-time-seed18446744073709551615": "49f0e7382036667b8d88716ca3a89b10ee6053a851d452146568776f81ed70d0",
    "pushpull-return-time-seed4294967296": "f3d29673260a184e896a7d23f3ba939747faa1522a1ab4bacecc3383445b28d9",
    "pushpull-return-time-x0": "9702a786cc29deea48e0b009d136d35e45c8606f76ba077aa119d8f318687a99",
    "pushpull-simulate-two-batches": "df3d86be4efd12c6588b9573412d6b1bca89135125ade230dd8c8bef450aa3bf",
    "ring8-blowup": "70b5e621421aa07b2f56573fd2119041037e7d93a95e02caea1b44e7730f97c9",
    "ring8-martingale-pull-priority": "33f57a04f54faf3712faa62ff81fd5e614fc527dfd9165b1880850824625f893",
    "two-stream-martingale-push-priority": "a4ec16e3680c19dadf4fd8a44c999571ee9a4fcb63da6d95fdaf87b4d4f5f071",
    "two-stream-simulate": "166f22b2a23b653e8da2e2f6d508d87a58a7a6ee14a46d903f4cd23d80919628",
}


def report_digest(path: str, args: list[str], capsys) -> str:
    h = hashlib.sha256()
    verb, *rest = args
    for fmt in ("json", "text"):
        code = run([verb, path, *rest, "--format", fmt])
        out = capsys.readouterr()
        h.update(f"{verb} {fmt} {code}\n".encode())
        h.update(out.out.encode() + b"\0" + out.err.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulation_reports_are_pinned(name, tmp_path, capsys):
    spec, args = CASES[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert report_digest(str(path), args, capsys) == DIGESTS[name]
