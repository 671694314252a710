"""Pinned output of the exact engine.

Each case writes one spec file and runs the ``certify``, ``drift`` and
``alpha`` verbs in json and text format through the CLI. The sha256 of
the six reports (exit code, stdout and stderr of each) must match the
digest recorded here, so any change to the exact engine that alters a
single byte of a report fails this test. Regenerate a digest only for a
deliberate change of the report format, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from qstab.cli import run
from qstab.netmodel import build_ring, dump_spec

POOL = ["1", "2", "3/2", "5/3", "7/4", "4", "9/5", "2/3"]


def _ring(m: int, shift: int = 0) -> dict:
    # shift 0 gives equal push and pull rates per stream (critical)
    lam = [POOL[(3 * k + m) % len(POOL)] for k in range(m)]
    mu = [POOL[(3 * k + m + shift) % len(POOL)] for k in range(m)]
    return {"family": "ring", "lambda": lam, "mu": mu}


def _two_stream(last: str) -> dict:
    # The two-stream example layout; with last == "3/2" every server carries
    # one unit of mean work per job on both streams (critical).
    layout = (((1, "1"), (2, "1"), (1, "1"), (2, "1")),
              ((2, "3/2"), (1, "1"), (2, "3/2"), (1, "1"), (2, last)))
    return {"family": "reentrant",
            "streams": [[{"server": s, "rate": r} for s, r in stream] for stream in layout]}


def _swap(k: int) -> dict:
    actions = []
    for i in range(k):
        for j in range(i + 1, k):
            fwd = [0] * k
            fwd[i], fwd[j] = -1, 1
            actions.append({"label": f"swap{i}{j}", "outcomes": [
                {"disp": fwd, "rate": "1"}, {"disp": [-x for x in fwd], "rate": "1"}]})
    return {"family": "custom", "M": k, "actions": actions}


def _exported_ring() -> dict:
    rates = ["2", "3/2", "5/3", "7/4", "4", "9/5"]
    return json.loads(dump_spec(build_ring(rates, rates)))


CASES = {
    "pushpull": {"family": "pushpull", "lambda": ["1", "2"], "mu": ["1", "2"]},
    **{f"ring{m}": _ring(m) for m in (*range(2, 9), 10, 12)},
    "ring8-noncritical": _ring(8, 1),
    "ring12-unit": {"family": "ring", "lambda": ["1"] * 12, "mu": ["1"] * 12},
    "two-stream-critical": _two_stream("3/2"),
    "two-stream-noncritical": _two_stream("2"),
    "swap5": _swap(5),
    "exported-ring6": _exported_ring(),
}

DIGESTS = {
    "exported-ring6": "388084c91da992af368a632e2d486cc076a0eee7b5bd96b2142636308e71116e",
    "pushpull": "0674863c53773bfce87c94f63ab93f2c26a46e5d43d2e312a69897fb6701b0a4",
    "ring2": "6d28214fec07f3dbed8d38f30d61d0c583258a48014f66d20e23c48520d18034",
    "ring3": "e5bedbcf118fadc20330a8854b04c9c178bbebe7ff26bba26c62c5423f29eb42",
    "ring4": "08c01e426565c7e1ade4387e10b9464a1489c01e9e0419c811be895fad05d565",
    "ring5": "98757b07e5ae91ff41b2e83254cef224faf56f8c224943ede3741baa5cf997ea",
    "ring6": "3eaad116d0e5608dfbf87d1390b33b562fdd17391e867a67f80c120a27e1d825",
    "ring7": "da735a81218fa9e99d5074e536888a531833b147a45c3ca012990ee475b8639b",
    "ring8": "ef0ace9fd2a18ee0a626c3bb19f05b500e8a4bd80ad822ebf971742e8303286c",
    "ring10": "e2a6c40b762b8ae67ee820583503dba59f723c7b20999e0db45e275bca23d83c",
    "ring12": "be5029a8519c947baf42e2f30611d765361279d7e1117ce417518801005fcb04",
    "ring12-unit": "65dc89ed69987d30425ffb249600df28f497b9233b54b715d2020688c9250221",
    "ring8-noncritical": "fa84a21265a9c05a43e6e5889b99066bf77d5b582f5b8e7966c6ed83b8d106e1",
    "swap5": "b3c6441e9598d86b2b0c209440a942bc359b02f6472b9d930bfd30a78865f4a1",
    "two-stream-critical": "f864a263ee50c8204b83245a723f8a7a00886e9088607894cb1471ef13836f7f",
    "two-stream-noncritical": "f115c7f6ca74d32000989ab1fa931bfe5066300f4484fcbd411e091ad9bf8d4c",
}


def report_digest(path: str, capsys) -> str:
    h = hashlib.sha256()
    for verb in ("certify", "drift", "alpha"):
        for fmt in ("json", "text"):
            code = run([verb, path, "--format", fmt])
            out = capsys.readouterr()
            h.update(f"{verb} {fmt} {code}\n".encode())
            h.update(out.out.encode() + b"\0" + out.err.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_engine_reports_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CASES[name]), encoding="utf-8")
    assert report_digest(str(path), capsys) == DIGESTS[name]


# sha256 of the drift verb's stdout on unit ring-12, the digests the
# exact-without-numpy CI job compares the installed console script with.
DRIFT_STDOUT = {
    "json": "a1345453fc5ee6329fdfcca53e6fa38c4e1f939b1a7b33781259e48bbc788fa2",
    "text": "f0b1495beda518a95212f7d70feda723877a5b1a306245814904b5575b097872",
}


@pytest.mark.parametrize("fmt", sorted(DRIFT_STDOUT))
def test_unit_ring12_drift_stdout_is_pinned(fmt, tmp_path, capsys):
    path = tmp_path / "ring12-unit.json"
    path.write_text(json.dumps(CASES["ring12-unit"]), encoding="utf-8")
    assert run(["drift", str(path), "--format", fmt]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == DRIFT_STDOUT[fmt]
