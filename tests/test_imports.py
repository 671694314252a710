"""The exact engine runs without the simulator, and so without numpy.

``import qstab`` and the exact verbs (certify, drift, alpha) use
``fractions`` only. The simulator's names load :mod:`qstab.simulate`, and
with it numpy, on first use (PEP 562). The boundary tests run in a fresh
interpreter, because this one imported numpy long ago.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qstab
from qstab import netmodel, simulate
from test_golden_sim import CASES, DIGESTS

SRC = str(Path(qstab.__file__).resolve().parent.parent)

RING4 = {"family": "ring", "lambda": ["1", "2", "3", "4"], "mu": ["1", "2", "3", "4"]}
PP_CRITICAL = {"family": "pushpull", "lambda": ["1", "1"], "mu": ["1", "1"]}

# argv: src dir, ring-4 spec, push-pull spec, martingale spec, martingale args (JSON).
# Prints whether numpy is loaded after each step, every exit code, and the
# digest of the martingale reports in the form tests/test_golden_sim.py pins.
FRESH_PROCESS = r"""
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
ring4, pushpull, mart_spec, mart_args = sys.argv[2], sys.argv[3], sys.argv[4], json.loads(sys.argv[5])
steps = []

def note(name, code=None):
    steps.append([name, code, "numpy" in sys.modules])

import qstab
note("import qstab")
from qstab import cli
note("import qstab.cli")

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()

for spec in (ring4, pushpull):
    for verb in ("certify", "drift", "alpha"):
        for fmt in ("json", "text"):
            note(f"{verb} {spec} {fmt}", call([verb, spec, "--format", fmt])[0])

h = hashlib.sha256()
verb, *rest = mart_args
for fmt in ("json", "text"):
    code, out, err = call([verb, mart_spec, *rest, "--format", fmt])
    h.update(f"{verb} {fmt} {code}\n".encode())
    h.update(out.encode() + b"\0" + err.encode() + b"\0")
note("martingale", code)
print(json.dumps({"steps": steps, "digest": h.hexdigest()}))
"""


def test_exact_verbs_never_load_numpy(tmp_path):
    paths = []
    for name, doc in (("ring4.json", RING4), ("pp.json", PP_CRITICAL),
                      ("mart.json", CASES["pushpull-martingale"][0])):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    mart_args = CASES["pushpull-martingale"][1]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, SRC, *paths, json.dumps(mart_args)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    *exact, martingale = result["steps"]
    assert len(exact) == 2 + 2 * 3 * 2
    assert [(name, code) for name, code, numpy in exact if numpy] == []
    assert [(name, code) for name, code, _ in exact if code not in (None, 0)] == []
    # The first simulation loads numpy and reports the pinned bytes.
    assert martingale[1:] == [0, True]
    assert result["digest"] == DIGESTS["pushpull-martingale"]


def test_simulator_names_resolve_through_the_package():
    assert set(qstab.__all__) <= set(dir(qstab))
    for name in qstab.__all__:
        assert getattr(qstab, name) is not None
    assert qstab.SimConfig is simulate.SimConfig and qstab.trial_rng is simulate.trial_rng
    namespace: dict = {}
    exec("from qstab import *", namespace)
    assert namespace["make_policy"] is simulate.make_policy
    assert set(namespace) - {"__builtins__"} == set(qstab.__all__)


def test_policy_error_is_one_class():
    assert qstab.PolicyError is netmodel.PolicyError is simulate.PolicyError


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qstab' has no attribute 'no_such_name'$"):
        qstab.no_such_name  # noqa: B018
