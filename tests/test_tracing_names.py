"""The names that ``bench/tracing.py`` patches or reads still exist.

The traced bench run swaps module attributes for timing wrappers and reads
a few attributes of what the wrapped calls take and return. A rename in
``src/`` would otherwise surface only when that run fails.
"""

from __future__ import annotations

import importlib.util
import sys
from functools import cache
from pathlib import Path

import numpy as np

from qstab import certify, cli, netmodel, simulate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

PATCHED = {
    netmodel: ("load_spec",),
    certify: ("certify_nonstabilizable", "drift_matrix", "family_alpha", "rank",
              "null_space_basis"),
    cli: ("render_json",),
    simulate: ("make_policy", "run_trajectories", "estimate_return_time", "martingale_test",
               "blowup_probe"),
}


@cache
def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapper():
    tracing = load_tracing()
    assert set(tracing.SIM_FUNCTIONS) <= set(PATCHED[simulate])
    originals = {(m, n): getattr(m, n) for m, names in PATCHED.items() for n in names}
    assert all(map(callable, originals.values()))
    with tracing.Tracer().installed():
        assert all(getattr(m, n) is not f for (m, n), f in originals.items())
    assert all(getattr(m, n) is f for (m, n), f in originals.items())


def test_attributes_the_tracer_reads_exist():
    net = netmodel.build_push_pull(1, 1, 1, 1)
    d = certify.drift_matrix(net)
    assert (net.n_actions, d.n_actions, d.n_queues) == (4, 4, 2)
    tracing = load_tracing()
    stats = tracing.PolicyStats()
    policy = tracing.wrap_policy(simulate.make_policy(net, "push-priority"), stats)
    assert policy.resolve((0, 0)) == 0
    assert policy.choose_batch(np.zeros((3, 2), dtype=np.int64)).tolist() == [0, 0, 0]
    assert (stats.calls, stats.rows) == (2, 4)
