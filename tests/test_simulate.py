"""Policies, the stepping engine, and trajectory statistics.

Statistical assertions use 4 standard errors around values derived from
exact computations (per-action drifts, the first-return law of the
symmetric unit walk); everything else is asserted exactly.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstab import simulate
from qstab.jsonio import render_json
from qstab.netmodel import (
    MAX_ACTIONS,
    ConstructionError,
    ReentrantMeta,
    build_custom,
    build_push_pull,
    build_reentrant,
    build_ring,
    build_two_stream_example,
    index_sets,
)
from qstab.certify import reentrant_alpha
from qstab.simulate import (
    GrowthReport,
    PolicyError,
    ReturnTimeStats,
    SimConfig,
    TrajectorySummary,
    blowup_probe,
    estimate_return_time,
    make_policy,
    martingale_test,
    run_trajectories,
    step,
    substream_seed,
    trial_rng,
)

F = Fraction


def critical_pp():
    return build_push_pull(1, 1, 1, 1)


def _ring8():
    return build_ring([1, 2, 3, 1, 2, 3, 1, 1], [2, 1, 1, 3, 1, 2, 1, 2])


# ---------------------------------------------------------------------------
# RNG substreams


def test_substream_seed_is_deterministic_and_spread():
    assert substream_seed(0, 0) == substream_seed(0, 0)
    seeds = {substream_seed(s, t) for s in range(3) for t in range(200)}
    assert len(seeds) == 600
    assert all(0 <= s < 2**64 for s in seeds)


def test_bulk_and_single_draws_agree():
    # The engine pregenerates uniforms in chunks while step() draws one at
    # a time; both must see the same stream.
    bulk = trial_rng(0, 0).random(64)
    g = trial_rng(0, 0)
    singles = np.array([g.random() for _ in range(64)])
    assert np.array_equal(bulk, singles)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40 - 1), st.integers(1, 4))
def test_batch_seeded_streams_are_the_trial_streams(seed, start, trials):
    # Two refills: the second continues from the state read back after the first.
    n = simulate._CHUNK + 37
    out = np.empty((trials, n))
    gen = np.random.Generator(np.random.PCG64(0))
    streams = simulate._Streams(gen, seed, start, start + trials)
    streams.fill(range(trials), out[:, : simulate._CHUNK], keep=True)
    streams.fill(range(trials), out[:, simulate._CHUNK:], keep=False)
    for i in range(trials):
        assert np.array_equal(out[i], trial_rng(seed, start + i).random(n))


def test_batch_seeding_is_checked_against_trial_rng(monkeypatch):
    monkeypatch.setattr(simulate, "_MIX_MULT_L", simulate._MIX_MULT_L ^ 1)
    monkeypatch.setattr(simulate, "_check_batch_seeding", simulate._check_batch_seeding.__wrapped__)
    net = critical_pp()
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds PCG64 differently"):
        run_trajectories(net, make_policy(net, "pull-priority"), SimConfig(trials=2, steps=3))


# ---------------------------------------------------------------------------
# policies


def test_pull_priority_on_push_pull():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    labels = {a.id: a.label for a in net.actions}
    assert labels[pol.resolve((0, 0))] == "(push,push)"
    assert labels[pol.resolve((3, 0))] == "(push,pull)"
    assert labels[pol.resolve((0, 4))] == "(pull,push)"
    assert labels[pol.resolve((2, 5))] == "(pull,pull)"


def test_pull_priority_on_supercritical_ring():
    ring = build_ring([2] * 4, [1] * 4)
    pol = make_policy(ring, "pull-priority")
    assert ring.actions[pol.resolve((1, 0, 1, 0))].label == "(push,pull,push,pull)"


def test_push_priority_always_pushes():
    for net in (critical_pp(), build_ring([1] * 3, [1] * 3)):
        pol = make_policy(net, "push-priority")
        for z in ((0,) * net.n_queues, (4,) * net.n_queues):
            assert all(x == 1 for x in net.actions[pol.resolve(z)].support[0] if x)
            assert "pull" not in net.actions[pol.resolve(z)].label


def test_threshold_policy_semantics():
    net = critical_pp()
    pol = make_policy(net, "threshold", threshold=2)
    labels = {a.id: a.label for a in net.actions}
    assert labels[pol.resolve((2, 2))] == "(push,push)"
    assert labels[pol.resolve((3, 0))] == "(push,pull)"
    assert labels[pol.resolve((0, 3))] == "(pull,push)"
    assert labels[pol.resolve((3, 3))] == "(pull,pull)"


def test_reentrant_pull_priority_is_last_buffer_first():
    net = build_two_stream_example()
    pol = make_policy(net, "pull-priority")
    assert net.actions[pol.resolve((1,) * 7)].label == "((2,3),(2,4))"
    assert net.actions[pol.resolve((0,) * 7)].label == "((1,0),(2,0))"
    # Only stream 1's queues (0..2) hold jobs: each server works its
    # deepest available stream-1 buffer, skipping the empty stream-2 ones.
    assert net.actions[pol.resolve((1, 1, 1, 0, 0, 0, 0))].label == "((1,2),(1,3))"


def test_reentrant_policy_starves_without_supply_step():
    trivial = build_reentrant([[(1, 1), (2, 1)]])
    pol = make_policy(trivial, "pull-priority")
    assert pol.resolve((1,)) == 0
    with pytest.raises(PolicyError, match="server 2"):
        pol.resolve((0,))
    with pytest.raises(ConstructionError):
        make_policy(trivial, "push-priority")


def test_unsupported_policy_combinations():
    net = build_two_stream_example()
    with pytest.raises(ConstructionError):
        make_policy(net, "threshold", threshold=1)
    with pytest.raises(ConstructionError):
        make_policy(critical_pp(), "lifo")
    with pytest.raises(ConstructionError):
        make_policy(critical_pp(), "custom")
    with pytest.raises(ConstructionError):
        make_policy(critical_pp(), "threshold", threshold=-1)
    custom_net = build_custom(1, [("grow", [((1,), 1)])])
    with pytest.raises(ConstructionError):
        make_policy(custom_net, "pull-priority")


def test_custom_table_policy():
    net = critical_pp()
    pol = make_policy(net, "custom", table={(0, 0): 0}, default=2)
    assert pol.resolve((0, 0)) == 0
    assert pol.resolve((5, 0)) == 2
    rng = trial_rng(0, 0)
    with pytest.raises(PolicyError, match=r"\(0, 1\)"):
        step(net, pol, (0, 1), rng)  # default (push,pull) drains queue 1 here


def _three_stream():
    # Server 1 ties at step 2 (streams 1 and 3), server 2 at step 1.
    return build_reentrant([
        [(1, 1), (2, 1), (1, 1)],
        [(2, 2), (1, 1), (2, 1), (1, 3)],
        [(1, 1), (2, 2), (1, 2)],
    ])


def _ring5():
    return build_ring([1] * 5, [1] * 5)


@pytest.mark.parametrize("build,kind,cutoff,top", [
    (build_two_stream_example, "pull-priority", 0, 2),
    (_three_stream, "pull-priority", 0, 2),
    (critical_pp, "threshold", 2, 4),
    (_ring5, "pull-priority", 0, 2),
    (critical_pp, "pull-priority", 0, 4),
    (critical_pp, "push-priority", 0, 4),
    (_ring5, "push-priority", 0, 2),
    (build_two_stream_example, "push-priority", 0, 2),
    (_three_stream, "push-priority", 0, 2),
], ids=[
    "two-stream", "three-stream", "push-pull threshold", "ring-5", "push-pull",
    "push-pull push-priority", "ring-5 push-priority", "two-stream push-priority",
    "three-stream push-priority",
])
def test_choose_batch_matches_scalar_reference(build, kind, cutoff, top):
    # Every state in {0..top}^M, as one batch against the scalar reference.
    net = build()
    pol = make_policy(net, kind, threshold=cutoff if kind == "threshold" else None)
    ref = reference_resolver(net, kind, cutoff)
    states = list(product(range(top + 1), repeat=net.n_queues))
    got = pol.choose_batch(np.array(states, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [ref(z) for z in states]
    assert [pol.resolve(z) for z in states[::37]] == got[::37].tolist()


@pytest.mark.parametrize("kind,cutoff", [("pull-priority", 0), ("threshold", 1)])
def test_choose_batch_matches_scalar_reference_at_the_action_limit(kind, cutoff):
    # Ring-14 has exactly MAX_ACTIONS actions, so ids reach 16383.
    net = build_ring([1] * 14, [1] * 14)
    assert net.n_actions == MAX_ACTIONS
    pol = make_policy(net, kind, threshold=cutoff if kind == "threshold" else None)
    ref = reference_resolver(net, kind, cutoff)
    corners = np.array([[0] * 14, [2] * 14])  # all push (id 0) and all pull (the last id)
    states = np.vstack([np.random.default_rng(14).integers(0, 3, size=(3000, 14)), corners])
    got = pol.choose_batch(states)
    assert got.tolist() == [ref(z) for z in map(tuple, states.tolist())]
    assert got[-2:].tolist() == [0, MAX_ACTIONS - 1]


BUILT_IN = [
    (critical_pp, "pull-priority"), (critical_pp, "push-priority"), (critical_pp, "threshold"),
    (_ring8, "pull-priority"), (_ring8, "push-priority"), (_ring8, "threshold"),
    (build_two_stream_example, "pull-priority"), (build_two_stream_example, "push-priority"),
]


@pytest.mark.parametrize("build,kind", BUILT_IN)
def test_built_in_policies_choose_once_per_lockstep_step(build, kind):
    net = build()
    pol = make_policy(net, kind, threshold=1 if kind == "threshold" else None)
    assert pol.choose_batch is not None
    calls = []

    def counted(states):
        calls.append(len(states))
        return pol.choose_batch(states)

    def no_scalar(z):
        raise AssertionError("the engine must not resolve rows one at a time")

    counted_pol = dataclasses.replace(pol, resolve=no_scalar, choose_batch=counted)
    steps = 3
    run_trajectories(net, counted_pol, SimConfig(seed=0, steps=steps, trials=4100))
    assert calls == [4096] * steps + [4] * steps  # one call per step of each batch


def test_batch_lbfs_error_names_the_first_starved_row():
    # Server 1's only step serves the single queue; server 2 only supplies.
    one = build_reentrant([[(2, 1), (1, 1)]])
    pol = make_policy(one, "pull-priority")
    assert pol.choose_batch(np.array([[1], [3]])).tolist() == [0, 0]
    with pytest.raises(PolicyError, match=r"^server 1 has no available operation at state \(0,\)$"):
        pol.choose_batch(np.array([[2], [0], [1], [0]]))
    # Rows 1 and 3 starve server 1; the message names row 1's state.
    two = build_reentrant([[(2, 1), (1, 1), (2, 1)]])
    pol = make_policy(two, "pull-priority")
    with pytest.raises(PolicyError, match=r"^server 1 has no available operation at state \(0, 3\)$"):
        pol.choose_batch(np.array([[1, 0], [0, 3], [2, 2], [0, 1]]))
    with pytest.raises(PolicyError, match=r"at state \(0, 3\)$"):
        run_trajectories(two, pol, SimConfig(seed=0, steps=1, trials=2, x0=(0, 3)))
    # The mirrored network starves server 2. Both servers cannot starve in
    # one row: every stream's supply step keeps one server always busy.
    mirror = make_policy(build_reentrant([[(1, 1), (2, 1), (1, 1)]]), "pull-priority")
    with pytest.raises(PolicyError, match=r"^server 2 has no available operation at state \(0, 5\)$"):
        mirror.choose_batch(np.array([[1, 0], [0, 5], [0, 0]]))


def test_custom_policies_run_once_per_row_in_row_order():
    net = critical_pp()
    seen = []

    def resolver(z):
        seen.append(z)
        return 0

    pol = make_policy(net, "custom", resolver=resolver)
    assert pol.resolve is resolver
    states = np.array([[3, 0], [0, 0], [1, 2], [0, 0]])
    assert pol.choose_batch(states).tolist() == [0, 0, 0, 0]
    assert seen == [(3, 0), (0, 0), (1, 2), (0, 0)]
    assert all(type(x) is int for z in seen for x in z)
    seen.clear()
    run_trajectories(net, pol, SimConfig(seed=0, steps=4, trials=3))
    assert len(seen) == 12
    assert seen[:3] == [(0, 0)] * 3  # step 1 sees every trial at the start state, in trial order
    table = make_policy(net, "custom", table={(1, 0): 2}, default=0)
    assert table.choose_batch(states).tolist() == [0, 0, 0, 0]
    with pytest.raises(PolicyError, match=r"no entry for state \(1, 2\)"):
        make_policy(net, "custom", table={(0, 0): 0}).choose_batch(np.array([[0, 0], [1, 2], [3, 3]]))


# ---------------------------------------------------------------------------
# step


def test_step_from_origin_moves_one_job():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    seen = set()
    for trial in range(40):
        seen.add(step(net, pol, (0, 0), trial_rng(0, trial)))
    assert seen == {(1, 0), (0, 1)}


def test_step_is_reproducible_and_nonnegative():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")

    def trajectory(seed):
        rng = trial_rng(seed, 0)
        z = (0, 0)
        out = []
        for _ in range(300):
            z = step(net, pol, z, rng)
            out.append(z)
        return out

    t1, t2 = trajectory(9), trajectory(9)
    assert t1 == t2
    assert all(min(z) >= 0 for z in t1)
    assert trajectory(10) != t1


def test_step_faults_on_unavailable_action():
    net = critical_pp()
    pol = make_policy(net, "custom", resolver=lambda z: 1)  # (pull,pull) everywhere
    with pytest.raises(PolicyError) as err:
        step(net, pol, (0, 0), trial_rng(0, 0))
    assert "(pull,pull)" in str(err.value) and "(0, 0)" in str(err.value)


def test_step_rejects_unknown_action_id():
    net = critical_pp()
    pol = make_policy(net, "custom", resolver=lambda z: 99)
    with pytest.raises(PolicyError, match="unknown action id 99 "):
        step(net, pol, (1, 1), trial_rng(0, 0))


def test_engine_error_names_the_out_of_range_id():
    # Trials pick 0 at the origin and 99 once queue 0 holds a job; the
    # message must name 99, not the smallest id in the batch.
    net = critical_pp()
    pol = make_policy(net, "custom", resolver=lambda z: 99 if z[0] >= 1 else 0)
    with pytest.raises(PolicyError, match="unknown action id 99 "):
        run_trajectories(net, pol, SimConfig(seed=0, steps=3, trials=8))


@pytest.mark.parametrize("bad", [0.0, 1.7, "1", -1, 2**70, True, False])
def test_bad_action_ids_are_rejected(bad):
    net = critical_pp()
    pol = make_policy(net, "custom", resolver=lambda z: bad)
    with pytest.raises(PolicyError, match=f"unknown action id {bad!r} at state"):
        step(net, pol, (1, 1), trial_rng(0, 0))
    with pytest.raises(PolicyError, match=f"unknown action id {bad!r} at state"):
        run_trajectories(net, pol, SimConfig(seed=0, steps=2, trials=3))


class FixedUniform:
    """Stands in for a trial's generator: every draw returns ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_outcome_clamp_at_float_cumsum_below_one():
    # Ten outcomes at rate 1/10: the float cumsum ends at 0.9999999999999999,
    # so the largest uniform lies at the last cumsum and must pick the last
    # outcome. A second, wider action pads this one's table row.
    from qstab.simulate import _Tables

    units = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    wide = units + [(1, -1) + (0,) * 8]
    net = build_custom(10, [("spread", [(d, 1) for d in units]), ("wide", [(d, 1) for d in wide])])
    cum = list(accumulate(float(F(1, 10)) for _ in range(10)))
    top = float(np.nextafter(1.0, 0.0))
    assert cum[-1] == top
    pol = make_policy(net, "custom", resolver=lambda z: 0)
    origin = (0,) * 10
    cases = [(top, 9), (0.0, 0)]
    cases += [(cum[k - 1], k) for k in range(1, 10)]
    cases += [(float(np.nextafter(cum[k], 0.0)), k) for k in range(9)]
    outcomes = net.actions[0].outcomes
    for u, k in cases:
        assert step(net, pol, origin, FixedUniform(u)) == outcomes[k][0]
    tables = _Tables(net)
    assert tables.cum.shape[1] == 11
    us = np.array([u for u, _ in cases])
    rows = len(cases)
    picked = tables.sample(np.zeros((rows, 10), dtype=np.int64), np.zeros(rows, dtype=np.int64), us)
    assert picked.tolist() == [k for _, k in cases]


def test_unavailable_action_error_names_smallest_id_and_its_first_row():
    # Step 1 puts each trial at one of three unit states; step 2 then picks
    # "take-b" (id 2) at (1, 0, 0) and "take-a" (id 1) at the other two,
    # all unavailable there. The message names id 1 at its first row.
    net = build_custom(
        3,
        [
            ("feed", [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]),
            ("take-a", [((-1, 0, 0), 1)]),
            ("take-b", [((0, -1, 0), 1)]),
        ],
    )
    pol = make_policy(
        net, "custom", resolver=lambda z: 0 if sum(z) == 0 else (2 if z[0] else 1)
    )
    seed, trials = 1, 8
    after_one = [Replay(net, pol.resolve).trial(seed, t, (0, 0, 0), 1)[-1][2] for t in range(trials)]
    take_a = [z for z in after_one if not z[0]]
    assert after_one[0] == (1, 0, 0) and len(set(take_a)) == 2
    with pytest.raises(PolicyError) as err:
        run_trajectories(net, pol, SimConfig(seed=seed, steps=2, trials=trials))
    assert str(err.value) == f"action 'take-a' (id 1) is not available at state {take_a[0]}"


# ---------------------------------------------------------------------------
# engine vs scalar replay


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_engine_matches_scalar_replay(seed):
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    steps = 80
    summary = run_trajectories(net, pol, SimConfig(seed=seed, steps=steps, trials=1, cap=1))
    rng = trial_rng(seed, 0)
    z = (0, 0)
    for _ in range(steps):
        z = step(net, pol, z, rng)
    assert summary.final_state_trial0 == z


def test_engine_mean_matches_scalar_totals():
    net = build_ring([1, 2], [2, 1])
    pol = make_policy(net, "pull-priority")
    trials, steps = 6, 50
    summary = run_trajectories(net, pol, SimConfig(seed=4, steps=steps, trials=trials, cap=1))
    finals = []
    for t in range(trials):
        rng = trial_rng(4, t)
        z = (0, 0)
        for _ in range(steps):
            z = step(net, pol, z, rng)
        finals.append(sum(z))
    assert summary.mean_final_total == np.mean(np.array(finals))
    assert summary.max_final_total == max(finals)


def reference_resolver(net, kind, cutoff=0):
    """A built-in policy as a scalar loop that shares no code with the engine.

    Actions are found by label, not by id arithmetic. On push-pull and ring
    networks server i pulls iff queue i-1 (cyclically) exceeds the cutoff.
    On re-entrant networks each server serves its last buffer first: the
    available step with the largest index wins, ties broken by stream order,
    and a supply step (step 0) is always available. Push-priority takes
    every server's push, or its first supply step.
    """
    by_label = {a.label: a.id for a in net.actions}
    meta = net.meta
    if kind == "push-priority":
        if isinstance(meta, ReentrantMeta):
            supply = [
                next(f"({i + 1},{j})" for i, j in meta.server_operations(server) if j == 0)
                for server in (1, 2)
            ]
            label = f"({supply[0]},{supply[1]})"
        else:
            label = "(" + ",".join(["push"] * net.n_queues) + ")"
        return lambda z: by_label[label]
    if kind in ("pull-priority", "threshold") and not isinstance(meta, ReentrantMeta):
        m = net.n_queues

        def resolve(z):
            return by_label["(" + ",".join(
                "pull" if z[(i - 1) % m] > cutoff else "push" for i in range(m)) + ")"]

        return resolve
    assert kind == "pull-priority"

    def pick(z, server):
        for i, j in sorted(meta.server_operations(server), key=lambda ij: (-ij[1], ij[0])):
            if j == 0 or z[meta.queue_index(i, j)] >= 1:
                return f"({i + 1},{j})"
        raise PolicyError(f"server {server} has no available operation at state {z}")

    return lambda z: by_label[f"({pick(z, 1)},{pick(z, 2)})"]


class Replay:
    """The sampling contract in plain Python, sharing no code with the engine.

    Exact rationals become a float cumsum per action; a step draws one
    ``random()`` from the trial's own stream and takes ``bisect_right``
    clamped to the last outcome. ``resolve`` maps a state tuple to the
    policy's action id.
    """

    def __init__(self, net, resolve):
        self.net, self.resolve = net, resolve
        self.cums = [
            list(accumulate(float(rate / act.total_rate) for _, rate in act.outcomes))
            for act in net.actions
        ]

    def trial(self, seed, t, x0, steps, stop_at_start=False):
        """[(action, outcome index, state after)] per step."""
        rng = trial_rng(seed, t)
        z, path = x0, []
        for _ in range(steps):
            a = self.resolve(z)
            act = self.net.actions[a]
            assert all(z[k] >= 1 for k in act.drains)
            cum = self.cums[a]
            k = min(bisect_right(cum, rng.random()), len(cum) - 1)
            z = tuple(x + d for x, d in zip(z, act.outcomes[k][0]))
            path.append((a, k, z))
            if stop_at_start and z == x0:
                break
        return path


def replayed_reports(net, resolve, alpha, cfg):
    """The four verbs' reports computed from Replay paths."""
    rep = Replay(net, resolve)
    x0 = cfg.x0 or (0,) * net.n_queues
    paths = [rep.trial(cfg.seed, t, x0, cfg.steps) for t in range(cfg.trials)]
    finals = [sum(path[-1][2]) for path in paths]
    summary = TrajectorySummary(
        cfg.trials, cfg.steps, sum(finals) / cfg.trials, max(finals), paths[0][-1][2]
    )

    returns = [rep.trial(cfg.seed, t, x0, cfg.cap, True) for t in range(cfg.trials)]
    times = [len(path) for path in returns if path[-1][2] == x0]
    returned = len(times)
    return_stats = ReturnTimeStats(
        cfg.trials,
        returned,
        F(cfg.trials - returned, cfg.trials),
        sum(times) / returned if returned else 0.0,
        sum(len(path) for path in returns) / cfg.trials,
    )

    n = cfg.steps
    sum_n = n * (n + 1) / 2.0
    denom = n * (n + 1) * (2 * n + 1) / 6.0 - sum_n * sum_n / (n + 1)
    slopes = []
    for path in paths:
        sum_t, sum_nt = float(sum(x0)), 0.0
        for s, (_, _, z) in enumerate(path, 1):
            sum_t += sum(z)
            sum_nt += s * float(sum(z))
        slopes.append((sum_nt - sum_n * sum_t / (n + 1)) / denom)
    growth = GrowthReport(
        float(np.mean(slopes)), sum(f > sum(x0) for f in finals) / cfg.trials
    )

    inc = {}
    dz = []
    for path in paths:
        z = 0.0
        for a, k, _ in path:
            if (a, k) not in inc:
                d = net.actions[a].outcomes[k][0]
                inc[a, k] = float(sum(F(w) * x for w, x in zip(alpha, d)))
            z += inc[a, k]
        dz.append(z)
    drift = (
        float(np.mean(dz)),
        float(np.std(dz, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0,
        max(abs(v) for v in inc.values()),
    )
    return summary, return_stats, growth, drift, paths[0]


REPLAY_CASES = {
    "push-pull": (
        critical_pp, "pull-priority", (1, -1), SimConfig(seed=3, steps=60, trials=40, cap=80),
    ),
    "ring-8 pull-priority": (
        _ring8, "pull-priority", tuple(range(1, 9)),
        SimConfig(seed=1, steps=40, trials=60, cap=40, x0=(1, 0, 2, 0, 1, 1, 0, 3)),
    ),
    "two-stream": (
        build_two_stream_example, "pull-priority", None,
        SimConfig(seed=2, steps=50, trials=30, cap=50),
    ),
    "refill past one chunk": (
        critical_pp, "pull-priority", (2, -1),
        SimConfig(seed=5, steps=1100, trials=6, cap=1100, x0=(2, 0)),
    ),
    "two batches": (
        critical_pp, "threshold", (1, -1), SimConfig(seed=0, steps=3, trials=4100, cap=3),
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_engine_matches_independent_replay(case):
    build, kind, alpha, cfg = REPLAY_CASES[case]
    net = build()
    alpha = alpha or reentrant_alpha(net)
    cutoff = 1 if kind == "threshold" else None
    pol = make_policy(net, kind, threshold=cutoff)
    resolve = reference_resolver(net, kind, cutoff or 0)
    summary, return_stats, growth, drift, path0 = replayed_reports(net, resolve, alpha, cfg)
    assert run_trajectories(net, pol, cfg) == summary
    assert estimate_return_time(net, pol, cfg) == return_stats
    assert blowup_probe(net, pol, cfg) == growth
    rep = martingale_test(net, pol, alpha, cfg)
    assert (rep.mean_delta_Z, rep.std_error, rep.max_abs_increment) == drift
    rng = trial_rng(cfg.seed, 0)
    z = cfg.x0 or (0,) * net.n_queues
    for _, _, want in path0:
        z = step(net, pol, z, rng)
        assert z == want


# ---------------------------------------------------------------------------
# return times


def test_return_time_censoring_conventions():
    # A pure birth chain never returns: every trial is censored at the cap.
    net = build_custom(1, [("grow", [((1,), 1)])])
    pol = make_policy(net, "custom", resolver=lambda z: 0)
    stats = estimate_return_time(net, pol, SimConfig(seed=0, steps=1, trials=3, cap=5))
    assert stats.returned == 0
    assert stats.censored_fraction == F(1)
    assert stats.mean_uncensored == 0.0
    assert stats.mean_censored_at_cap == 5.0


def test_return_time_subcritical_rarely_censors():
    net = build_push_pull(1, 1, 2, 2)
    pol = make_policy(net, "pull-priority")
    stats = estimate_return_time(net, pol, SimConfig(seed=0, trials=2000, cap=2000))
    assert stats.censored_fraction < F(1, 100)
    assert stats.returned > 0 and stats.mean_uncensored > 0


def test_return_time_critical_grows_with_cap():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    means = [
        estimate_return_time(net, pol, SimConfig(seed=0, trials=3000, cap=cap)).mean_censored_at_cap
        for cap in (100, 1000)
    ]
    assert means[0] < means[1]


def test_return_time_matches_symmetric_walk_law():
    # Under pull priority the critical symmetric push-pull network leaves
    # the origin and walks one axis symmetrically, so its return time has
    # the first-return law of the symmetric unit walk:
    #   P(T = 2n) = Catalan(n-1) / 2^(2n-1), and odd returns are impossible.
    # Empirical masses come from censored fractions at increasing caps over
    # the same trial set (same seed, so trajectories are shared prefixes).
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    trials = 20_000
    cf = {
        cap: estimate_return_time(
            net, pol, SimConfig(seed=0, trials=trials, cap=cap)
        ).censored_fraction
        for cap in (2, 3, 4, 6, 8)
    }
    assert cf[3] == cf[2]  # parity: no returns at odd times
    empirical = {
        2: 1 - cf[2],
        4: cf[2] - cf[4],
        6: cf[4] - cf[6],
        8: cf[6] - cf[8],
    }
    for n in (1, 2, 3, 4):
        exact = F(comb(2 * (n - 1), n - 1), n) / 2 ** (2 * n - 1)
        se = sqrt(exact * (1 - exact) / trials)
        assert abs(float(empirical[2 * n]) - float(exact)) <= 4 * se


# ---------------------------------------------------------------------------
# martingale checks


@pytest.mark.parametrize("kind,cutoff", [("pull-priority", None), ("push-priority", None), ("threshold", 1)])
def test_weighted_length_is_driftless_on_critical_net(kind, cutoff):
    net = critical_pp()
    pol = make_policy(net, kind, threshold=cutoff)
    rep = martingale_test(net, pol, (1, -1), SimConfig(seed=0, steps=300, trials=800))
    assert abs(rep.mean_delta_Z) <= 4 * rep.std_error
    assert rep.bound == 1.0
    assert rep.max_abs_increment <= rep.bound


def test_biased_policy_has_negative_drift():
    # Per-action weighted drifts for lambda=(1,1), mu=(2,2), alpha=(1,-1):
    # (push,push) -> 0, (push,pull) -> -1/3. A policy that plays
    # (push,pull) whenever possible therefore drifts down; all-push stays
    # driftless.
    net = build_push_pull(1, 1, 2, 2)
    biased = make_policy(net, "custom", resolver=lambda z: 2 if z[0] >= 1 else 0)
    cfg = SimConfig(seed=3, steps=300, trials=1200)
    rep = martingale_test(net, biased, (1, -1), cfg)
    assert rep.mean_delta_Z < -4 * rep.std_error
    pushy = make_policy(net, "push-priority")
    rep0 = martingale_test(net, pushy, (1, -1), cfg)
    assert abs(rep0.mean_delta_Z) <= 4 * rep0.std_error


def test_increment_bound_with_transfers():
    net = build_two_stream_example()
    alpha = reentrant_alpha(net)
    sets = index_sets(net)
    exact_bound = max(
        [abs(alpha[i]) for i in sets.external]
        + [abs(alpha[i] - alpha[j]) for i, j in sets.transfers]
    )
    pol = make_policy(net, "pull-priority")
    rep = martingale_test(net, pol, alpha, SimConfig(seed=0, steps=200, trials=50))
    assert rep.bound == float(exact_bound)
    assert rep.max_abs_increment <= rep.bound
    assert abs(rep.mean_delta_Z) <= 4 * rep.std_error


def test_per_action_empirical_drift_vanishes():
    # Conditioned on the chosen action, the weighted increment must be
    # centered; checked per action over one long scalar trajectory.
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    rng = trial_rng(0, 0)
    z = (0, 0)
    sums: dict[int, list[float]] = {}
    for _ in range(30_000):
        a = pol.resolve(z)
        nxt = step(net, pol, z, rng)
        dz = (nxt[0] - z[0]) - (nxt[1] - z[1])
        sums.setdefault(a, []).append(float(dz))
        z = nxt
    for a, incs in sums.items():
        if len(incs) < 300:
            continue
        arr = np.array(incs)
        se = arr.std(ddof=1) / sqrt(len(arr))
        assert abs(arr.mean()) <= 4 * se, f"action {a} drifts"


def test_alpha_length_validated():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    with pytest.raises(ConstructionError):
        martingale_test(net, pol, (1, -1, 1), SimConfig(trials=2, steps=2))


# ---------------------------------------------------------------------------
# growth probe


def test_blowup_supercritical_even_ring():
    ring = build_ring([2] * 4, [1] * 4)
    pol = make_policy(ring, "pull-priority")
    rep = blowup_probe(ring, pol, SimConfig(seed=0, steps=2000, trials=150, x0=(1, 0, 1, 0)))
    assert rep.slope_per_step >= 0.05
    assert rep.fraction_grew >= 0.9


def test_blowup_subcritical_ring_is_flat():
    ring = build_ring([1] * 4, [2] * 4)
    pol = make_policy(ring, "pull-priority")
    rep = blowup_probe(ring, pol, SimConfig(seed=0, steps=2000, trials=150))
    assert abs(rep.slope_per_step) <= 0.02


# ---------------------------------------------------------------------------
# reproducibility and validation


def test_reports_are_bit_identical_across_reruns():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    cfg = SimConfig(seed=42, steps=150, trials=300, cap=500)
    m1 = martingale_test(net, pol, (1, -1), cfg)
    m2 = martingale_test(net, pol, (1, -1), cfg)
    assert m1 == m2
    assert render_json(m1.to_json_dict()) == render_json(m2.to_json_dict())
    r1 = estimate_return_time(net, pol, cfg)
    r2 = estimate_return_time(net, pol, cfg)
    assert r1 == r2
    b1 = blowup_probe(net, pol, cfg)
    b2 = blowup_probe(net, pol, cfg)
    assert b1 == b2
    other = martingale_test(net, pol, (1, -1), SimConfig(seed=43, steps=150, trials=300))
    assert other != m1


def test_trial_order_independence_of_aggregates():
    # Substreams depend only on (seed, trial), so doubling the trial count
    # keeps the original trials' contribution unchanged.
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    small = estimate_return_time(net, pol, SimConfig(seed=5, trials=100, cap=200))
    large = estimate_return_time(net, pol, SimConfig(seed=5, trials=200, cap=200))
    # Exact check on the integer sum underlying the censored mean.
    assert (small.mean_censored_at_cap * 100) % 1 == 0
    assert small.returned <= large.returned


def test_config_validation():
    with pytest.raises(ConstructionError):
        SimConfig(steps=0)
    with pytest.raises(ConstructionError):
        SimConfig(trials=0)
    with pytest.raises(ConstructionError):
        SimConfig(seed=-1)
    with pytest.raises(ConstructionError, match=r"\[0, 2\*\*64\)"):
        SimConfig(seed=2**64)  # would alias seed 0 in substream_seed
    assert SimConfig(seed=2**64 - 1).seed == 2**64 - 1
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    with pytest.raises(ConstructionError):
        run_trajectories(net, pol, SimConfig(x0=(1, 2, 3), steps=2, trials=2))
    with pytest.raises(ConstructionError):
        run_trajectories(net, pol, SimConfig(x0=(-1, 0), steps=2, trials=2))


def test_start_states_keep_int64_headroom():
    # Push-priority adds one job per step, so 10 steps from a total of
    # 2**63 - 11 end exactly at the int64 maximum without wrapping.
    net = critical_pp()
    push = make_policy(net, "push-priority")
    top = 2**63 - 1
    summary = run_trajectories(net, push, SimConfig(x0=(top - 10, 0), steps=10, cap=10, trials=2))
    assert summary.max_final_total == top and sum(summary.final_state_trial0) == top
    for x0, steps, cap in [((top - 9, 0), 10, 10), ((top - 19, 0), 5, 20), ((2**70, 0), 1, 1),
                           ((top, top), 1, 1)]:
        with pytest.raises(ConstructionError, match="too large"):
            SimConfig(x0=x0, steps=steps, cap=cap)
    assert step(net, push, (top - 1, 0), trial_rng(0, 0)) in {(top, 0), (top - 1, 1)}
    for z in [(top, 0), (2**63, 0), (2**64, 0)]:
        with pytest.raises(ConstructionError, match="too large"):
            step(net, push, z, trial_rng(0, 0))


def test_trajectory_summary_fields():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    summary = run_trajectories(net, pol, SimConfig(seed=0, steps=40, trials=20))
    assert summary.trials == 20 and summary.steps == 40
    assert summary.max_final_total >= summary.mean_final_total >= 0
    assert len(summary.final_state_trial0) == 2
    payload = summary.to_json_dict()
    assert set(payload) == {
        "trials", "steps", "mean_final_total", "max_final_total", "final_state_trial0",
    }
