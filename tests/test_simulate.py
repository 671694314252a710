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
from math import comb, lcm, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import list_actions
from qstab import simulate
from qstab.jsonio import render_json
from qstab.netmodel import (
    MAX_ACTIONS,
    ConstructionError,
    NetworkSpec,
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
from test_certify import BAD_WEIGHTS, nets_with_repeated_outcomes

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


def _streams(seed: int, start: int, stop: int) -> simulate._Streams:
    """The engine's streams of trials start..stop-1, as ``_run`` builds them."""
    words = simulate._pcg64_states(seed, start, stop)[:, simulate._word_order()]
    return simulate._Streams(np.random.Generator(np.random.PCG64(0)), words)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40 - 1), st.integers(1, 4))
def test_batch_seeded_streams_are_the_trial_streams(seed, start, trials):
    # Two refills: the second continues from the state read back after the first.
    n = simulate._CHUNK + 37
    out = np.empty((trials, n))
    streams = _streams(seed, start, start + trials)
    streams.fill(range(trials), out[:, : simulate._CHUNK], keep=True)
    streams.fill(range(trials), out[:, simulate._CHUNK:], keep=False)
    for i in range(trials):
        assert np.array_equal(out[i], trial_rng(seed, start + i).random(n))


def _unsplitmix(z: int) -> int:
    """The x with splitmix64's finaliser mapping x to z (each step is a bijection)."""
    mask = 2**64 - 1
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x if mult is None else x * pow(mult, -1, 2**64) & mask
    return z


# seed + 1 * golden is the pre-image of 12345, so trial 0's seed has one 32-bit entropy word
_ONE_WORD_SEED = (_unsplitmix(12345) - simulate._GOLDEN) % 2**64


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40 - 1), st.integers(1, 8))
@example(0, 0, 8)
@example(2**64 - 1, 0, 8)
@example(_ONE_WORD_SEED, 0, 1)
@example(-3 * simulate._GOLDEN % 2**64, 0, 4)  # seed + (t+1) * golden wraps from t = 2 on
def test_batch_seeding_words_are_the_pcg64_states(seed, start, trials):
    words = simulate._pcg64_states(seed, start, start + trials)
    assert words.dtype == np.uint64 and words.shape == (trials, 4) and words.flags.c_contiguous
    for i, row in enumerate(words.tolist()):
        pcg = np.random.PCG64(substream_seed(seed, start + i)).state["state"]
        split = [w for v in (pcg["state"], pcg["inc"]) for w in (v & (2**64 - 1), v >> 64)]
        assert row == split


def test_one_word_seed_example_has_one_entropy_word():
    assert substream_seed(_ONE_WORD_SEED, 0) == 12345


def test_refill_of_a_subset_leaves_retired_rows_alone():
    # As in return-time: rows 1, 3 and 4 retire after the first refill.
    seed, n = 2**63 + 5, 20
    streams = _streams(seed, 7, 13)
    out = np.full((6, 2 * n), np.nan)
    streams.fill(range(6), out[:, :n], keep=True)
    before = streams.words.copy()
    kept = [0, 2, 5]
    streams.fill(kept, out[:, n:], keep=True)
    for i in range(6):
        want = trial_rng(seed, 7 + i).random(2 * n)
        if i in kept:
            assert np.array_equal(out[i], want)
        else:
            assert np.array_equal(out[i, :n], want[:n]) and np.isnan(out[i, n:]).all()
            assert np.array_equal(streams.words[i], before[i])
    assert not np.array_equal(streams.words[kept], before[kept])


def _unchecked_seeding(monkeypatch):
    """Make ``_word_order`` check afresh on every call, and expect its one error."""
    monkeypatch.setattr(simulate, "_word_order", simulate._word_order.__wrapped__)
    message = f"numpy {np.__version__} seeds or stores PCG64 differently"
    return pytest.raises(RuntimeError, match=message)


def test_swapped_word_order_is_caught(monkeypatch):
    swapped = next(order for order in simulate._WORD_ORDERS if order != simulate._word_order())
    monkeypatch.setattr(simulate, "_WORD_ORDERS", [swapped])
    with _unchecked_seeding(monkeypatch):
        simulate._word_order()


@pytest.mark.parametrize("bit", [1, 63, 64, 127])
def test_wrong_pcg64_multiplier_is_caught(monkeypatch, bit):
    monkeypatch.setattr(simulate, "_PCG64_MULT", simulate._PCG64_MULT ^ 1 << bit)
    with _unchecked_seeding(monkeypatch):
        simulate._word_order()


def test_unknown_state_layout_raises(monkeypatch):
    # A view that is not the generator's state memory matches no known order.
    monkeypatch.setattr(simulate, "_state_view", lambda bitgen: np.zeros(4, dtype=np.uint64))
    with _unchecked_seeding(monkeypatch):
        simulate._word_order()


def test_batch_seeding_is_checked_against_trial_rng(monkeypatch):
    monkeypatch.setattr(simulate, "_MIX_MULT_L", simulate._MIX_MULT_L ^ 1)
    net = critical_pp()
    with _unchecked_seeding(monkeypatch):
        run_trajectories(net, make_policy(net, "pull-priority"), SimConfig(trials=2, steps=3))


# ---------------------------------------------------------------------------
# policies


def test_pull_priority_on_push_pull():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    labels = [a.label for a in list_actions(net)]
    assert labels[pol.resolve((0, 0))] == "(push,push)"
    assert labels[pol.resolve((3, 0))] == "(push,pull)"
    assert labels[pol.resolve((0, 4))] == "(pull,push)"
    assert labels[pol.resolve((2, 5))] == "(pull,pull)"


def test_pull_priority_on_supercritical_ring():
    ring = build_ring([2] * 4, [1] * 4)
    pol = make_policy(ring, "pull-priority")
    assert ring.action(pol.resolve((1, 0, 1, 0))).label == "(push,pull,push,pull)"


def test_push_priority_always_pushes():
    for net in (critical_pp(), build_ring([1] * 3, [1] * 3)):
        pol = make_policy(net, "push-priority")
        for z in ((0,) * net.n_queues, (4,) * net.n_queues):
            assert all(x == 1 for x in net.action(pol.resolve(z)).outcomes[0][0] if x)
            assert "pull" not in net.action(pol.resolve(z)).label


def test_threshold_policy_semantics():
    net = critical_pp()
    pol = make_policy(net, "threshold", threshold=2)
    labels = [a.label for a in list_actions(net)]
    assert labels[pol.resolve((2, 2))] == "(push,push)"
    assert labels[pol.resolve((3, 0))] == "(push,pull)"
    assert labels[pol.resolve((0, 3))] == "(pull,push)"
    assert labels[pol.resolve((3, 3))] == "(pull,pull)"


def test_reentrant_pull_priority_is_last_buffer_first():
    net = build_two_stream_example()
    pol = make_policy(net, "pull-priority")
    assert net.action(pol.resolve((1,) * 7)).label == "((2,3),(2,4))"
    assert net.action(pol.resolve((0,) * 7)).label == "((1,0),(2,0))"
    # Only stream 1's queues (0..2) hold jobs: each server works its
    # deepest available stream-1 buffer, skipping the empty stream-2 ones.
    assert net.action(pol.resolve((1, 1, 1, 0, 0, 0, 0))).label == "((1,2),(1,3))"


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


@pytest.mark.parametrize("kind, kwargs", [
    ("push-priority", {"resolver": lambda z: 1}),
    ("pull-priority", {"threshold": 7}),
    ("threshold", {"threshold": 1, "resolver": lambda z: 1}),
    ("custom", {"resolver": lambda z: 1, "threshold": 0}),
])
def test_policy_arguments_of_another_kind_are_refused(kind, kwargs):
    with pytest.raises(ConstructionError, match=f"policy kind '{kind}' takes no"):
        make_policy(critical_pp(), kind, **kwargs)


def test_policy_arguments_left_none_are_accepted():
    net = critical_pp()
    assert make_policy(net, "pull-priority", threshold=None, resolver=None).resolve((1, 1)) == 1
    assert make_policy(net, "custom", threshold=None, resolver=lambda z: 2).resolve((1, 1)) == 2


def test_custom_table_policy():
    # A finite table with a default id is a resolver.
    net = critical_pp()
    table = {(0, 0): 0}
    pol = make_policy(net, "custom", resolver=lambda z: table.get(z, 2))
    assert pol.resolve((0, 0)) == 0
    assert pol.resolve((5, 0)) == 2
    rng = trial_rng(0, 0)
    with pytest.raises(PolicyError, match=r"\(0, 1\)"):
        step(net, pol, (0, 1), rng)  # default (push,pull) drains queue 1 here


def test_step_availability_error_names_the_action_id():
    # step samples from a one-row table; the error names id 2, not row 0
    net = critical_pp()
    pol = make_policy(net, "custom", resolver=lambda z: 2)
    with pytest.raises(PolicyError) as err:
        step(net, pol, (0, 1), trial_rng(0, 0))
    assert str(err.value) == "action '(push,pull)' (id 2) is not available at state (0, 1)"


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


def test_policy_and_step_at_the_action_limit_build_no_action_list(monkeypatch):
    net = build_ring([1] * 14, [1] * 14)
    pol = make_policy(net, "pull-priority")
    built = []
    action = NetworkSpec.action
    monkeypatch.setattr(NetworkSpec, "action", lambda self, a: built.append(a) or action(self, a))
    assert len(step(net, pol, (1,) + (0,) * 13, np.random.default_rng(0))) == 14
    assert len(built) == 1  # the chosen action only, out of 16384


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


def _per_server_reference(net, kind, cutoff):
    """A built-in policy folded server by server, sharing no code with the
    engine: each server takes the first menu position of its priority list
    whose choice drains nothing or drains a queue holding more than
    ``cutoff`` jobs; the positions read in mixed radix, server 1 most
    significant, give the id, mapped through ``ids`` on push-pull."""
    def drained(choice):
        return next((d.index(-1) for d, _ in choice.outcomes if -1 in d), None)

    orders = []
    for server, menu in enumerate(net.menus, 1):
        if kind == "push-priority":
            orders.append([next(k for k, c in enumerate(menu) if drained(c) is None)])
        elif isinstance(net.meta, ReentrantMeta):  # last buffer first, ties by stream
            ops = net.meta.server_operations(server)
            orders.append(sorted(range(len(ops)), key=lambda k: (-ops[k][1], ops[k][0])))
        else:  # pull, else push
            orders.append(sorted(range(len(menu)), key=lambda k: drained(menu[k]) is None))

    def resolve(z):
        a = 0
        for server, (menu, order) in enumerate(zip(net.menus, orders), 1):
            qualifies = [k for k in order if drained(menu[k]) is None or z[drained(menu[k])] > cutoff]
            if not qualifies:
                raise PolicyError(f"server {server} has no available operation at state {z}")
            a = a * len(menu) + qualifies[0]
        return a if net.ids is None else net.ids[a]

    return resolve


def _one_buffer_line():
    # Server 2's list ends at once, so both servers put a weight step on
    # queue 0's column.
    return build_reentrant([[(2, 1), (1, 1)]])


def _two_buffer_line():
    return build_reentrant([[(2, 1), (1, 1), (1, 1)]])


_STARVING = [_one_buffer_line, _two_buffer_line]  # server 1 serves every buffer, with no supply step


@pytest.mark.parametrize("build,kind,cutoff", [
    *((build, kind, cutoff) for build in (critical_pp, _ring5, _ring8)
      for kind, cutoff in (("pull-priority", 0), ("push-priority", 0), ("threshold", 0), ("threshold", 2))),
    (build_two_stream_example, "pull-priority", 0), (build_two_stream_example, "push-priority", 0),
    (_three_stream, "pull-priority", 0), *((line, "pull-priority", 0) for line in _STARVING),
])
def test_built_in_ids_fold_each_servers_first_qualifying_choice(build, kind, cutoff):
    # Random states with queues at, below and just above the cutoff; rows
    # where a server starves must fail with the reference's first such row.
    net = build()
    pol = make_policy(net, kind, threshold=cutoff if kind == "threshold" else None)
    ref = _per_server_reference(net, kind, cutoff)
    states = np.random.default_rng(21).integers(0, cutoff + 3, size=(400, net.n_queues))
    want, errors = {}, []
    for row, z in enumerate(map(tuple, states.tolist())):
        try:
            want[row] = ref(z)
        except PolicyError as err:
            errors.append(str(err))
    assert pol.choose_batch(states[list(want)]).tolist() == list(want.values())
    assert bool(errors) == (build in _STARVING)
    if errors:
        with pytest.raises(PolicyError) as err:
            pol.choose_batch(states)
        assert str(err.value) == errors[0]


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
    table = make_policy(net, "custom", resolver=lambda z: {(1, 0): 2}.get(z, 0))
    assert table.choose_batch(states).tolist() == [0, 0, 0, 0]
    no_default = make_policy(net, "custom", resolver={(0, 0): 0}.get)
    with pytest.raises(PolicyError, match=r"unknown action id None at state \(1, 2\)"):
        no_default.choose_batch(np.array([[0, 0], [1, 2], [3, 3]]))
    with pytest.raises(TypeError):
        make_policy(net, "custom", table={(0, 0): 0}, default=2)


def _direct_policy(output):
    """A Policy built without make_policy, whose batch map returns ``output(states)``."""
    return simulate.Policy(lambda z: 0, output)


@pytest.mark.parametrize("output, got", [
    (lambda st: np.zeros(len(st), dtype=bool), r"dtype bool, shape \(3,\)"),
    (lambda st: np.zeros(len(st)), r"dtype float64, shape \(3,\)"),
    (lambda st: [0] * len(st), "a list"),
    (lambda st: np.zeros(len(st) + 1, dtype=np.int64), r"dtype int64, shape \(4,\)"),
    (lambda st: np.zeros((len(st), 1), dtype=np.int64), r"dtype int64, shape \(3, 1\)"),
    (lambda st: np.int64(0), "a int64"),
], ids=["bool", "float", "list", "long", "2-d", "scalar"])
def test_choose_batch_must_return_one_integer_id_per_row(output, got):
    net = critical_pp()
    with pytest.raises(PolicyError, match=rf"^choose_batch returned {got}; expected an integer array "
                                          r"of shape \(3,\)$"):
        run_trajectories(net, _direct_policy(output), SimConfig(steps=2, trials=3))
    with pytest.raises(PolicyError, match="choose_batch returned"):
        step(net, _direct_policy(output), (1, 1), trial_rng(0, 0))


def test_choose_batch_may_return_any_integer_dtype():
    net = critical_pp()
    cfg = SimConfig(seed=2, steps=30, trials=5)
    ids = np.array([0, 3, 2, 1])  # pull-priority on the unit push-pull network
    pull = make_policy(net, "pull-priority")
    for dtype in (np.int64, np.int32, np.uint8):
        def choose(states, dtype=dtype):
            return ids.take((states > 0) @ np.array([2, 1])).astype(dtype)
        assert run_trajectories(net, _direct_policy(choose), cfg) == run_trajectories(net, pull, cfg)


def test_narrow_integer_ids_give_the_int64_report_on_ring8():
    # Ring-8 ids reach 255 and its rows are 8 outcomes wide, so an id's
    # flat offset does not fit in uint8: ids are read as int64.
    net = _ring8()
    pull = make_policy(net, "pull-priority")
    cfg = SimConfig(seed=1, steps=50, trials=20)
    want = run_trajectories(net, pull, cfg)
    for dtype in (np.uint8, np.int16):
        narrow = _direct_policy(lambda states, dtype=dtype: pull.choose_batch(states).astype(dtype))
        assert run_trajectories(net, narrow, cfg) == want, dtype


@pytest.mark.parametrize("dtype, bad", [
    (np.int8, -1), (np.uint8, 4), (np.uint64, 2**63), (np.uint64, 2**64 - 1), (np.int64, -2**63),
], ids=["int8-negative", "uint8-n_actions", "uint64-2**63", "uint64-max", "int64-min"])
def test_out_of_range_ids_of_any_dtype_are_named_with_their_row(dtype, bad):
    # Only row 2 holds the bad id (row 0 in step's batch of one); each row has its own state.
    net = critical_pp()
    states = np.array([[0, 0], [1, 0], [2, 1], [0, 3]], dtype=np.int64)

    def choose(states):
        ids = np.zeros(len(states), dtype=dtype)
        ids[min(2, len(states) - 1)] = bad
        return ids

    message = rf"^policy produced an unknown action id {bad} at state \(2, 1\)$"
    with pytest.raises(PolicyError, match=message):
        simulate._choose(_direct_policy(choose), states, net.n_actions)
    with pytest.raises(PolicyError, match=message):
        run_trajectories(net, _direct_policy(choose), SimConfig(steps=2, trials=3, x0=(2, 1)))
    with pytest.raises(PolicyError, match=message):
        step(net, _direct_policy(choose), (2, 1), trial_rng(0, 0))


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
    outcomes = net.action(0).outcomes
    # step's one-row table of "spread" takes no guide, so step samples by passes alone
    assert _Tables(net, [0]).start is None
    for u, k in cases:
        assert step(net, pol, origin, FixedUniform(u)) == outcomes[k][0]
    tables = _Tables(net)  # the whole table takes a guide, so the batch samples through it
    assert tables.width == 11 and tables.start is not None
    us = np.array([u for u, _ in cases])
    rows = len(cases)
    picked = tables.sample(np.zeros((rows, 10), dtype=np.int64), np.zeros(rows, dtype=np.int64), us)
    assert picked.tolist() == [k for _, k in cases]


def _float_probabilities(act):
    """An action's outcome probabilities, each the float of its exact rational."""
    total = sum(rate for _, rate in act.outcomes)
    return [float(rate / total) for _, rate in act.outcomes]


def _reference_tables(net):
    """The sampling tables built one action at a time, probabilities as
    floats of the exact rationals and ranks as positions in the sorted
    list of the actions' distinct displacements."""
    actions = list_actions(net)
    rows, width = len(actions), max(len(act.outcomes) for act in actions)
    distinct = sorted({d for act in actions for d, _ in act.outcomes})
    cum = np.full((rows, width), np.inf)
    rank = np.full((rows, width), len(distinct), dtype=np.int64)
    disp = np.zeros((rows, width, net.n_queues), dtype=np.int64)
    drain = np.zeros((rows, net.n_queues), dtype=bool)
    for r, act in enumerate(actions):
        k = len(act.outcomes)
        probs = np.array(_float_probabilities(act))
        cum[r, : k - 1] = np.cumsum(probs)[: k - 1]
        rank[r, :k] = [distinct.index(d) for d, _ in act.outcomes]
        disp[r, :k] = [d for d, _ in act.outcomes]
        drain[r, sorted(act.drains)] = True
    return {"cum": cum, "rank": rank, "disp": disp, "drain": drain}


def _table_views(tables):
    """The flat-id tables in the reference's (row, outcome, ...) shapes."""
    rows, width = len(tables.drain), tables.width
    assert tables.cum.shape == (rows * width,)
    assert tables.rank.shape == (rows * width,)
    assert tables.disp.shape == (rows * width, tables.drain.shape[1])
    return {
        "cum": tables.cum.reshape(rows, width),
        "rank": tables.rank.reshape(rows, width),
        "disp": tables.disp.reshape(rows, width, -1),
        "drain": tables.drain,
    }


def _assert_tables_match_reference(net):
    from qstab.simulate import _Tables

    views = _table_views(_Tables(net))
    for name, want in _reference_tables(net).items():
        got = views[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _assert_flat_ids_match_reference(net, rows=None):
    """``_Tables.sample`` returns row * width + the outcome that
    cumulative-sum inversion picks, clamped to the row's last outcome.

    Each row (all, or those in ``rows``) is sampled at each of its
    cumulative sums and both of their float neighbours, at every guide
    cell edge j/G and the float below it, at both ends and at some
    interior points; the reference counts the row's float cumsums <= u
    directly. Returns the tables.
    """
    from qstab.simulate import _Tables

    actions = list_actions(net)
    width = max(len(act.outcomes) for act in actions)
    tables = _Tables(net)
    assert tables.start is None or tables.start.size == len(actions) * tables.cells <= tables.disp.size
    edges = np.arange(tables.cells) / tables.cells
    fixed = [edges, np.nextafter(edges, 0.0), [np.nextafter(1.0, 0.0)], np.random.default_rng(5).random(20)]
    acts, us, want = [], [], []
    for r in range(len(actions)) if rows is None else rows:
        cum = np.cumsum(_float_probabilities(actions[r]))
        u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), *fixed])
        u = np.unique(u[u < 1.0])
        cum[-1] = np.inf  # the clamp to the last outcome
        acts.append(np.full(len(u), r))
        us.append(u)
        want.append(r * width + np.count_nonzero(cum <= u[:, None], axis=1))
    acts, us, want = map(np.concatenate, (acts, us, want))
    states = np.ones((len(acts), net.n_queues), dtype=np.int64)  # every action is available
    flat = tables.sample(states, acts, us)
    assert flat.dtype == np.int64 and flat.tolist() == want.tolist()
    disps = [actions[f // width].outcomes[f % width][0] for f in want.tolist()]
    assert tables.disp.take(flat, axis=0).tolist() == [list(d) for d in disps]
    return tables


def _merging_net():
    # Outcomes repeat within each action, so rates merge before sampling.
    return build_custom(2, [
        ("merge", [((1, 0), 1), ((0, -1), "1/3"), ((1, 0), "2/7"), ((0, -1), 5)]),
        ("move", [((1, -1), "3/4"), ((-1, 1), "3/4"), ((1, -1), "1/9")]),
        ("one", [((0, 1), 2), ((0, 1), 2)]),
    ])


def _clamp_net():
    units = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    return build_custom(10, [("spread", [(d, F(1, 10)) for d in units]),
                             ("wide", [(d, 1) for d in units + [(1, -1) + (0,) * 8]])])


@pytest.mark.parametrize("build", [
    critical_pp, lambda: build_push_pull(1, 2, 3, 4), lambda: build_ring([1] * 8, [1] * 8),
    _ring8, build_two_stream_example, _merging_net, _clamp_net,
], ids=["pushpull", "pushpull-rates", "ring8-unit", "ring8", "two-stream", "merging", "clamp"])
def test_tables_match_the_per_action_reference(build):
    _assert_tables_match_reference(build())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nets_with_repeated_outcomes())
def test_tables_match_the_per_action_reference_on_custom_nets(spec):
    m, actions = spec
    _assert_tables_match_reference(build_custom(m, [(f"a{i}", outs) for i, outs in enumerate(actions)]))


def _assert_rows_match_reference(net, ids):
    """``_Tables(net, ids)`` equals the reference's rows ``ids``, cut to their widest outcome count."""
    from qstab.simulate import _Tables

    tables = _Tables(net, ids)
    width = max(len(net.action(a).outcomes) for a in ids)
    assert tables.width == width
    views = _table_views(tables)
    for name, want in _reference_tables(net).items():
        want = want[ids] if name == "drain" else want[ids, :width]
        got = views[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


_P, _Q = 2**61 - 1, 2**62 - 57  # primes, so the network-wide denominator is about 2**123


def _huge_weight_ring():
    return build_ring([1, F(1, _P), F(1, _Q), 3], [F(2, _Q), 1, F(1, _P), F(5, 3)])


def _huge_weight_custom():
    return build_custom(2, [
        ("a", [((1, 0), 1), ((0, 1), F(4, _P)), ((1, 0), F(1, _Q))]),
        ("b", [((0, -1), F(3, _Q)), ((-1, 1), 7), ((0, 1), F(7, _P))]),
        ("c", [((0, 1), F(7, _P))]),
    ])


@pytest.mark.parametrize("build", [_huge_weight_ring, _huge_weight_custom], ids=["ring4", "custom"])
def test_tables_are_exact_past_float_range(build):
    net = build()
    assert max(net.weights) > 2**63
    # Dividing the weights as float64 would round some probability differently.
    scale = lcm(*(r.denominator for menu in net.menus for c in menu for _, r in c.outcomes))
    assert any(
        float(r * scale) / float(total * scale) != float(r / total)
        for act in list_actions(net)
        for total in [sum(rate for _, rate in act.outcomes)]
        for _, r in act.outcomes
    )
    _assert_tables_match_reference(net)
    for a in range(net.n_actions):
        _assert_rows_match_reference(net, [a])


def test_tables_of_two_networks_built_alternately_match_the_reference():
    nets = [_ring8(), _merging_net()]
    for net in nets + nets + nets[::-1]:
        _assert_tables_match_reference(net)
        _assert_rows_match_reference(net, [0])


def test_step_builds_the_outcome_table_once_per_network(monkeypatch):
    built = []
    build = simulate._outcome_table
    monkeypatch.setattr(simulate, "_outcome_table", lambda net: built.append(net) or build(net))
    net = _ring8()
    pol = make_policy(net, "pull-priority")
    rng = np.random.default_rng(3)
    z = (3,) * net.n_queues
    for _ in range(1000):
        z = step(net, pol, z, rng)
    assert built == [net]


@pytest.mark.parametrize("build", [_ring8, build_two_stream_example, _merging_net, _clamp_net],
                         ids=["ring8", "two-stream", "merging", "clamp"])
def test_a_subset_of_rows_is_the_whole_table_cut_to_their_width(build):
    from qstab.simulate import _Tables

    net = build()
    whole = _table_views(_Tables(net))
    ids = np.random.default_rng(7).permutation(net.n_actions)[: max(1, net.n_actions // 3)].tolist()
    sub = _Tables(net, ids)
    assert sub.width == max(len(net.action(a).outcomes) for a in ids)
    for name, got in _table_views(sub).items():
        want = whole[name][ids] if name == "drain" else whole[name][ids, : sub.width]
        assert got.tobytes() == want.tobytes(), name
    _assert_rows_match_reference(net, ids)


def test_flat_outcome_ids_on_the_clamp_net():
    _assert_flat_ids_match_reference(_clamp_net())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nets_with_repeated_outcomes())
def test_flat_outcome_ids_on_custom_nets(spec):
    m, actions = spec
    _assert_flat_ids_match_reference(build_custom(m, [(f"a{i}", outs) for i, outs in enumerate(actions)]))


def _crowded_net():
    # Four outcomes at rate 1 and twelve at 1/10**6: the first seven sums
    # lie within 2e-6 of 0, strictly inside one cell of every guide. A
    # one-outcome second action makes it a two-row table, which takes a guide.
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    moves = [tuple(int(i == a) - int(i == b) for i in range(4)) for a in range(4) for b in range(4) if a != b]
    return build_custom(4, [("crowd", [(d, 1 if k % 4 == 0 else F(1, 10**6))
                                       for k, d in enumerate(units + moves)]),
                            ("one", [(units[0], 1)])])


@pytest.mark.parametrize("build,cells,passes", [
    (critical_pp, 1, 1),  # two outcomes: a guide cannot save the one pass
    (lambda: build_ring([1] * 8, [1] * 8), 8, 0),  # every sum k/8 is a cell edge
    (_crowded_net, 4, 7),
    (_ring8, None, None), (build_two_stream_example, None, None), (_merging_net, None, None),
], ids=["pushpull", "ring8-unit", "crowded", "ring8", "two-stream", "merging"])
def test_guide_sampling_is_exact(build, cells, passes):
    net = build()
    tables = _assert_flat_ids_match_reference(net)
    if cells is not None:
        assert (tables.cells, tables.passes) == (cells, passes)
        assert (tables.start is None) == (cells == 1)


def test_guide_on_ring12_has_no_more_entries_than_disp():
    net = build_ring(range(1, 13), range(2, 14))
    rows = np.random.default_rng(12).choice(net.n_actions, 40, replace=False).tolist()
    assert _assert_flat_ids_match_reference(net, rows=rows).start is not None


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
    by_label = {a.label: i for i, a in enumerate(list_actions(net))}
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
            list(accumulate(_float_probabilities(act))) for act in list_actions(net)
        ]

    def trial(self, seed, t, x0, steps, stop_at_start=False):
        """[(action, outcome index, state after)] per step."""
        rng = trial_rng(seed, t)
        z, path = x0, []
        for _ in range(steps):
            a = self.resolve(z)
            act = self.net.action(a)
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
                d = net.action(a).outcomes[k][0]
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
    # so few steps that the largest weight's outcomes are never taken, and
    # max_abs_increment depends on exactly which outcomes were used
    "ring-8 few outcomes used": (
        _ring8, "pull-priority", (1, -2, 3, -4, 5, -6, 7, 80),
        SimConfig(seed=4, steps=3, trials=4, cap=3),
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


@pytest.mark.parametrize("alpha,message", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
def test_martingale_alpha_weight_errors_name_the_weight(alpha, message):
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    with pytest.raises(ConstructionError) as err:
        martingale_test(net, pol, alpha, SimConfig(trials=2, steps=2))
    assert str(err.value) == message


def test_martingale_alpha_must_be_iterable():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    with pytest.raises(ConstructionError) as err:
        martingale_test(net, pol, None, SimConfig(trials=2, steps=2))
    assert str(err.value) == "alpha must be a sequence of weights, got None"


def test_martingale_alpha_takes_numpy_integers_and_rational_strings():
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    cfg = SimConfig(seed=3, trials=20, steps=20)
    first, *others = [martingale_test(net, pol, alpha, cfg)
                      for alpha in ((1, -1), (np.int64(1), np.int8(-1)), ("1", "-1/1"), (F(1), -1))]
    assert all(report == first for report in others)


def test_zero_alpha_is_refused():
    # Z = 0 is a martingale under every policy, so it would corroborate nothing.
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    for alpha in ((0, 0), (F(0), 0)):
        with pytest.raises(ConstructionError, match="alpha must be nonzero"):
            martingale_test(net, pol, alpha, SimConfig(trials=2, steps=2))


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


@pytest.mark.parametrize("field", ["seed", "steps", "trials", "cap"])
@pytest.mark.parametrize("value", [True, False, 1.5, 2.0, "3", None])
def test_config_counts_must_be_integers(field, value):
    # A bool would run as 0 or 1, and a float would fail later with a bare TypeError.
    with pytest.raises(ConstructionError, match=f"^{field} must be an integer"):
        SimConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = SimConfig(seed=np.int64(3), steps=np.int32(4), trials=np.uint8(2), cap=np.int64(4),
                    x0=(np.int64(1), np.int8(0)))
    pol = make_policy(critical_pp(), "pull-priority")
    assert run_trajectories(critical_pp(), pol, cfg) == run_trajectories(
        critical_pp(), pol, SimConfig(seed=3, steps=4, trials=2, cap=4, x0=(1, 0)))


@pytest.mark.parametrize("x0", [(1.5, 0), (1.0, 0), (True, 0), (0, np.float64(2))])
def test_start_states_must_be_integers(x0):
    net = critical_pp()
    pol = make_policy(net, "pull-priority")
    with pytest.raises(ConstructionError, match="a queue length must be an integer"):
        SimConfig(x0=x0, steps=2, trials=2)
    with pytest.raises(ConstructionError, match="a queue length must be an integer"):
        step(net, pol, x0, trial_rng(0, 0))


@pytest.mark.parametrize("cutoff", [0.5, 1.0, True, "1", None])
def test_threshold_cutoff_must_be_an_integer(cutoff):
    with pytest.raises(ConstructionError):
        make_policy(critical_pp(), "threshold", threshold=cutoff)


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
    # Every run checks its start again through _start, with SimConfig's message,
    # so a config whose x0 was swapped after it was built is refused as well.
    message = r"^state \(9223372036854775807, 0\) is too large: its total plus 1 steps reaches 2\*\*63$"
    with pytest.raises(ConstructionError, match=message):
        SimConfig(x0=(top, 0), steps=1, cap=1)
    cfg = SimConfig(steps=1, cap=1, trials=2)
    object.__setattr__(cfg, "x0", (top, 0))
    for run in (lambda: step(net, push, (top, 0), trial_rng(0, 0)),
                lambda: run_trajectories(net, push, cfg), lambda: estimate_return_time(net, push, cfg)):
        with pytest.raises(ConstructionError, match=message):
            run()


def test_steps_and_cap_keep_int64_headroom_from_the_origin():
    # The default start is the origin, so steps and cap alone must stay below 2**63.
    for kwargs in ({"steps": 2**63}, {"cap": 2**63}, {"steps": 2**63, "cap": 2**70}):
        with pytest.raises(ConstructionError, match=r"^steps/cap \d+ is too large"):
            SimConfig(**kwargs)
    assert SimConfig(steps=2**63 - 1, cap=2**63 - 1).x0 is None


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


# ---------------------------------------------------------------------------
# the engine's state type


def _recording_push(seen):
    """Push-priority on push-pull, (push,push) = id 0 everywhere, noting each batch's dtype."""
    def choose(states):
        seen.add(states.dtype)
        return np.zeros(len(states), dtype=np.int64)
    return _direct_policy(choose)


@pytest.mark.parametrize("horizon, dtype", [(10, np.int32), (11, np.int64)])
def test_states_are_int32_while_start_total_plus_horizon_fits(horizon, dtype):
    # The start total plus the horizon is 2**31 - 1 at horizon 10 and 2**31 at 11.
    # Every step pushes one job, so at horizon 10 the final total is the int32 maximum.
    net, x0 = critical_pp(), (2**31 - 11, 0)
    seen = set()
    summary = run_trajectories(net, _recording_push(seen), SimConfig(x0=x0, steps=horizon, trials=4))
    assert seen == {np.dtype(dtype)}
    assert summary.max_final_total == sum(x0) + horizon == sum(summary.final_state_trial0)
    seen.clear()
    stats = estimate_return_time(net, _recording_push(seen), SimConfig(x0=x0, cap=horizon, trials=4))
    assert seen == {np.dtype(dtype)} and stats.returned == 0
    seen.clear()
    cfg = SimConfig(x0=x0, steps=horizon, trials=4)
    growth = blowup_probe(net, _recording_push(seen), cfg)
    assert seen == {np.dtype(dtype)} and growth == GrowthReport(1.0, 1.0)
    seen.clear()
    drift = martingale_test(net, _recording_push(seen), (1, 1), cfg)
    assert seen == {np.dtype(dtype)} and drift.mean_delta_Z == horizon and drift.std_error == 0
    seen.clear()
    z = (x0[0] + horizon - 1, 0)  # a step's horizon is 1
    assert sum(step(net, _recording_push(seen), z, trial_rng(0, 0))) == sum(z) + 1
    assert seen == {np.dtype(dtype)}


def _sim_cases():
    from test_golden_sim import PUSHPULL, RING8, TWO_STREAM

    alpha = {"ring8": ["--alpha", "1,-2,3/2,4,-5,6,7/3,-8"]}
    counts = ["--seed", "0", "--trials", "40", "--steps", "300", "--cap", "300"]
    for name, spec in {"pushpull": PUSHPULL, "ring8": RING8, "two-stream": TWO_STREAM}.items():
        for verb in ("simulate", "return-time", "martingale", "blowup"):
            extra = alpha.get(name, []) if verb == "martingale" else []
            yield pytest.param(spec, [verb, *counts, *extra], id=f"{name}-{verb}")


@pytest.mark.parametrize("spec, args", _sim_cases())
def test_int64_states_give_the_same_report_bytes(spec, args, tmp_path, capsys, monkeypatch):
    from qstab.cli import run

    path = tmp_path / "spec.json"
    path.write_text(render_json(spec), encoding="utf-8")
    verb, *rest = args

    def reports():
        out = []
        for fmt in ("json", "text"):
            code = run([verb, str(path), *rest, "--format", fmt])
            out.append((code, capsys.readouterr()))
        return out

    chosen, pick = [], simulate._state_dtype

    def recorded(bound):
        chosen.append(pick(bound))
        return chosen[-1]

    monkeypatch.setattr(simulate, "_state_dtype", recorded)
    narrow = reports()
    assert set(chosen) == {np.int32}
    monkeypatch.setattr(simulate, "_state_dtype", lambda bound: np.int64)
    assert reports() == narrow


@pytest.mark.parametrize("build", [critical_pp, _ring8])
@pytest.mark.parametrize("cutoff", [2**31 - 2, 2**31 - 1, 2**31, 2**63 - 1])
def test_threshold_ids_do_not_depend_on_the_state_type(build, cutoff):
    # numpy 1.24 and numpy 2 compare an int32 array with a Python int beyond
    # int32 by different rules; either must give the int64 ids.
    net = build()
    policy = make_policy(net, "threshold", threshold=cutoff)
    rng = np.random.default_rng(3)
    states = rng.choice([0, 1, 2**31 - 3, 2**31 - 2, 2**31 - 1], size=(64, net.n_queues))
    wide = policy.choose_batch(states.astype(np.int64))
    assert np.array_equal(policy.choose_batch(states.astype(np.int32)), wide)
    if cutoff >= 2**31 - 1:  # no int32 queue holds more than the cutoff: every server pushes
        assert np.array_equal(wide, policy.choose_batch(np.zeros_like(states)))
