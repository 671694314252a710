"""Network constructors, availability, transition distributions, spec files."""

from __future__ import annotations

import copy
import dataclasses
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import label_ids, list_actions, rate_st, reference_loads_spec, rings_and_lines
from qstab import certify, netmodel
from qstab.netmodel import (
    Choice,
    ConstructionError,
    NetworkSpec,
    ReentrantMeta,
    SpecFileError,
    available_actions,
    build_custom,
    build_push_pull,
    build_reentrant,
    build_ring,
    build_two_stream_example,
    dump_spec,
    format_rational,
    index_sets,
    loads_spec,
    parse_rational,
    transition_distribution,
)

F = Fraction


@st.composite
def family_nets(draw):
    kind = draw(st.sampled_from(["pushpull", "ring", "reentrant"]))
    if kind == "pushpull":
        return build_push_pull(*(draw(rate_st) for _ in range(4)))
    if kind == "ring":
        m = draw(st.integers(2, 4))
        return build_ring(
            [draw(rate_st) for _ in range(m)], [draw(rate_st) for _ in range(m)]
        )
    # Two streams whose supply steps sit on different servers, so that some
    # action (both servers pushing) is available in every state.
    streams = []
    for i in range(2):
        n_i = draw(st.integers(1, 3))
        steps = [(i + 1, draw(rate_st))]
        steps += [(draw(st.sampled_from([1, 2])), draw(rate_st)) for _ in range(n_i)]
        streams.append(steps)
    return build_reentrant(streams)


# ---------------------------------------------------------------------------
# push-pull


def test_push_pull_action_set():
    net = build_push_pull(1, 1, 1, 1)
    assert net.n_queues == 2 and net.n_actions == 4
    assert [a.label for a in list_actions(net)] == [
        "(push,push)", "(pull,pull)", "(push,pull)", "(pull,push)",
    ]
    push_pull = dict(net.action(2).outcomes)
    assert push_pull == {(1, 0): F(1), (-1, 0): F(1)}
    dist = dict(transition_distribution(net, 2))
    assert dist == {(1, 0): F(1, 2), (-1, 0): F(1, 2)}


def test_push_pull_rate_weighting():
    net = build_push_pull(1, 2, 3, 4)
    dist = dict(transition_distribution(net, 0))
    assert dist == {(1, 0): F(1, 3), (0, 1): F(2, 3)}


@pytest.mark.parametrize(
    "rates",
    # a bool is no rate, and a float could be inexact
    [(1, 1, 0, 1), (1, -2, 1, 1), ("0/3", 1, 1, 1), (True, 1, 1, 1), (1.5, 1, 1, 1)],
)
def test_push_pull_rejects_nonpositive_rates(rates):
    with pytest.raises(ConstructionError, match="rate"):
        build_push_pull(*rates)


# ---------------------------------------------------------------------------
# ring


def test_ring_m2_matches_push_pull_by_label():
    ring = build_ring([1, 2], [3, 4])
    pp = build_push_pull(1, 2, 3, 4)
    ring_map = {a.label: dict(a.outcomes) for a in list_actions(ring)}
    pp_map = {a.label: dict(a.outcomes) for a in list_actions(pp)}
    assert ring_map == pp_map
    # Push-pull is the two-server ring: only the family name and the id map differ.
    assert (pp.n_queues, pp.menus, pp.meta) == (ring.n_queues, ring.menus, ring.meta)
    assert (pp.family, pp.ids) == ("pushpull", (0, 2, 3, 1))
    assert (ring.family, ring.ids) == ("ring", None)


def test_ring_all_push_uniform():
    ring = build_ring([1] * 4, [1] * 4)
    assert ring.n_actions == 16
    dist = dict(transition_distribution(ring, 0))
    assert ring.action(0).label == "(push,push,push,push)"
    assert all(p == F(1, 4) for p in dist.values()) and len(dist) == 4


def test_ring_mixed_action_outcomes():
    # Hand enumeration for (push,pull,pull) on the 3-ring: server 1 pushes
    # stream 1, server 2 pulls stream 1, server 3 pulls stream 2.
    ring = build_ring([1, 1, 1], [1, 1, 1])
    act = ring.action(label_ids(ring)["(push,pull,pull)"])
    assert dict(act.outcomes) == {
        (1, 0, 0): F(1),
        (-1, 0, 0): F(1),
        (0, -1, 0): F(1),
    }
    assert sum(rate for _, rate in act.outcomes) == F(3)


def test_ring_validation():
    with pytest.raises(ConstructionError):
        build_ring([1], [1])
    with pytest.raises(ConstructionError):
        build_ring([1, 1], [1, 1, 1])
    with pytest.raises(ConstructionError):
        build_ring([1, 0], [1, 1])


# ---------------------------------------------------------------------------
# re-entrant


def test_two_stream_example_shape():
    net = build_two_stream_example()
    assert net.n_queues == 7
    assert net.n_actions == 20
    meta = net.meta
    assert meta.stream_lengths == (3, 4)
    assert sorted(meta.server_operations(1)) == [(0, 0), (0, 2), (1, 1), (1, 3)]
    assert len(meta.server_operations(2)) == 5


def test_single_queue_reentrant():
    net = build_reentrant([[(1, 1), (2, 1)]])
    assert net.n_queues == 1 and net.n_actions == 1
    assert dict(net.action(0).outcomes) == {(1,): F(1), (-1,): F(1)}
    assert dict(transition_distribution(net, 0)) == {(1,): F(1, 2), (-1,): F(1, 2)}


def test_push_pull_shaped_reentrant():
    # Two one-queue streams crossing the servers reproduce the push-pull
    # network's action outcomes.
    net = build_reentrant([[(1, "1"), (2, "3")], [(2, "2"), (1, "4")]])
    pp = build_push_pull(1, 2, 3, 4)
    assert net.n_queues == pp.n_queues and net.n_actions == pp.n_actions
    outcomes = [sorted(a.outcomes for a in list_actions(n)) for n in (net, pp)]
    assert outcomes[0] == outcomes[1]


def test_reentrant_validation():
    with pytest.raises(ConstructionError):
        build_reentrant([])
    with pytest.raises(ConstructionError):
        build_reentrant([[(1, 1)]])  # needs at least two steps
    with pytest.raises(ConstructionError):
        build_reentrant([[(1, 1), (1, 1)]])  # server 2 idle everywhere
    with pytest.raises(ConstructionError):
        build_reentrant([[(3, 1), (2, 1)]])
    with pytest.raises(ConstructionError, match="got True"):
        build_reentrant([[(True, 1), (2, 1)]])  # True == 1, but a bool is no server
    with pytest.raises(ConstructionError):
        build_reentrant([[(1, 1), (2, 0)]])
    for rates in ([(1, 1, 1, 1), (1, 1, 1, 1)], [(1, 1, 1, 1)], [(1, 1, 1, 1), (1,) * 5, (1, 1)]):
        with pytest.raises(ConstructionError, match="rate list does not match the two-stream layout"):
            build_two_stream_example(rates)


def test_reentrant_queue_numbering_round_trip():
    net = build_two_stream_example()
    meta = net.meta
    queues = [meta.queue_index(i, j) for i, j in meta.operations() if j >= 1]
    assert sorted(queues) == list(range(net.n_queues))
    assert meta.entry_queues == frozenset({0, 3})
    assert meta.exit_queues == frozenset({2, 6})
    for step in (0, 4):  # stream 0 has queues for steps 1..3
        with pytest.raises(ValueError, match=f"stream 0 has no queue for step {step}"):
            meta.queue_index(0, step)


def test_reentrant_layout_is_computed_once_per_network(monkeypatch):
    # queue_index runs for every step, so a layout rebuilt per call makes building quadratic
    calls = []
    lengths = vars(netmodel.ReentrantMeta)["stream_lengths"]
    count = lengths.func
    monkeypatch.setattr(lengths, "func", lambda meta: calls.append(meta) or count(meta))
    net = build_reentrant([[(1, 1), (2, 1), (1, 1)]] * 40)
    assert net.n_queues == 80 and len(calls) == 1
    assert net.meta.offsets is net.meta.offsets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(family_nets(), rings_and_lines()))
@example(build_custom(2, [("a", [((1, 0), F(1, 2**61 - 1)), ((0, 1), 1), ((1, 0), F(2, 3))]),
                          ("b", [((0, -1), F(5, 2**62 - 57))])]))
def test_weights_are_the_menu_rates_over_one_denominator(net):
    rates = [r for menu in net.menus for c in menu for _, r in c.outcomes]
    scale = lcm(*(r.denominator for r in rates))
    assert net.weights == tuple(int(r * scale) for r in rates)
    flat = iter(net.weights)
    per_choice = [[[next(flat) for _ in c.outcomes] for c in menu] for menu in net.menus]
    # An action's network-wide weights are one integer multiple of its own, so w / W
    # is the same correctly rounded float: the float of the exact probability.
    for a in range(min(net.n_actions, 64)):
        choices = net.choices(a)
        wide = [w for menu, ws, c in zip(net.menus, per_choice, choices) for w in ws[menu.index(c)]]
        rates = [rate for c in choices for _, rate in c.outcomes]
        own = netmodel.integer_weights(rates)
        assert [w / sum(wide) for w in wide] == [w / sum(own) for w in own]
        assert [w / sum(own) for w in own] == [float(r / sum(rates)) for r in rates]


def test_weights_are_computed_once_per_network(monkeypatch):
    calls = []
    weights = netmodel.integer_weights
    monkeypatch.setattr(netmodel, "integer_weights", lambda rates: calls.append(1) or weights(rates))
    net = build_ring(range(1, 9), range(2, 10))
    assert net.weights is net.weights and len(calls) == 1
    assert certify.spanning_rows(net) == certify.spanning_rows(net) and len(calls) == 1


def test_family_builds_never_run_the_outside_input_check(monkeypatch):
    # check_displacement guards outside input; the family builders construct valid outcomes
    calls = []
    check = netmodel.check_displacement
    monkeypatch.setattr(netmodel, "check_displacement", lambda d, m: calls.append(d) or check(d, m))
    line = [[(1, 1), (2, 2), (1, 3), (2, 4)]] * 5
    build_push_pull(1, 2, 3, 4)
    build_ring(range(1, 7), range(6, 0, -1))
    build_two_stream_example()
    build_reentrant(line)
    for doc in (
        {"family": "pushpull", "lambda": ["1", "2"], "mu": ["3", "4"]},
        {"family": "ring", "lambda": ["1"] * 6, "mu": ["2"] * 6},
        {"family": "reentrant",
         "streams": [[{"server": s, "rate": r} for s, r in stream] for stream in line]},
    ):
        loads_spec(json.dumps(doc))
    assert calls == []
    build_custom(2, [("a", [((1, 0), 1), ((-1, 1), 1)])])  # outside input is checked
    assert len(calls) == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(family_nets(), rings_and_lines()))
@example(build_two_stream_example())
def test_family_choices_are_valid_by_construction(net):
    # what check_displacement and as_rate would enforce, had the builders called them
    for choice in (c for menu in net.menus for c in menu):
        for d, r in choice.outcomes:
            assert netmodel.check_displacement(d, net.n_queues) == d
            assert type(r) is Fraction and r > 0


def two_walk_reentrant(streams) -> NetworkSpec:
    """Reference: the re-entrant builder that walks each server's operations in
    turn, server 1 first, reading every step through ``ReentrantMeta``."""
    meta = ReentrantMeta(tuple(tuple((s, F(r)) for s, r in stream) for stream in streams))
    m = sum(meta.stream_lengths)

    def step_choice(i, j):
        d = [0] * m
        if j:
            d[meta.queue_index(i, j)] = -1
        if j < meta.stream_lengths[i]:
            d[meta.queue_index(i, j + 1)] = 1
        return Choice(f"({i + 1},{j})", ((tuple(d), meta.streams[i][j][1]),))

    menus = tuple(tuple(step_choice(i, j) for i, j in meta.server_operations(server))
                  for server in (1, 2))
    return NetworkSpec(m, menus, "reentrant", meta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rings_and_lines())
@example(build_two_stream_example())
def test_reentrant_builder_is_the_two_walk_builder(net):
    assume(isinstance(net.meta, ReentrantMeta))
    reference = two_walk_reentrant(net.meta.streams)
    assert build_reentrant(net.meta.streams) == reference
    assert [[c.label for c in menu] for menu in net.menus] == [
        [c.label for c in menu] for menu in reference.menus
    ]


@pytest.mark.parametrize("dtype", ["int64", "int32", "uint8"])
def test_numpy_integer_servers_build_the_same_network(dtype):
    np = pytest.importorskip("numpy")
    streams = [[(1, 1), (2, "2/3"), (1, 3)], [(2, 1), (1, 5), (2, 5), (2, "1/2")]]
    net = build_reentrant([[(np.dtype(dtype).type(s), r) for s, r in st] for st in streams])
    assert net == build_reentrant(streams)
    assert {type(s) for stream in net.meta.streams for s, _ in stream} == {int}
    with pytest.raises(ConstructionError, match=r"^streams\[0\]\[1\]\.server must be 1 or 2, got 3$"):
        build_reentrant([[(1, 1), (np.dtype(dtype).type(3), 1)]])


# A case whose message changed when messages began to name index paths keeps
# its earlier id, which quotes the earlier message.
@pytest.mark.parametrize("streams,message", [
    ([], "at least one stream is required"),
    pytest.param([[(1, 1)]], "streams[0] needs at least two steps",
                 id="streams1-stream 1 needs at least two steps"),
    pytest.param([[(1, 1), (2, 1)], [(2, 1)]], "streams[1] needs at least two steps",
                 id="streams2-stream 2 needs at least two steps"),
    ([[(1, 1), (1, 1)]], "server 2 has no operations"),
    ([[(2, 1), (2, 1)], [(2, 3), (2, 1)]], "server 1 has no operations"),
    pytest.param([[(1, 1), (3, 1)]], "streams[0][1].server must be 1 or 2, got 3",
                 id="streams5-stream 1 step 1: server must be 1 or 2, got 3"),
    pytest.param([[(1, 1), (2, 1)], [(1, 1), (0, 1)]], "streams[1][1].server must be 1 or 2, got 0",
                 id="streams6-stream 2 step 1: server must be 1 or 2, got 0"),
    pytest.param([[(1, 1), (True, 1)]], "streams[0][1].server must be an integer, got True",
                 id="streams7-stream 1 step 1: server must be an integer, got True"),
    pytest.param([[(1, 1), (False, 1)]], "streams[0][1].server must be an integer, got False",
                 id="streams8-stream 1 step 1: server must be an integer, got False"),
    pytest.param([[(1, 1), ("2", 1)]], "streams[0][1].server must be an integer, got '2'",
                 id="streams9-stream 1 step 1: server must be an integer, got '2'"),
    pytest.param([[(1, 1), (2, 0)]], "streams[0][1].rate: rates must be positive, got 0",
                 id="streams10-rates must be positive, got 0"),
    pytest.param([[(1, 1), (2, 2.5)]],
                 "streams[0][1].rate: rate must be an int, 'num/den' string, or Fraction, got float",
                 id="streams11-rate must be an int, 'num/den' string, or Fraction, got float"),
])
def test_reentrant_builder_messages(streams, message):
    with pytest.raises(ConstructionError) as err:
        build_reentrant(streams)
    assert str(err.value) == message


def _line(*ops):
    return {"family": "reentrant", "streams": [list(ops)]}


ONE_TWO = ({"server": 1, "rate": "1"}, {"server": 2, "rate": "1"})


@pytest.mark.parametrize("doc,message", [
    (_line({"server": 1, "rate": "1"}, {"server": 2}), "missing field 'rate' in streams[0][1]"),
    (_line({"server": 1, "rate": "1", "z": 2, "a": 1}, ONE_TWO[1]),
     "unknown field 'a' in streams[0][0]"),
    (_line({"server": 1, "speed": "1"}, ONE_TWO[1]), "unknown field 'speed' in streams[0][0]"),
    (_line(ONE_TWO[0], []), "streams[0][1] must be an object"),
    pytest.param(_line(ONE_TWO[0], {"server": 3, "rate": "1"}),
                 "streams[0][1].server must be 1 or 2, got 3",
                 id="doc4-streams[0][1].server must be 1 or 2"),
    pytest.param(_line(ONE_TWO[0], {"server": 2, "rate": 1.5}),
                 "streams[0][1].rate: rate must be an int, 'num/den' string, or Fraction, got float",
                 id="doc5-streams[0][1].rate must be an integer or 'num/den' string"),
    ({"family": "reentrant", "streams": [list(ONE_TWO)], "x": 1}, "unknown field 'x' in document"),
    ({"family": "reentrant"}, "missing field 'streams' in document"),
    ({"family": "ring", "lambda": ["1", "1"]}, "missing field 'mu' in document"),
    ({"family": "custom", "M": 1, "actions": [{"label": "a"}]},
     "missing field 'outcomes' in actions[0]"),
    ({"family": "custom", "M": 1, "actions": [
        {"label": "a", "outcomes": [{"disp": [1], "rate": "1", "w": 0}]}]},
     "unknown field 'w' in actions[0].outcomes[0]"),
])
def test_spec_field_messages(doc, message):
    with pytest.raises(SpecFileError) as err:
        loads_spec(json.dumps(doc))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# availability and distributions


def test_availability_on_push_pull_boundary():
    net = build_push_pull(1, 1, 1, 1)
    labels = [a.label for a in list_actions(net)]
    assert {labels[a] for a in available_actions(net, (0, 0))} == {"(push,push)"}
    assert {labels[a] for a in available_actions(net, (3, 0))} == {
        "(push,push)", "(push,pull)",
    }
    assert {labels[a] for a in available_actions(net, (0, 2))} == {
        "(push,push)", "(pull,push)",
    }
    assert len(available_actions(net, (1, 1))) == 4


def test_availability_full_on_interior_states():
    ring = build_ring([1] * 4, [1] * 4)
    assert available_actions(ring, (1, 1, 1, 1)) == set(range(16))


def test_state_validation():
    net = build_push_pull(1, 1, 1, 1)
    with pytest.raises(ConstructionError):
        available_actions(net, (1,))
    with pytest.raises(ConstructionError):
        available_actions(net, (1, -1))
    not_a_state = "a state must be a sequence of queue lengths, got 5"
    with pytest.raises(ConstructionError, match=not_a_state):
        available_actions(net, 5)
    np = pytest.importorskip("numpy")
    from qstab.simulate import SimConfig, make_policy, step

    with pytest.raises(ConstructionError, match=not_a_state):
        SimConfig(x0=5)
    assert SimConfig(x0=iter([1, 2])).x0 == (1, 2)  # read once, when checked
    with pytest.raises(ConstructionError, match=not_a_state):
        step(net, make_policy(net, "pull-priority"), 5, np.random.default_rng(0))


@pytest.mark.parametrize("z", [(1.5, 0), (1.0, 0), (True, 0), (0, False), ("1", 0), (None, 0)])
def test_state_entries_must_be_integers(z):
    # int() would truncate 1.5 to 1 and read True as 1.
    with pytest.raises(ConstructionError, match="a queue length must be an integer"):
        netmodel.check_state(z, 2)
    with pytest.raises(ConstructionError):
        available_actions(build_push_pull(1, 1, 1, 1), z)


def test_transition_distribution_unknown_action():
    net = build_push_pull(1, 1, 1, 1)
    with pytest.raises(ConstructionError):
        transition_distribution(net, 17)


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", None, -1, 4])
def test_action_ids_must_be_integers_in_range(bad):
    # bools and floats do not stand in for an id, and every bad id is a ConstructionError
    net = build_push_pull(1, 1, 1, 1)
    for decode in (net.choices, net.action, lambda a: transition_distribution(net, a)):
        with pytest.raises(ConstructionError):
            decode(bad)


def test_an_action_stores_only_its_outcomes():
    assert [f.name for f in dataclasses.fields(netmodel.Choice)] == ["label", "outcomes"]
    act = build_push_pull(1, 2, 3, 4).action(2)  # (push, pull): +e1 at 1, -e1 at 3
    assert type(act) is netmodel.Choice
    assert sum(rate for _, rate in act.outcomes) == 4 and act.drains == frozenset({0})


@settings(max_examples=60, deadline=None)
@given(family_nets())
def test_family_invariants(net):
    # Three-shape displacement rule and exact unit-mass distributions.
    for a, act in enumerate(list_actions(net)):
        for d, _ in act.outcomes:
            nonzero = [x for x in d if x]
            assert 1 <= len(nonzero) <= 2
            assert all(x in (-1, 1) for x in nonzero)
            assert sum(nonzero) in (-1, 0, 1)
        dist = transition_distribution(net, a)
        assert sum((p for _, p in dist), F(0)) == 1
        total = sum((r for _, r in act.outcomes), F(0))
        assert dist == [(d, r / total) for d, r in act.outcomes]
    # Availability: never empty (every server can push in these families),
    # and the full action set is available away from the boundary.
    origin = (0,) * net.n_queues
    assert available_actions(net, origin)
    interior = (1,) * net.n_queues
    assert available_actions(net, interior) == set(range(net.n_actions))


@settings(max_examples=60, deadline=None)
@given(family_nets())
def test_index_sets_by_family(net):
    sets = index_sets(net)
    if net.family in ("pushpull", "ring"):
        assert sets.transfers == frozenset()
        assert sets.external == frozenset(range(net.n_queues))
    else:
        meta = net.meta
        expected = set()
        for i, n_i in enumerate(meta.stream_lengths):
            for j in range(1, n_i):
                expected.add((meta.queue_index(i, j), meta.queue_index(i, j + 1)))
        assert sets.transfers == frozenset(expected)
        assert sets.external == meta.entry_queues | meta.exit_queues


def test_duplicate_displacements_merge():
    net = build_custom(1, [("double", [((1,), 1), ((1,), "1/2")])])
    assert net.action(0).outcomes == (((1,), F(3, 2)),)


def test_custom_rejects_bad_displacements():
    with pytest.raises(ConstructionError):
        build_custom(2, [("bad", [((2, 0), 1)])])
    with pytest.raises(ConstructionError):
        build_custom(2, [("bad", [((1, 1), 1)])])
    with pytest.raises(ConstructionError):
        build_custom(2, [("bad", [((0, 0), 1)])])
    for disp in ((1, 1, -1), (-1, 1, -1), (2, -1, 0), (1, -2, 1), (-1, -1, 0)):
        with pytest.raises(ConstructionError, match="must add one job, remove one job"):
            build_custom(3, [("ok", [((1, 0, 0), 1)]), ("bad", [((0, 1, 0), 1), (disp, 1)])])
    with pytest.raises(ConstructionError, match=r"has length 2, expected 3"):
        build_custom(3, [("short", [((1, 0), 1)])])


@pytest.mark.parametrize(
    "n_queues, actions, message",
    [
        pytest.param(0, [("a", [((), 1)])], "M must be a positive integer, got 0",
                     id="0-actions0-a network needs at least one queue"),
        (1, [], "a network needs at least one action"),
        pytest.param(1, [("empty", [])], "actions[0] has no outcomes",
                     id="1-actions2-action 'empty' has no outcomes"),
    ],
)
def test_custom_network_needs_queues_actions_and_outcomes(n_queues, actions, message):
    with pytest.raises(ConstructionError) as err:
        build_custom(n_queues, actions)
    assert str(err.value) == message



@pytest.mark.parametrize("disp", [(1.7, -0.2), (1.0, 0), (True, 0), (0, False), ("1", 0)])
def test_custom_displacement_entries_must_be_integers(disp):
    # int() would truncate (1.7, -0.2) to (1, 0) and read True as 1
    with pytest.raises(ConstructionError, match="a displacement entry must be an integer"):
        build_custom(2, [("a", [(disp, 1)])])


def test_numpy_integer_displacement_entries_are_ints():
    np = pytest.importorskip("numpy")
    net = build_custom(2, [("a", [((np.int64(1), np.int8(0)), 1)])])
    (d, _), = net.menus[0][0].outcomes
    assert d == (1, 0) and all(type(x) is int for x in d)
    pp = build_push_pull(1, 1, 1, 1)
    assert pp.action(np.int64(1)) == pp.action(1)


@pytest.mark.parametrize("n_queues, disp", [(True, (1,)), (2.0, (1, 0)), ("2", (1, 0))])
def test_custom_queue_count_must_be_an_integer(n_queues, disp):
    # True would pass n_queues >= 1 and report "M": true; 2.0 would fail only in certify
    with pytest.raises(ConstructionError, match=f"^M must be an integer, got {n_queues!r}$"):
        build_custom(n_queues, [("a", [(disp, 1), (tuple(-x for x in disp), 1)])])


@pytest.mark.parametrize("label", [3, None, b"a", ("a",)])
def test_action_labels_must_be_strings(label):
    # dump_spec would write the label as is, and loads_spec refuses a non-string label
    with pytest.raises(ConstructionError, match="label must be a string"):
        build_custom(1, [(label, [((1,), 1)])])


@pytest.mark.parametrize("server", [1.0, 2.0, True])
def test_reentrant_servers_must_be_integers(server):
    with pytest.raises(ConstructionError) as err:
        build_reentrant([[(server, 1), (2, 1)]])
    assert str(err.value) == f"streams[0][0].server must be an integer, got {server!r}"


# ---------------------------------------------------------------------------
# rationals and spec files


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" 7 ") == F(7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    assert format_rational(3) == "3"
    with pytest.raises(ConstructionError):
        parse_rational("1.5")
    with pytest.raises(ConstructionError):
        parse_rational("1/0")


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 7)
@example(-6, 4)
@example(-12, 4)
@example(2**70, 2**69)
def test_integer_ratio_formats_like_its_fraction(n, s):
    # The drift report prints numerator n of a row over its scale s straight from the ints;
    # Fraction.__str__ is the independent reference.
    assert netmodel._format_ratio(n, s) == format_rational(Fraction(n, s)) == str(Fraction(n, s))


# Slips that int() would read as a number: an underscore, non-ASCII digits, a
# signed denominator, spaces inside, and digits beyond the int conversion limit.
GRAMMAR_SLIPS = {"underscore": "1_2", "arabic-indic": "\u0661\u0662", "signed-den": "1/-2",
                 "inner-space": "1 / 2", "over-long": "9" * 5000}


def test_rational_grammar():
    for text, value in ((" 3/2\n", F(3, 2)), ("+3", F(3)), ("-1/2", F(-1, 2)), ("04/06", F(2, 3))):
        assert parse_rational(text) == value
    for text in ("", "/2", "1/", "1.5", "1e3", "0x1", "--1", "1/+2"):
        with pytest.raises(ConstructionError, match="^not a rational number: "):
            parse_rational(text)


@pytest.mark.parametrize("text", GRAMMAR_SLIPS.values(), ids=GRAMMAR_SLIPS.keys())
def test_rates_take_only_ascii_digits(text):
    with pytest.raises(ConstructionError, match="^not a rational number: "):
        parse_rational(text)
    with pytest.raises(SpecFileError) as err:
        loads_spec(json.dumps({"family": "ring", "lambda": ["1", text], "mu": ["1", "1"]}))
    assert str(err.value) == f"lambda[1]: not a rational number: {text!r}"


def test_loads_each_family():
    pp = loads_spec(json.dumps({"family": "pushpull", "lambda": ["1", "2"], "mu": [3, 4]}))
    assert pp.family == "pushpull" and pp.n_actions == 4
    ring = loads_spec(
        json.dumps({"family": "ring", "lambda": ["1", "1", "1"], "mu": ["1", "1", "1"]})
    )
    assert ring.family == "ring" and ring.n_actions == 8
    reentrant = loads_spec(
        json.dumps(
            {
                "family": "reentrant",
                "streams": [
                    [{"server": 1, "rate": "1"}, {"server": 2, "rate": "1"}],
                    [{"server": 2, "rate": "1"}, {"server": 1, "rate": "1"}],
                ],
            }
        )
    )
    assert reentrant.family == "reentrant" and reentrant.n_queues == 2
    custom = loads_spec(
        json.dumps(
            {
                "family": "custom",
                "M": 1,
                "actions": [{"label": "x", "outcomes": [{"disp": [1], "rate": "2"}]}],
            }
        )
    )
    assert custom.family == "custom" and custom.action(0).outcomes == (((1,), F(2)),)


def _was(doc, needle, old_needle):
    """A case whose needle changed when values moved to the builders, under its earlier id."""
    return pytest.param(doc, needle, id=f"{doc}-{old_needle}")


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("not json", "line 1"),
        ('{"family": "hexagon"}', "family"),
        ('{"family": "pushpull", "lambda": ["1","1"], "mu": ["1","1"], "x": 1}', "'x'"),
        ('{"family": "pushpull", "lambda": ["1","1"]}', "'mu'"),
        ('{"family": "pushpull", "lambda": ["1"], "mu": ["1","1"]}', "lambda"),
        # from here on, most messages come from the network builders as SpecFileErrors
        _was('{"family": "ring", "lambda": ["1"], "mu": ["1"]}', "a ring needs at least 2 servers",
             "length"),
        ('{"family": "pushpull", "lambda": [1.5, 1], "mu": ["1","1"]}', "lambda"),
        ('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1", "y": 2}, {"server": 2, "rate": "1"}]]}', "'y'"),
        _was('{"family": "reentrant", "streams": [[{"server": true, "rate": "1"}, {"server": 2, "rate": "1"}]]}', "streams[0][0].server must be an integer, got True",
             "streams[0][0].server must be 1 or 2"),
        _was('{"family": "reentrant", "streams": [[{"server": 1.0, "rate": "1"}, {"server": 2, "rate": "1"}]]}', "streams[0][0].server must be an integer, got 1.0",
             "streams[0][0].server must be 1 or 2"),
        _was('{"family": "custom", "M": 0, "actions": []}', "M must be a positive integer, got 0",
             "'M'"),
        ('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": [{"disp": [1], "rate": "-1"}]}]}', "positive"),
        ('{"family": "reentrant", "streams": [[1, {"server": 2, "rate": "1"}]]}', "streams[0][0] must be an object"),
        _was('{"family": "reentrant", "streams": []}', "at least one stream is required",
             "'streams' must be a nonempty list"),
        _was('{"family": "reentrant", "streams": [1]}', "streams[0] must be a list",
             "streams[0] must be a list of operations"),
        _was('{"family": "custom", "M": 1, "actions": []}', "a network needs at least one action",
             "'actions' must be a nonempty list"),
        _was('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": []}]}', "actions[0] has no outcomes",
             "actions[0].outcomes must be a nonempty list"),
        _was('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": [{"disp": [1.5], "rate": "1"}]}]}', "actions[0].outcomes[0]: a displacement entry must be an integer, got 1.5",
             "actions[0].outcomes[0].disp must be a list of integers"),
        _was('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1"}]]}', "streams[0] needs at least two steps",
             "stream 1 needs at least two steps"),
        ('{"family": "custom", "M": 2, "actions": [{"label": "x", "outcomes": [{"disp": [1], "rate": "1"}]}]}', "has length 1, expected 2"),
    ],
)
def test_spec_file_diagnostics(doc, needle):
    with pytest.raises(SpecFileError, match=".*") as err:
        loads_spec(doc)
    assert needle in str(err.value)


def test_dump_and_reload_any_family():
    for net in (
        build_push_pull(1, 2, 3, 4),
        build_ring([1, 2], ["1/2", 2]),
        build_two_stream_example(),
    ):
        again = loads_spec(dump_spec(net))
        assert again.family == "custom"
        assert again.n_queues == net.n_queues
        assert [dict(a.outcomes) for a in list_actions(again)] == [
            dict(a.outcomes) for a in list_actions(net)
        ]
        assert [a.label for a in list_actions(again)] == [a.label for a in list_actions(net)]


@pytest.mark.parametrize(
    "doc,key",
    [
        ('{"family": "ring", "lambda": ["1","1"], "mu": ["1","1"], "lambda": ["2","2"]}', "lambda"),
        ('{"family": "ring", "family": "ring", "lambda": ["1","1"], "mu": ["1","1"]}', "family"),
        ('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1", "server": 2}, {"server": 2, "rate": "1"}]]}', "server"),
        ('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": [{"disp": [1], "rate": "2", "rate": "1"}]}]}', "rate"),
    ],
)
def test_spec_repeated_field_is_an_error(doc, key):
    with pytest.raises(SpecFileError, match=f"^repeated field '{key}'$"):
        loads_spec(doc)


def test_spec_label_error_names_its_location():
    doc = ('{"family": "custom", "M": 1, "actions": [{"label": "a", "outcomes": '
           '[{"disp": [1], "rate": "1"}]}, {"label": 3, "outcomes": [{"disp": [1], "rate": "1"}]}]}')
    with pytest.raises(SpecFileError, match=r"^actions\[1\]\.label must be a string, got 3$"):
        loads_spec(doc)


def test_spec_document_rejects_unknown_top_level_type():
    with pytest.raises(SpecFileError):
        loads_spec("[1, 2, 3]")


def test_integer_beyond_the_digit_limit_is_a_spec_error():
    doc = ('{"family": "custom", "M": 1, "actions": [{"label": "a", "outcomes": '
           '[{"disp": [1' + "0" * 5000 + '], "rate": "1"}]}]}')
    with pytest.raises(SpecFileError, match="invalid JSON"):
        loads_spec(doc)


def test_actions_are_listed_up_to_the_limit(monkeypatch):
    monkeypatch.setattr(netmodel, "MAX_ACTIONS", 8)
    assert len(json.loads(dump_spec(build_ring([1] * 3, [1] * 3)))["actions"]) == 8
    big = build_ring([1] * 4, [1] * 4)
    assert big.n_actions == 16
    for listing in (big.listable_actions, lambda: dump_spec(big),
                    lambda: available_actions(big, (1,) * 4)):
        with pytest.raises(ConstructionError, match="16 actions, more than the 8"):
            listing()


# ---------------------------------------------------------------------------
# the shape-only reader against the reader that checked every value itself

TEMPLATES = {
    "pushpull": {"family": "pushpull", "lambda": ["1", "2"], "mu": [3, "4"]},
    "ring": {"family": "ring", "lambda": ["1", "2", "3/2"], "mu": [1, "2", "5"]},
    "reentrant": {"family": "reentrant", "streams": [
        [{"server": 1, "rate": "1"}, {"server": 2, "rate": "2"}, {"server": 1, "rate": 3}],
        [{"server": 2, "rate": "1/2"}, {"server": 1, "rate": "1"}],
    ]},
    "custom": {"family": "custom", "M": 2, "actions": [
        {"label": "a", "outcomes": [{"disp": [1, 0], "rate": "1"}, {"disp": [-1, 1], "rate": "1/2"}]},
        {"label": "b", "outcomes": [{"disp": [0, -1], "rate": 2}]},
    ]},
}


def _paths(node, path=()):
    """Every field of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


TEMPLATE_FIELDS = [(family, path) for family, doc in TEMPLATES.items() for path in _paths(doc) if path]

json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(2**63 - 2, 2**64 + 2)
    | st.integers(-2**70, 2**70) | st.floats()
    | st.sampled_from(["1", "3/2", "0", "-1", "0/3", "1/0", " 2 ", "+5", "-1/2", "1.5", "1e3", "x",
                       *GRAMMAR_SLIPS.values()])
    | st.text(max_size=4)
)
# A scalar half the time, so that a fair share of the documents are valid.
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["server", "rate", "disp", "label", "outcomes", "x"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=6,
)


def _outcome(read, text):
    try:
        return read(text)
    except SpecFileError:
        return None


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(TEMPLATE_FIELDS), json_values)
def test_reader_accepts_exactly_what_the_value_checking_reader_accepts(field, value):
    # any exception but a SpecFileError escapes _outcome and fails the test
    family, path = field
    doc = copy.deepcopy(TEMPLATES[family])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(doc)
    assert _outcome(loads_spec, text) == _outcome(reference_loads_spec, text)


def test_every_template_loads():
    for doc in TEMPLATES.values():
        text = json.dumps(doc)
        assert loads_spec(text) == reference_loads_spec(text)


def _document(family, *args):
    """The spec document that holds a builder's arguments."""
    if family == "pushpull":
        return {"family": family, "lambda": list(args[:2]), "mu": list(args[2:])}
    if family == "ring":
        return {"family": family, "lambda": args[0], "mu": args[1]}
    if family == "reentrant":
        return {"family": family,
                "streams": [[{"server": s, "rate": r} for s, r in stream] for stream in args[0]]}
    return {"family": family, "M": args[0], "actions": [
        {"label": label, "outcomes": [{"disp": d, "rate": r} for d, r in outcomes]}
        for label, outcomes in args[1]]}


BUILDERS = {"pushpull": build_push_pull, "ring": build_ring,
            "reentrant": build_reentrant, "custom": build_custom}


@pytest.mark.parametrize("family,args,message", [
    ("pushpull", (1, "1_2", 1, 1), "lambda[1]: not a rational number: '1_2'"),
    ("pushpull", (1, 1, 1.5, 1), "mu[0]: rate must be an int, 'num/den' string, or Fraction, got float"),
    ("pushpull", (1, 1, 1, True), "mu[1]: rate must be a positive rational, got True"),
    ("ring", (["1", "-1"], [1, 1]), "lambda[1]: rates must be positive, got -1"),
    ("ring", ([1, 1], [1, "1/0"]), "mu[1]: not a rational number: '1/0'"),
    ("ring", ([1, 1, 1], [1, None, 1]),
     "mu[1]: rate must be an int, 'num/den' string, or Fraction, got NoneType"),
    ("ring", ([1, 1], [1, 1, 1]), "lambda and mu differ in length (2 vs 3)"),
    ("ring", ([1], [1]), "a ring needs at least 2 servers"),
    ("reentrant", ([],), "at least one stream is required"),
    ("reentrant", ([[(1, 1), (2, 1)], [(2, 1)]],), "streams[1] needs at least two steps"),
    ("reentrant", ([[(1, 1), (3, 1)]],), "streams[0][1].server must be 1 or 2, got 3"),
    ("reentrant", ([[(True, 1), (2, 1)]],), "streams[0][0].server must be an integer, got True"),
    ("reentrant", ([[(1, 1), (2.0, 1)]],), "streams[0][1].server must be an integer, got 2.0"),
    ("reentrant", ([[(1, 1), (2, "\u0661")]],), "streams[0][1].rate: not a rational number: '\u0661'"),
    ("reentrant", ([[(1, 1), (2, 0)]],), "streams[0][1].rate: rates must be positive, got 0"),
    ("reentrant", ([[(2, 1), (2, 1)]],), "server 1 has no operations"),
    ("custom", (1.5, [("a", [([1], 1)])]), "M must be an integer, got 1.5"),
    ("custom", (0, [("a", [([1], 1)])]), "M must be a positive integer, got 0"),
    ("custom", (1, []), "a network needs at least one action"),
    ("custom", (1, [("a", [([1], 1)]), (3, [([1], 1)])]), "actions[1].label must be a string, got 3"),
    ("custom", (1, [("a", [])]), "actions[0] has no outcomes"),
    ("custom", (2, [("a", [([1, 0], 1), ([1], 1)])]),
     "actions[0].outcomes[1]: displacement (1,) has length 1, expected 2"),
    ("custom", (2, [("a", [([1, 1], 1)])]), "actions[0].outcomes[0]: displacement (1, 1) must add "
     "one job, remove one job, or move one job between queues"),
    ("custom", (2, [("a", [([1, 0.5], 1)])]),
     "actions[0].outcomes[0]: a displacement entry must be an integer, got 0.5"),
    ("custom", (1, [("a", [([1], "1/-2")])]), "actions[0].outcomes[0]: not a rational number: '1/-2'"),
])
def test_builder_and_spec_file_give_the_same_message(family, args, message):
    with pytest.raises(ConstructionError) as built:
        BUILDERS[family](*args)
    with pytest.raises(SpecFileError) as loaded:
        loads_spec(json.dumps(_document(family, *args)))
    assert str(built.value) == str(loaded.value) == message
