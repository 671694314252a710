"""Network constructors, availability, transition distributions, spec files."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import label_ids, list_actions
from qstab import netmodel
from qstab.netmodel import (
    ConstructionError,
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

rate_st = st.fractions(min_value=F(1, 6), max_value=F(6), max_denominator=6)


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
    assert act.total_rate == F(3)


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


@st.composite
def rings_and_lines(draw):
    """Rings of 2 to 12 servers, and lines of one to four streams of two to five steps."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 12))
        return build_ring([draw(rate_st) for _ in range(m)], [draw(rate_st) for _ in range(m)])
    streams = []
    for i in range(draw(st.integers(1, 4))):
        servers = [draw(st.sampled_from([1, 2])) for _ in range(draw(st.integers(2, 5)))]
        if i == 0:
            servers[:2] = [1, 2]  # both servers have work
        streams.append([(s, draw(rate_st)) for s in servers])
    return build_reentrant(streams)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(family_nets(), rings_and_lines()))
@example(build_two_stream_example())
def test_family_choices_are_valid_by_construction(net):
    # what check_displacement and as_rate would enforce, had the builders called them
    for choice in (c for menu in net.menus for c in menu):
        for d, r in choice.outcomes:
            assert netmodel.check_displacement(d, net.n_queues) == d
            assert type(r) is Fraction and r > 0


# ---------------------------------------------------------------------------
# availability and distributions


def test_availability_on_push_pull_boundary():
    net = build_push_pull(1, 1, 1, 1)
    labels = {a.id: a.label for a in list_actions(net)}
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
    assert [f.name for f in dataclasses.fields(netmodel.ActionSpec)] == ["id", "label", "outcomes"]
    act = build_push_pull(1, 2, 3, 4).action(2)  # (push, pull): +e1 at 1, -e1 at 3
    assert act.total_rate == 4 and act.drains == frozenset({0})


@settings(max_examples=60, deadline=None)
@given(family_nets())
def test_family_invariants(net):
    # Three-shape displacement rule and exact unit-mass distributions.
    for act in list_actions(net):
        for d in act.support:
            nonzero = [x for x in d if x]
            assert 1 <= len(nonzero) <= 2
            assert all(x in (-1, 1) for x in nonzero)
            assert sum(nonzero) in (-1, 0, 1)
        assert sum((p for _, p in transition_distribution(net, act.id)), F(0)) == 1
        assert act.total_rate == sum((r for _, r in act.outcomes), F(0))
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
        (0, [("a", [((), 1)])], "a network needs at least one queue"),
        (1, [], "a network needs at least one action"),
        (1, [("empty", [])], "action 'empty' has no outcomes"),
    ],
)
def test_custom_network_needs_queues_actions_and_outcomes(n_queues, actions, message):
    with pytest.raises(ConstructionError, match=message):
        build_custom(n_queues, actions)



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
    with pytest.raises(ConstructionError, match="n_queues must be an integer"):
        build_custom(n_queues, [("a", [(disp, 1), (tuple(-x for x in disp), 1)])])


@pytest.mark.parametrize("label", [3, None, b"a", ("a",)])
def test_action_labels_must_be_strings(label):
    # dump_spec would write the label as is, and loads_spec refuses a non-string label
    with pytest.raises(ConstructionError, match="label must be a string"):
        build_custom(1, [(label, [((1,), 1)])])


@pytest.mark.parametrize("server", [1.0, 2.0, True])
def test_reentrant_servers_must_be_integers(server):
    message = f"stream 1 step 0: server must be an integer, got {server!r}"
    with pytest.raises(ConstructionError, match=message):
        build_reentrant([[(server, 1), (2, 1)]])


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
    assert custom.family == "custom" and custom.action(0).total_rate == 2


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("not json", "line 1"),
        ('{"family": "hexagon"}', "family"),
        ('{"family": "pushpull", "lambda": ["1","1"], "mu": ["1","1"], "x": 1}', "'x'"),
        ('{"family": "pushpull", "lambda": ["1","1"]}', "'mu'"),
        ('{"family": "pushpull", "lambda": ["1"], "mu": ["1","1"]}', "lambda"),
        ('{"family": "ring", "lambda": ["1"], "mu": ["1"]}', "length"),
        ('{"family": "pushpull", "lambda": [1.5, 1], "mu": ["1","1"]}', "lambda"),
        ('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1", "y": 2}, {"server": 2, "rate": "1"}]]}', "'y'"),
        ('{"family": "reentrant", "streams": [[{"server": true, "rate": "1"}, {"server": 2, "rate": "1"}]]}', "streams[0][0].server must be 1 or 2"),
        ('{"family": "reentrant", "streams": [[{"server": 1.0, "rate": "1"}, {"server": 2, "rate": "1"}]]}', "streams[0][0].server must be 1 or 2"),
        ('{"family": "custom", "M": 0, "actions": []}', "'M'"),
        ('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": [{"disp": [1], "rate": "-1"}]}]}', "positive"),
        ('{"family": "reentrant", "streams": [[1, {"server": 2, "rate": "1"}]]}', "streams[0][0] must be an object"),
        ('{"family": "reentrant", "streams": []}', "'streams' must be a nonempty list"),
        ('{"family": "reentrant", "streams": [1]}', "streams[0] must be a list of operations"),
        ('{"family": "custom", "M": 1, "actions": []}', "'actions' must be a nonempty list"),
        ('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": []}]}', "actions[0].outcomes must be a nonempty list"),
        ('{"family": "custom", "M": 1, "actions": [{"label": "x", "outcomes": [{"disp": [1.5], "rate": "1"}]}]}', "actions[0].outcomes[0].disp must be a list of integers"),
        # a ConstructionError from the network builders, reported as a SpecFileError
        ('{"family": "reentrant", "streams": [[{"server": 1, "rate": "1"}]]}', "stream 1 needs at least two steps"),
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
    with pytest.raises(SpecFileError, match=r"^actions\[1\]\.label must be a string$"):
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
