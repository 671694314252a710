"""Network constructors, availability, transition distributions, spec files."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert [a.label for a in net.actions] == [
        "(push,push)", "(pull,pull)", "(push,pull)", "(pull,push)",
    ]
    push_pull = dict(net.actions[2].outcomes)
    assert push_pull == {(1, 0): F(1), (-1, 0): F(1)}
    dist = dict(transition_distribution(net, 2))
    assert dist == {(1, 0): F(1, 2), (-1, 0): F(1, 2)}


def test_push_pull_rate_weighting():
    net = build_push_pull(1, 2, 3, 4)
    dist = dict(transition_distribution(net, 0))
    assert dist == {(1, 0): F(1, 3), (0, 1): F(2, 3)}


@pytest.mark.parametrize("rates", [(1, 1, 0, 1), (1, -2, 1, 1), ("0/3", 1, 1, 1)])
def test_push_pull_rejects_nonpositive_rates(rates):
    with pytest.raises(ConstructionError):
        build_push_pull(*rates)


# ---------------------------------------------------------------------------
# ring


def test_ring_m2_matches_push_pull_by_label():
    ring = build_ring([1, 2], [3, 4])
    pp = build_push_pull(1, 2, 3, 4)
    ring_map = {a.label: dict(a.outcomes) for a in ring.actions}
    pp_map = {a.label: dict(a.outcomes) for a in pp.actions}
    assert ring_map == pp_map
    # Push-pull is the two-server ring: only the family name and the id map differ.
    assert (pp.n_queues, pp.menus, pp.meta) == (ring.n_queues, ring.menus, ring.meta)
    assert (pp.family, pp.ids) == ("pushpull", (0, 2, 3, 1))
    assert (ring.family, ring.ids) == ("ring", None)
    for net in (pp, build_ring([1, "2/3", 3], [5, 7, "1/2"]), build_two_stream_example()):
        assert [net.action(i) for i in range(net.n_actions)] == list(net.actions)


def test_ring_all_push_uniform():
    ring = build_ring([1] * 4, [1] * 4)
    assert ring.n_actions == 16
    dist = dict(transition_distribution(ring, 0))
    assert ring.actions[0].label == "(push,push,push,push)"
    assert all(p == F(1, 4) for p in dist.values()) and len(dist) == 4


def test_ring_mixed_action_outcomes():
    # Hand enumeration for (push,pull,pull) on the 3-ring: server 1 pushes
    # stream 1, server 2 pulls stream 1, server 3 pulls stream 2.
    ring = build_ring([1, 1, 1], [1, 1, 1])
    act = ring.actions[ring.labels()["(push,pull,pull)"]]
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
    assert dict(net.actions[0].outcomes) == {(1,): F(1), (-1,): F(1)}
    assert dict(transition_distribution(net, 0)) == {(1,): F(1, 2), (-1,): F(1, 2)}


def test_push_pull_shaped_reentrant():
    # Two one-queue streams crossing the servers reproduce the push-pull
    # network's action outcomes.
    net = build_reentrant([[(1, "1"), (2, "3")], [(2, "2"), (1, "4")]])
    pp = build_push_pull(1, 2, 3, 4)
    assert net.n_queues == pp.n_queues and net.n_actions == pp.n_actions
    assert sorted(a.outcomes for a in net.actions) == sorted(a.outcomes for a in pp.actions)


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


def test_reentrant_queue_numbering_round_trip():
    net = build_two_stream_example()
    meta = net.meta
    queues = [meta.queue_index(i, j) for i, j in meta.operations() if j >= 1]
    assert sorted(queues) == list(range(net.n_queues))
    assert meta.entry_queues == frozenset({0, 3})
    assert meta.exit_queues == frozenset({2, 6})


# ---------------------------------------------------------------------------
# availability and distributions


def test_availability_on_push_pull_boundary():
    net = build_push_pull(1, 1, 1, 1)
    labels = {a.id: a.label for a in net.actions}
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


def test_transition_distribution_unknown_action():
    net = build_push_pull(1, 1, 1, 1)
    with pytest.raises(ConstructionError):
        transition_distribution(net, 17)


@settings(max_examples=60, deadline=None)
@given(family_nets())
def test_family_invariants(net):
    # Three-shape displacement rule and exact unit-mass distributions.
    for act in net.actions:
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
    assert net.actions[0].outcomes == (((1,), F(3, 2)),)


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


# ---------------------------------------------------------------------------
# rationals and spec files


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" 7 ") == F(7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
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
    assert custom.family == "custom" and custom.actions[0].total_rate == 2


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
        assert [dict(a.outcomes) for a in again.actions] == [
            dict(a.outcomes) for a in net.actions
        ]
        assert [a.label for a in again.actions] == [a.label for a in net.actions]


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
    assert len(build_ring([1] * 3, [1] * 3).actions) == 8
    big = build_ring([1] * 4, [1] * 4)
    assert big.n_actions == 16
    for listing in (lambda: big.actions, lambda: dump_spec(big),
                    lambda: available_actions(big, (1,) * 4)):
        with pytest.raises(ConstructionError, match="16 actions, more than the 8"):
            listing()
