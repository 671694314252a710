"""Per-server menus against the flat action list.

Family networks store one menu of choices per server and certify from the
menus without listing actions. Each test here compares that path with a
flat one on the same network: the action list as the build functions
enumerated it before menus existed (rebuilt locally), the one-server
custom export of the network, or a loop over every action built from its id.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dot, list_actions, normalize_integer_vector
from qstab import certify, exactla
from qstab.certify import (
    check_nondegeneracy_direct,
    check_nondegeneracy_lemma,
    certify_nonstabilizable,
    drift_matrix,
    null_space_basis,
    spanning_rows,
)
from qstab.cli import _emit
from qstab.netmodel import (
    MAX_ACTIONS,
    ReentrantMeta,
    RingMeta,
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
    spec_document,
    transition_distribution,
)

F = Fraction

rate_st = st.fractions(min_value=F(1, 6), max_value=F(6), max_denominator=6)


@st.composite
def reentrant_streams(draw, critical: bool):
    """One to three streams of two to four steps on random servers.

    Stream 0 starts on server 1 then server 2, so both servers have work.
    A critical draw gives every stream steps on both servers and sets the
    last step of each server so the two inverse-rate sums agree.
    """
    streams = []
    for i in range(draw(st.integers(1, 3))):
        servers = [draw(st.sampled_from([1, 2])) for _ in range(draw(st.integers(2, 4)))]
        if i == 0:
            servers[:2] = [1, 2]
        if critical and len(set(servers)) == 1:
            servers[-1] = 3 - servers[-1]
        rates = [draw(rate_st) for _ in servers]
        if critical:
            last = {s: max(j for j, t in enumerate(servers) if t == s) for s in (1, 2)}
            work = {s: sum(1 / r for j, r in enumerate(rates) if servers[j] == s and j != last[s])
                    for s in (1, 2)}
            x = max(work[2] - work[1], F(0)) + draw(rate_st)
            rates[last[1]] = 1 / x
            rates[last[2]] = 1 / (x + work[1] - work[2])
        streams.append(list(zip(servers, rates)))
    return streams


@st.composite
def family_nets(draw):
    kind = draw(st.sampled_from(["pushpull", "ring", "reentrant"]))
    critical = draw(st.booleans())
    if kind == "reentrant":
        return build_reentrant(draw(reentrant_streams(critical)))
    m = 2 if kind == "pushpull" else draw(st.integers(2, 7))
    lam = [draw(rate_st) for _ in range(m)]
    mu = lam if critical else [draw(rate_st) for _ in range(m)]
    return build_push_pull(*lam, *mu) if kind == "pushpull" else build_ring(lam, mu)


def reference_actions(net) -> list[tuple[int, str, tuple]]:
    """(id, label, merged sorted outcomes) of each action, enumerated the flat way."""
    meta, m = net.meta, net.n_queues

    def unit(k, sign):
        return tuple(sign if i == k else 0 for i in range(m))

    def merged(outcomes):
        acc = {}
        for d, r in outcomes:
            acc[d] = acc.get(d, 0) + r
        return tuple(sorted(acc.items()))

    if net.family == "pushpull":
        (l1, l2), (m1, m2) = meta.push_rates, meta.pull_rates
        table = [("(push,push)", [((1, 0), l1), ((0, 1), l2)]),
                 ("(pull,pull)", [((-1, 0), m1), ((0, -1), m2)]),
                 ("(push,pull)", [((1, 0), l1), ((-1, 0), m1)]),
                 ("(pull,push)", [((0, 1), l2), ((0, -1), m2)])]
        return [(i, label, merged(outs)) for i, (label, outs) in enumerate(table)]
    if isinstance(meta, RingMeta):
        out = []
        for i, choices in enumerate(itertools.product(("push", "pull"), repeat=m)):
            outs = [(unit(s, 1), meta.push_rates[s]) if c == "push"
                    else (unit((s - 1) % m, -1), meta.pull_rates[(s - 1) % m])
                    for s, c in enumerate(choices)]
            out.append((i, "(" + ",".join(choices) + ")", merged(outs)))
        return out
    assert isinstance(meta, ReentrantMeta)

    def step(i, j):
        n_i, rate = meta.stream_lengths[i], meta.op_rate(i, j)
        if j == 0:
            return unit(meta.queue_index(i, 1), 1), rate
        if j == n_i:
            return unit(meta.queue_index(i, n_i), -1), rate
        d = [0] * m
        d[meta.queue_index(i, j)], d[meta.queue_index(i, j + 1)] = -1, 1
        return tuple(d), rate

    ops1, ops2 = meta.server_operations(1), meta.server_operations(2)
    return [(a * len(ops2) + b, f"(({i1 + 1},{j1}),({i2 + 1},{j2}))",
             merged([step(i1, j1), step(i2, j2)]))
            for a, (i1, j1) in enumerate(ops1) for b, (i2, j2) in enumerate(ops2)]


def flat_twin(net):
    """The network's one-server custom export, carrying the family's metadata."""
    return dataclasses.replace(loads_spec(dump_spec(net)), family=net.family, meta=net.meta)


def certify_report(net, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(certify_nonstabilizable(net).to_json_dict(), fmt)
    return out.getvalue()


def loop_direct(net, *vectors) -> bool:
    return all(any(sum(a * x for a, x in zip(v, d)) for d in act.support for v in vectors)
               for act in list_actions(net))


def loop_lemma(net, alpha) -> bool:
    for act in list_actions(net):
        for d in act.support:
            ups = [k for k, x in enumerate(d) if x > 0]
            downs = [k for k, x in enumerate(d) if x < 0]
            if ups and downs:
                if alpha[ups[0]] == alpha[downs[0]]:
                    return False
            elif alpha[(ups or downs)[0]] == 0:
                return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family_nets())
def test_lazy_actions_match_the_flat_enumeration(net):
    listed = list_actions(net)
    assert net.n_actions == len(listed)
    assert [(a.id, a.label, a.outcomes) for a in listed] == reference_actions(net)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family_nets())
def test_menu_certificate_matches_the_flat_action_list(net):
    twin = flat_twin(net)
    assert len(twin.menus) == 1 and twin.n_actions == net.n_actions
    for fmt in ("json", "text"):
        assert certify_report(net, fmt) == certify_report(twin, fmt)
    # The plain export has no family metadata: no criticality and no closed
    # form, so only its alpha and "critical" may differ from the family's.
    family = certify_nonstabilizable(net).to_json_dict()
    exported = certify_nonstabilizable(loads_spec(dump_spec(net))).to_json_dict()
    for key in ("verdict", "rank", "M", "L", "null_space_basis"):
        assert exported[key] == family[key]
    assert exported["nondegeneracy"]["direct"] == family["nondegeneracy"]["direct"]
    assert exactla.null_space(spanning_rows(net), net.n_queues) == null_space_basis(
        drift_matrix(net))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family_nets(), st.data())
def test_nondegeneracy_checks_match_a_loop_over_actions(net, data):
    cert = certify_nonstabilizable(net)
    vectors = [cert.alpha] if cert.alpha is not None else []
    vectors += list(cert.null_space_basis)
    entry = st.integers(-2, 2)
    vectors += [data.draw(st.lists(entry, min_size=net.n_queues, max_size=net.n_queues)
                          .filter(any)) for _ in range(3)]
    for alpha in vectors:
        assert check_nondegeneracy_direct(net, alpha) == loop_direct(net, alpha)
        assert check_nondegeneracy_lemma(net, alpha) == loop_lemma(net, alpha)
    # several vectors at once, as in the blocked test on a null space basis
    for pair in itertools.combinations(vectors, 2):
        assert certify._moves_every_action(pair, net) == loop_direct(net, *pair)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(family_nets(), st.data())
def test_certificate_search_needs_only_the_menu_bound(net, data):
    # Any vectors can stand in for a null space basis: the search reads only
    # which displacements they move. The reference walks every listed action
    # and t = 1..L(n-1)+1; the search stops after max_s |menu_s|(n-1)+1
    # values of t, and must return the same vector.
    m = net.n_queues
    n = data.draw(st.integers(1, 3))
    basis = [tuple(data.draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)))
             for _ in range(n)]

    def alpha(t):
        return tuple(sum(t**k * b[i] for k, b in enumerate(basis)) for i in range(m))

    candidates = basis + [alpha(t) for t in range(1, net.n_actions * (n - 1) + 2)]
    expected = next((normalize_integer_vector(c) for c in candidates
                     if any(c) and loop_direct(net, c)), None)
    assert certify._certificate_alpha(net, basis) == expected


def test_one_action_is_the_row_of_the_action_list():
    nets = [build_push_pull(1, 2, 3, 4), build_two_stream_example()]
    nets += [build_ring(range(1, m + 1), range(m + 1, 1, -1)) for m in range(2, 8)]
    for net in nets:
        listed = [(a.id, a.label, a.outcomes) for a in map(net.action, range(net.n_actions))]
        assert listed == reference_actions(net)


def test_one_action_beyond_the_listing_limit():
    m = 16
    net = build_ring(range(1, m + 1), [2] * m)
    assert net.n_actions == 1 << m > MAX_ACTIONS
    for k in (0, 1, 0xA5C3, (1 << m) - 1):
        # server i pulls iff bit m-1-i of k is set (server 0 most significant)
        pulls = [k >> (m - 1 - i) & 1 for i in range(m)]
        expected = {}
        for i, pull in enumerate(pulls):
            d = [0] * m
            if pull:
                d[(i - 1) % m] = -1
                expected[tuple(d)] = Fraction(2)
            else:
                d[i] = 1
                expected[tuple(d)] = Fraction(i + 1)
        total = sum(expected.values())
        assert dict(transition_distribution(net, k)) == {
            d: r / total for d, r in expected.items()}


def unit_displacements(m: int) -> list[tuple[int, ...]]:
    """Every arrival, departure and transfer over m queues."""
    units = [tuple(s if i == k else 0 for i in range(m)) for k in range(m) for s in (1, -1)]
    return units + [tuple(1 if i == j else -1 if i == k else 0 for i in range(m))
                    for j in range(m) for k in range(m) if j != k]


@st.composite
def custom_nets(draw):
    """One-server nets over 1-3 queues; the first choice repeats a displacement."""
    m = draw(st.integers(1, 3))
    outcome = st.tuples(st.sampled_from(unit_displacements(m)), rate_st)
    actions = [(f"a{i}", draw(st.lists(outcome, min_size=1, max_size=4)))
               for i in range(draw(st.integers(1, 4)))]
    actions[0][1].append((actions[0][1][0][0], draw(rate_st)))
    return build_custom(m, actions)


def drawn_alphas(net, data) -> list[tuple[int, ...]]:
    """Two fixed weight vectors, and a drawn nonzero one when ``data`` is given."""
    m = net.n_queues
    alphas = [tuple(range(1, m + 1)), (1,) + (0,) * (m - 1)]
    if data is not None:
        alphas.append(tuple(data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)
                                      .filter(any))))
    return alphas


@settings(max_examples=60, deadline=None, derandomize=True)
@given(custom_nets(), st.data())
@example(build_push_pull(1, 2, 3, 4), None)
@example(build_ring([1, 2, 3, 4], [4, 3, 2, 1]), None)
@example(build_two_stream_example(), None)
def test_displacement_index_matches_the_actions(net, data):
    m = net.n_queues
    reference = [net.action(a) for a in range(net.n_actions)]
    if net.family == "pushpull":  # the id map, not the mixed-radix order
        assert [a.label for a in reference] == [
            "(push,push)", "(pull,pull)", "(push,pull)", "(pull,push)"]
    support = sorted({d for act in reference for d in act.support})
    assert list(net.displacements) == support
    assert all(pairs == tuple((k, x) for k, x in enumerate(d) if x)
               for d, pairs in net.displacements.items())

    sets = index_sets(net)
    assert sets.external == {k for d in support if d.count(0) == m - 1 for k, x in enumerate(d) if x}
    assert sets.transfers == {(d.index(-1), d.index(1)) for d in support if d.count(0) == m - 2}

    for alpha in drawn_alphas(net, data):
        assert check_nondegeneracy_direct(net, alpha) == all(
            any(dot(alpha, d) for d in act.support) for act in reference)

    assert spec_document(net)["actions"] == [
        {"label": act.label,
         "outcomes": [{"disp": list(d), "rate": format_rational(r)} for d, r in act.outcomes]}
        for act in reference]
    for z in itertools.product((0, 1), repeat=m):
        assert available_actions(net, z) == {
            act.id for act in reference if all(z[k] for k in act.drains)}


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="the simulator needs numpy")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(custom_nets(), st.data())
@example(build_push_pull(1, 2, 3, 4), None)
@example(build_ring([1, 2, 3, 4], [4, 3, 2, 1]), None)
@example(build_two_stream_example(), None)
def test_martingale_bound_is_the_largest_increment_over_the_actions(net, data):
    from qstab.simulate import SimConfig, make_policy, martingale_test

    reference = [net.action(a) for a in range(net.n_actions)]
    pol = make_policy(net, "custom", resolver=lambda z: 0)
    cfg = SimConfig(seed=0, trials=2, steps=1, x0=(1,) * net.n_queues)  # every action is available
    for alpha in drawn_alphas(net, data):
        bound = max(abs(dot(alpha, d)) for act in reference for d in act.support)
        assert martingale_test(net, pol, alpha, cfg).bound == float(bound)
