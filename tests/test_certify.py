"""Drift matrices, exact rank, harmonic weights, and certificates.

Frozen expected values were computed with the independent oracles named in
each test (hand enumeration of outcomes, Fraction Gauss-Jordan, floating
point elimination at 1e-9) before being asserted here.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dot, float_rank, gauss_jordan_null_basis, label_ids, list_actions, normalize_integer_vector,
    rings_and_lines, signed_work_critical,
)
from qstab import certify, exactla
from qstab.certify import (
    UnsupportedFamilyError,
    Verdict,
    certify_nonstabilizable,
    check_nondegeneracy_direct,
    check_nondegeneracy_lemma,
    drift_matrix,
    family_alpha,
    is_critical,
    null_space_basis,
    rank,
    reentrant_alpha,
    ring_alpha_even,
    sign_matrix,
    verify_sign_pattern,
    verify_unit_pairing,
)
from qstab.netmodel import (
    MAX_ACTIONS,
    ConstructionError,
    build_custom,
    build_push_pull,
    build_reentrant,
    build_ring,
    build_two_stream_example,
    index_sets,
)

F = Fraction


def random_rates(rnd, n):
    return [F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(n)]


# A critical single-stream network: server 1 steps {0, 3} have inverse-rate
# sum 1 + 1/3 = 4/3, server 2 steps {1, 2, 4} have 1/2 + 1/2 + 1/3 = 4/3.
CRITICAL_STREAM = [[(1, 1), (2, 2), (2, 2), (1, 3), (2, 3)]]


# ---------------------------------------------------------------------------
# drift matrix


def test_drift_rows_critical_symmetric_push_pull():
    # Hand sum: (push,push) moves +e1 or +e2 each w.p. 1/2 and so on.
    d = drift_matrix(build_push_pull(1, 1, 1, 1))
    assert d.rows == (
        (F(1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
        (F(0), F(0)),
        (F(0), F(0)),
    )


def test_drift_row_unbalanced_push_pull():
    d = drift_matrix(build_push_pull(1, 1, 2, 2))
    assert d.rows[2] == (F(-1, 3), F(0))
    assert d.rows[3] == (F(0), F(-1, 3))


def test_drift_all_push_ring_row():
    d = drift_matrix(build_ring([1] * 4, [1] * 4))
    assert d.rows[0] == (F(1, 4),) * 4


def test_drift_row_mixed_ring_action():
    # Hand enumeration (see netmodel tests): outcomes +e1, -e1, -e2, each
    # probability 1/3, so the expected displacement is (0, -1/3, 0).
    ring = build_ring([1, 1, 1], [1, 1, 1])
    row = drift_matrix(ring).rows[label_ids(ring)["(push,pull,pull)"]]
    assert row == (F(0), F(-1, 3), F(0))


def test_drift_entries_bounded_and_shape_kept():
    net = build_two_stream_example()
    d = drift_matrix(net)
    assert d.n_actions == net.n_actions and d.n_queues == net.n_queues
    assert all(abs(x) <= 1 for row in d.rows for x in row)
    # Balanced rows are kept, preserving the L x M shape.
    pp = drift_matrix(build_push_pull(1, 1, 1, 1))
    assert pp.n_actions == 4 and any(all(x == 0 for x in row) for row in pp.rows)


# ---------------------------------------------------------------------------
# rank and null space


def test_rank_critical_symmetric_push_pull():
    d = drift_matrix(build_push_pull(1, 1, 1, 1))
    assert rank(d) == float_rank(d.rows) == 1


def test_rank_ring_parity_examples():
    even = drift_matrix(build_ring([1] * 4, [1] * 4))
    odd = drift_matrix(build_ring([1] * 3, [1] * 3))
    assert rank(even) == float_rank(even.rows) == 3
    assert rank(odd) == float_rank(odd.rows) == 3


def test_null_space_examples():
    assert null_space_basis(drift_matrix(build_push_pull(1, 1, 1, 1))) == [(1, -1)]
    assert null_space_basis(drift_matrix(build_push_pull(1, 2, 1, 2))) == [(2, -1)]
    noncritical = drift_matrix(build_push_pull(1, 1, 2, 2))
    assert float_rank(noncritical.rows) == 2
    assert null_space_basis(noncritical) == []


# ---------------------------------------------------------------------------
# non-degeneracy


def test_nondegeneracy_direct():
    net = build_push_pull(1, 1, 1, 1)
    assert check_nondegeneracy_direct(net, (1, -1))
    assert check_nondegeneracy_direct(net, (1, 1))  # every support moves one queue
    assert not check_nondegeneracy_direct(net, (0, 1))  # (push,pull) support is +-e1
    with pytest.raises(ValueError):
        check_nondegeneracy_direct(net, (0, 0))
    with pytest.raises(ValueError):
        check_nondegeneracy_direct(net, (1, 0, 0))


# Weights that check_alpha refuses, each with the message that names it.
BAD_WEIGHTS = {
    "bool": ((True, -1), "alpha[0]: a weight must be an integer, got True"),
    "float": ((1, 0.5), "alpha[1]: a weight must be an integer, got 0.5"),
    "exponent": (("1e3", 1), "alpha[0]: not a rational number: '1e3'"),
    "decimal": ((1, "0.5"), "alpha[1]: not a rational number: '0.5'"),
    "none": ((None, 1), "alpha[0]: a weight must be an integer, got None"),
    "word": ((1, "x"), "alpha[1]: not a rational number: 'x'"),
    "underscore": (("1_2", -1), "alpha[0]: not a rational number: '1_2'"),
}


def test_alpha_weights_are_ints_fractions_or_rational_strings():
    net = build_push_pull(1, 1, 1, 1)
    for alpha in ((1, -1), (F(1), "-1"), ("2/2", F(-3, 3)), (" 1 ", "-1/1")):
        assert check_nondegeneracy_direct(net, alpha)
    assert not check_nondegeneracy_direct(net, ("0", "1"))


@pytest.mark.parametrize("alpha,message", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
def test_alpha_weight_errors_name_the_weight(alpha, message):
    with pytest.raises(ConstructionError) as err:
        check_nondegeneracy_direct(build_push_pull(1, 1, 1, 1), alpha)
    assert str(err.value) == message


@pytest.mark.parametrize("alpha", [None, 5])
def test_alpha_that_is_not_a_sequence_is_a_construction_error(alpha):
    net = build_push_pull(1, 1, 1, 1)
    for check in (check_nondegeneracy_direct, check_nondegeneracy_lemma):
        with pytest.raises(ConstructionError) as err:
            check(net, alpha)
        assert str(err.value) == f"alpha must be a sequence of weights, got {alpha!r}"


def test_nondegeneracy_lemma():
    ring = build_ring([1] * 4, [1] * 4)
    assert check_nondegeneracy_lemma(ring, (1, -1, 1, -1))
    assert not check_nondegeneracy_lemma(ring, (0, 1, -1, 1))
    net = build_reentrant(CRITICAL_STREAM)
    alpha = reentrant_alpha(net)
    assert alpha == (F(-1), F(-1, 2), F(0), F(-1, 3))
    # A zero weight on a middle queue is fine; the lemma only constrains
    # external queues and transfer pairs.
    assert check_nondegeneracy_lemma(net, alpha)
    assert not check_nondegeneracy_lemma(net, (0, 1, 2, 3))


def test_lemma_implies_direct_on_random_nets():
    rnd = random.Random(7)
    nets = []
    for _ in range(6):
        lam = random_rates(rnd, 2)
        nets.append(build_push_pull(*lam, *lam))
        m = rnd.choice([2, 3, 4])
        rates = random_rates(rnd, m)
        nets.append(build_ring(rates, rates))
    nets.append(build_reentrant(CRITICAL_STREAM))
    nets.append(build_two_stream_example())
    from qstab.netmodel import dump_spec, loads_spec

    nets.append(loads_spec(dump_spec(build_push_pull(1, 2, 1, 2))))
    rng = random.Random(8)
    for net in nets:
        candidates = [tuple(F(rng.randint(-3, 3)) for _ in range(net.n_queues)) for _ in range(8)]
        cert = certify_nonstabilizable(net)
        if cert.alpha is not None:
            candidates.append(cert.alpha)
        for alpha in candidates:
            if all(x == 0 for x in alpha):
                continue
            if check_nondegeneracy_lemma(net, alpha):
                assert check_nondegeneracy_direct(net, alpha)


# A custom network certified by alpha = (1, 0): D = 0, and e1 moves both
# actions, but queue 2 is external with weight 0, so the lemma fails.
ZERO_ON_AN_EXTERNAL_QUEUE = build_custom(2, [
    ("a", [((1, 0), 1), ((-1, 0), 1)]),
    ("b", [((0, 1), 1), ((0, -1), 1), ((1, 0), 1), ((-1, 0), 1)]),
])

# A custom network certified by alpha = (1, 1): D's rows are multiples of
# (1, -1), and an outside move of queue 1 moves both actions, but the
# transfer 1 -> 2 joins two queues of equal weight, so the lemma fails.
EQUAL_ON_A_TRANSFER = build_custom(2, [
    ("a", [((1, 0), 1), ((0, -1), 1)]),
    ("b", [((-1, 1), 1), ((1, 0), 1), ((-1, 0), 1)]),
])

# Each network with its report's nondegeneracy: (direct, lemma).
LEMMA_EXAMPLES = {
    "push-pull": (build_push_pull(1, 2, 1, 2), True, True),
    "push-pull-unbalanced": (build_push_pull(1, 1, 2, 2), False, False),
    "ring-4": (build_ring([1, 2, 3, 4], [1, 2, 3, 4]), True, True),
    "ring-3": (build_ring([1] * 3, [1] * 3), False, False),
    "critical-stream": (build_reentrant(CRITICAL_STREAM), True, True),
    "two-stream": (build_two_stream_example(), True, True),
    "zero-on-an-external-queue": (ZERO_ON_AN_EXTERNAL_QUEUE, True, False),
    "equal-on-a-transfer": (EQUAL_ON_A_TRANSFER, True, False),
}


def _certified_lemma(net) -> dict:
    """The report's nondegeneracy, after checking that certify's own lemma is the public one."""
    cert = certify_nonstabilizable(net)
    report = cert.to_json_dict()["nondegeneracy"]
    if cert.alpha is None:
        assert report["lemma"] is False
    else:
        assert report["lemma"] is check_nondegeneracy_lemma(net, cert.alpha)
    return report


@pytest.mark.parametrize("name", LEMMA_EXAMPLES)
def test_the_certified_lemma_is_the_public_lemma_on_family_examples(name):
    # certify tests its own integer alpha; the public lemma takes outside input
    net, direct, lemma = LEMMA_EXAMPLES[name]
    assert _certified_lemma(net) == {"direct": direct, "lemma": lemma}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rings_and_lines())
def test_the_certified_lemma_is_the_public_lemma(net):
    _certified_lemma(net)


def test_the_public_lemma_refuses_a_misfit_alpha():
    net = build_two_stream_example()
    with pytest.raises(ConstructionError, match="^alpha has length 6, expected 7$"):
        check_nondegeneracy_lemma(net, (1,) * 6)
    with pytest.raises(ConstructionError, match="^alpha must be nonzero$"):
        check_nondegeneracy_lemma(net, (0,) * 7)
    with pytest.raises(ConstructionError, match="^alpha must be nonzero$"):
        check_nondegeneracy_lemma(net, (F(0),) * 7)


# ---------------------------------------------------------------------------
# criticality


def test_is_critical_examples():
    assert is_critical(build_push_pull(1, 2, 1, 2))
    assert not is_critical(build_push_pull(1, 1, 2, 2))
    assert is_critical(build_reentrant(CRITICAL_STREAM))
    perturbed = [[(1, 1), (2, 2), (2, 2), (1, 3), (2, 4)]]
    assert not is_critical(build_reentrant(perturbed))
    with pytest.raises(UnsupportedFamilyError):
        is_critical(build_custom(1, [("x", [((1,), 1)])]))


HUGE = 2**64 + 1


@st.composite
def reentrant_layouts(draw):
    """Re-entrant lines of 1-4 streams of 2-5 steps; rates are small or have
    numerators near 2**64.

    A stream may be made critical by solving its last rate: that step goes to
    the server its other steps leave short of work, at the rate that balances
    them, unless they balance already. The first stream starts on server 1
    then server 2, and keeps both when solved, so both servers have work.
    """
    small = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)
    huge = st.builds(F, st.integers(2**64 - 2**8, 2**64 + 2**8), st.integers(1, 2**8))
    rate = st.one_of(small, huge)
    streams = []
    for i in range(draw(st.integers(1, 4))):
        steps = [(draw(st.sampled_from([1, 2])), draw(rate)) for _ in range(draw(st.integers(2, 5)))]
        if i == 0:
            steps[:2] = [(1, steps[0][1]), (2, steps[1][1])]
        if draw(st.booleans()):
            excess = sum((1 if s == 2 else -1) / r for s, r in steps[:-1])  # server 2's excess work
            if excess:
                steps[-1] = (1, 1 / excess) if excess > 0 else (2, -1 / excess)
        streams.append(steps)
    return build_reentrant(streams)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reentrant_layouts())
@example(build_reentrant([[(1, F(HUGE, 3)), (2, F(HUGE, 3))]]))  # critical
@example(build_reentrant([[(1, F(HUGE, 3)), (2, F(HUGE + 2, 3))]]))  # equal as floats, not critical
@example(build_reentrant([[(1, F(HUGE, 7)), (2, F(HUGE, 3)), (2, F(HUGE, 4))], CRITICAL_STREAM[0]]))
def test_integer_criticality_is_the_fraction_rule(net):
    assert is_critical(net) is signed_work_critical(net)


# ---------------------------------------------------------------------------
# closed forms


def test_ring_alpha_even_examples():
    assert ring_alpha_even(build_ring([1] * 4, [1] * 4)) == (F(1), F(-1), F(1), F(-1))
    assert ring_alpha_even(build_ring([1, 2], [1, 2])) == (F(1), F(-1, 2))
    with pytest.raises(ValueError):
        ring_alpha_even(build_ring([1] * 3, [1] * 3))
    with pytest.raises(ValueError):
        ring_alpha_even(build_ring([1, 1], [2, 2]))
    with pytest.raises(UnsupportedFamilyError):
        ring_alpha_even(build_push_pull(1, 1, 1, 1))


def test_reentrant_alpha_push_pull_shaped():
    net = build_reentrant([[(1, 1), (2, 1)], [(2, 1), (1, 1)]])
    alpha = reentrant_alpha(net)
    assert alpha == (F(-1), F(1))
    d = drift_matrix(net)
    assert all(dot(row, alpha) == 0 for row in d.rows)


def test_reentrant_alpha_signed_sums():
    net = build_reentrant(CRITICAL_STREAM)
    meta = net.meta
    alpha = reentrant_alpha(net)
    # First queue of each stream carries the signed inverse supply rate.
    for i in range(meta.n_streams):
        server, rate = meta.streams[i][0]
        assert alpha[meta.queue_index(i, 1)] == F(-1 if server == 1 else 1) / rate
    # Transfer pairs differ by exactly the signed inverse rate of the step
    # between them.
    serving = {meta.queue_index(i, j): (i, j) for i, j in meta.operations() if j >= 1}
    for src, dst in index_sets(net).transfers:
        i, j = serving[src]
        server, rate = meta.streams[i][j]
        assert alpha[dst] - alpha[src] == F(-1 if server == 1 else 1) / rate
    with pytest.raises(ValueError):
        reentrant_alpha(build_reentrant([[(1, 1), (2, 2)]]))
    with pytest.raises(UnsupportedFamilyError):
        reentrant_alpha(build_push_pull(1, 1, 1, 1))


def test_family_alpha_dispatch():
    assert family_alpha(build_push_pull(1, 2, 1, 2)) == (F(1), F(-1, 2))
    assert family_alpha(build_ring([1, 2, 3, 4], [1, 2, 3, 4])) == (
        F(1), F(-1, 2), F(1, 3), F(-1, 4),
    )
    assert family_alpha(build_ring([1] * 3, [1] * 3)) is None
    assert family_alpha(build_push_pull(1, 1, 2, 2)) is None
    assert family_alpha(build_two_stream_example()) is not None


# ---------------------------------------------------------------------------
# sign patterns


def test_sign_matrix_examples():
    pp = sign_matrix(drift_matrix(build_push_pull(1, 1, 1, 1)))
    assert pp == ((1, 1), (-1, -1), (0, 0), (0, 0))
    ring = build_ring([1] * 4, [1] * 4)
    dhat = sign_matrix(drift_matrix(ring))
    assert dhat[0] == (1, 1, 1, 1)


def test_sign_rank_equals_drift_rank_on_critical_rings():
    rnd = random.Random(11)
    for m in (2, 3, 4, 5):
        rates = random_rates(rnd, m)
        d = drift_matrix(build_ring(rates, rates))
        dhat = sign_matrix(d)
        assert len(exactla.reduce(dhat)) == rank(d)


def test_sign_pattern_all_rows_of_even_ring():
    # Exhaustive over all 16 rows.
    dhat = sign_matrix(drift_matrix(build_ring([1] * 4, [1] * 4)))
    assert verify_sign_pattern(dhat)


def test_sign_pattern_row_set_of_odd_ring():
    # Exhaustive generation: the 3-ring produces exactly these sign rows,
    # and in particular never (+1, 0, -1).
    dhat = sign_matrix(drift_matrix(build_ring([1] * 3, [1] * 3)))
    rows = set(dhat)
    assert rows == {
        (1, 1, 1), (-1, -1, -1),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    }
    assert (1, 0, -1) not in rows
    # And the cyclic parity checker rejects that pattern: going around the
    # ring, the two opposite signs are adjacent with zero separating zeros.
    assert not verify_sign_pattern(((1, 0, -1),))
    assert verify_sign_pattern(((0, 0, 0),))


def test_sign_pattern_zero_count_parity():
    rnd = random.Random(13)
    for m in range(2, 7):
        rates = random_rates(rnd, m)
        dhat = sign_matrix(drift_matrix(build_ring(rates, rates)))
        assert verify_sign_pattern(dhat)
        for row in dhat:
            assert sum(1 for x in row if x == 0) % 2 == 0


# ---------------------------------------------------------------------------
# unit pairing


def test_unit_pairing_critical_and_perturbed():
    net = build_reentrant(CRITICAL_STREAM)
    alpha = reentrant_alpha(net)
    assert verify_unit_pairing(net, alpha)
    # Perturbing the final rate breaks criticality; the signed partial sums
    # (which do not involve the final rate) then fail the pairing at the
    # last step of the stream.
    perturbed = build_reentrant([[(1, 1), (2, 2), (2, 2), (1, 3), (2, 4)]])
    assert not verify_unit_pairing(perturbed, alpha)
    with pytest.raises(UnsupportedFamilyError):
        verify_unit_pairing(build_push_pull(1, 1, 1, 1), (1, -1))


def test_unit_pairing_reads_the_networks_own_outcomes():
    # Doubling one choice's rate in the menus, with the stream layout in
    # meta left as it was, must fail the pairing on that choice.
    net = build_two_stream_example()
    alpha = reentrant_alpha(net)
    assert verify_unit_pairing(net, alpha)
    for s, menu in enumerate(net.menus):
        for k, choice in enumerate(menu):
            (d, rate), = choice.outcomes
            changed = dataclasses.replace(choice, outcomes=((d, 2 * rate),))
            menus = list(net.menus)
            menus[s] = menu[:k] + (changed,) + menu[k + 1:]
            edited = dataclasses.replace(net, menus=tuple(menus))
            assert edited.meta == net.meta
            assert not verify_unit_pairing(edited, alpha)


# ---------------------------------------------------------------------------
# certificates


def test_certify_critical_push_pull():
    cert = certify_nonstabilizable(build_push_pull(1, 1, 1, 1))
    assert cert.verdict is Verdict.NON_STABILIZABLE
    assert cert.alpha == (F(1), F(-1))
    assert cert.nondeg_lemma
    assert cert.to_json_dict()["nondegeneracy"] == {"direct": True, "lemma": True}
    assert cert.critical is True and cert.rank == 1


def test_certify_critical_even_ring_closed_form():
    cert = certify_nonstabilizable(build_ring([1, 2, 3, 4], [1, 2, 3, 4]))
    assert cert.verdict is Verdict.NON_STABILIZABLE
    assert cert.alpha == (F(12), F(-6), F(4), F(-3))


def test_certify_inconclusive_cases():
    odd = certify_nonstabilizable(build_ring([1] * 3, [1] * 3))
    assert odd.verdict is Verdict.INCONCLUSIVE
    assert odd.rank == 3 and odd.alpha is None and odd.null_space_basis == ()
    noncrit = certify_nonstabilizable(build_push_pull(1, 1, 2, 2))
    assert noncrit.verdict is Verdict.INCONCLUSIVE and noncrit.rank == 2
    assert noncrit.critical is False


def test_certificate_payload_schema():
    payload = certify_nonstabilizable(build_push_pull(1, 2, 1, 2)).to_json_dict()
    assert payload == {
        "verdict": "non-stabilizable",
        "rank": 1,
        "M": 2,
        "L": 4,
        "alpha": ["2", "-1"],
        "nondegeneracy": {"direct": True, "lemma": True},
        "critical": True,
        "null_space_basis": [["2", "-1"]],
    }


def test_certificates_are_sound_on_random_family_nets():
    # For every NON_STABILIZABLE verdict: D alpha = 0 exactly and every
    # action's support can move the weighted length.
    rnd = random.Random(17)
    nets = []
    for _ in range(4):
        lam = random_rates(rnd, 2)
        nets.append(build_push_pull(*lam, *lam))
        nets.append(build_push_pull(*random_rates(rnd, 2), *random_rates(rnd, 2)))
        m = rnd.choice([2, 3, 4, 5, 6])
        rates = random_rates(rnd, m)
        nets.append(build_ring(rates, rates))
    nets.append(build_reentrant(CRITICAL_STREAM))
    nets.append(build_two_stream_example())
    for net in nets:
        cert = certify_nonstabilizable(net)
        if cert.verdict is Verdict.NON_STABILIZABLE:
            d = drift_matrix(net)
            assert all(dot(row, cert.alpha) == 0 for row in d.rows)
            assert check_nondegeneracy_direct(net, cert.alpha)
        else:
            assert cert.alpha is None


def test_ring_rank_dichotomy_small_sweep():
    rnd = random.Random(19)
    for m in range(2, 7):
        for _ in range(2):
            rates = random_rates(rnd, m)
            net = build_ring(rates, rates)
            d = drift_matrix(net)
            expected = m - 1 if m % 2 == 0 else m
            assert rank(d) == expected
            if m % 2 == 0:
                alpha = ring_alpha_even(net)
                basis = null_space_basis(d)
                assert len(basis) == 1
                # The closed form lies in the one-dimensional null space.
                assert normalize_integer_vector(alpha) == basis[0]


@st.composite
def closed_form_nets(draw):
    """Critical push-pull networks, critical even rings and critical re-entrant networks.

    A re-entrant stream draws 1-4 steps with random servers and rates.
    Unless they balance already, a last step then goes to the server they
    left short of work, at the rate that balances the stream exactly.
    """
    rate = st.builds(F, st.integers(1, 9), st.integers(1, 9))
    kind = draw(st.sampled_from(["pushpull", "ring", "reentrant"]))
    if kind == "pushpull":
        lam = draw(st.lists(rate, min_size=2, max_size=2))
        return build_push_pull(*lam, *lam)
    if kind == "ring":
        m = draw(st.sampled_from([2, 4, 6]))
        lam = draw(st.lists(rate, min_size=m, max_size=m))
        return build_ring(lam, lam)
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.lists(st.tuples(st.sampled_from([1, 2]), rate), min_size=1, max_size=4))
        work = sum((1 if s == 2 else -1) / r for s, r in steps)  # server 2's excess
        if work:
            steps.append((1, 1 / work) if work > 0 else (2, -1 / work))
        streams.append(steps)
    return build_reentrant(streams)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closed_form_nets())
def test_closed_form_is_the_one_null_space_direction(net):
    # Where a closed form applies the null space is one-dimensional, so the
    # certificate found from the null space alone is the closed form.
    assert is_critical(net)
    basis = null_space_basis(drift_matrix(net))
    assert len(basis) == 1
    alpha = normalize_integer_vector(family_alpha(net))
    assert alpha == basis[0]
    assert certify_nonstabilizable(net).alpha == alpha


def test_the_exact_engine_lists_no_actions():
    for net in (build_push_pull(1, 1, 1, 1), build_ring([1, 2, 3, 4], [1, 2, 3, 4]),
                build_two_stream_example()):
        for exact in (certify_nonstabilizable, drift_matrix, family_alpha):
            exact(net)
            assert "actions" not in net.__dict__, exact.__name__


def test_verdict_and_rank_are_derived():
    names = {f.name for f in dataclasses.fields(certify.HarmonicCertificate)}
    assert not names & {"verdict", "rank"}
    for net, verdict, rk in ((build_push_pull(1, 1, 1, 1), Verdict.NON_STABILIZABLE, 1),
                             (build_push_pull(1, 1, 2, 2), Verdict.INCONCLUSIVE, 2),
                             (swap_network(3), Verdict.NON_STABILIZABLE, 0)):
        cert = certify_nonstabilizable(net)
        assert (cert.verdict, cert.rank) == (verdict, rk)
        assert cert.rank == rank(drift_matrix(net))


def test_reentrant_rows_annihilate_alpha():
    net = build_two_stream_example()
    alpha = reentrant_alpha(net)
    d = drift_matrix(net)
    assert all(dot(row, alpha) == 0 for row in d.rows)


def test_scaling_invariance():
    scale = F(5, 3)
    for base, scaled in (
        (build_push_pull(1, 2, 1, 2), build_push_pull(scale, 2 * scale, scale, 2 * scale)),
        (
            build_ring([1, 2, 3, 4], [1, 2, 3, 4]),
            build_ring([scale, 2 * scale, 3 * scale, 4 * scale],
                       [scale, 2 * scale, 3 * scale, 4 * scale]),
        ),
    ):
        d0, d1 = drift_matrix(base), drift_matrix(scaled)
        assert d0.rows == d1.rows
        c0, c1 = certify_nonstabilizable(base), certify_nonstabilizable(scaled)
        assert c0.verdict == c1.verdict and c0.rank == c1.rank and c0.alpha == c1.alpha


def _large_ring(m, critical=True):
    lam = [F(i % 7 + 1, i % 3 + 1) for i in range(m)]
    return build_ring(lam, lam if critical else [x + 1 for x in lam])


def _four_step_line(n_streams):
    """n critical streams: steps on servers 1, 2, 1, 2 at rates a, a, b, b."""
    return build_reentrant([[(1, i % 5 + 1), (2, i % 5 + 1), (1, i % 4 + 2), (2, i % 4 + 2)]
                            for i in range(n_streams)])


@pytest.mark.parametrize("net, closed_form", [
    (_large_ring(160), True),
    (_large_ring(320), True),
    (_four_step_line(160), True),
    (_large_ring(161), False),
    (_large_ring(160, critical=False), False),
], ids=["critical-ring-160", "critical-ring-320", "critical-line-160", "odd-ring-161",
        "noncritical-ring-160"])
def test_spanning_rows_above_max_actions_match_the_closed_form(net, closed_form):
    # No drift matrix can be listed here; the closed form is the independent check.
    assert net.n_actions > MAX_ACTIONS
    basis = exactla.null_space(certify.spanning_rows(net), net.n_queues)
    if closed_form:
        assert basis == [normalize_integer_vector(family_alpha(net))]
    else:
        assert basis == []


def test_custom_net_certification_uses_null_space():
    # A custom network equivalent to the critical push-pull network is
    # certified from its null space (no closed form applies).
    from qstab.netmodel import dump_spec, loads_spec

    custom = loads_spec(dump_spec(build_push_pull(1, 2, 1, 2)))
    cert = certify_nonstabilizable(custom)
    assert cert.verdict is Verdict.NON_STABILIZABLE
    assert cert.alpha == (F(2), F(-1))
    assert cert.critical is None


# ---------------------------------------------------------------------------
# the exact decision


def swap_network(k):
    """k queues, one balanced action per pair: move a job i->j or j->i at equal rates.

    Every row of D is zero, so the null space is all of Q^k and any alpha
    with pairwise distinct entries is a certificate.
    """
    actions = []
    for i in range(k):
        for j in range(i + 1, k):
            fwd, back = [0] * k, [0] * k
            fwd[i], fwd[j] = -1, 1
            back[i], back[j] = 1, -1
            actions.append((f"swap{i}{j}", [(fwd, 1), (back, 1)]))
    return build_custom(k, actions)


def test_swap8_is_certified():
    net = swap_network(8)
    cert = certify_nonstabilizable(net)
    assert cert.verdict is Verdict.NON_STABILIZABLE
    assert cert.rank == 0 and len(cert.null_space_basis) == 8
    assert len(set(cert.alpha)) == 8
    assert check_nondegeneracy_direct(net, cert.alpha)


def test_blocked_action_is_inconclusive_below_full_rank():
    # D has rows (1/2, -1/2) and (0, 0): the null space is spanned by
    # (1, 1), which cannot move the balanced transfer between the queues.
    net = build_custom(2, [
        ("in-or-out", [((1, 0), 1), ((0, -1), 1)]),
        ("transfer", [((-1, 1), 1), ((1, -1), 1)]),
    ])
    cert = certify_nonstabilizable(net)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.rank == 1 and cert.null_space_basis == ((1, 1),)
    assert cert.alpha is None and not cert.nondeg_lemma
    assert cert.to_json_dict()["nondegeneracy"] == {"direct": False, "lemma": False}


def test_certify_builds_drift_once_and_eliminates_once(monkeypatch):
    calls = {"drift_matrix": 0, "spanning_rows": 0, "reduce": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(certify, "drift_matrix")
    counted(certify, "spanning_rows")
    counted(exactla, "reduce")
    cert = certify_nonstabilizable(build_ring([1] * 4, [1] * 4))
    assert cert.verdict is Verdict.NON_STABILIZABLE
    # the rows come from the menus; the full L x M matrix is never built
    assert calls == {"drift_matrix": 0, "spanning_rows": 1, "reduce": 1}


@pytest.mark.parametrize("net, calls", [
    (build_push_pull(1, 1, 1, 1), 1),
    (build_ring([1] * 4, [1] * 4), 1),
    (build_two_stream_example(), 1),
    (swap_network(5), None),  # no basis vector moves every swap, so alpha(t) is walked
], ids=["push-pull", "ring-4", "two-stream", "swap-5"])
def test_a_one_vector_null_space_is_tested_once(monkeypatch, net, calls):
    seen = []
    moves = certify._moves_every_action
    monkeypatch.setattr(certify, "_moves_every_action", lambda v, n: seen.append(v) or moves(v, n))
    cert = certify_nonstabilizable(net)
    assert cert.verdict is Verdict.NON_STABILIZABLE
    if calls is None:
        assert len(seen) > 1 + len(cert.null_space_basis)
    else:
        assert len(seen) == calls


def test_closed_form_weights_off_the_rows_are_an_internal_error(monkeypatch):
    monkeypatch.setattr(certify, "spanning_rows", lambda net: [(1, 0)])
    with pytest.raises(ArithmeticError, match="closed-form weights are not harmonic"):
        family_alpha(build_push_pull(1, 1, 1, 1))


def test_an_unmoved_alpha_walk_is_an_internal_error(monkeypatch):
    # The basis as a whole moves every action, but no single candidate does.
    monkeypatch.setattr(certify, "_moves_every_action", lambda vectors, net: len(vectors) > 1)
    with pytest.raises(ArithmeticError, match=r"no weight vector alpha\(t\) moves every action"):
        certify_nonstabilizable(swap_network(3))


def _oracle_rows(outcomes_per_action, m):
    """Each action's rate-weighted displacement sum, proportional to its drift row."""
    return [
        [sum((F(rate) * d[k] for d, rate in outs), F(0)) for k in range(m)]
        for outs in outcomes_per_action
    ]


def _displacements(m):
    out = []
    for i in range(m):
        out += [tuple(int(k == i) for k in range(m)), tuple(-int(k == i) for k in range(m))]
        for j in range(m):
            if j != i:
                out.append(tuple((k == j) - (k == i) for k in range(m)))
    return out


def _part(d, rate, balanced):
    """One outcome, or a balanced pair d, -d at equal rates."""
    return [(d, rate), (tuple(-x for x in d), rate)] if balanced else [(d, rate)]


@st.composite
def custom_nets(draw):
    """(M, actions): each action is one or two parts, a part is one outcome or a
    balanced pair d, -d at equal rates, so drift rows often cancel."""
    m = draw(st.integers(1, 4))
    parts = st.builds(_part, st.sampled_from(_displacements(m)), st.integers(1, 3), st.booleans())
    action = st.lists(parts, min_size=1, max_size=2).map(lambda ps: [o for p in ps for o in p])
    return m, draw(st.lists(action, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(custom_nets())
def test_verdict_matches_subspace_oracle(spec):
    m, actions = spec
    net = build_custom(m, [(f"a{i}", outs) for i, outs in enumerate(actions)])
    rows = _oracle_rows(actions, m)
    basis = gauss_jordan_null_basis(rows, m)

    def moves(v, outs):
        return any(sum(F(x) * y for x, y in zip(d, v)) != 0 for d, _ in outs)

    blocked = any(not any(moves(b, outs) for b in basis) for outs in actions)
    cert = certify_nonstabilizable(net)
    assert cert.rank == m - len(basis)
    exists = len(basis) > 0 and not blocked
    assert (cert.verdict is Verdict.NON_STABILIZABLE) == exists
    if exists:
        assert any(cert.alpha)
        assert all(sum(x * a for x, a in zip(row, cert.alpha)) == 0 for row in rows)
        assert all(moves(cert.alpha, outs) for outs in actions)
    else:
        assert cert.alpha is None


_rates = st.one_of(
    st.integers(1, 9),
    st.builds(F, st.integers(1, 9), st.integers(1, 9)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(1, 9), st.integers(1, 9)),
)


@st.composite
def nets_with_repeated_outcomes(draw):
    """(M, actions) where displacements repeat within an action, balanced pairs d, -d
    can zero a row, and rows repeat across actions."""
    m = draw(st.integers(1, 3))
    parts = st.builds(_part, st.sampled_from(_displacements(m)), _rates, st.booleans())
    action = st.lists(parts, min_size=1, max_size=3).map(lambda ps: [o for p in ps for o in p])
    action = action.flatmap(
        lambda outs: st.lists(st.sampled_from(outs), max_size=3).map(lambda extra: outs + extra)
    )
    actions = draw(st.lists(action, min_size=1, max_size=5))
    return m, actions + draw(st.lists(st.sampled_from(actions), max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nets_with_repeated_outcomes())
def test_integer_drift_matches_definition(spec):
    m, actions = spec
    net = build_custom(m, [(f"a{i}", outs) for i, outs in enumerate(actions)])
    d = drift_matrix(net)
    expected = []
    for act, outs in zip(list_actions(net), actions):
        total = sum((F(rate) for _, rate in outs), F(0))
        assert sum(rate for _, rate in act.outcomes) == total
        assert len(act.outcomes) == len({disp for disp, _ in outs})
        expected.append(tuple(sum((F(rate) / total * disp[k] for disp, rate in outs), F(0))
                              for k in range(m)))
    assert d.rows == tuple(expected)
    assert all(s > 0 for s in d.scales)
    oracle = gauss_jordan_null_basis(expected, m)
    assert null_space_basis(d) == oracle
    assert exactla.null_space(certify.spanning_rows(net), m) == oracle
    assert rank(d) == m - len(oracle)


@pytest.mark.parametrize("numerators, scales", [
    (((2, 0),), (1,)),
    (((0, -3),), (2,)),
    (((1, 0),), (0,)),
    (((1, 0), (0, 1)), (1,)),
], ids=["above-one", "below-minus-one", "zero-scale", "scale-count"])
def test_hand_built_drift_matrix_is_checked(numerators, scales):
    with pytest.raises(ValueError):
        certify.DriftMatrix(numerators, scales)
