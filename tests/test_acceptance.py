"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact criteria are asserted with zero tolerance in rational arithmetic;
statistical criteria pin (seed, trials, steps) and use the stated margins,
so every run is bit-for-bit reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from helpers import dot
from qstab.certify import (
    Verdict,
    certify_nonstabilizable,
    check_nondegeneracy_direct,
    check_nondegeneracy_lemma,
    drift_matrix,
    rank,
    reentrant_alpha,
    ring_alpha_even,
    sign_matrix,
    verify_sign_pattern,
    verify_unit_pairing,
)
from qstab.jsonio import render_json
from qstab.netmodel import (
    build_push_pull,
    build_ring,
    build_two_stream_example,
    index_sets,
)
from qstab.simulate import (
    SimConfig,
    blowup_probe,
    estimate_return_time,
    make_policy,
    martingale_test,
)

F = Fraction


def _report(emit, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    emit(line)
    assert ok, line


def _random_rate(rnd: random.Random) -> F:
    return F(rnd.randint(1, 9), rnd.randint(1, 9))


def _random_critical_two_stream(rnd: random.Random):
    """Rates for the two-stream layout solved to satisfy criticality exactly."""

    def frac() -> F:
        return F(rnd.randint(2, 9), rnd.randint(1, 4))

    while True:
        r10, r11, r12 = frac(), frac(), frac()
        inv13 = 1 / r10 + 1 / r12 - 1 / r11
        if inv13 > 0:
            break
    while True:
        r20, r21, r22, r23 = frac(), frac(), frac(), frac()
        inv24 = (1 / r21 + 1 / r23) - (1 / r20 + 1 / r22)
        if inv24 > 0:
            break
    return [[r10, r11, r12, 1 / inv13], [r20, r21, r22, r23, 1 / inv24]]


# ---------------------------------------------------------------------------
# shared simulation runs (criterion 11 reruns these and compares bytes)

MARTINGALE_POLICIES = (("pull-priority", None), ("push-priority", None), ("threshold", 2))


def _run_martingales():
    net = build_push_pull(1, 1, 1, 1)
    cfg = SimConfig(seed=0, steps=1_000, trials=10_000)
    out = {}
    for kind, cutoff in MARTINGALE_POLICIES:
        policy = make_policy(net, kind, threshold=cutoff)
        out[f"{kind}:{cutoff}"] = martingale_test(net, policy, (1, -1), cfg)
    return out


def _run_return_time_caps():
    net = build_push_pull(1, 1, 1, 1)
    policy = make_policy(net, "pull-priority")
    return {
        cap: estimate_return_time(net, policy, SimConfig(seed=0, trials=10_000, cap=cap))
        for cap in (100, 1_000, 10_000)
    }


def _run_stable_control():
    net = build_push_pull(1, 1, 2, 2)
    policy = make_policy(net, "pull-priority")
    return {
        cap: estimate_return_time(net, policy, SimConfig(seed=0, trials=10_000, cap=cap))
        for cap in (10_000, 100_000)
    }


def _run_blowup():
    ring = build_ring([2] * 4, [1] * 4)
    policy = make_policy(ring, "pull-priority")
    cfg = SimConfig(seed=0, steps=10_000, trials=1_000, x0=(1, 0, 1, 0))
    return {"blowup": blowup_probe(ring, policy, cfg)}


@pytest.fixture(scope="module")
def martingale_runs():
    start = time.perf_counter()
    reports = _run_martingales()
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def return_time_runs():
    start = time.perf_counter()
    reports = _run_return_time_caps()
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def stable_runs():
    return _run_stable_control()


@pytest.fixture(scope="module")
def blowup_runs():
    return _run_blowup()


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_push_pull_criticality(emit_line):
    start = time.perf_counter()
    rnd = random.Random(101)
    for _ in range(20):
        lam1, lam2 = _random_rate(rnd), _random_rate(rnd)
        cert = certify_nonstabilizable(build_push_pull(lam1, lam2, lam1, lam2))
        assert cert.verdict is Verdict.NON_STABILIZABLE
        a1, a2 = cert.alpha
        # alpha proportional to (1/lam1, -1/lam2), exactly.
        assert a1 != 0 and a1 * lam1 == -a2 * lam2
    elapsed = time.perf_counter() - start
    _report(emit_line, 1, elapsed < 1.0, f"20 critical pairs certified exactly in {elapsed:.2f}s")


def test_criterion_2_ring_rank_dichotomy(emit_line):
    start = time.perf_counter()
    rnd = random.Random(202)
    for m in range(2, 9):
        for _ in range(5):
            rates = [_random_rate(rnd) for _ in range(m)]
            net = build_ring(rates, rates)
            d = drift_matrix(net)
            expected = m - 1 if m % 2 == 0 else m
            assert rank(d) == expected
            if m % 2 == 0:
                alpha = ring_alpha_even(net)
                assert all(dot(row, alpha) == 0 for row in d.rows)
                assert check_nondegeneracy_direct(net, alpha)
                assert check_nondegeneracy_lemma(net, alpha)
    elapsed = time.perf_counter() - start
    _report(emit_line, 2, elapsed < 10.0, f"rank dichotomy over M=2..8 in {elapsed:.2f}s")


def test_criterion_3_sign_pattern_parity(emit_line):
    start = time.perf_counter()
    rnd = random.Random(303)
    for m in range(2, 9):
        for rates in ([F(1)] * m, [_random_rate(rnd) for _ in range(m)]):
            dhat = sign_matrix(drift_matrix(build_ring(rates, rates)))
            assert len(dhat) == 2**m
            assert verify_sign_pattern(dhat)
            for row in dhat:
                assert sum(1 for x in row if x == 0) % 2 == 0
    elapsed = time.perf_counter() - start
    _report(emit_line, 3, elapsed < 5.0, f"all sign rows pass parity checks in {elapsed:.2f}s")


def test_criterion_4_reentrant_certificates(emit_line):
    start = time.perf_counter()
    rnd = random.Random(404)
    for _ in range(10):
        net = build_two_stream_example(_random_critical_two_stream(rnd))
        assert net.n_queues == 7 and net.n_actions == 20
        meta = net.meta
        assert len(meta.operations()) == 9
        alpha = reentrant_alpha(net)
        d = drift_matrix(net)
        assert all(dot(row, alpha) == 0 for row in d.rows)
        assert verify_unit_pairing(net, alpha)
        # Non-degeneracy, family by family: entry queues, exit queues,
        # and transfer pairs.
        assert all(alpha[k] != 0 for k in meta.entry_queues)
        assert all(alpha[k] != 0 for k in meta.exit_queues)
        assert all(alpha[i] != alpha[j] for i, j in index_sets(net).transfers)
    elapsed = time.perf_counter() - start
    _report(emit_line, 4, elapsed < 2.0, f"10 randomized critical instances in {elapsed:.2f}s")


def test_criterion_5_structural_counts(emit_line):
    net = build_two_stream_example()
    ok = net.n_queues == 7 and net.n_actions == 20
    _report(emit_line, 5, ok, f"M={net.n_queues}, L={net.n_actions}")


def test_criterion_6_negative_controls(emit_line):
    noncritical = certify_nonstabilizable(build_push_pull(1, 1, 2, 2))
    odd_ring = certify_nonstabilizable(build_ring([1] * 3, [1] * 3))
    ok = (
        noncritical.verdict is Verdict.INCONCLUSIVE
        and noncritical.rank == 2
        and odd_ring.verdict is Verdict.INCONCLUSIVE
        and odd_ring.rank == 3
    )
    _report(emit_line, 6, ok, "non-critical push-pull and odd ring are inconclusive")


def test_criterion_7_martingale_property(emit_line, martingale_runs):
    reports, elapsed = martingale_runs
    ok = True
    for rep in reports.values():
        ok = ok and abs(rep.mean_delta_Z) <= 4 * rep.std_error
        ok = ok and rep.max_abs_increment <= 1.0
    ok = ok and elapsed < 30.0
    _report(emit_line, 7, ok, f"3 policies x 10^4 trials x 10^3 steps in {elapsed:.2f}s")


def test_criterion_8_null_recurrence_growth(emit_line, return_time_runs):
    reports, elapsed = return_time_runs
    means = [reports[cap].mean_censored_at_cap for cap in (100, 1_000, 10_000)]
    ok = means[0] < means[1] < means[2]
    ok = ok and means[2] / means[0] >= 2.0
    ok = ok and elapsed < 60.0
    _report(
        emit_line, 8, ok,
        f"censored means {means[0]:.1f} < {means[1]:.1f} < {means[2]:.1f} in {elapsed:.1f}s",
    )


def test_criterion_9_stable_negative_control(emit_line, stable_runs):
    small, large = stable_runs[10_000], stable_runs[100_000]
    rel_change = abs(large.mean_uncensored - small.mean_uncensored) / small.mean_uncensored
    ok = small.censored_fraction < F(1, 100) and rel_change < 0.05
    _report(
        emit_line, 9, ok,
        f"censored {small.censored_fraction}, mean shift {rel_change:.4%} at cap 10^5",
    )


def test_criterion_10_even_ring_blowup(emit_line, blowup_runs):
    rep = blowup_runs["blowup"]
    ok = rep.slope_per_step >= 0.05
    _report(emit_line, 10, ok, f"slope {rep.slope_per_step:.3f} jobs/step")


def test_criterion_11_reproducibility(
    emit_line, martingale_runs, return_time_runs, stable_runs, blowup_runs
):
    def render_all(groups):
        return render_json(
            [{str(k): rep.to_json_dict() for k, rep in g.items()} for g in groups]
        )

    first = render_all([martingale_runs[0], return_time_runs[0], stable_runs, blowup_runs])
    again = render_all(
        [_run_martingales(), _run_return_time_caps(), _run_stable_control(), _run_blowup()]
    )
    ok = first == again
    _report(emit_line, 11, ok, "reruns of criteria 7-10 render byte-identical JSON")
