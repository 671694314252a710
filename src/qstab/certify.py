"""Harmonic certificates of non-stabilizability.

The expected one-step displacement of every action forms the drift matrix
D. A nonzero rational weight vector alpha with D alpha = 0 makes the
weighted queue length a martingale under every non-idling policy; if in
addition every action can actually change the weighted length (the
non-degeneracy condition), no policy can make the network positive
recurrent. This module computes D exactly, decides exactly whether such
an alpha exists, builds one when it does (the family closed form where
one applies), and packages the result as a machine-checkable certificate.

Everything here is exact rational arithmetic; the simulator corroborates
verdicts statistically but plays no role in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from . import exactla
from .netmodel import (
    Choice,
    Displacement,
    NetworkSpec,
    ReentrantMeta,
    RingMeta,
    format_rational,
    index_sets,
    integer_weights,
)


class UnsupportedFamilyError(ValueError):
    """The requested computation is undefined for this network family."""


@dataclass(frozen=True)
class DriftMatrix:
    """Per-action expected displacements, one row per action, in integer form.

    Entry k of row a is ``numerators[a][k] / scales[a]``. The scale of an
    action is its total rate written over the least common denominator of
    its outcome rates, and each numerator is the signed sum of the outcome
    rates over that denominator, so every scale is positive and every
    entry lies in [-1, 1]; both are checked.
    """

    numerators: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.numerators) != len(self.scales):
            raise ValueError(
                f"{len(self.numerators)} drift rows but {len(self.scales)} scales"
            )
        for row, scale in zip(self.numerators, self.scales):
            if scale <= 0:
                raise ValueError(f"drift scale {scale} is not positive")
            if row and (max(row) > scale or -min(row) > scale):
                entry = next(Fraction(n, scale) for n in row if abs(n) > scale)
                raise ValueError(f"drift entry {entry} out of [-1, 1]")

    @property
    def n_actions(self) -> int:
        return len(self.numerators)

    @property
    def n_queues(self) -> int:
        return len(self.numerators[0]) if self.numerators else 0

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact entries as Fractions, built on first use."""
        return tuple(
            tuple(Fraction(n, scale) for n in row)
            for row, scale in zip(self.numerators, self.scales)
        )


@dataclass(frozen=True)
class SignMatrix:
    """Element-wise signs of a drift matrix."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n_actions(self) -> int:
        return len(self.rows)

    @property
    def n_queues(self) -> int:
        return len(self.rows[0]) if self.rows else 0


class Verdict(Enum):
    NON_STABILIZABLE = "non-stabilizable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HarmonicCertificate:
    """Outcome of a certification run.

    ``alpha`` is the canonical integer form of the harmonic weight vector
    when one was found, else None. The verdict is NON_STABILIZABLE exactly
    when ``dalpha_zero`` and ``nondeg_direct`` both hold. INCONCLUSIVE means
    that no such alpha exists; the condition is sufficient, not necessary,
    so it never asserts stability.
    """

    verdict: Verdict
    alpha: tuple[Fraction, ...] | None
    dalpha_zero: bool
    nondeg_direct: bool
    nondeg_lemma: bool
    rank: int
    n_queues: int
    n_actions: int
    critical: bool | None
    null_space_basis: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "rank": self.rank,
            "M": self.n_queues,
            "L": self.n_actions,
            "alpha": None
            if self.alpha is None
            else [format_rational(x) for x in self.alpha],
            "nondegeneracy": {"direct": self.nondeg_direct, "lemma": self.nondeg_lemma},
            "critical": self.critical,
            "null_space_basis": [
                [format_rational(Fraction(x)) for x in vec] for vec in self.null_space_basis
            ],
        }


def drift_matrix(net: NetworkSpec) -> DriftMatrix:
    """Expected displacement of each action, rows in action-id order.

    Rows with zero drift (balanced actions) are kept so the matrix shape
    stays L x M. Needs the materialized action list.
    """
    return _drift_rows((act.outcomes for act in net.actions), net.n_queues)


def spanning_drift_matrix(net: NetworkSpec) -> DriftMatrix:
    """Drift rows that span the row space of D without listing every action.

    The rows are those of the action c0 taking every server's first choice
    and of each action that switches one server of c0 to another choice:
    1 + sum_s (|menu_s| - 1) rows. With u_s(k) the rate-weighted
    displacement of choice k of server s, the drift of action c is a
    positive multiple of u_c = sum_s u_s(c_s) = u_c0 + sum_s (u_{c0, s->c_s}
    - u_c0), so these rows give D's rank and null space. A custom network
    has one server, and its rows are all of D.
    """
    first = [menu[0] for menu in net.menus]
    vectors = [first]
    for s, menu in enumerate(net.menus):
        vectors += [first[:s] + [choice] + first[s + 1:] for choice in menu[1:]]
    return _drift_rows(
        ([o for choice in vec for o in choice.outcomes] for vec in vectors), net.n_queues
    )


def _drift_rows(
    actions: Iterable[Sequence[tuple[Displacement, Fraction]]], n_queues: int
) -> DriftMatrix:
    """One drift row per outcome list, built in integers.

    The outcome rates over their least common denominator are the
    weights, and the row's scale is their sum.
    """
    entries: dict[Displacement, list[tuple[int, int]]] = {}
    numerators, scales = [], []
    for outcomes in actions:
        weights, _ = integer_weights(rate for _, rate in outcomes)
        row = [0] * n_queues
        for (d, _), w in zip(outcomes, weights):
            nonzero = entries.get(d)
            if nonzero is None:
                nonzero = entries[d] = [(k, x) for k, x in enumerate(d) if x]
            for k, x in nonzero:
                row[k] += x * w
        numerators.append(tuple(row))
        scales.append(sum(weights))
    return DriftMatrix(tuple(numerators), tuple(scales))


def _spanning_rows(d: DriftMatrix) -> list[tuple[int, ...]]:
    """The distinct nonzero rows of D in primitive form (coprime, first nonzero positive).

    They span the row space of D, so rank and null space are unchanged.
    """
    spanning: dict[tuple[int, ...], None] = {}
    for row in d.numerators:
        g = gcd(*row)
        if g:
            if next(x for x in row if x) < 0:
                g = -g
            spanning[tuple(x // g for x in row)] = None
    return list(spanning)


def rank(d: DriftMatrix) -> int:
    """Exact rank over the rationals."""
    return len(exactla.echelon(_spanning_rows(d))[1])


def null_space_basis(d: DriftMatrix) -> list[tuple[int, ...]]:
    """Canonical integer basis of {alpha : D alpha = 0}."""
    return exactla.null_space(_spanning_rows(d), d.n_queues)


def sign_matrix(d: DriftMatrix) -> SignMatrix:
    return SignMatrix(
        tuple(tuple(0 if x == 0 else (1 if x > 0 else -1) for x in row) for row in d.rows)
    )


def _row_sign_pattern_ok(row: Sequence[int], n: int) -> bool:
    nonzero = [i for i, x in enumerate(row) if x]
    if not nonzero:
        return True
    m = len(nonzero)
    for k in range(m):
        a = nonzero[k]
        b = nonzero[(k + 1) % m]
        gap = (b - a - 1) % n
        same_sign = row[a] == row[b]
        if same_sign != (gap % 2 == 0):
            return False
    return True


def verify_sign_pattern(dhat: SignMatrix) -> bool:
    """Cyclic parity check on every sign row.

    Between consecutive nonzero entries (queues are treated cyclically, as
    in a ring), the number of interleaved zeros must be even when the two
    signs agree and odd when they differ. All-zero rows pass vacuously.
    """
    return all(_row_sign_pattern_ok(row, dhat.n_queues) for row in dhat.rows)


def _check_alpha(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(x) for x in alpha)
    if len(vec) != net.n_queues:
        raise ValueError(f"alpha has length {len(vec)}, expected {net.n_queues}")
    if all(x == 0 for x in vec):
        raise ValueError("alpha must be nonzero")
    return vec


def check_nondegeneracy_direct(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """True iff every action can change the alpha-weighted queue length.

    Because displacement distributions are state independent, this per
    action support condition is equivalent to requiring, at every state
    and available action, a positive probability of changing alpha'X.
    """
    vec = _check_alpha(net, alpha)
    return _moves_every_action([vec], net.menus)


def _moves_every_action(
    vectors: Sequence[Sequence[Fraction | int]], menus: Sequence[Sequence[Choice]]
) -> bool:
    """True iff every action has a displacement d with v.d != 0 for some v in vectors.

    An action's support is the union of its choices' supports, so some
    action is stuck exactly when every server has a choice whose whole
    support is stuck; the test costs one pass over the menus, not one per
    action. Each v.d is computed once per distinct displacement.
    """
    distinct = set().union(*(choice.support for menu in menus for choice in menu))
    moving = {d for d in distinct if any(sum(a * x for a, x in zip(v, d) if x) for v in vectors)}
    return any(all(not moving.isdisjoint(c.support) for c in menu) for menu in menus)


def check_nondegeneracy_lemma(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """Sufficient index-set test: nonzero on external queues, separating on transfers."""
    vec = _check_alpha(net, alpha)
    sets = index_sets(net)
    if any(vec[i] == 0 for i in sets.external):
        return False
    if any(vec[i] == vec[j] for i, j in sets.transfers):
        return False
    return True


def is_critical(net: NetworkSpec) -> bool:
    """Exact criticality test for the built-in families.

    Push-pull and ring networks are critical when each stream's push and
    pull rates coincide. A re-entrant network is critical when, for every
    stream, the two servers carry equal total mean work per job (equal
    sums of inverse rates).
    """
    if isinstance(net.meta, RingMeta):
        return net.meta.push_rates == net.meta.pull_rates
    if isinstance(net.meta, ReentrantMeta):
        for stream in net.meta.streams:
            sums = {1: Fraction(0), 2: Fraction(0)}
            for server, rate in stream:
                sums[server] += 1 / rate
            if sums[1] != sums[2]:
                return False
        return True
    raise UnsupportedFamilyError("criticality is undefined for custom networks")


def _closed_form(net: NetworkSpec) -> tuple[Fraction, ...] | None:
    """The family closed-form weights where they apply, not yet checked against D."""
    meta = net.meta
    if meta is None or not is_critical(net):
        return None
    if isinstance(meta, RingMeta):
        if net.n_queues % 2 != 0:
            return None
        return tuple((1 if i % 2 == 0 else -1) / rate for i, rate in enumerate(meta.push_rates))
    alpha = [Fraction(0)] * net.n_queues
    for i, stream in enumerate(meta.streams):
        partial = Fraction(0)
        for j in range(meta.stream_lengths[i]):
            server, rate = stream[j]
            partial += (-1 if server == 1 else 1) / rate
            alpha[meta.queue_index(i, j + 1)] = partial
    return tuple(alpha)


def ring_alpha_even(net: NetworkSpec) -> tuple[Fraction, ...]:
    """Closed-form harmonic weights for a critical ring with evenly many servers.

    Alternating signed inverse push rates: (+1/lam_1, -1/lam_2, ...).
    """
    if net.family != "ring":
        raise UnsupportedFamilyError("ring_alpha_even requires a ring network")
    if net.n_queues % 2 != 0:
        raise ValueError("ring_alpha_even requires an even number of servers")
    if not is_critical(net):
        raise ValueError("ring_alpha_even requires a critical ring")
    return family_alpha(net)


def reentrant_alpha(net: NetworkSpec) -> tuple[Fraction, ...]:
    """Closed-form harmonic weights for a critical re-entrant network.

    The weight of a queue is the signed sum of inverse rates of all
    earlier steps of its stream, the sign being -1 for server-1 steps and
    +1 for server-2 steps.
    """
    if not isinstance(net.meta, ReentrantMeta):
        raise UnsupportedFamilyError("reentrant_alpha requires a re-entrant network")
    if not is_critical(net):
        raise ValueError("reentrant_alpha requires a critical network")
    return family_alpha(net)


def family_alpha(net: NetworkSpec) -> tuple[Fraction, ...] | None:
    """The family closed-form weight vector, or None when not applicable.

    Applicable to critical push-pull networks, critical rings with evenly
    many servers, and critical re-entrant networks.
    """
    alpha = _closed_form(net)
    if alpha is not None:
        _assert_harmonic(spanning_drift_matrix(net), alpha)
    return alpha


def _assert_harmonic(d: DriftMatrix, alpha: Sequence[Fraction]) -> tuple[int, ...]:
    """The canonical integer form of closed-form weights, checked against the numerators of D."""
    vec = exactla.normalize_integer_vector(alpha)
    if not all(sum(r * a for r, a in zip(row, vec) if r) == 0 for row in d.numerators):
        raise ArithmeticError("internal error: closed-form weights are not harmonic")
    return vec


def verify_unit_pairing(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """Check the signed-unit identity of re-entrant closed-form weights.

    For every step (i, j), the rate-weighted displacement of that single
    step must pair with alpha to exactly -1 on server 1 and +1 on server 2.
    Summing the two steps of any action then cancels exactly, which is why
    the drift matrix annihilates alpha.
    """
    if not isinstance(net.meta, ReentrantMeta):
        raise UnsupportedFamilyError("verify_unit_pairing requires a re-entrant network")
    meta = net.meta
    vec = _check_alpha(net, alpha)
    for i, stream in enumerate(meta.streams):
        n_i = meta.stream_lengths[i]
        for j, (server, rate) in enumerate(stream):
            if j == 0:
                paired = rate * vec[meta.queue_index(i, 1)]
            elif j == n_i:
                paired = -rate * vec[meta.queue_index(i, n_i)]
            else:
                paired = rate * (vec[meta.queue_index(i, j + 1)] - vec[meta.queue_index(i, j)])
            if paired != (-1 if server == 1 else 1):
                return False
    return True


def _certificate_alpha(
    net: NetworkSpec,
    basis: Sequence[tuple[int, ...]],
    closed: tuple[int, ...] | None,
) -> tuple[int, ...] | None:
    """A null space vector every action can move, or None when none exists."""
    if not basis or not _moves_every_action(basis, net.menus):
        return None

    def candidates():
        if closed is not None:
            yield closed
        yield from basis
        for t in range(1, net.n_actions * (len(basis) - 1) + 2):
            yield tuple(
                sum(t**k * b[i] for k, b in enumerate(basis)) for i in range(net.n_queues)
            )

    for cand in candidates():
        if _moves_every_action([cand], net.menus):
            return exactla.normalize_integer_vector(cand)
    raise ArithmeticError("internal error: no weight vector alpha(t) moves every action")


def certify_nonstabilizable(net: NetworkSpec) -> HarmonicCertificate:
    """Decide exactly whether a harmonic certificate exists, and build one if so.

    Let b_1..b_n be the null space basis of D. An action is blocked when
    every displacement in its support is orthogonal to every b_k: then no
    null space vector can move it. A certificate exists exactly when the
    rank is below M and no action is blocked, because each unblocked
    action is degenerate only on a proper subspace of the null space, and
    a vector space over the rationals is not a finite union of proper
    subspaces.

    The certificate is the first candidate that every action can move: the
    family closed form (checked against D), then each basis vector, then
    alpha(t) = sum_k t^(k-1) b_k for t = 1, 2, .... For an unblocked action
    a, alpha(t).d is a nonzero polynomial in t of degree below n for some d
    in its support, so it has at most n - 1 roots, and one of the first
    L(n-1)+1 values of t works for all L actions. The null space comes
    from :func:`spanning_drift_matrix` and every test above reads the
    server menus, so the L actions are never listed. The alpha found is
    returned in canonical integer form with verdict NON_STABILIZABLE. Else
    the verdict is INCONCLUSIVE with the null space basis attached: no
    certificate exists, which does not assert stability either.
    """
    d = spanning_drift_matrix(net)
    basis = tuple(null_space_basis(d))
    rk = net.n_queues - len(basis)
    critical = None if net.family == "custom" else is_critical(net)
    closed = _closed_form(net)
    if closed is not None:
        closed = _assert_harmonic(d, closed)
    found = _certificate_alpha(net, basis, closed)
    if found is None:
        return HarmonicCertificate(
            Verdict.INCONCLUSIVE, None, False, False, False,
            rk, net.n_queues, net.n_actions, critical, basis,
        )
    alpha = tuple(Fraction(x) for x in found)
    return HarmonicCertificate(
        Verdict.NON_STABILIZABLE, alpha, True, True, check_nondegeneracy_lemma(net, alpha),
        rk, net.n_queues, net.n_actions, critical, basis,
    )
