"""Harmonic certificates of non-stabilizability.

The expected one-step displacement of every action forms the drift matrix
D. A nonzero rational weight vector alpha with D alpha = 0 makes the
weighted queue length a martingale under every non-idling policy; if in
addition every action can actually change the weighted length (the
non-degeneracy condition), no policy can make the network positive
recurrent. This module computes D exactly, decides exactly whether such
an alpha exists, builds one from the null space of D when it does, and
packages the result as a machine-checkable certificate; the null space
is read from rows built from the server menus (:func:`spanning_rows`).
The family closed forms (:func:`family_alpha`) are a separate,
independent path to the same weights, checked against those rows;
certification never uses them.

Everything here is exact rational arithmetic; the simulator corroborates
verdicts statistically but plays no role in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product
from math import lcm
from typing import Iterable, Sequence

from . import exactla
from .netmodel import (
    NetworkSpec,
    ReentrantMeta,
    RingMeta,
    check_alpha,
    format_rational,
    index_sets,
)


class UnsupportedFamilyError(ValueError):
    """The requested computation is undefined for this network family."""


@dataclass(frozen=True)
class DriftMatrix:
    """Per-action expected displacements, one row per action, in integer form.

    Entry k of row a is ``numerators[a][k] / scales[a]``. The scale of an
    action is its total rate written over the least common denominator of
    every outcome rate of the network (``net.weights``), and each numerator
    is the signed sum of its outcome rates over that denominator, so every
    scale is positive and every entry lies in [-1, 1]; both are checked.
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


class Verdict(Enum):
    NON_STABILIZABLE = "non-stabilizable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HarmonicCertificate:
    """Outcome of a certification run.

    ``alpha`` is the canonical integer form of the harmonic weight vector
    when one was found, else None. Every alpha found satisfies D alpha = 0
    and moves every action, so the verdict is NON_STABILIZABLE exactly
    when ``alpha`` is not None, and the report's ``nondegeneracy.direct``
    is that same fact. INCONCLUSIVE means that no such alpha exists; the
    condition is sufficient, not necessary, so it never asserts stability.
    ``verdict`` and ``rank`` are derived from ``alpha`` and the basis.
    """

    alpha: tuple[Fraction, ...] | None
    nondeg_lemma: bool
    n_queues: int
    n_actions: int
    critical: bool | None
    null_space_basis: tuple[tuple[int, ...], ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.INCONCLUSIVE if self.alpha is None else Verdict.NON_STABILIZABLE

    @property
    def rank(self) -> int:
        return self.n_queues - len(self.null_space_basis)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "rank": self.rank,
            "M": self.n_queues,
            "L": self.n_actions,
            "alpha": None
            if self.alpha is None
            else [format_rational(x) for x in self.alpha],
            "nondegeneracy": {"direct": self.alpha is not None, "lemma": self.nondeg_lemma},
            "critical": self.critical,
            "null_space_basis": [[str(x) for x in vec] for vec in self.null_space_basis],
        }


def drift_matrix(net: NetworkSpec) -> DriftMatrix:
    """Expected displacement of each action, rows in action-id order, built in integers.

    Row a is the sum of u_s(c_s) over the servers s, and its scale the sum
    of their total weights w_s(c_s), c being the choices that a names
    (:func:`_choice_drifts`). Rows with zero drift (balanced actions) are
    kept so the matrix shape stays L x M. No action is built, but the ids
    are refused above ``MAX_ACTIONS``.
    """
    n = net.listable_actions()
    u, w = _choice_drifts(net)
    numerators = [tuple(map(sum, zip(*rows))) for rows in product(*u)]  # mixed-radix index order
    scales = list(map(sum, product(*w)))
    if net.ids is not None:  # index i is action net.ids[i]
        order = sorted(range(n), key=net.ids.__getitem__)
        numerators, scales = [numerators[i] for i in order], [scales[i] for i in order]
    return DriftMatrix(tuple(numerators), tuple(scales))


def _choice_drifts(net: NetworkSpec) -> tuple[list[list[list[int]]], list[list[int]]]:
    """u[s][k], the rate-weighted displacement of choice k of server s, and
    w[s][k], its total weight: each outcome rate is read at its offset in
    ``net.weights``, an integer over one common denominator of them all."""
    nonzero = net.displacements
    weights = iter(net.weights)
    u = [[[0] * net.n_queues for _ in menu] for menu in net.menus]
    w = [[0] * len(menu) for menu in net.menus]
    for s, menu in enumerate(net.menus):
        for k, choice in enumerate(menu):
            row = u[s][k]
            for (d, _), weight in zip(choice.outcomes, weights):
                w[s][k] += weight
                for q, x in nonzero[d]:
                    row[q] += x * weight
    return u, w


def spanning_rows(net: NetworkSpec) -> list[tuple[int, ...]]:
    """Integer rows that span D's row space, read from the menus without listing actions.

    Let u_s(k) be the rate-weighted displacement of choice k of server s,
    every outcome rate written as an integer over one common denominator
    (:func:`_choice_drifts`). The drift of action c is a positive multiple of
    u_c = sum_s u_s(c_s) = u_c0 + sum_s (u_s(c_s) - u_s(0)), c0 taking
    every server's first choice. So the rows u_s(k) - u_s(0), for each
    server s and choice k >= 1, then u_c0, span D's rows, and each lies in
    D's row space. Only u_c0 is dense; a ring's difference rows have two
    nonzeros. The rows are returned as :func:`_distinct_rows`.
    """
    u, _ = _choice_drifts(net)
    rows = [[x - y for x, y in zip(v, first)] for first, *rest in u for v in rest]
    rows.append([sum(col) for col in zip(*(first for first, *_ in u))])
    return _distinct_rows(rows)


def _distinct_rows(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The distinct nonzero rows in :func:`exactla.primitive` form: the same row space."""
    return list(dict.fromkeys(exactla.primitive(row) for row in rows if any(row)))


def rank(d: DriftMatrix) -> int:
    """Exact rank over the rationals."""
    return len(exactla.reduce(_distinct_rows(d.numerators)))


def null_space_basis(d: DriftMatrix) -> list[tuple[int, ...]]:
    """Canonical integer basis of {alpha : D alpha = 0}."""
    return exactla.null_space(_distinct_rows(d.numerators), d.n_queues)


def sign_matrix(d: DriftMatrix) -> tuple[tuple[int, ...], ...]:
    """The element-wise signs of the drift matrix, one row per action."""
    return tuple(tuple(0 if x == 0 else (1 if x > 0 else -1) for x in row) for row in d.numerators)


def _row_sign_pattern_ok(row: Sequence[int]) -> bool:
    nonzero = [i for i, x in enumerate(row) if x]
    cyclic = zip(nonzero, nonzero[1:] + nonzero[:1])  # each nonzero and the next, cyclically
    return all((row[a] == row[b]) == ((b - a - 1) % len(row) % 2 == 0) for a, b in cyclic)


def verify_sign_pattern(rows: Iterable[Sequence[int]]) -> bool:
    """Cyclic parity check on every sign row.

    Between consecutive nonzero entries (queues are treated cyclically, as
    in a ring of the row's length), the number of interleaved zeros must be
    even when the two signs agree and odd when they differ. All-zero rows
    pass vacuously.
    """
    return all(map(_row_sign_pattern_ok, rows))


def check_nondegeneracy_direct(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """True iff every action can change the alpha-weighted queue length.

    Because displacement distributions are state independent, this per
    action support condition is equivalent to requiring, at every state
    and available action, a positive probability of changing alpha'X.
    """
    return _moves_every_action([check_alpha(alpha, net.n_queues)], net)


def _moves_every_action(vectors: Sequence[Sequence[Fraction | int]], net: NetworkSpec) -> bool:
    """True iff every action has a displacement d with v.d != 0 for some v in vectors.

    An action's support is the union of its choices' supports, so some
    action is stuck exactly when every server has a choice whose whole
    support is stuck; the test costs one pass over the menus, not one per
    action. Each v.d is computed once per distinct displacement.
    """
    moving = {d for d, pairs in net.displacements.items()
              if any(sum(v[k] * x for k, x in pairs) for v in vectors)}
    return any(all(any(d in moving for d, _ in c.outcomes) for c in menu) for menu in net.menus)


def check_nondegeneracy_lemma(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """Sufficient index-set test: nonzero on external queues, separating on transfers."""
    return _index_set_lemma(net, check_alpha(alpha, net.n_queues))


def _index_set_lemma(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """The index-set test on a weight vector already known to fit the network,
    such as the integer alpha that certification builds."""
    sets = index_sets(net)
    return (all(alpha[i] for i in sets.external)
            and all(alpha[i] != alpha[j] for i, j in sets.transfers))


def is_critical(net: NetworkSpec) -> bool:
    """Exact criticality test for the built-in families.

    Push-pull and ring networks are critical when each stream's push and
    pull rates coincide. A re-entrant network is critical when, for every
    stream, the two servers carry equal total mean work per job: the
    signed inverse rates of the stream's steps (:func:`_signed_work`) sum
    to zero. Their partial sums are the closed-form weights.

    The sum is taken in integers. With the stream's step rates n_k / d_k in
    lowest terms and L = lcm(n_k), L * sum(+-1/rate_k) = sum(+-d_k * (L // n_k)),
    where each L // n_k divides exactly and the sign is - on server 1. As
    L > 0, one sum is zero exactly when the other is, with no Fraction built.
    """
    if isinstance(net.meta, RingMeta):
        return net.meta.push_rates == net.meta.pull_rates
    if isinstance(net.meta, ReentrantMeta):
        return all(map(_balanced, net.meta.streams))
    raise UnsupportedFamilyError("criticality is undefined for custom networks")


def _balanced(stream: Sequence[tuple[int, Fraction]]) -> bool:
    """True iff the stream's signed work sums to zero, decided in integers (see :func:`is_critical`)."""
    scale = lcm(*(rate.numerator for _, rate in stream))
    return not sum(
        (scale // rate.numerator * rate.denominator) * (-1 if server == 1 else 1)
        for server, rate in stream
    )


def _signed_work(step: tuple[int, Fraction]) -> Fraction:
    """Mean work of one re-entrant step, signed by server: -1/rate on server 1, +1/rate on 2."""
    server, rate = step
    return (-1 if server == 1 else 1) / rate


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
    many servers, and critical re-entrant networks. The weights are
    checked against :func:`spanning_rows`. Where they apply, the null
    space of D is one-dimensional, so they are a multiple of the basis
    vector that certification finds.
    """
    meta = net.meta
    if meta is None or not is_critical(net):
        return None
    if isinstance(meta, RingMeta):
        if net.n_queues % 2 != 0:
            return None
        alpha = tuple((1 if i % 2 == 0 else -1) / rate for i, rate in enumerate(meta.push_rates))
    else:
        # Queue j of a stream weighs the signed work of its steps 0..j-1, stream by stream.
        alpha = tuple(w for s in meta.streams for w in accumulate(map(_signed_work, s[:-1])))
    if any(sum(r * a for r, a in zip(row, alpha) if r) for row in spanning_rows(net)):
        raise ArithmeticError("internal error: closed-form weights are not harmonic")
    return alpha


def verify_unit_pairing(net: NetworkSpec, alpha: Sequence[Fraction | int]) -> bool:
    """Check the signed-unit identity of re-entrant closed-form weights.

    Every choice of a re-entrant network is one step with one outcome. For
    each outcome (d, rate) in the network's own menus, rate * (alpha . d)
    must be exactly -1 on server 1 (``menus[0]``) and +1 on server 2
    (``menus[1]``). Summing the two steps of any action then cancels
    exactly, which is why the drift matrix annihilates alpha.
    """
    if not isinstance(net.meta, ReentrantMeta):
        raise UnsupportedFamilyError("verify_unit_pairing requires a re-entrant network")
    vec = check_alpha(alpha, net.n_queues)
    return all(
        rate * sum(a * x for a, x in zip(vec, d) if x) == sign
        for menu, sign in zip(net.menus, (-1, 1))
        for choice in menu
        for d, rate in choice.outcomes
    )


def _certificate_alpha(
    net: NetworkSpec, basis: Sequence[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """A null space vector every action can move, or None when none exists."""
    if not basis or not _moves_every_action(basis, net):
        return None
    if len(basis) == 1:  # the test above was basis[0]'s own
        return exactla.primitive(basis[0])
    last_t = max(map(len, net.menus)) * (len(basis) - 1) + 1
    alphas = (
        tuple(sum(t**k * b[i] for k, b in enumerate(basis)) for i in range(net.n_queues))
        for t in range(1, last_t + 1)
    )
    for cand in chain(basis, alphas):
        if _moves_every_action([cand], net):
            return exactla.primitive(cand)
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

    The certificate is the first candidate that every action can move:
    each basis vector, then alpha(t) = sum_k t^(k-1) b_k for t = 1, 2,
    .... No family closed form is tried: where one applies the null space
    is one-dimensional, so it would give b_1 again. A choice is blocked
    like an action. When no action is blocked, some server s has no
    blocked choice, or the action made of every server's blocked choice
    would be blocked. For each choice c of s, alpha(t).d is a nonzero
    polynomial in t of degree below n for some d in c's support, so it has
    at most n - 1 roots. One of the first |menu_s|(n-1)+1 values of t, so
    of the first max_s |menu_s|(n-1)+1, therefore moves every choice of s,
    and so every action, since each action contains one of them; the
    search stops there. The null space is read from :func:`spanning_rows`
    by :func:`exactla.null_space`, and every test above reads the server
    menus, so the L actions are never listed. The alpha found is
    returned in canonical integer form with verdict NON_STABILIZABLE. Else
    the verdict is INCONCLUSIVE with the null space basis attached: no
    certificate exists, which does not assert stability either.
    """
    basis = tuple(exactla.null_space(spanning_rows(net), net.n_queues))
    found = _certificate_alpha(net, basis)
    alpha = None if found is None else tuple(map(Fraction, found))
    critical = None if net.family == "custom" else is_critical(net)
    return HarmonicCertificate(
        alpha, found is not None and _index_set_lemma(net, found),
        net.n_queues, net.n_actions, critical, basis,
    )
