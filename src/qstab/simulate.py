"""Monte Carlo simulation of the embedded jump chain under non-idling policies.

Trajectories live on the discrete-time chain obtained by watching the
continuous-time network only at jump instants; holding times are
integrated out. Each trial owns an independent RNG substream derived from
the run seed, so trials may execute in any order (or in parallel batches,
as the engine below does) without changing results.

Reproducibility contract
------------------------
* the seed is an integer in [0, 2**64) (larger seeds would alias smaller
  ones); the substream seed of trial t = splitmix64(seed + (t+1) *
  golden), see :func:`substream_seed`; this mixing function is normative,
  and :func:`trial_rng` is the normative stream of trial t. The engine
  builds those streams a batch at a time, as the 64-bit words of each
  trial's PCG64 state and increment (:func:`_pcg64_states`), and draws
  them through one reused PCG64 by writing a trial's words straight into
  that generator's state memory (:class:`_Streams`). Once per process it
  draws two such streams across a refill in each known word layout of
  numpy's PCG64 (:func:`_word_order`), keeps the first whose draws equal
  ``trial_rng``'s, and raises if neither does.
* the start state's total (0 for the default origin) plus max(steps,
  cap) stays below 2**63, so no queue length or total overflows the
  engine's int64 states; :class:`SimConfig` refuses anything larger.
* one uniform variate u is consumed per step, from the trial's own stream;
  a refill draws, for each trial still running, only the uniforms the
  next ``_CHUNK`` (256) steps (or the rest of the steps or cap) can use, and
  since consecutive draws from a stream are prefixes of one another the
  values do not depend on how they are chunked. Each trial's uniforms
  fill one padded row of a chunk, and a step gathers the live trials' u
  by their flat offsets in it;
* each action's outcome is selected by cumulative-sum inversion over its
  outcomes in lexicographic displacement order (the storage order of
  :class:`~qstab.netmodel.ActionSpec`), with probabilities converted from
  exact rationals to their nearest floats once per run: the outcome is the
  number of cumulative sums <= u, clamped to the last outcome, so a u at
  or above a float cumsum that rounds below 1 picks the last outcome. The
  engine finds that count through a guide table (:class:`_Tables`), which
  leaves the map from u to the outcome unchanged.

Identical (network, policy, config) therefore yield bit-identical reports.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .netmodel import (
    ActionSpec,
    ConstructionError,
    NetworkSpec,
    PolicyError,
    ReentrantMeta,
    State,
    check_alpha,
    check_int,
    check_state,
    format_rational,
    integer_weights,
)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 256       # uniforms pregenerated per trial per refill
_BATCH = 4096      # trials simulated in lockstep per batch

POLICY_KINDS = ("pull-priority", "push-priority", "threshold", "custom")


def substream_seed(seed: int, trial: int) -> int:
    """Seed of the RNG substream owned by one trial (splitmix64 mix)."""
    z = (seed + (trial + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The PCG64 generator owned by one trial."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, trial)))


# numpy's SeedSequence hashing (bit_generator.pyx, pool size 4) and the
# PCG64 setseq multiplier (O'Neill 2014); numpy keeps both stable (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _add128(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray):
    """The (lo, hi) words of a + b mod 2**128, given each value's words."""
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _mul128(lo: np.ndarray, hi: np.ndarray, factor: int):
    """The (lo, hi) words of (hi * 2**64 + lo) * factor mod 2**128.

    The high word of lo * (factor's low word) comes from four 32 x 32 -> 64
    bit limb products; every other term wraps mod 2**64.
    """
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    f_lo, f_hi = np.uint64(factor & _MASK64), np.uint64(factor >> 64)
    x0, x1 = lo & m32, lo >> s32
    y0, y1 = f_lo & m32, f_lo >> s32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> s32) + (p01 & m32) + (p10 & m32)
    carry = x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return lo * f_lo, carry + lo * f_hi + hi * f_lo


def _pcg64_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 state words of ``trial_rng(seed, t)`` for t in [start, stop).

    Row t - start is ``[state_lo, state_hi, inc_lo, inc_hi]``, the 64-bit
    words of the 128-bit state and increment, in one C-contiguous (B x 4)
    uint64 array. The same three steps as ``trial_rng``, on a whole batch:
    splitmix64 on uint64 arrays (:func:`substream_seed`), ``SeedSequence(z)
    .generate_state(4, np.uint64)`` on uint32 arrays, and PCG64's setseq
    initialisation on uint64 words: with the seed words s0..s3 read as
    init = s0 * 2**64 + s1 and seq = s2 * 2**64 + s3, inc = (seq << 1) | 1
    and state = (inc + init) * _PCG64_MULT + inc, mod 2**128. A seed z below
    2**32 has one entropy word, but the pool pads it with hashmix(0), exactly
    like a zero high word.
    """
    def shift_xor(x: np.ndarray) -> np.ndarray:
        return x ^ (x >> np.uint32(16))

    z = np.uint64(seed) + np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        return shift_xor(value * np.uint32(hash_const))

    low = (z & np.uint64(_MASK32)).astype(np.uint32)
    high = (z >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = shift_xor(
                    np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                )
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        words.append(shift_xor(value * np.uint32(hash_const)).astype(np.uint64))
    s0, s1, s2, s3 = (words[2 * k] | words[2 * k + 1] << np.uint64(32) for k in range(4))
    one = np.uint64(1)
    inc = (s3 << one | one, s2 << one | s3 >> np.uint64(63))
    state = _add128(*_mul128(*_add128(*inc, s1, s0), _PCG64_MULT), *inc)
    return np.stack([*state, *inc], axis=1)


def _state_view(bitgen: np.random.PCG64) -> np.ndarray:
    """A writable uint64 view of the four words of ``bitgen``'s 128-bit state and increment.

    ``bitgen.ctypes.state_address`` points at numpy's ``pcg64_state``
    struct, whose first member points at the ``pcg_state`` words. The view
    does not own that memory: keep ``bitgen`` alive as long as the view.
    """
    words = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(words), dtype=np.uint64)


class _Streams:
    """The streams whose PCG64 state words are the rows of ``words``, drawn through ``gen``.

    ``words`` holds the rows of :func:`_pcg64_states` in this build's word
    order (:func:`_word_order`) and ``view`` is gen's own state words
    (:func:`_state_view`); ``fill`` copies a stream's row into the view,
    draws, and copies it back when the stream has a later refill. Holding
    ``gen`` keeps the view's memory alive.
    """

    def __init__(self, gen: np.random.Generator, words: np.ndarray):
        self.gen = gen
        self.view = _state_view(gen.bit_generator)
        self.words = words

    def fill(self, rows: Sequence[int], out: np.ndarray, keep: bool) -> None:
        """Draw ``out[i]`` from stream i for each i in ``rows``; with ``keep``,
        the next fill of those streams continues where this one stopped."""
        words, view, draw = self.words, self.view, self.gen.random
        for i in rows:
            view[...] = words[i]
            draw(out=out[i])
            if keep:
                words[i] = view


# The columns of _pcg64_states in each known order of numpy's PCG64 state
# words: [lo, hi] per 128-bit value with a native uint128, [hi, lo] without.
_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))


@cache
def _word_order() -> tuple[int, ...]:
    """The columns of :func:`_pcg64_states` in the order this numpy build stores them.

    The first order of ``_WORD_ORDERS`` in which two batch-seeded streams,
    drawn across a refill (the second continues from the state words read
    back after the first), equal ``trial_rng``'s; checked once per process.
    Raises RuntimeError if no order does.
    """
    seed, trial = _MASK64, 1 << 40
    want = [trial_rng(seed, t).random(16) for t in (trial, trial + 1)]
    words = _pcg64_states(seed, trial, trial + 2)
    gen = np.random.Generator(np.random.PCG64(0))
    got = np.empty((2, 16))
    for order in _WORD_ORDERS:
        streams = _Streams(gen, words[:, order])
        streams.fill([0, 1], got[:, :8], keep=True)
        streams.fill([0, 1], got[:, 8:], keep=False)
        if np.array_equal(got, want):
            return order
    raise RuntimeError(
        f"numpy {np.__version__} seeds or stores PCG64 differently from the simulator's "
        "batch seeder, so its streams would not be those of trial_rng"
    )


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; ``x0=None`` means start at the origin, and any other
    ``x0`` is stored as its checked tuple of ints."""

    seed: int = 0
    steps: int = 1000
    trials: int = 10_000
    cap: int = 10_000
    x0: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "steps", "trials", "cap"):
            check_int(getattr(self, name), name)
        if not 0 <= self.seed < 2**64:
            raise ConstructionError("seed must be an integer in [0, 2**64)")
        for name in ("steps", "trials", "cap"):
            if getattr(self, name) < 1:
                raise ConstructionError(f"{name} must be a positive integer")
        steps = max(self.steps, self.cap)
        if self.x0 is not None:
            # stored as checked, so a one-shot iterable is read once
            object.__setattr__(self, "x0", check_state(self.x0))
            _check_headroom(self.x0, steps)
        elif steps >= 2**63:
            raise ConstructionError(
                f"steps/cap {steps} is too large: the origin plus {steps} steps reaches 2**63"
            )


def _check_headroom(z: Sequence[int], steps: int) -> None:
    # Each step moves the total by at most 1, so no int64 queue or total overflows.
    if sum(z) + steps >= 2**63:
        raise ConstructionError(
            f"state {tuple(z)} is too large: its total plus {steps} steps reaches 2**63"
        )


@dataclass(frozen=True)
class Policy:
    """A total state-to-action map, non-idling by construction.

    ``choose_batch`` maps a (B x M) int64 array of states to the B action
    ids, one per row; it is the only form the engine and :func:`step`
    call, and availability of each chosen action is enforced at every
    step. ``resolve`` is the same map on one state tuple. Build policies
    with :func:`make_policy`: built-in kinds choose a whole batch at once,
    and custom tables and resolvers run once per row, in row order.
    """

    resolve: Callable[[State], int]
    choose_batch: Callable[[np.ndarray], np.ndarray]


class _Report:
    """A report whose JSON form lists its fields in declaration order."""

    def to_json_dict(self) -> dict:
        """Each field by name; a Fraction as ``"num/den"``, a tuple as a list."""
        def encode(value):
            if isinstance(value, Fraction):
                return format_rational(value)
            return list(value) if isinstance(value, tuple) else value

        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class ReturnTimeStats(_Report):
    """Return times to the start state, censored at the cap.

    Censored trials are excluded from ``mean_uncensored`` and contribute
    the cap itself to ``mean_censored_at_cap``; the censored fraction is
    reported exactly so neither mean hides censoring.
    """

    trials: int
    returned: int
    censored_fraction: Fraction
    mean_uncensored: float
    mean_censored_at_cap: float


@dataclass(frozen=True)
class MartingaleReport(_Report):
    """Empirical drift of the weighted queue length Z = alpha'X.

    ``bound`` is the largest exact one-step |dZ| over the network's
    displacements; ``max_abs_increment`` never exceeds it.
    """

    mean_delta_Z: float
    std_error: float
    max_abs_increment: float
    bound: float


@dataclass(frozen=True)
class GrowthReport(_Report):
    """Least-squares slope of total queue length per step, averaged over trials."""

    slope_per_step: float
    fraction_grew: float


@dataclass(frozen=True)
class TrajectorySummary(_Report):
    """Quick-look statistics of fixed-length trajectories."""

    trials: int
    steps: int
    mean_final_total: float
    max_final_total: int
    final_state_trial0: tuple[int, ...]


# ---------------------------------------------------------------------------
# Policies

def _unknown_id(a, row: np.ndarray) -> PolicyError:
    return PolicyError(f"policy produced an unknown action id {a!r} at state {_state(row)}")


def _row_policy(resolve: Callable[[State], int], n_actions: int) -> Policy:
    """A custom policy: ``resolve`` runs on each row in row order.

    Each id it returns must be an ``int`` or ``np.integer``, not a ``bool``,
    and in range; the error names the first row with a bad id.
    """
    def choose_batch(states: np.ndarray) -> np.ndarray:
        ids = [resolve(z) for z in map(tuple, states.tolist())]
        for row, a in enumerate(ids):
            ok = isinstance(a, (int, np.integer)) and not isinstance(a, bool)
            if not ok or not 0 <= a < n_actions:
                raise _unknown_id(a, states[row])
        return np.array(ids, dtype=np.int64)

    return Policy(resolve, choose_batch)


def _priority_orders(net: NetworkSpec, kind: str) -> list[list[int]]:
    """Each server's menu positions in the priority order of a built-in kind."""
    if kind == "push-priority":
        orders = [[k for k, c in enumerate(menu) if not c.drains][:1] for menu in net.menus]
        if [] in orders:
            raise ConstructionError(
                f"push-priority is unsupported here: server {orders.index([]) + 1} has no supply step"
            )
        return orders
    if isinstance(net.meta, ReentrantMeta):
        # Last buffer first served: the deepest step wins, ties broken by stream order.
        return [
            sorted(range(len(ops)), key=lambda k: (-ops[k][1], ops[k][0]))
            for ops in map(net.meta.server_operations, (1, 2))
        ]
    return [[1, 0]] * len(net.menus)  # pull, else push


def _priority_policy(net: NetworkSpec, orders: Sequence[Sequence[int]], cutoff: int) -> Policy:
    """Every server takes the first menu position of its list in ``orders``
    whose choice qualifies: its drained queue holds more than ``cutoff``
    jobs, or it drains nothing.

    Write w_k for the mixed-radix weight of a server's k-th position, cut
    the list after its first always-qualifying entry, and end a list that
    can run out with w = -n_actions. The pick then weighs
    w_0 + sum_k [no position <= k qualifies] * (w_{k+1} - w_k). The mask
    ``empty`` of queues holding at most ``cutoff`` jobs is computed once.
    Rank 0 is one float64 mat-vec of that mask with ``first``, which holds
    each server's first weight step on its tested queue's column (summed
    where servers test the same queue); each later rank (re-entrant lists
    only) gathers its columns from the mask. Every partial sum is an
    integer of magnitude below 2**53, so the sums are exact, and a
    negative one marks a row where some server starves.
    """
    cutoff = min(cutoff, 2**63 - 1)  # the headroom check keeps every queue below 2**63
    radix, base, drains, steps = net.n_actions, 0, [], []
    for menu, order in zip(net.menus, orders):
        radix //= len(menu)
        queues = [min(menu[k].drains, default=None) for k in order]  # built-in choices drain <= 1
        if None in queues:
            weights = [k * radix for k in order[: queues.index(None) + 1]]
        else:
            weights = [k * radix for k in order] + [-net.n_actions]
        base += weights[0]
        drains.append(queues)
        steps.append(np.diff(weights))
    ranks = [  # per rank, each server's tested queue and weight step, 0 past its list
        (np.array([q[r] if r < len(d) else 0 for q, d in zip(drains, steps)], dtype=np.int64),
         np.array([d[r] if r < len(d) else 0 for d in steps], dtype=np.float64))
        for r in range(max(map(len, steps)))
    ]
    first = np.zeros(net.n_queues)
    if ranks:
        np.add.at(first, *ranks[0])
    starvable = any(None not in queues for queues in drains)
    lut = None if net.ids is None else np.array(net.ids, dtype=np.int64)

    def choose_batch(states: np.ndarray) -> np.ndarray:
        if ranks:
            empty = states <= cutoff
            total = empty.astype(np.float64) @ first
            waiting = empty[:, ranks[0][0]] if len(ranks) > 1 else None
            for col, delta in ranks[1:]:
                waiting &= empty[:, col]
                total += waiting.astype(np.float64) @ delta
        else:
            total = np.zeros(len(states))
        ids = total.astype(np.int64)
        if base:
            ids += base
        if starvable and np.logical_or.reduce(ids < 0):
            z = _state(states[np.argmax(ids < 0)])
            server = next(
                s for s, queues in enumerate(drains, 1)
                if all(q is not None and z[q] <= cutoff for q in queues)
            )
            raise PolicyError(f"server {server} has no available operation at state {z}")
        return ids if lut is None else lut.take(ids)

    return Policy(lambda z: int(choose_batch(np.array([z], dtype=np.int64))[0]), choose_batch)


def make_policy(
    net: NetworkSpec,
    kind: str,
    *,
    threshold: int | None = None,
    resolver: Callable[[State], int] | None = None,
) -> Policy:
    """Build one of the supported policies for this network.

    Every built-in kind gives each server a priority list of its menu
    choices and takes the first whose drained queue holds more than a
    cutoff; a choice that drains nothing (a push or supply step) always
    qualifies.

    pull-priority
        Lists [pull, push], cutoff 0: each server pulls whenever its pull
        queue is nonempty, else pushes. On re-entrant networks each list
        holds the server's steps by (-step, stream), cutoff 0: last buffer
        first served, raising PolicyError where a server without a supply
        step has nothing to serve.
    push-priority
        Lists [the first choice that drains nothing]: every server always
        pushes (re-entrant networks must give every server a supply step).
    threshold
        Lists [pull, push], cutoff ``threshold``: each server pulls iff
        its pull queue exceeds it (push-pull and ring families only).
    custom
        A ``resolver`` callable from a state tuple to an action id, called
        once per row in row order; a finite table with a default id is
        ``resolver=lambda z: table.get(z, default)``. Availability is
        validated at every step.

    A ``threshold`` belongs to the threshold kind and a ``resolver`` to
    the custom kind only; either one given to another kind raises
    ConstructionError. Every policy is a batch map; built-in kinds choose
    a batch in one call.
    Policies index the network's action list, so a network with more than
    ``netmodel.MAX_ACTIONS`` actions raises ConstructionError.
    """
    if kind not in POLICY_KINDS:
        raise ConstructionError(f"unknown policy kind {kind!r}, expected one of {POLICY_KINDS}")
    if threshold is not None and kind != "threshold":
        raise ConstructionError(f"policy kind {kind!r} takes no threshold")
    if resolver is not None and kind != "custom":
        raise ConstructionError(f"policy kind {kind!r} takes no resolver")
    # A policy picks rows of the action list, so a network too large to list has none.
    n_actions = net.listable_actions()
    if kind == "custom":
        if resolver is None:
            raise ConstructionError("custom policies need a resolver")
        return _row_policy(resolver, n_actions)
    if net.meta is None:
        raise ConstructionError(
            f"policy kind {kind!r} is unsupported for custom networks; provide a custom resolver"
        )
    if kind == "threshold":
        if isinstance(net.meta, ReentrantMeta):
            raise ConstructionError(f"policy kind {kind!r} is unsupported for re-entrant networks")
        if check_int(threshold, "a threshold cutoff") < 0:
            raise ConstructionError("threshold policies need a nonnegative cutoff")
    cutoff = threshold if kind == "threshold" else 0
    return _priority_policy(net, _priority_orders(net, kind), cutoff)


# ---------------------------------------------------------------------------
# Sampling engine

class _Tables:
    """Sampling tables of ``actions`` (default: all of ``net``'s), indexed by flat outcome id.

    Row r of the tables is the r-th action and ``width`` is the largest
    outcome count; outcome k of row r has the flat id f = r * width + k.
    ``cum[f]`` is row r's cumulative probability through outcome k, and
    +inf from the row's last outcome on, so the number of a row's entries
    <= u, clamped to the last outcome by the +inf, is the outcome that
    u picks. ``rank[f]`` is the position of outcome f's displacement in
    ``net.displacements``, and ``len(net.displacements)`` on padding;
    ``disp[f]`` is that displacement, gathered through the rank from the
    displacements plus one zero row, and ``drain[r]`` marks the queues that
    row r needs nonempty. A verb that needs another per-outcome value, such
    as an increment of alpha'X, computes it once per displacement and
    gathers it through ``rank`` the same way. Every per-step lookup is a
    ``take`` on a row or flat id.

    Each probability is w_k / W in Python ints, where
    ``netmodel.integer_weights`` gives the outcome rates as integers w_k
    and W is their sum. Integer division is correctly rounded, so this is
    the float nearest rate / total_rate. The cumulative sums are taken
    left to right along each row.

    ``sample`` counts the sums <= u through a guide table (Chen & Asau,
    1974) of ``cells`` = G cells per row, G a power of two: cell j covers
    u in [j/G, (j+1)/G), and ``start[r * G + j]`` is r * width plus the
    number of row r's sums <= j/G. A sum s is <= j/G exactly when
    ceil(s * G) <= j, since scaling by a power of two is exact, and so is
    the floor of u * G. From its cell's start, ``passes`` = K steps of
    ``flat += cum[flat] <= u`` settle every sum that lies strictly inside
    the cell, K being the most such sums in any one cell. G is the
    smallest power of two that reaches the fewest in-cell sums, with at
    most as many guide entries as ``disp`` has. A table on which the guide
    saves no pass (K + 1 >= width - 1), as on any table of width <= 2,
    takes G = 1, no ``start``, and width - 1 passes from r * width. G and
    K depend on the table's data alone, so :func:`step`'s one-row table is
    built like any other.
    """

    def __init__(self, net: NetworkSpec, actions: Sequence[ActionSpec] | None = None):
        self.actions = actions or list(map(net.action, range(net.listable_actions())))
        index = {d: i for i, d in enumerate(net.displacements)}
        probs, ranks = [], []
        for act in self.actions:
            weights = integer_weights(rate for _, rate in act.outcomes)
            total = sum(weights)
            probs += [w / total for w in weights]
            ranks += [index[d] for d, _ in act.outcomes]
        counts = np.array([len(act.outcomes) for act in self.actions])
        rows, width = len(counts), int(counts.max())
        # (row, column) of every outcome in the flat lists
        r = np.repeat(np.arange(rows), counts)
        c = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
        p = np.zeros((rows, width))
        p[r, c] = probs
        cum = np.cumsum(p, axis=1)
        cum[np.arange(width) >= counts[:, None] - 1] = np.inf
        self.width = width
        self.cum = cum.reshape(-1)
        self.rank = np.full(rows * width, len(index), dtype=np.int64)
        self.rank[r * width + c] = ranks
        self.disp = np.array([*index, (0,) * net.n_queues], dtype=np.int64).take(self.rank, axis=0)
        self.drain = (self.disp.reshape(rows, width, -1) == -1).any(axis=1)
        self.cells, self.passes, self.start = _guide(cum, self.disp.size)

    def sample(self, states: np.ndarray, acts: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flat outcome id of each row, given its table row in ``acts`` and its uniform in ``u``.

        Raises PolicyError if some row's action is not available; the
        message names the smallest such action and the first row using it.
        """
        blocked = self.drain.take(acts, axis=0) & (states < 1)
        if np.logical_or.reduce(blocked, axis=None):
            rows = np.nonzero(blocked.any(axis=1))[0]
            a = acts[rows].min()
            act = self.actions[a]
            state = _state(states[rows[acts[rows] == a][0]])
            raise PolicyError(
                f"action {act.label!r} (id {act.id}) is not available at state {state}"
            )
        if self.start is None:
            flat = acts * self.width
        else:
            flat = self.start.take(acts * self.cells + (u * self.cells).astype(np.int64))
        for _ in range(self.passes):
            flat += self.cum.take(flat) <= u
        return flat


def _guide(cum: np.ndarray, limit: int) -> tuple[int, int, np.ndarray | None]:
    """The cell count G, the pass count K and the entries of the guide
    table of a (rows x width) array of nondecreasing cumulative sums, with
    at most ``limit`` entries; see :class:`_Tables`."""
    rows, width = cum.shape
    if width <= 2:  # K >= 0, so K + 1 >= width - 1 below
        return 1, width - 1, None
    row, col = np.nonzero(cum < 1.0)  # the sums that can lie inside a cell
    sums = cum[row, col]

    def passes(g: int) -> int:  # the most sums strictly inside one cell [j/g, (j+1)/g)
        scaled = sums * g
        cell = np.floor(scaled)
        inside = cell < scaled
        return int(np.bincount((row * g + cell)[inside].astype(np.int64), minlength=1).max())

    top = 1
    while rows * top * 2 <= limit:
        top *= 2
    fewest, g = passes(top), 1  # halving a cell never adds in-cell sums
    while (k := passes(g)) > fewest:
        g *= 2
    if k + 1 >= width - 1:
        return 1, width - 1, None
    # row r's keys r * (g + 1) + min(ceil(s * g), g) increase along the flat array
    base = np.arange(rows)[:, None] * (g + 1)
    keys = (base + np.minimum(np.ceil(cum * g), g)).reshape(-1)
    return g, k, np.searchsorted(keys, (base + np.arange(g)).reshape(-1), side="right")


def _state(row: np.ndarray) -> State:
    return tuple(int(v) for v in row)


def _choose(policy: Policy, states: np.ndarray, n_actions: int) -> np.ndarray:
    """The policy's action ids for ``states`` as int64, one per row, each
    in range; the error names the first row with an unknown id.

    Ids of any integer dtype are read as int64. Viewed as uint64, every
    negative int64 is at least 2**63 (a uint64 id of 2**63 or more casts
    to one), so one maximum finds every id out of range.
    """
    acts = policy.choose_batch(states)
    if not isinstance(acts, np.ndarray) or acts.dtype.kind not in "iu" or acts.shape != states.shape[:1]:
        what = (f"dtype {acts.dtype}, shape {acts.shape}" if isinstance(acts, np.ndarray)
                else f"a {type(acts).__name__}")
        raise PolicyError(
            f"choose_batch returned {what}; expected an integer array of shape ({len(states)},)"
        )
    ids = acts.astype(np.int64, copy=False)
    unsigned = ids.view(np.uint64)
    if np.maximum.reduce(unsigned) >= n_actions:
        row = int(np.argmax(unsigned >= n_actions))
        raise _unknown_id(int(acts[row]), states[row])
    return ids


def _start_state(net: NetworkSpec, cfg: SimConfig) -> State:
    x0 = cfg.x0 if cfg.x0 is not None else (0,) * net.n_queues
    return check_state(x0, net.n_queues)


def step(
    net: NetworkSpec, policy: Policy, z: Sequence[int], rng: np.random.Generator
) -> State:
    """One embedded-chain transition from state z.

    A batch of one on the engine's code: the policy's action is checked and
    its availability enforced, then one uniform variate picks the outcome
    from the action's one-row :class:`_Tables`, built like the engine's.
    """
    state = check_state(z, net.n_queues)
    _check_headroom(state, 1)
    states = np.array([state], dtype=np.int64)
    a = _choose(policy, states, net.n_actions)[0]
    table = _Tables(net, [net.action(a)])
    f = table.sample(states, np.zeros(1, dtype=np.int64), np.array([rng.random()]))[0]
    return _state(states[0] + table.disp[f])


def _run(
    net: NetworkSpec,
    policy: Policy,
    cfg: SimConfig,
    horizon: int,
    tables: _Tables,
    observe: Callable[..., np.ndarray | None],
) -> np.ndarray:
    """Run cfg.trials trials for up to ``horizon`` steps in lockstep batches.

    After every transition, ``observe(s, rows, states, flat)`` sees the
    live rows of the batch, whose trials are ``rows`` (a slice) until some
    row retires, and the flat outcome ids (see :class:`_Tables`) they took;
    it may return a mask of rows to retire. Each refill draws, for every
    live trial, only the uniforms that the next ``_CHUNK`` steps (or the
    rest of the horizon) can use, into one row of ``chunk`` per trial. Rows
    are padded to 8 mod 16 doubles, an odd number of 64-byte cache lines:
    a power-of-two stride such as 256 doubles would map every row of a
    column onto the same few cache sets. ``at`` holds each live trial's
    row start in the flattened chunk, so a step reads its uniforms with
    one gather on the live trials alone.
    Returns the final states of the rows still live at the end.
    """
    x0 = np.array(_start_state(net, cfg), dtype=np.int64)
    gen = np.random.Generator(np.random.PCG64(0))  # its state is replaced before every draw
    finals = []
    for start in range(0, cfg.trials, _BATCH):
        rows = slice(start, min(start + _BATCH, cfg.trials))
        streams = _Streams(gen, _pcg64_states(cfg.seed, rows.start, rows.stop)[:, _word_order()])
        b = rows.stop - rows.start
        width = min(_CHUNK, horizon)
        chunk = np.empty((b, width + (8 - width) % 16), dtype=np.float64)
        uniforms = chunk.reshape(-1)
        live = np.arange(b)
        at = live * chunk.shape[1]
        states = np.repeat(x0[None, :], b, axis=0)
        for s in range(horizon):
            col = s % _CHUNK
            if col == 0:
                n = min(_CHUNK, horizon - s)
                streams.fill(live.tolist(), chunk[:, :n], keep=s + n < horizon)
            acts = _choose(policy, states, net.n_actions)
            flat = tables.sample(states, acts, uniforms.take(at + col))
            states += tables.disp.take(flat, axis=0)
            done = observe(s, rows, states, flat)
            if done is not None:
                keep = ~done
                live, at, states = live.compress(keep), at.compress(keep), states.compress(keep, axis=0)
                if not live.size:
                    break
        finals.append(states)
    return np.concatenate(finals)


def estimate_return_time(net: NetworkSpec, policy: Policy, cfg: SimConfig) -> ReturnTimeStats:
    """First-return times to the start state, one per trial, censored at cfg.cap."""
    x0 = np.array(_start_state(net, cfg), dtype=np.int64)
    returns = []  # (trials returning, at step)

    def observe(s, rows, states, flat):
        hits = np.logical_and.reduce(states == x0, axis=1)
        if np.logical_or.reduce(hits):
            returns.append((int(np.count_nonzero(hits)), s + 1))
            return hits
        return None

    _run(net, policy, cfg, cfg.cap, _Tables(net), observe)
    returned = sum(n for n, _ in returns)
    sum_uncensored = sum(n * t for n, t in returns)
    sum_all = sum_uncensored + (cfg.trials - returned) * cfg.cap
    return ReturnTimeStats(
        cfg.trials,
        returned,
        Fraction(cfg.trials - returned, cfg.trials),
        sum_uncensored / returned if returned else 0.0,
        sum_all / cfg.trials,
    )


def martingale_test(
    net: NetworkSpec,
    policy: Policy,
    alpha: Sequence[Fraction | int],
    cfg: SimConfig,
) -> MartingaleReport:
    """Empirical mean and standard error of Z_steps - Z_0 where Z = alpha'X.

    alpha must be nonzero, since Z = 0 would be a martingale under any
    policy. The exact alpha.d is computed once per entry of
    ``net.displacements``; ``bound`` is the float of the largest |alpha.d|,
    and each outcome's increment is the float of its alpha.d, gathered
    through the table's ``rank``, so the maximum increment respects the
    bound by construction. Raises ValueError when alpha is too large for
    the bound or the statistics to be finite floats.
    """
    alpha = check_alpha(alpha, net.n_queues)
    tables = _Tables(net)
    exact = [sum(alpha[k] * x for k, x in pairs) for pairs in net.displacements.values()]
    try:
        bound = float(max(map(abs, exact)))
    except OverflowError:
        raise ValueError("alpha is too large: its increment bound overflows a float") from None
    incs = np.array([*map(float, exact), 0.0]).take(tables.rank)
    dz = np.zeros(cfg.trials, dtype=np.float64)
    used = np.zeros(incs.shape, dtype=bool)

    def observe(s, rows, states, flat):
        dz[rows] += incs.take(flat)
        used[flat] = True

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        _run(net, policy, cfg, cfg.steps, tables, observe)
        mean = float(dz.mean())
        std_error = float(dz.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    max_abs = float(np.abs(incs[used]).max()) if used.any() else 0.0
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError("alpha is too large: the increment statistics overflow a float")
    return MartingaleReport(mean, std_error, max_abs, bound)


def blowup_probe(net: NetworkSpec, policy: Policy, cfg: SimConfig) -> GrowthReport:
    """Per-trial least-squares slope of total queue length against step index."""
    initial_total = sum(_start_state(net, cfg))
    totals = np.full(cfg.trials, float(initial_total))
    sum_t = totals.copy()
    sum_nt = np.zeros(cfg.trials, dtype=np.float64)
    tables = _Tables(net)
    moves = tables.disp.sum(axis=1)

    def observe(s, rows, states, flat):
        batch = totals[rows]
        batch += moves.take(flat)
        sum_t[rows] += batch
        sum_nt[rows] += (s + 1) * batch

    _run(net, policy, cfg, cfg.steps, tables, observe)
    n = cfg.steps
    count = n + 1
    sum_n = n * (n + 1) / 2.0
    sum_n2 = n * (n + 1) * (2 * n + 1) / 6.0
    denom = sum_n2 - sum_n * sum_n / count
    slope = float(((sum_nt - sum_n * sum_t / count) / denom).mean())
    return GrowthReport(slope, int((totals > initial_total).sum()) / cfg.trials)


def run_trajectories(net: NetworkSpec, policy: Policy, cfg: SimConfig) -> TrajectorySummary:
    """Run fixed-length trajectories and summarize final states."""
    finals = _run(net, policy, cfg, cfg.steps, _Tables(net), lambda *_: None)
    totals = finals.sum(axis=1)
    return TrajectorySummary(
        cfg.trials, cfg.steps, float(totals.mean()), int(totals.max()), _state(finals[0])
    )
