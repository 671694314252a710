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
  builds those streams a batch at a time (:func:`_pcg64_states`) and
  draws them through one reused PCG64, after checking once per process
  that one such stream equals ``trial_rng``'s.
* the start state's total plus max(steps, cap) stays below 2**63, so no
  queue length or total overflows the engine's int64 states.
* one uniform variate u is consumed per step, from the trial's own stream;
  a refill draws, for each trial still running, only the uniforms the
  next ``_CHUNK`` (256) steps (or the rest of the steps or cap) can use, and
  since consecutive draws from a stream are prefixes of one another the
  values do not depend on how they are chunked;
* each action's outcome is selected by cumulative-sum inversion over its
  outcomes in lexicographic displacement order (the storage order of
  :class:`~qstab.netmodel.ActionSpec`), with probabilities converted from
  exact rationals to their nearest floats once per run: the outcome is the
  number of cumulative sums <= u, clamped to the last outcome, so a u at
  or above a float cumsum that rounds below 1 picks the last outcome.

Identical (network, policy, config) therefore yield bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .netmodel import (
    ActionSpec,
    Choice,
    ConstructionError,
    NetworkSpec,
    ReentrantMeta,
    State,
    check_state,
    format_rational,
    index_sets,
    integer_weights,
)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 256       # uniforms pregenerated per trial per refill
_BATCH = 4096      # trials simulated in lockstep per batch

POLICY_KINDS = ("pull-priority", "push-priority", "threshold", "custom")


class PolicyError(RuntimeError):
    """A policy selected an action that is not available, or none exists."""


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


def _pcg64_states(seed: int, start: int, stop: int) -> tuple[list[int], list[int]]:
    """The PCG64 ``(state, inc)`` of ``trial_rng(seed, t)`` for t in [start, stop).

    The same three steps as ``trial_rng``, on a whole batch: splitmix64 on
    uint64 arrays (:func:`substream_seed`), ``SeedSequence(z)
    .generate_state(4, np.uint64)`` on uint32 arrays, and PCG64's setseq
    initialisation on Python ints. A seed z below 2**32 has one entropy
    word, but the pool pads it with hashmix(0), exactly like a zero high word.
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
    w0, w1, w2, w3 = ((words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    states, incs = [], []
    for a, b, c, d in zip(w0, w1, w2, w3):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append(((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


class _Streams:
    """The ``trial_rng`` streams of trials start..stop-1, drawn through ``gen``,
    whose PCG64 takes each stream's state in turn."""

    def __init__(self, gen: np.random.Generator, seed: int, start: int, stop: int):
        self.gen = gen
        self.bitgen = gen.bit_generator
        self.states, self.incs = _pcg64_states(seed, start, stop)

    def fill(self, rows: Sequence[int], out: np.ndarray, keep: bool) -> None:
        """Draw ``out[i]`` from stream i for each i in ``rows``; with ``keep``,
        the next fill of those streams continues where this one stopped."""
        template = self.bitgen.state
        pcg = template["state"]
        for i in rows:
            pcg["state"], pcg["inc"] = self.states[i], self.incs[i]
            self.bitgen.state = template
            self.gen.random(out=out[i])
            if keep:
                self.states[i] = self.bitgen.state["state"]["state"]


@cache
def _check_batch_seeding() -> None:
    """Compare one batch-seeded stream with ``trial_rng`` once per process."""
    seed, trial = _MASK64, 1 << 40
    got = np.empty((1, 8))
    streams = _Streams(np.random.Generator(np.random.PCG64(0)), seed, trial, trial + 1)
    streams.fill([0], got, keep=False)
    if not np.array_equal(got[0], trial_rng(seed, trial).random(8)):
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 differently from the simulator's batch "
            "seeder, so its streams would not be those of trial_rng"
        )


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; ``x0=None`` means start at the origin."""

    seed: int = 0
    steps: int = 1000
    trials: int = 10_000
    cap: int = 10_000
    x0: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConstructionError("seed must be an integer in [0, 2**64)")
        for name in ("steps", "trials", "cap"):
            if getattr(self, name) < 1:
                raise ConstructionError(f"{name} must be a positive integer")
        if self.x0 is not None:
            _check_headroom(self.x0, max(self.steps, self.cap))


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

    ``bound`` is the exact supremum of one-step |dZ| implied by the
    displacement shapes; ``max_abs_increment`` never exceeds it.
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


def _drained(choice: Choice) -> int | None:
    """The queue a built-in choice drains, or None for a push or supply step."""
    return next((d.index(-1) for d, _ in choice.outcomes if -1 in d), None)


def _priority_orders(net: NetworkSpec, kind: str) -> list[list[int]]:
    """Each server's menu positions in the priority order of a built-in kind."""
    if kind == "push-priority":
        orders = [[k for k, c in enumerate(menu) if _drained(c) is None][:1] for menu in net.menus]
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
    w_0 + sum_k [no position <= k qualifies] * (w_{k+1} - w_k): per rank,
    one gather, one compare and one float64 mat-vec over all servers. Every
    partial sum is an integer of magnitude below 2**53, so the sums are
    exact, and a negative one marks a row where some server starves.
    """
    cutoff = min(cutoff, 2**63 - 1)  # the headroom check keeps every queue below 2**63
    radix, base, drains, steps = net.n_actions, 0, [], []
    for menu, order in zip(net.menus, orders):
        radix //= len(menu)
        queues = [_drained(menu[k]) for k in order]
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
    starvable = any(None not in queues for queues in drains)
    lut = None if net.ids is None else np.array(net.ids, dtype=np.int64)

    def choose_batch(states: np.ndarray) -> np.ndarray:
        total = np.full(len(states), float(base))
        waiting = None
        for col, delta in ranks:
            # a column gather: states.take(col, axis=1) is 2-4x slower here
            test = states[:, col] <= cutoff
            waiting = test if waiting is None else waiting & test
            total += waiting.astype(np.float64) @ delta
        ids = total.astype(np.int64)
        if starvable and (ids < 0).any():
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
    table: Mapping[State, int] | None = None,
    default: int | None = None,
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
        An explicit finite ``table`` of state -> action id with a
        ``default`` id, or an arbitrary ``resolver`` callable, called
        once per row in row order. Availability is validated at every step.

    Every policy is a batch map; built-in kinds choose a batch in one call.
    Policies index the network's action list, so a network with more than
    ``netmodel.MAX_ACTIONS`` actions raises ConstructionError.
    """
    if kind not in POLICY_KINDS:
        raise ConstructionError(f"unknown policy kind {kind!r}, expected one of {POLICY_KINDS}")
    # A policy picks rows of the action list, so a network too large to list has none.
    n_actions = net.listable_actions()
    if kind == "custom":
        if resolver is not None:
            return _row_policy(resolver, n_actions)
        if table is None and default is None:
            raise ConstructionError("custom policies need a table/default or a resolver")
        mapping = {tuple(k): int(v) for k, v in (table or {}).items()}

        def resolve(z: State) -> int:
            a = mapping.get(z, default)
            if a is None:
                raise PolicyError(f"custom policy table has no entry for state {z}")
            return a

        return _row_policy(resolve, n_actions)
    if net.meta is None:
        raise ConstructionError(
            f"policy kind {kind!r} is unsupported for custom networks; provide a custom resolver"
        )
    if kind == "threshold":
        if isinstance(net.meta, ReentrantMeta):
            raise ConstructionError(f"policy kind {kind!r} is unsupported for re-entrant networks")
        if threshold is None or threshold < 0:
            raise ConstructionError("threshold policies need a nonnegative cutoff")
    cutoff = threshold if kind == "threshold" else 0
    return _priority_policy(net, _priority_orders(net, kind), cutoff)


# ---------------------------------------------------------------------------
# Sampling engine

class _Tables:
    """Sampling tables of ``actions``, indexed by flat outcome id.

    Row r of the tables is the r-th action and ``width`` is the largest
    outcome count; outcome k of row r has the flat id f = r * width + k.
    ``cum[j]`` holds, for every row, its cumulative probability through
    outcome j (j < width - 1), and is +inf from the row's last outcome on,
    so the number of entries <= u is ``searchsorted(side="right")``
    clamped to the last outcome. ``disp[f]`` is the displacement of
    outcome f (zero on padding), ``drain[r]`` marks the queues that row r
    needs nonempty, and ``incs[f]`` (given alpha) is the exact increment of
    alpha'X of outcome f as a float. Every per-step lookup is a ``take`` on
    a row or flat id.

    Each probability is w_k / W in Python ints, where
    ``netmodel.integer_weights`` gives the outcome rates as integers w_k
    and W is their sum. Integer division is correctly rounded, so this is
    the float nearest rate / total_rate. The cumulative sums are taken
    left to right along each row.
    """

    def __init__(
        self,
        net: NetworkSpec,
        actions: Sequence[ActionSpec] | None = None,
        alpha: Sequence[Fraction] | None = None,
    ):
        self.actions = net.actions if actions is None else actions
        probs, disps = [], []
        for act in self.actions:
            weights, _ = integer_weights(rate for _, rate in act.outcomes)
            total = sum(weights)
            probs += [w / total for w in weights]
            disps += [d for d, _ in act.outcomes]
        counts = np.array([len(act.outcomes) for act in self.actions])
        rows, width = len(counts), int(counts.max())
        # (row, column) and flat id of every outcome in the flat lists
        r = np.repeat(np.arange(rows), counts)
        c = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
        flat = r * width + c
        p = np.zeros((rows, width))
        p[r, c] = probs
        cum = np.cumsum(p, axis=1)
        cum[np.arange(width) >= counts[:, None] - 1] = np.inf
        self.width = width
        self.cum = cum.T[:-1].copy()  # the last column is +inf in every row
        self.disp = np.zeros((rows * width, net.n_queues), dtype=np.int64)
        self.disp[flat] = disps
        self.drain = (self.disp.reshape(rows, width, -1) == -1).any(axis=1)
        self.incs = None
        if alpha is not None:
            # actions share few displacements, so each exact increment is computed once
            increment = cache(lambda d: float(sum((a * x for a, x in zip(alpha, d)), Fraction(0))))
            self.incs = np.zeros(rows * width)
            self.incs[flat] = [increment(d) for d in disps]

    def sample(self, states: np.ndarray, acts: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flat outcome id of each row, given its table row in ``acts`` and its uniform in ``u``.

        Raises PolicyError if some row's action is not available; the
        message names the smallest such action and the first row using it.
        """
        blocked = self.drain.take(acts, axis=0) & (states < 1)
        if blocked.any():
            rows = np.nonzero(blocked.any(axis=1))[0]
            a = acts[rows].min()
            act = self.actions[a]
            state = _state(states[rows[acts[rows] == a][0]])
            raise PolicyError(
                f"action {act.label!r} (id {act.id}) is not available at state {state}"
            )
        flat = acts * self.width
        for col in self.cum:
            flat += col.take(acts) <= u
        return flat


def _state(row: np.ndarray) -> State:
    return tuple(int(v) for v in row)


def _choose(policy: Policy, states: np.ndarray, n_actions: int) -> np.ndarray:
    """The policy's action ids for ``states``, checked against the action
    range; the error names the first row with an unknown id."""
    acts = policy.choose_batch(states)
    if acts.min() < 0 or acts.max() >= n_actions:
        row = int(np.argmax((acts < 0) | (acts >= n_actions)))
        raise _unknown_id(int(acts[row]), states[row])
    return acts


def _start_state(net: NetworkSpec, cfg: SimConfig) -> State:
    x0 = cfg.x0 if cfg.x0 is not None else (0,) * net.n_queues
    return check_state(x0, net.n_queues)


def step(
    net: NetworkSpec, policy: Policy, z: Sequence[int], rng: np.random.Generator
) -> State:
    """One embedded-chain transition from state z.

    A batch of one on the engine's code: the policy's action is checked and
    its availability enforced, then one uniform variate picks the outcome.
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

    After every transition, ``observe(s, rows, states, disp, flat)`` sees
    the live rows of the batch, whose trials are ``rows`` (a slice) until
    some row retires, their displacements and the flat outcome ids (see
    :class:`_Tables`) they took; it may return a mask of rows to retire. Each
    refill draws, for every live trial, only the uniforms that the next
    ``_CHUNK`` steps (or the rest of the horizon) can use. Returns the
    final states of the rows still live at the end.
    """
    x0 = np.array(_start_state(net, cfg), dtype=np.int64)
    _check_batch_seeding()
    gen = np.random.Generator(np.random.PCG64(0))  # its state is replaced before every draw
    finals = []
    for start in range(0, cfg.trials, _BATCH):
        rows = slice(start, min(start + _BATCH, cfg.trials))
        streams = _Streams(gen, cfg.seed, rows.start, rows.stop)
        b = rows.stop - rows.start
        chunk = np.empty((b, min(_CHUNK, horizon)), dtype=np.float64)
        live = np.arange(b)
        states = np.repeat(x0[None, :], b, axis=0)
        for s in range(horizon):
            col = s % _CHUNK
            if col == 0:
                n = min(_CHUNK, horizon - s)
                streams.fill(live.tolist(), chunk[:, :n], keep=s + n < horizon)
            acts = _choose(policy, states, net.n_actions)
            flat = tables.sample(states, acts, chunk[:, col].take(live))
            disp = tables.disp.take(flat, axis=0)
            states += disp
            done = observe(s, rows, states, disp, flat)
            if done is not None:
                keep = ~done
                live, states = live.compress(keep), states.compress(keep, axis=0)
                if not live.size:
                    break
        finals.append(states)
    return np.concatenate(finals)


def estimate_return_time(net: NetworkSpec, policy: Policy, cfg: SimConfig) -> ReturnTimeStats:
    """First-return times to the start state, one per trial, censored at cfg.cap."""
    x0 = np.array(_start_state(net, cfg), dtype=np.int64)
    returns = []  # (trials returning, at step)

    def observe(s, rows, states, disp, flat):
        hits = (states == x0).all(axis=1)
        if hits.any():
            returns.append((int(hits.sum()), s + 1))
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

    Increments are looked up from exact per-outcome values converted to
    float once, so the reported maximum increment respects the exact bound
    by construction. Raises ValueError when alpha is too large for the
    bound or the statistics to be finite floats.
    """
    vec = tuple(Fraction(x) for x in alpha)
    if len(vec) != net.n_queues:
        raise ConstructionError(f"alpha has length {len(vec)}, expected {net.n_queues}")
    sets = index_sets(net)
    candidates = [abs(vec[i]) for i in sets.external]
    candidates += [abs(vec[i] - vec[j]) for i, j in sets.transfers]
    try:
        bound = float(max(candidates)) if candidates else 0.0
    except OverflowError:
        raise ValueError("alpha is too large: its increment bound overflows a float") from None
    tables = _Tables(net, alpha=vec)
    dz = np.zeros(cfg.trials, dtype=np.float64)
    used = np.zeros(tables.incs.shape, dtype=bool)

    def observe(s, rows, states, disp, flat):
        dz[rows] += tables.incs.take(flat)
        used.put(flat, True)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        _run(net, policy, cfg, cfg.steps, tables, observe)
        mean = float(dz.mean())
        std_error = float(dz.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    max_abs = float(np.abs(tables.incs[used]).max()) if used.any() else 0.0
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError("alpha is too large: the increment statistics overflow a float")
    return MartingaleReport(mean, std_error, max_abs, bound)


def blowup_probe(net: NetworkSpec, policy: Policy, cfg: SimConfig) -> GrowthReport:
    """Per-trial least-squares slope of total queue length against step index."""
    initial_total = sum(_start_state(net, cfg))
    totals = np.full(cfg.trials, float(initial_total))
    sum_t = totals.copy()
    sum_nt = np.zeros(cfg.trials, dtype=np.float64)

    def observe(s, rows, states, disp, flat):
        batch = totals[rows]
        batch += disp.sum(axis=1)
        sum_t[rows] += batch
        sum_nt[rows] += (s + 1) * batch

    _run(net, policy, cfg, cfg.steps, _Tables(net), observe)
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
