"""Homogeneous controlled queueing networks with exact rational rates.

A network couples M queues with a finite set of actions. Every action
carries a state-independent distribution over unit displacements: a new
job entering a queue, a job leaving one, or a job moving between two
queues. State dependence enters only through availability: an action may
fire only in states where none of its outcomes would drive a queue
negative, which is exactly the non-idling convention that pulls require a
nonempty queue.

Actions are stored factored: each server has a menu of choices, and an
action is one choice per server whose outcomes are the union of the
chosen outcomes. An action is built from its id when a caller needs it,
and listing them all is refused above ``MAX_ACTIONS``.

Three concrete families are provided (the two-server push-pull network, a
ring of push-pull servers, and two-server re-entrant lines) plus fully
custom action lists. The push-pull network is the ring of two servers
under its own action ids. Custom outcomes are checked as they enter; the
family builders construct valid ones. All rates are exact rationals; this
module never touches floating point.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from pathlib import Path
from typing import Iterable, Sequence, Union

RateLike = Union[int, str, Fraction]
Displacement = tuple[int, ...]
State = tuple[int, ...]

FAMILIES = ("pushpull", "ring", "reentrant", "custom")

# Largest action list that is ever materialized (a ring with 14 servers).
# Larger networks still load and certify from their menus, but drift
# matrices, simulation and export refuse them.
MAX_ACTIONS = 1 << 14


class ConstructionError(ValueError):
    """Invalid parameters for building a network."""


class SpecFileError(ValueError):
    """A network spec document is malformed."""


class PolicyError(RuntimeError):
    """A policy selected an action that is not available, or none exists."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into an exact Fraction."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstructionError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a rational as ``"num/den"``, omitting the denominator when 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rate(value: RateLike) -> Fraction:
    """Validate and normalize a processing rate (must be a positive rational)."""
    if isinstance(value, bool):
        raise ConstructionError(f"rate must be a positive rational, got {value!r}")
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        q = parse_rational(value)
    else:
        raise ConstructionError(
            f"rate must be an int, 'num/den' string, or Fraction, got {type(value).__name__}"
        )
    if q.numerator <= 0:
        raise ConstructionError(f"rates must be positive, got {format_rational(q)}")
    return q


# (+1 entries, -1 entries) of an arrival, a departure and a transfer.
_UNIT_SHAPES = frozenset({(1, 0), (0, 1), (1, 1)})


def check_displacement(disp: Sequence[int], n_queues: int) -> Displacement:
    """Validate the three admissible displacement shapes.

    A displacement either adds one job to a queue, removes one job from a
    queue, or moves one job between two distinct queues.
    """
    if not set(map(type, disp)) <= {int}:  # numpy integers pass as ints, bools and floats raise
        disp = [check_int(x, "a displacement entry") for x in disp]
    d = tuple(disp)
    if len(d) != n_queues:
        raise ConstructionError(f"displacement {d} has length {len(d)}, expected {n_queues}")
    ups, downs = d.count(1), d.count(-1)
    if ups + downs + d.count(0) != n_queues or (ups, downs) not in _UNIT_SHAPES:
        raise ConstructionError(
            f"displacement {d} must add one job, remove one job, or move one job between queues"
        )
    return d


@dataclass(frozen=True)
class ActionSpec:
    """One action: a rate-weighted distribution over displacements.

    Built from its id by :meth:`NetworkSpec.action`, never stored. Outcomes
    are merged (distinct displacements) and sorted lexicographically by
    displacement, the normative order for cumulative-sum sampling in the
    simulator. ``total_rate`` and ``drains`` (the queues some outcome
    decrements, which must be nonempty for the action to be available) are
    derived from the outcomes on first use.
    """

    id: int
    label: str
    outcomes: tuple[tuple[Displacement, Fraction], ...]

    @cached_property
    def total_rate(self) -> Fraction:
        return sum(r for _, r in self.outcomes)

    @cached_property
    def drains(self) -> frozenset[int]:
        return frozenset(d.index(-1) for d, _ in self.outcomes if -1 in d)

    @property
    def support(self) -> tuple[Displacement, ...]:
        return tuple(d for d, _ in self.outcomes)


@dataclass(frozen=True)
class Choice:
    """One entry of a server's menu: a label and its outcomes, each a unit
    displacement with a positive rate.

    Nothing here checks the outcomes: :func:`build_custom` checks outside
    input, and the family builders construct only valid ones. ``drains``
    holds the queues some outcome decrements.
    """

    label: str
    outcomes: tuple[tuple[Displacement, Fraction], ...]

    @cached_property
    def support(self) -> frozenset[Displacement]:
        return frozenset(d for d, _ in self.outcomes)

    @cached_property
    def drains(self) -> frozenset[int]:
        return frozenset(d.index(-1) for d, _ in self.outcomes if -1 in d)


def _combine(action_id: int, choices: Sequence[Choice]) -> ActionSpec:
    """The action taking one choice per server, merging duplicate displacements by summing rates."""
    label = choices[0].label if len(choices) == 1 else (
        "(" + ",".join(c.label for c in choices) + ")"
    )
    merged: dict[Displacement, Fraction] = {}
    for choice in choices:
        for d, r in choice.outcomes:
            merged[d] = merged[d] + r if d in merged else r
    return ActionSpec(action_id, label, tuple(sorted(merged.items())))


def integer_weights(rates: Iterable[Fraction]) -> list[int]:
    """The rates as integers over their least common denominator."""
    rates = list(rates)
    dens = [r.denominator for r in rates]
    scale = lcm(*dens)
    return [r.numerator * (scale // q) for r, q in zip(rates, dens)]


@dataclass(frozen=True)
class RingMeta:
    push_rates: tuple[Fraction, ...]
    pull_rates: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReentrantMeta:
    """Stream layout of a two-server re-entrant network.

    ``streams[i][j]`` is the ``(server, rate)`` of step j of stream i,
    j = 0 being the supply-fed first step. Queues are numbered
    lexicographically by (stream, step) for steps >= 1, so the queue fed
    by step j of stream i has index ``queue_index(i, j)``.
    """

    streams: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    @cached_property
    def stream_lengths(self) -> tuple[int, ...]:
        """Number of queues per stream (steps excluding the supply step)."""
        return tuple(len(s) - 1 for s in self.streams)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for n in self.stream_lengths:
            offs.append(offs[-1] + n)
        return tuple(offs)

    def queue_index(self, stream: int, step: int) -> int:
        n = self.stream_lengths[stream]
        if not 1 <= step <= n:
            raise ValueError(f"stream {stream} has no queue for step {step}")
        return self.offsets[stream] + step - 1

    def operations(self) -> list[tuple[int, int]]:
        """All (stream, step) pairs, supply steps included."""
        return [(i, j) for i, s in enumerate(self.streams) for j in range(len(s))]

    def server_operations(self, server: int) -> list[tuple[int, int]]:
        return [(i, j) for i, j in self.operations() if self.streams[i][j][0] == server]

    def op_rate(self, stream: int, step: int) -> Fraction:
        return self.streams[stream][step][1]

    @property
    def entry_queues(self) -> frozenset[int]:
        """Queues fed by the supply step of each stream."""
        return frozenset(self.queue_index(i, 1) for i in range(self.n_streams))

    @property
    def exit_queues(self) -> frozenset[int]:
        """Queues drained by the final step of each stream."""
        return frozenset(
            self.queue_index(i, n) for i, n in enumerate(self.stream_lengths)
        )


FamilyMeta = Union[RingMeta, ReentrantMeta, None]


@dataclass(frozen=True)
class NetworkSpec:
    """A homogeneous controlled queueing network.

    ``menus[s]`` holds the choices of server s, and an action is one
    choice per server. A custom network has a single server whose menu is
    its action list. Action ids count the choice vectors in mixed radix,
    server 0 most significant, unless ``ids`` maps each such index to an
    action id. No action list is kept: callers that need every action map
    :meth:`action` over ``range(listable_actions())``.
    """

    n_queues: int
    menus: tuple[tuple[Choice, ...], ...]
    family: str
    meta: FamilyMeta = None
    ids: tuple[int, ...] | None = None

    @cached_property
    def n_actions(self) -> int:
        return prod(len(menu) for menu in self.menus)

    def listable_actions(self) -> int:
        """The number of actions, or ConstructionError if it is above ``MAX_ACTIONS``."""
        n = self.n_actions
        if n > MAX_ACTIONS:
            raise ConstructionError(
                f"the network has {n} actions, more than the {MAX_ACTIONS} that drift "
                "matrices, simulation and export can list; certify and alpha take any size"
            )
        return n

    @cached_property
    def displacements(self) -> dict[Displacement, tuple[tuple[int, int], ...]]:
        """The distinct displacements of the menus in lexicographic order, each
        mapped to its nonzero ``(queue, entry)`` pairs; built on first use."""
        distinct = sorted({d for menu in self.menus for choice in menu for d in choice.support})
        return {d: tuple((k, x) for k, x in enumerate(d) if x) for d in distinct}

    def choices(self, action_id: int) -> tuple[Choice, ...]:
        """The choice of each server that action ``action_id`` takes."""
        if not 0 <= check_int(action_id, "an action id") < self.n_actions:
            raise ConstructionError(f"unknown action id {action_id}")
        index = action_id if self.ids is None else self.ids.index(action_id)
        choices = []
        for menu in reversed(self.menus):
            index, k = divmod(index, len(menu))
            choices.append(menu[k])
        return tuple(choices[::-1])

    def action(self, action_id: int) -> ActionSpec:
        """One action, built from the choices its id names without listing the others."""
        return _combine(action_id, self.choices(action_id))


@dataclass(frozen=True)
class IndexSets:
    """Queues touched by each displacement shape across all actions.

    ``external`` holds queues where single jobs enter or leave the network;
    ``transfers`` holds (from_queue, to_queue) pairs of internal job moves.
    """

    external: frozenset[int]
    transfers: frozenset[tuple[int, int]]


def index_sets(net: NetworkSpec) -> IndexSets:
    external: set[int] = set()
    transfers: set[tuple[int, int]] = set()
    for pairs in net.displacements.values():
        if len(pairs) == 1:
            external.add(pairs[0][0])
        else:
            (i, x), (j, _) = pairs
            transfers.add((i, j) if x < 0 else (j, i))
    return IndexSets(frozenset(external), frozenset(transfers))


def _unit(n: int, k: int, sign: int) -> Displacement:
    d = [0] * n
    d[k] = sign
    return tuple(d)


def build_push_pull(lam1: RateLike, lam2: RateLike, mu1: RateLike, mu2: RateLike) -> NetworkSpec:
    """The two-server push-pull network: the ring of two servers, with its own action ids.

    Server 1 pushes stream 1 (rate lam1) or pulls queue 2 (rate mu2);
    server 2 pushes stream 2 (rate lam2) or pulls queue 1 (rate mu1).
    Four actions, one per pair of server choices, with ids 0 (push,push),
    1 (pull,pull), 2 (push,pull) and 3 (pull,push).
    """
    ring = build_ring([lam1, lam2], [mu1, mu2])
    return NetworkSpec(2, ring.menus, "pushpull", ring.meta, (0, 2, 3, 1))


def build_ring(lam: Sequence[RateLike], mu: Sequence[RateLike]) -> NetworkSpec:
    """A ring of M push-pull servers.

    Server i chooses between pushing stream i (displacement +e_i at rate
    lam[i]) and pulling stream i-1 (displacement -e_{i-1} at rate mu[i-1]),
    indices cyclic. One action per vector of server choices, 2^M total,
    listed with push before pull and server 0 varying slowest.
    """
    push = tuple(as_rate(x) for x in lam)
    pull = tuple(as_rate(x) for x in mu)
    if len(push) != len(pull):
        raise ConstructionError(
            f"push and pull rate vectors differ in length ({len(push)} vs {len(pull)})"
        )
    m = len(push)
    if m < 2:
        raise ConstructionError("a ring needs at least 2 servers")
    menus = tuple(
        (Choice("push", ((_unit(m, srv, 1), push[srv]),)),
         Choice("pull", ((_unit(m, (srv - 1) % m, -1), pull[(srv - 1) % m]),)))
        for srv in range(m)
    )
    return NetworkSpec(m, menus, "ring", RingMeta(push, pull))


def build_reentrant(
    streams: Sequence[Sequence[tuple[int, RateLike]]],
) -> NetworkSpec:
    """Two-server re-entrant lines.

    Each stream is a list of (server, rate) steps; step 0 generates jobs
    from an unlimited supply, step j >= 1 serves queue j of the stream, and
    the last step removes jobs from the network. Actions pair one server-1
    step with one server-2 step, so the action count is the product of the
    two servers' step counts.
    """
    parsed = []
    for i, stream in enumerate(streams):
        steps = []
        for j, (server, rate) in enumerate(stream):
            where = f"stream {i + 1} step {j}: server"
            server = check_int(server, where)
            if server not in (1, 2):
                raise ConstructionError(f"{where} must be 1 or 2, got {server!r}")
            steps.append((server, as_rate(rate)))
        if len(steps) < 2:
            raise ConstructionError(f"stream {i + 1} needs at least two steps")
        parsed.append(tuple(steps))
    if not parsed:
        raise ConstructionError("at least one stream is required")
    meta = ReentrantMeta(tuple(parsed))
    m = sum(meta.stream_lengths)

    def step_choice(i: int, j: int) -> Choice:
        """Step j >= 1 takes a job from queue j, and every step but the last feeds queue j + 1."""
        d = [0] * m
        if j:
            d[meta.queue_index(i, j)] = -1
        if j < meta.stream_lengths[i]:
            d[meta.queue_index(i, j + 1)] = 1
        return Choice(f"({i + 1},{j})", ((tuple(d), meta.op_rate(i, j)),))

    menus = []
    for server in (1, 2):
        ops = meta.server_operations(server)
        if not ops:
            raise ConstructionError(f"server {server} has no operations")
        menus.append(tuple(step_choice(i, j) for i, j in ops))
    return NetworkSpec(m, tuple(menus), "reentrant", meta)


def build_custom(
    n_queues: int,
    actions: Sequence[tuple[str, Sequence[tuple[Sequence[int], RateLike]]]],
) -> NetworkSpec:
    """A network given directly as a list of (label, outcomes) actions, checking every outcome."""
    n_queues = check_int(n_queues, "n_queues")
    if n_queues < 1:
        raise ConstructionError("a network needs at least one queue")
    if not actions:
        raise ConstructionError("a network needs at least one action")
    menu = []
    for label, outcomes in actions:
        if not isinstance(label, str):
            raise ConstructionError(f"an action label must be a string, got {label!r}")
        checked = tuple((check_displacement(d, n_queues), as_rate(r)) for d, r in outcomes)
        if not checked:
            raise ConstructionError(f"action {label!r} has no outcomes")
        menu.append(Choice(label, checked))
    return NetworkSpec(n_queues, (tuple(menu),), "custom", None)


# Illustrative layout of two re-entrant streams with 3 and 4 queues: the
# nine (server, step) assignments below place four operations on server 1
# and five on server 2, giving 20 actions over 7 queues.
TWO_STREAM_LAYOUT: tuple[tuple[int, ...], ...] = ((1, 2, 1, 2), (2, 1, 2, 1, 2))


def build_two_stream_example(
    rates: Sequence[Sequence[RateLike]] | None = None,
) -> NetworkSpec:
    """The 7-queue, 20-action two-stream re-entrant example network.

    ``rates[i][j]`` overrides the rate of step j of stream i; the default
    assignment is critical (each server carries one unit of mean work per
    job on every stream). The server layout is ``TWO_STREAM_LAYOUT``.
    """
    if rates is None:
        rates = (
            (1, 1, 1, 1),
            (Fraction(3, 2), 1, Fraction(3, 2), 1, Fraction(3, 2)),
        )
    try:  # strict zips raise ValueError on a length mismatch, in streams or in steps
        streams = [list(zip(layout, r, strict=True))
                   for layout, r in zip(TWO_STREAM_LAYOUT, rates, strict=True)]
    except ValueError:
        raise ConstructionError("rate list does not match the two-stream layout") from None
    return build_reentrant(streams)


def check_int(value: object, what: str) -> int:
    """``value`` as an int: Python and numpy integers pass, bools and floats do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConstructionError(f"{what} must be an integer, got {value!r}")


def check_state(z: Sequence[int], n_queues: int | None = None) -> State:
    """``z`` as a tuple of ints, none negative, of length ``n_queues`` if given."""
    try:
        entries = tuple(z)
    except TypeError:
        raise ConstructionError(f"a state must be a sequence of queue lengths, got {z!r}") from None
    state = tuple(check_int(x, "a queue length") for x in entries)
    if n_queues is not None and len(state) != n_queues:
        raise ConstructionError(f"state {state} has length {len(state)}, expected {n_queues}")
    if any(x < 0 for x in state):
        raise ConstructionError(f"state {state} has a negative queue length")
    return state


def check_alpha(alpha: Sequence[Fraction | int], n_queues: int) -> tuple[Fraction, ...]:
    """``alpha`` as exact rationals: a weight per queue, not all zero."""
    vec = tuple(Fraction(x) for x in alpha)
    if len(vec) != n_queues:
        raise ConstructionError(f"alpha has length {len(vec)}, expected {n_queues}")
    if not any(vec):
        raise ConstructionError("alpha must be nonzero")
    return vec


def available_actions(net: NetworkSpec, z: Sequence[int]) -> set[int]:
    """Ids of the actions that can fire at state z.

    An action is available iff every queue it may decrement is nonempty,
    so no outcome can leave the nonnegative orthant.
    """
    state = check_state(z, net.n_queues)
    actions = map(net.action, range(net.listable_actions()))
    return {a.id for a in actions if all(state[k] >= 1 for k in a.drains)}


def transition_distribution(
    net: NetworkSpec, action_id: int
) -> list[tuple[Displacement, Fraction]]:
    """The action's displacement distribution, probabilities exact and summing to 1."""
    act = net.action(action_id)
    return [(d, rate / act.total_rate) for d, rate in act.outcomes]


# ---------------------------------------------------------------------------
# Spec files: UTF-8 JSON documents describing a network.

def _require_fields(obj: dict, names: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{where} must be an object")
    unknown = sorted(set(obj) - names)
    if unknown:
        raise SpecFileError(f"unknown field {unknown[0]!r} in {where}")
    missing = sorted(names - set(obj))
    if missing:
        raise SpecFileError(f"missing field {missing[0]!r} in {where}")


def _rate_field(value: object, where: str) -> Fraction:
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise SpecFileError(f"{where} must be an integer or 'num/den' string")
    try:
        return as_rate(value)
    except ConstructionError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def _rate_list(value: object, where: str, length: int | None = None) -> list[Fraction]:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        need = f" of length {length}" if length is not None else ""
        raise SpecFileError(f"{where} must be a list{need}")
    return [_rate_field(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice, which ``dict`` would overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise SpecFileError(f"repeated field {repeated!r}")
    return obj


def loads_spec(text: str) -> NetworkSpec:
    """Parse a network spec document from a JSON string."""
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except SpecFileError:
        raise
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SpecFileError("invalid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:  # an integer literal beyond the int conversion digit limit
        raise SpecFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("top level must be an object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise SpecFileError(f"field 'family' must be one of {list(FAMILIES)}, got {family!r}")
    try:
        if family in ("pushpull", "ring"):
            _require_fields(doc, {"family", "lambda", "mu"}, "document")
            length = 2 if family == "pushpull" else None
            lam = _rate_list(doc["lambda"], "'lambda'", length)
            mu = _rate_list(doc["mu"], "'mu'", length)
            if len(lam) != len(mu) or len(lam) < 2:
                raise SpecFileError("'lambda' and 'mu' must have equal lengths >= 2")
            return build_ring(lam, mu) if family == "ring" else build_push_pull(*lam, *mu)
        if family == "reentrant":
            _require_fields(doc, {"family", "streams"}, "document")
            if not isinstance(doc["streams"], list) or not doc["streams"]:
                raise SpecFileError("'streams' must be a nonempty list")
            streams = []
            for i, stream in enumerate(doc["streams"]):
                if not isinstance(stream, list):
                    raise SpecFileError(f"streams[{i}] must be a list of operations")
                ops = []
                for j, op in enumerate(stream):
                    where = f"streams[{i}][{j}]"
                    _require_fields(op, {"server", "rate"}, where)
                    server = op["server"]
                    if type(server) is not int or server not in (1, 2):
                        raise SpecFileError(f"{where}.server must be 1 or 2")
                    ops.append((server, _rate_field(op["rate"], f"{where}.rate")))
                streams.append(ops)
            return build_reentrant(streams)
        # custom
        _require_fields(doc, {"family", "M", "actions"}, "document")
        m = doc["M"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise SpecFileError("'M' must be a positive integer")
        if not isinstance(doc["actions"], list) or not doc["actions"]:
            raise SpecFileError("'actions' must be a nonempty list")
        actions = []
        for i, entry in enumerate(doc["actions"]):
            where = f"actions[{i}]"
            _require_fields(entry, {"label", "outcomes"}, where)
            if not isinstance(entry["label"], str):
                raise SpecFileError(f"{where}.label must be a string")
            if not isinstance(entry["outcomes"], list) or not entry["outcomes"]:
                raise SpecFileError(f"{where}.outcomes must be a nonempty list")
            outcomes = []
            for j, outcome in enumerate(entry["outcomes"]):
                owhere = f"{where}.outcomes[{j}]"
                _require_fields(outcome, {"disp", "rate"}, owhere)
                disp = outcome["disp"]
                if not isinstance(disp, list) or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in disp
                ):
                    raise SpecFileError(f"{owhere}.disp must be a list of integers")
                outcomes.append((disp, _rate_field(outcome["rate"], f"{owhere}.rate")))
            actions.append((entry["label"], outcomes))
        return build_custom(m, actions)
    except ConstructionError as exc:
        raise SpecFileError(str(exc)) from exc


def load_spec(path: str | Path) -> NetworkSpec:
    """Load a network spec document from a file."""
    return loads_spec(Path(path).read_text(encoding="utf-8"))


def spec_document(net: NetworkSpec) -> dict:
    """Export any network as a custom-family spec document."""
    return {
        "family": "custom",
        "M": net.n_queues,
        "actions": [
            {
                "label": act.label,
                "outcomes": [
                    {"disp": list(d), "rate": format_rational(rate)} for d, rate in act.outcomes
                ],
            }
            for act in map(net.action, range(net.listable_actions()))
        ],
    }


def dump_spec(net: NetworkSpec) -> str:
    """Serialize a network as a loadable custom-family JSON document."""
    return json.dumps(spec_document(net), indent=2)
