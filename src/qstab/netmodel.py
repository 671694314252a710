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
under its own action ids. Each builder checks every value it is given and
names a bad one by its path in a spec document. All rates are exact
rationals; this module never touches floating point.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
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


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")  # int() also reads "1_2" and "١٢"


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into an exact Fraction: ASCII digits, a
    sign only on num, whitespace only around the whole."""
    match = _RATIONAL.fullmatch(text)
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (TypeError, ValueError, ZeroDivisionError):  # no match, too many digits, or "1/0"
        raise ConstructionError(f"not a rational number: {text!r}") from None


def format_rational(q: Fraction) -> str:
    """Render a rational as ``"num/den"``, omitting the denominator when 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(n: int, d: int) -> str:
    """``format_rational(Fraction(n, d))`` of ints n and d >= 1, straight from the ints."""
    g = gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def as_rate(value: RateLike) -> Fraction:
    """Validate and normalize a processing rate (must be a positive rational)."""
    if isinstance(value, bool):
        raise ConstructionError(f"rate must be a positive rational, got {value!r}")
    if isinstance(value, str):
        q = parse_rational(value)
    elif isinstance(value, (int, Fraction)):
        q = Fraction(value)
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
class Choice:
    """A label and its outcomes, each a unit displacement with a positive rate:
    one entry of a server's menu, or a whole action as :meth:`NetworkSpec.action`
    builds it from its id, outcomes merged and sorted by displacement (the
    simulator's sampling order). Nothing here checks the outcomes:
    :func:`build_custom` checks outside input, and the family builders
    construct only valid ones. ``drains`` holds the queues some outcome
    decrements, which must be nonempty for the choice to be available.
    """

    label: str
    outcomes: tuple[tuple[Displacement, Fraction], ...]

    @cached_property
    def drains(self) -> frozenset[int]:
        return frozenset(d.index(-1) for d, _ in self.outcomes if -1 in d)


def _combine(choices: Sequence[Choice]) -> Choice:
    """The action taking one choice per server, merging duplicate displacements by summing rates."""
    label = choices[0].label if len(choices) == 1 else (
        "(" + ",".join(c.label for c in choices) + ")"
    )
    merged: dict[Displacement, Fraction] = {}
    for choice in choices:
        for d, r in choice.outcomes:
            merged[d] = merged[d] + r if d in merged else r
    return Choice(label, tuple(sorted(merged.items())))


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
        distinct = sorted({d for menu in self.menus for choice in menu for d, _ in choice.outcomes})
        return {d: tuple((k, x) for k, x in enumerate(d) if x) for d in distinct}

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Every outcome rate of the menus, server by server, choice by choice, as an
        integer over the least common denominator of them all; built on first use.
        An action's outcome probabilities are its outcomes' weights over their sum."""
        return tuple(integer_weights(r for menu in self.menus for c in menu for _, r in c.outcomes))

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

    def action(self, action_id: int) -> Choice:
        """One action, built from the choices its id names without listing the others."""
        return _combine(self.choices(action_id))


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


def _each(check, values: Iterable, where: str, *index: int) -> tuple:
    """``check`` of each value. An error names the value's path as
    ``where.format(*index, i)``, formatted only then, never per value."""
    checked = []
    try:
        for i, x in enumerate(values):
            checked.append(check(x))
    except ConstructionError as exc:
        raise ConstructionError(f"{where.format(*index, i)}: {exc}") from None
    return tuple(checked)


def build_push_pull(lam1: RateLike, lam2: RateLike, mu1: RateLike, mu2: RateLike) -> NetworkSpec:
    """The two-server push-pull network: the ring of two servers, with its own action ids.

    Server 1 pushes stream 1 (rate lam1) or pulls queue 2 (rate mu2);
    server 2 pushes stream 2 (rate lam2) or pulls queue 1 (rate mu1).
    Four actions, one per pair of server choices, with ids 0 (push,push),
    1 (pull,pull), 2 (push,pull) and 3 (pull,push). Errors name lam1 ``lambda[0]``, and so on.
    """
    ring = build_ring([lam1, lam2], [mu1, mu2])
    return NetworkSpec(2, ring.menus, "pushpull", ring.meta, (0, 2, 3, 1))


def build_ring(lam: Sequence[RateLike], mu: Sequence[RateLike]) -> NetworkSpec:
    """A ring of M push-pull servers.

    Server i chooses between pushing stream i (displacement +e_i at rate
    lam[i]) and pulling stream i-1 (displacement -e_{i-1} at rate mu[i-1]),
    indices cyclic. One action per vector of server choices, 2^M total,
    listed with push before pull and server 0 varying slowest. A bad rate
    is named by its index, ``lambda[i]: ...`` or ``mu[i]: ...``.
    """
    push, pull = _each(as_rate, lam, "lambda[{}]"), _each(as_rate, mu, "mu[{}]")
    if len(push) != len(pull):
        raise ConstructionError(f"lambda and mu differ in length ({len(push)} vs {len(pull)})")
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
    two servers' step counts. An error names its step by 0-based indices,
    as in a spec file: ``streams[i][j].server`` or ``streams[i][j].rate``.
    """
    parsed = []
    for i, stream in enumerate(streams):
        steps = []
        for j, (server, rate) in enumerate(stream):
            if type(server) is not int or server not in (1, 2):  # a bool is an int, but no server
                where = f"streams[{i}][{j}].server"
                server = check_int(server, where)
                if server not in (1, 2):
                    raise ConstructionError(f"{where} must be 1 or 2, got {server!r}")
            try:
                steps.append((server, as_rate(rate)))
            except ConstructionError as exc:
                raise ConstructionError(f"streams[{i}][{j}].rate: {exc}") from None
        if len(steps) < 2:
            raise ConstructionError(f"streams[{i}] needs at least two steps")
        parsed.append(tuple(steps))
    if not parsed:
        raise ConstructionError("at least one stream is required")
    meta = ReentrantMeta(tuple(parsed))
    m = sum(meta.stream_lengths)
    # One pass in (stream, step) order, the order of server_operations. Step
    # j >= 1 takes a job from queue j, and every step but the last feeds queue j + 1.
    menus: tuple[list[Choice], list[Choice]] = ([], [])
    for i, stream in enumerate(parsed):
        last = len(stream) - 1
        for j, (server, rate) in enumerate(stream):
            d = [0] * m
            if j:
                d[meta.queue_index(i, j)] = -1
            if j < last:
                d[meta.queue_index(i, j + 1)] = 1
            menus[server - 1].append(Choice(f"({i + 1},{j})", ((tuple(d), rate),)))
    for server, menu in enumerate(menus, 1):
        if not menu:
            raise ConstructionError(f"server {server} has no operations")
    return NetworkSpec(m, tuple(map(tuple, menus)), "reentrant", meta)


def _outcome(disp: Sequence[int], rate: RateLike, n_queues: int) -> tuple[Displacement, Fraction]:
    return check_displacement(disp, n_queues), as_rate(rate)


def build_custom(
    n_queues: int,
    actions: Sequence[tuple[str, Sequence[tuple[Sequence[int], RateLike]]]],
) -> NetworkSpec:
    """A network given directly as a list of (label, outcomes) actions, checking every
    outcome. Errors say ``M`` for n_queues and name entries as ``actions[i].outcomes[j]``."""
    n_queues = check_int(n_queues, "M")
    if n_queues < 1:
        raise ConstructionError(f"M must be a positive integer, got {n_queues}")
    if not actions:
        raise ConstructionError("a network needs at least one action")
    menu = []
    for i, (label, outcomes) in enumerate(actions):
        if not isinstance(label, str):
            raise ConstructionError(f"actions[{i}].label must be a string, got {label!r}")
        checked = _each(lambda pair: _outcome(*pair, n_queues), outcomes,
                        "actions[{}].outcomes[{}]", i)
        if not checked:
            raise ConstructionError(f"actions[{i}] has no outcomes")
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


def check_alpha(alpha: Sequence[Fraction | int | str], n_queues: int) -> tuple[Fraction, ...]:
    """``alpha`` as exact rationals, not all zero: per queue an int (Python or numpy, not a
    bool), a Fraction or a :func:`parse_rational` string, named ``alpha[k]`` in errors."""
    try:
        weights = tuple(alpha)
    except TypeError:
        raise ConstructionError(f"alpha must be a sequence of weights, got {alpha!r}") from None
    vec = _each(lambda x: x if isinstance(x, Fraction) else parse_rational(x) if isinstance(x, str)
                else Fraction(check_int(x, "a weight")), weights, "alpha[{}]")
    if len(vec) != n_queues:
        raise ConstructionError(f"alpha has length {len(vec)}, expected {n_queues}")
    if not any(vec):
        raise ConstructionError("alpha must be nonzero")
    return vec


def available_actions(net: NetworkSpec, z: Sequence[int]) -> set[int]:
    """Ids of the actions that can fire at state z.

    An action is available iff every queue it may decrement is nonempty,
    so no outcome can leave the nonnegative orthant; that is, iff each of
    its choices is. The ids are read from the menus, and no action is built.
    """
    state = check_state(z, net.n_queues)
    net.listable_actions()
    indices = [0]  # mixed-radix indices of the available choice vectors so far
    for menu in net.menus:
        ready = [k for k, c in enumerate(menu) if all(state[q] for q in c.drains)]
        indices = [i * len(menu) + k for i in indices for k in ready]
    return set(indices) if net.ids is None else {net.ids[i] for i in indices}


def transition_distribution(
    net: NetworkSpec, action_id: int
) -> list[tuple[Displacement, Fraction]]:
    """The action's displacement distribution, probabilities exact and summing to 1."""
    outcomes = net.action(action_id).outcomes
    total = sum(rate for _, rate in outcomes)
    return [(d, rate / total) for d, rate in outcomes]


# ---------------------------------------------------------------------------
# Spec files: UTF-8 JSON documents describing a network.

def _require_fields(obj: dict, names: set[str], where: str, *index: int) -> None:
    if isinstance(obj, dict) and obj.keys() == names:
        return
    where = where.format(*index)
    if not isinstance(obj, dict):
        raise SpecFileError(f"{where} must be an object")
    for problem, keys in (("unknown", obj.keys() - names), ("missing", names - obj.keys())):
        if keys:
            raise SpecFileError(f"{problem} field {min(keys)!r} in {where}")


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice, which ``dict`` would overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise SpecFileError(f"repeated field {repeated!r}")
    return obj


def _list(value: object, where: str, *index: int) -> list:
    if not isinstance(value, list):
        raise SpecFileError(f"{where.format(*index)} must be a list")
    return value


def loads_spec(text: str) -> NetworkSpec:
    """Parse a network spec document from a JSON string.

    Only the document's shape is checked here: JSON syntax, the family, objects
    with exactly their fields, lists where lists belong, two push-pull rates
    each. The builder checks every value, naming it by its path in the document.
    """
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
            lam, mu = _list(doc["lambda"], "'lambda'"), _list(doc["mu"], "'mu'")
            if family == "pushpull" and not len(lam) == len(mu) == 2:
                raise SpecFileError("'lambda' and 'mu' must be lists of length 2")
            return build_ring(lam, mu) if family == "ring" else build_push_pull(*lam, *mu)
        if family == "reentrant":
            _require_fields(doc, {"family", "streams"}, "document")
            streams = []
            for i, stream in enumerate(_list(doc["streams"], "'streams'")):
                ops = []
                for j, op in enumerate(_list(stream, "streams[{}]", i)):
                    _require_fields(op, {"server", "rate"}, "streams[{}][{}]", i, j)
                    ops.append((op["server"], op["rate"]))
                streams.append(ops)
            return build_reentrant(streams)
        _require_fields(doc, {"family", "M", "actions"}, "document")
        actions = []
        for i, entry in enumerate(_list(doc["actions"], "'actions'")):
            _require_fields(entry, {"label", "outcomes"}, "actions[{}]", i)
            outcomes = []
            for j, outcome in enumerate(_list(entry["outcomes"], "actions[{}].outcomes", i)):
                _require_fields(outcome, {"disp", "rate"}, "actions[{}].outcomes[{}]", i, j)
                disp = _list(outcome["disp"], "actions[{}].outcomes[{}].disp", i, j)
                outcomes.append((disp, outcome["rate"]))
            actions.append((entry["label"], outcomes))
        return build_custom(doc["M"], actions)
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
