"""Spans around calls into qstab's public functions, recorded from outside.

``Tracer.installed()`` replaces module attributes with timing wrappers for
the duration of one traced operation and restores them afterwards. Functions
inside a module look up their callees as module globals, so the wrappers
also see internal calls (``certify_nonstabilizable`` -> ``drift_matrix``).
A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of
the enclosing span or -1, ``op`` the operation id, and ``n`` a work count
(actions built, matrix entries eliminated) or 0.

Policy calls are too many for one span each (the per-row re-entrant
resolvers run once per trial-step), so the wrapped ``Policy`` accumulates
time and counts per operation instead.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from qstab import certify, cli, netmodel, simulate

SIM_FUNCTIONS = ("run_trajectories", "estimate_return_time", "martingale_test", "blowup_probe")


@dataclasses.dataclass
class PolicyStats:
    """Time inside one operation's policy, and what it decided."""

    seconds: float = 0.0
    calls: int = 0
    rows: int = 0
    batch_outputs: list = dataclasses.field(default_factory=list)
    row_outputs: list = dataclasses.field(default_factory=list)

    def distinct_per_step(self, rows_per_step: int) -> tuple[int, int]:
        """(decisions, total distinct action ids) over lockstep steps.

        A batch chooser is called once per step on the active trials. A
        per-row resolver is called once per trial in trial order, so for a
        fixed-length run every ``rows_per_step`` calls make up one step.
        """
        steps = [len(np.unique(out)) for out in self.batch_outputs]
        ids = self.row_outputs
        steps += [len(set(ids[k:k + rows_per_step])) for k in range(0, len(ids), rows_per_step)]
        return len(steps), sum(steps)


def wrap_policy(policy: simulate.Policy, stats: PolicyStats) -> simulate.Policy:
    """The same policy with its calls timed; ``choose_batch`` stays None if it was."""
    resolve, choose = policy.resolve, policy.choose_batch

    def timed_resolve(z):
        t = perf_counter()
        a = resolve(z)
        stats.seconds += perf_counter() - t
        stats.calls += 1
        stats.rows += 1
        stats.row_outputs.append(a)
        return a

    def timed_choose(states):
        t = perf_counter()
        out = choose(states)
        stats.seconds += perf_counter() - t
        stats.calls += 1
        stats.rows += len(states)
        stats.batch_outputs.append(out)
        return out

    return dataclasses.replace(policy, resolve=timed_resolve,
                               choose_batch=None if choose is None else timed_choose)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.policy: dict[int, PolicyStats] = {}
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[5] = count(args, result)
            return result
        return wrapper

    def _make_policy(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("simulate.make_policy"):
                policy = fn(*args, **kwargs)
            return wrap_policy(policy, self.policy.setdefault(self.op, PolicyStats()))
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the public functions with span wrappers; always restore them."""

        def entries(args, _):  # L x M entries of the drift matrix eliminated
            return args[0].n_actions * args[0].n_queues

        patches = [
            (netmodel, "load_spec", self._wrap("netmodel.load_spec", netmodel.load_spec,
                                               lambda _, net: net.n_actions)),
            (certify, "certify_nonstabilizable",
             self._wrap("certify.certify", certify.certify_nonstabilizable)),
            (certify, "drift_matrix", self._wrap("certify.drift_matrix", certify.drift_matrix)),
            (certify, "family_alpha", self._wrap("certify.family_alpha", certify.family_alpha)),
            (certify, "rank", self._wrap("exactla.rank", certify.rank, entries)),
            (certify, "null_space_basis",
             self._wrap("exactla.null_space", certify.null_space_basis, entries)),
            (cli, "render_json", self._wrap("jsonio.render", cli.render_json)),
            (simulate, "make_policy", self._make_policy(simulate.make_policy)),
        ]
        patches += [(simulate, fn, self._wrap("simulate.verb", getattr(simulate, fn)))
                    for fn in SIM_FUNCTIONS]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "op", "n"], "spans": self.spans}
        doc.update(extra)
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t
