"""Seeded workloads: spec documents and the CLI operations run on them.

A workload is a list of specs (JSON documents written to files) and a list
of operations, each one argv for ``qstab.cli.run``. Everything is derived
from the workload seed: it seeds the spec generator and is passed as
``--seed`` to every simulation verb, so the same seed gives the same inputs
and the same reports. README.md says why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import full_rank

WORKLOADS = ("certify-mix", "sim-ring8", "sim-reentrant", "sim-pushpull")

SIM_VERBS = ("simulate", "return-time", "martingale", "blowup")

# Server layout of the two-stream re-entrant example (7 queues, 20 actions).
TWO_STREAM_LAYOUT = ((1, 2, 1, 2), (2, 1, 2, 1, 2))


@dataclass(frozen=True)
class Spec:
    """One generated network document with the verdict theory predicts.

    ``expect`` is "non-stabilizable" or "inconclusive"; an inconclusive
    expectation always means full rank here, which is what makes it a
    theorem rather than a recorded outcome.
    """

    name: str
    cls: str
    doc: dict
    expect: str


@dataclass(frozen=True)
class Op:
    """One CLI operation. ``argv[1]`` is a spec name until it is bound to a path."""

    name: str
    argv: tuple[str, ...]
    spec: str

    @property
    def verb(self) -> str:
        return self.argv[0]

    @property
    def is_sim(self) -> bool:
        return self.verb in SIM_VERBS


@dataclass
class Workload:
    name: str
    seed: int
    specs: list[Spec] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    warmup: Op | None = None

    def write_specs(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for spec in self.specs:
            path = directory / f"{spec.name}.json"
            path.write_text(json.dumps(spec.doc, indent=1), encoding="utf-8")
            paths[spec.name] = path
        return paths

    def spec(self, name: str) -> Spec:
        return next(s for s in self.specs if s.name == name)


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rate(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(1, 9), rnd.randint(1, 9))


# Ring rates are a seeded permutation of the first M entries of this list,
# so every seed does the same amount of Fraction arithmetic per ring size
# (rings hold both latency percentiles); other specs take random rates.
RATE_POOL = tuple(Fraction(x) for x in
                  ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "3/4", "4/3", "5/2", "2/5", "5/3"))


def _pool_rates(rnd: random.Random, m: int) -> list[Fraction]:
    return rnd.sample(RATE_POOL[:m], m)


def _other_rate(rnd: random.Random, rate: Fraction) -> Fraction:
    while True:
        other = _rate(rnd)
        if other != rate:
            return other


def pushpull_doc(lam, mu) -> dict:
    return {"family": "pushpull", "lambda": [_q(Fraction(x)) for x in lam],
            "mu": [_q(Fraction(x)) for x in mu]}


def ring_doc(lam, mu) -> dict:
    return {"family": "ring", "lambda": [_q(Fraction(x)) for x in lam],
            "mu": [_q(Fraction(x)) for x in mu]}


def two_stream_doc(rates) -> dict:
    return {"family": "reentrant", "streams": [
        [{"server": s, "rate": _q(Fraction(r))} for s, r in zip(layout, stream)]
        for layout, stream in zip(TWO_STREAM_LAYOUT, rates, strict=True)
    ]}


def swap_doc(k: int, rnd: random.Random) -> dict:
    """k queues, one action per pair i<j moving a job i->j or j->i at equal rates.

    Every action has zero drift, so D = 0 and the null space is all of Q^k;
    a certificate is any alpha with pairwise distinct entries.
    """
    actions = []
    for i in range(k):
        for j in range(i + 1, k):
            rate = _q(_rate(rnd))
            fwd = [0] * k
            fwd[i], fwd[j] = -1, 1
            back = [0] * k
            back[i], back[j] = 1, -1
            actions.append({"label": f"swap{i}{j}", "outcomes": [
                {"disp": fwd, "rate": rate}, {"disp": back, "rate": rate}]})
    return {"family": "custom", "M": k, "actions": actions}


def critical_two_stream_rates(rnd: random.Random):
    """Two-stream rates with equal mean work per job on both servers, solved exactly."""

    def frac() -> Fraction:
        return Fraction(rnd.randint(2, 9), rnd.randint(1, 4))

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


def _is_critical_two_stream(rates) -> bool:
    for layout, stream in zip(TWO_STREAM_LAYOUT, rates):
        work = {1: Fraction(0), 2: Fraction(0)}
        for server, rate in zip(layout, stream):
            work[server] += 1 / Fraction(rate)
        if work[1] != work[2]:
            return False
    return True


# ---------------------------------------------------------------------------
# certify-mix

# Sizes of the certify-mix batch. The "large" class (critical rings M=8)
# holds the 90th percentile of per-spec latency: only ring-10, ring-12,
# swap-6 and the two swap-5 specs are slower, fewer than a tenth of the batch.
MIX_COUNTS = {
    "pushpull-critical": 14,
    "pushpull-noncritical": 14,
    "ring-even-critical": 16,   # M = 2, 4, 6
    "ring-odd": 16,             # M = 3, 5, 7, critical or not
    "reentrant-critical": 10,
    "reentrant-noncritical": 8,
    "export-ring-critical": 6,  # dump_spec of critical rings M = 4, 6
    "swap": 5,                  # k = 4, 4, 4, 5, 5
    "ring-large": 14,           # critical M = 8
}
MIX_SIM_ARGS = ("--trials", "1000", "--steps", "200")


def _certify_mix_specs(rnd: random.Random) -> list[Spec]:
    from qstab.netmodel import build_ring, dump_spec

    specs: list[Spec] = []

    def add(cls: str, doc: dict, expect: str) -> None:
        specs.append(Spec(f"{cls}-{len(specs):03d}", cls, doc, expect))

    for _ in range(MIX_COUNTS["pushpull-critical"]):
        lam = [_rate(rnd), _rate(rnd)]
        add("pushpull-critical", pushpull_doc(lam, lam), "non-stabilizable")
    for _ in range(MIX_COUNTS["pushpull-noncritical"]):
        lam = [_rate(rnd), _rate(rnd)]
        mu = [_other_rate(rnd, lam[0]), _other_rate(rnd, lam[1])]
        add("pushpull-noncritical", pushpull_doc(lam, mu), "inconclusive")
    for n in range(MIX_COUNTS["ring-even-critical"]):
        lam = _pool_rates(rnd, (2, 4, 6)[n % 3])
        add("ring-even-critical", ring_doc(lam, lam), "non-stabilizable")
    for n in range(MIX_COUNTS["ring-odd"]):
        m = (3, 5, 7)[n % 3]
        lam = _pool_rates(rnd, m)
        mu = lam if n % 2 == 0 else _pool_rates(rnd, m)
        add("ring-odd", ring_doc(lam, mu), "inconclusive")
    for _ in range(MIX_COUNTS["reentrant-critical"]):
        add("reentrant-critical", two_stream_doc(critical_two_stream_rates(rnd)),
            "non-stabilizable")
    for _ in range(MIX_COUNTS["reentrant-noncritical"]):
        while True:
            rates = [[_rate(rnd) for _ in layout] for layout in TWO_STREAM_LAYOUT]
            doc = two_stream_doc(rates)
            # Theory decides only the full-rank case, so draw until D has full rank.
            if not _is_critical_two_stream(rates) and full_rank(doc):
                break
        add("reentrant-noncritical", doc, "inconclusive")
    for n in range(MIX_COUNTS["export-ring-critical"]):
        lam = _pool_rates(rnd, (4, 6)[n % 2])
        doc = json.loads(dump_spec(build_ring(lam, lam)))
        add("export-ring-critical", doc, "non-stabilizable")
    for n in range(MIX_COUNTS["swap"]):
        add("swap", swap_doc((4, 4, 4, 5, 5)[n], rnd), "non-stabilizable")
    for _ in range(MIX_COUNTS["ring-large"]):
        lam = _pool_rates(rnd, 8)
        add("ring-large", ring_doc(lam, lam), "non-stabilizable")
    lam = _pool_rates(rnd, 10)
    specs.append(Spec("ring10-critical", "heavy", ring_doc(lam, lam), "non-stabilizable"))
    lam = _pool_rates(rnd, 12)
    specs.append(Spec("ring12-critical", "heavy", ring_doc(lam, lam), "non-stabilizable"))
    specs.append(Spec("swap6", "heavy", swap_doc(6, rnd), "non-stabilizable"))
    # Unit-rate networks for the corroboration runs, so their dynamics (and
    # simulation throughput) do not depend on the seed's rates.
    specs.append(Spec("pushpull-unit", "pushpull-critical", pushpull_doc([1, 1], [1, 1]),
                      "non-stabilizable"))
    specs.append(Spec("ring4-unit", "ring-even-critical", ring_doc([1] * 4, [1] * 4),
                      "non-stabilizable"))
    return specs


def _certify_mix(seed: int) -> Workload:
    rnd = random.Random(seed)
    wl = Workload("certify-mix", seed, _certify_mix_specs(rnd))
    order = list(wl.specs)
    rnd.shuffle(order)
    certify = [Op(f"certify:{s.name}", ("certify", s.name, "--format", "json"), s.name)
               for s in order]
    # Martingale runs back up two verdicts (~7% of a pass). They are spread
    # over the pass, so their throughput is not measured in one host regime.
    rounds = 3
    cut = len(certify) // rounds
    for k in range(rounds):
        wl.ops += certify[k * cut:(k + 1) * cut if k < rounds - 1 else None]
        for spec in (wl.spec("pushpull-unit"), wl.spec("ring4-unit")):
            wl.ops.append(Op(f"martingale:{spec.name}:{k}",
                             ("martingale", spec.name, *MIX_SIM_ARGS, "--seed", str(seed),
                              "--format", "json"), spec.name))
    wl.warmup = Op("warmup", ("certify", wl.specs[0].name, "--format", "json"), wl.specs[0].name)
    return wl


# ---------------------------------------------------------------------------
# simulation workloads: fixed networks, seeded simulation


def _sim(name: str, seed: int, spec: Spec, certifies: int, runs) -> Workload:
    """Certify the network ``certifies`` times, then run the simulation verbs.

    The repeated certify gives the certify latency enough samples per run;
    repeats must report identical bytes like every other repeat.
    """
    wl = Workload(name, seed, [spec])
    for k in range(certifies):
        wl.ops.append(Op(f"certify:{spec.name}:{k}", ("certify", spec.name, "--format", "json"),
                         spec.name))
    for label, verb, args in runs:
        wl.ops.append(Op(f"{verb}:{label}", (verb, spec.name, *args, "--seed", str(seed),
                                             "--format", "json"), spec.name))
    wl.warmup = Op("warmup", ("certify", spec.name, "--format", "json"), spec.name)
    return wl


def _sim_ring8(seed: int) -> Workload:
    spec = Spec("ring8", "ring-even-critical", ring_doc([1] * 8, [1] * 8), "non-stabilizable")
    alpha = ",".join(["1", "-1"] * 4)
    x0 = ",".join(["1"] + ["0"] * 7)
    return _sim("sim-ring8", seed, spec, 5, [
        ("pull-priority", "martingale",
         ("--policy", "pull-priority", "--alpha", alpha, "--trials", "1000", "--steps", "100")),
        ("pull-priority", "blowup",
         ("--policy", "pull-priority", "--x0", x0, "--trials", "1000", "--steps", "100")),
        ("push-priority", "simulate",
         ("--policy", "push-priority", "--trials", "2000", "--steps", "200")),
    ])


def _sim_reentrant(seed: int) -> Workload:
    rates = ((1, 1, 1, 1), (Fraction(3, 2), 1, Fraction(3, 2), 1, Fraction(3, 2)))
    spec = Spec("two-stream", "reentrant-critical", two_stream_doc(rates), "non-stabilizable")
    return _sim("sim-reentrant", seed, spec, 3, [
        ("pull-priority", "simulate",
         ("--policy", "pull-priority", "--trials", "200", "--steps", "100")),
        ("push-priority", "martingale",
         ("--policy", "push-priority", "--trials", "400", "--steps", "100")),
    ])


def _sim_pushpull(seed: int) -> Workload:
    spec = Spec("pushpull", "pushpull-critical", pushpull_doc([1, 1], [1, 1]), "non-stabilizable")
    steps = ("--trials", "2000", "--steps", "150")
    return _sim("sim-pushpull", seed, spec, 5, [
        ("pull-priority", "martingale", ("--policy", "pull-priority", *steps)),
        ("push-priority", "martingale", ("--policy", "push-priority", *steps)),
        ("threshold-2", "martingale", ("--policy", "threshold:2", *steps)),
        ("pull-priority", "return-time",
         ("--policy", "pull-priority", "--trials", "2000", "--cap", "1000")),
    ])


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``."""
    return {"certify-mix": _certify_mix, "sim-ring8": _sim_ring8,
            "sim-reentrant": _sim_reentrant, "sim-pushpull": _sim_pushpull}[name](seed)
