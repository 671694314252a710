"""Report checks that do not trust the program.

The certificate checker rebuilds every network from its spec document's
own rationals, following the model definitions in the README, and never
imports ``qstab.certify``: an emitted alpha must satisfy D alpha = 0
exactly and move alpha'X under every action, the reported rank must match
an independent elimination, and the verdict must be the one theory
predicts for the spec's class. Simulation reports are checked against
invariants that hold for every seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd

Outcomes = list[tuple[tuple[int, ...], Fraction]]


def _rat(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _unit(m: int, k: int, sign: int) -> tuple[int, ...]:
    d = [0] * m
    d[k] = sign
    return tuple(d)


def expand(doc: dict) -> tuple[int, list[Outcomes]]:
    """Queue count and per-action outcome lists of a spec document."""
    family = doc["family"]
    if family in ("pushpull", "ring"):
        # Server i pushes stream i (+e_i at lambda_i) or pulls stream i-1
        # (-e_{i-1} at mu_{i-1}); one action per vector of choices.
        lam = [_rat(x) for x in doc["lambda"]]
        mu = [_rat(x) for x in doc["mu"]]
        m = len(lam)
        actions = []
        for bits in range(1 << m):
            outs = []
            for srv in range(m):
                if bits >> (m - 1 - srv) & 1:
                    q = (srv - 1) % m
                    outs.append((_unit(m, q, -1), mu[q]))
                else:
                    outs.append((_unit(m, srv, 1), lam[srv]))
            actions.append(outs)
        return m, actions
    if family == "reentrant":
        # Step 0 of a stream feeds its first queue from the supply, step j
        # moves a job from queue j to j+1, the last step removes it. An
        # action pairs one server-1 step with one server-2 step.
        streams = [[(op["server"], _rat(op["rate"])) for op in s] for s in doc["streams"]]
        first, m = [], 0
        for s in streams:
            first.append(m)
            m += len(s) - 1
        steps = {1: [], 2: []}
        for i, s in enumerate(streams):
            n = len(s) - 1
            for j, (server, rate) in enumerate(s):
                d = [0] * m
                if j > 0:
                    d[first[i] + j - 1] -= 1
                if j < n:
                    d[first[i] + j] += 1
                steps[server].append((tuple(d), rate))
        return m, [[a, b] for a in steps[1] for b in steps[2]]
    m = doc["M"]
    return m, [[(tuple(o["disp"]), _rat(o["rate"])) for o in a["outcomes"]]
               for a in doc["actions"]]


def _integer_drift_rows(actions: list[Outcomes], m: int) -> list[list[int]]:
    """Rows proportional to each action's drift, scaled to integers."""
    rows = []
    for outs in actions:
        row = [Fraction(0)] * m
        for d, rate in outs:
            for k, x in enumerate(d):
                if x:
                    row[k] += x * rate
        mult = math.lcm(*(f.denominator for f in row))
        rows.append([int(f * mult) for f in row])
    return rows


def exact_rank(actions: list[Outcomes], m: int) -> int:
    """Rank of the drift matrix by incremental integer elimination."""
    basis: list[tuple[int, list[int]]] = []
    for row in _integer_drift_rows(actions, m):
        for pc, b in basis:
            if row[pc]:
                f, g = b[pc], row[pc]
                row = [f * x - g * y for x, y in zip(row, b)]
        nz = [x for x in row if x]
        if not nz:
            continue
        g = gcd(*nz)
        row = [x // g for x in row]
        basis.append((next(k for k, x in enumerate(row) if x), row))
        if len(basis) == m:
            break
    return len(basis)


def full_rank(doc: dict) -> bool:
    m, actions = expand(doc)
    return exact_rank(actions, m) == m


def _dot(d, v) -> Fraction:
    return sum((x * y for x, y in zip(d, v) if x), Fraction(0))


def _harmonic(actions: list[Outcomes], v) -> bool:
    return all(sum((rate * _dot(d, v) for d, rate in outs), Fraction(0)) == 0
               for outs in actions)


def check_certificate(doc: dict, expect: str, text: str, rc: int) -> list[str]:
    """Errors in one ``certify --format json`` report; empty when it is right."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    m, actions = expand(doc)
    errors = []
    if rep.get("verdict") != expect:
        errors.append(f"verdict {rep.get('verdict')!r}, theory says {expect!r}")
    if rc != (0 if expect == "non-stabilizable" else 2):
        errors.append(f"exit code {rc} for expected verdict {expect!r}")
    if rep.get("M") != m or rep.get("L") != len(actions):
        errors.append(f"shape M={rep.get('M')} L={rep.get('L')}, expected M={m} L={len(actions)}")
        return errors
    rk = exact_rank(actions, m)
    if rep.get("rank") != rk:
        errors.append(f"rank {rep.get('rank')}, independent elimination gives {rk}")
    if expect == "inconclusive":
        if rk != m:
            errors.append(f"expected full rank {m}, got {rk}")
        if rep.get("alpha") is not None or rep.get("null_space_basis"):
            errors.append("inconclusive at full rank must carry no alpha and no null space")
        return errors
    alpha = [_rat(x) for x in rep.get("alpha") or []]
    if len(alpha) != m or not any(alpha):
        return errors + [f"alpha {rep.get('alpha')!r} is not a nonzero vector of length {m}"]
    if not _harmonic(actions, alpha):
        errors.append("D alpha != 0")
    for a, outs in enumerate(actions):
        if all(_dot(d, alpha) == 0 for d, _ in outs):
            errors.append(f"action {a} cannot move alpha'X")
            break
    if rep.get("nondegeneracy", {}).get("direct") is not True:
        errors.append("nondegeneracy.direct is not true")
    basis = [[_rat(x) for x in vec] for vec in rep.get("null_space_basis", [])]
    if len(basis) != m - rk:
        errors.append(f"null space basis has {len(basis)} vectors, expected {m - rk}")
    if not all(len(b) == m and any(b) and _harmonic(actions, b) for b in basis):
        errors.append("a null space basis vector is not a nonzero solution of D b = 0")
    return errors


CLI_DEFAULTS = {"--seed": 0, "--trials": 10_000, "--steps": 1_000, "--cap": 10_000}


def argv_int(argv, flag: str) -> int:
    """An integer option of a simulation verb's argv, or the CLI's default."""
    return int(argv[argv.index(flag) + 1]) if flag in argv else CLI_DEFAULTS[flag]


def trial_steps(argv, rep: dict) -> int:
    """Trial-steps one simulation report stands for."""
    trials = argv_int(argv, "--trials")
    if argv[0] == "return-time":
        return round(trials * rep["mean_censored_at_cap"])
    return trials * argv_int(argv, "--steps")


def check_sim_report(argv, m: int, text: str, rc: int) -> list[str]:
    """Errors in one simulation report; these invariants hold for every seed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    verb = argv[0]
    trials = argv_int(argv, "--trials")
    steps = argv_int(argv, "--steps")
    cap = argv_int(argv, "--cap")
    floats = [v for v in rep.values() if isinstance(v, float)]
    if not all(math.isfinite(v) for v in floats):
        return [f"non-finite value in {rep}"]
    ok = True
    if verb == "martingale":
        # alpha is harmonic, so E[dZ] = 0 exactly; 6 standard errors is a
        # false alarm about once in 10^9 runs.
        ok = (rep["max_abs_increment"] <= rep["bound"] and rep["std_error"] >= 0
              and abs(rep["mean_delta_Z"]) <= 6 * rep["std_error"] + 1e-12)
    elif verb == "blowup":
        ok = 0 <= rep["fraction_grew"] <= 1
    elif verb == "simulate":
        final = rep["final_state_trial0"]
        ok = (rep["trials"] == trials and rep["steps"] == steps and len(final) == m
              and min(final) >= 0 and sum(final) <= rep["max_final_total"]
              and 0 <= rep["mean_final_total"] <= rep["max_final_total"])
    elif verb == "return-time":
        returned = rep["returned"]
        ok = (rep["trials"] == trials and 0 <= returned <= trials
              and _rat(rep["censored_fraction"]) == Fraction(trials - returned, trials)
              and 0 <= rep["mean_uncensored"] <= cap
              and 0 < rep["mean_censored_at_cap"] <= cap)
    return [] if ok else [f"{verb} report breaks an invariant: {rep}"]
