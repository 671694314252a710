"""Command-line front end.

Verbs: certify, drift, alpha, simulate, return-time, martingale, blowup.
Exit codes are a stable contract: 0 for success (for ``certify``, a
non-stabilizability verdict), 2 for an inconclusive certificate, 1 for
any error.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from typing import Sequence

from . import certify as certify_mod
from . import netmodel
from .jsonio import render_json
from .netmodel import ConstructionError, PolicyError, SpecFileError, _format_ratio, format_rational

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # argparse calls it only after printing --help
        raise _HelpShown


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")  # parse_rational's grammar without "/"


_COUNTS = {"seed": "0", "trials": "10000", "steps": "1000", "cap": "10000"}  # option defaults


def _integer(text: str, what: str) -> int:
    """``text`` as an int: ASCII digits after an optional sign, whitespace only around the
    whole (``int()`` also reads "1_0", "١٠" and "１０"). An error names ``what``."""
    try:
        return int(_INTEGER.fullmatch(text)[0])
    except (TypeError, ValueError):  # no match, or too many digits
        raise ConstructionError(f"{what} must be an integer, got {text!r}") from None


def _parse_x0(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(part, "--x0") for part in text.split(","))
    except ConstructionError:
        raise ConstructionError(f"--x0 must be comma-separated integers, got {text!r}") from None


def _parse_policy(simulate, net, text: str):
    if text.startswith("threshold:"):
        cutoff = _integer(text.split(":", 1)[1], "--policy threshold:<c>")
        return simulate.make_policy(net, "threshold", threshold=cutoff)
    if text in ("pull-priority", "push-priority"):
        return simulate.make_policy(net, text)
    raise ConstructionError(
        f"unknown policy {text!r}; expected pull-priority, push-priority, or threshold:<int>"
    )


@cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later call.

    Parsing leaves it unchanged: each call gets a fresh namespace, and the
    help width is read when help is printed.
    """
    parser = _Parser(prog="qstab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("spec", help="path to a network spec JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_sim(p):
        add_common(p)
        p.add_argument("--policy", default="pull-priority",
                       help="pull-priority | push-priority | threshold:<c>")
        for name, default in _COUNTS.items():  # strings, each read by _integer
            p.add_argument(f"--{name}", default=default)
        p.add_argument("--x0", default=None, help="comma-separated start state (default origin)")

    add_common(sub.add_parser("certify", help="decide whether a harmonic certificate exists"))

    p_drift = sub.add_parser("drift", help="print the exact drift matrix and its rank")
    add_common(p_drift)

    p_alpha = sub.add_parser("alpha", help="print the family closed-form weight vector")
    add_common(p_alpha)

    for verb, help_text in (
        ("simulate", "run fixed-length trajectories and summarize them"),
        ("return-time", "estimate return times to the start state"),
        ("martingale", "check the empirical drift of the weighted queue length"),
        ("blowup", "estimate the growth rate of the total queue length"),
    ):
        p = sub.add_parser(verb, help=help_text)
        add_sim(p)
        if verb == "martingale":
            p.add_argument("--alpha", default=None,
                           help="comma-separated rational weights (default: from certify)")
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(render_json(payload))
        return
    for key, value in payload.items():
        if key == "rows":
            print("rows:")
            for row in value:
                print("  [" + ", ".join(row) + "]")
        elif isinstance(value, dict):
            print(f"{key}: " + ", ".join(f"{k}={v}" for k, v in value.items()))
        elif isinstance(value, list):
            if value and isinstance(value[0], list):
                inner = ", ".join("[" + ", ".join(str(x) for x in v) + "]" for v in value)
                print(f"{key}: [{inner}]")
            else:
                print(f"{key}: [" + ", ".join(str(v) for v in value) + "]")
        elif isinstance(value, float):
            print(f"{key}: {format(value, '.17g')}")
        else:
            print(f"{key}: {value}")


def _sim_config(simulate, ns, net):
    x0 = _parse_x0(ns.x0) if ns.x0 is not None else None
    if x0 is not None and len(x0) != net.n_queues:
        raise ConstructionError(
            f"--x0 has length {len(x0)}, the network has {net.n_queues} queues"
        )
    counts = {name: _integer(getattr(ns, name), f"--{name}") for name in _COUNTS}
    return simulate.SimConfig(**counts, x0=x0)


def _dispatch(ns) -> int:
    net = netmodel.load_spec(ns.spec)
    if ns.verb == "certify":
        cert = certify_mod.certify_nonstabilizable(net)
        _emit(cert.to_json_dict(), ns.format)
        return EXIT_OK if cert.verdict is certify_mod.Verdict.NON_STABILIZABLE else EXIT_INCONCLUSIVE
    if ns.verb == "drift":
        d = certify_mod.drift_matrix(net)
        payload = {
            "M": d.n_queues,
            "L": d.n_actions,
            "rank": certify_mod.rank(d),
            "rows": [[_format_ratio(n, s) for n in row] for row, s in zip(d.numerators, d.scales)],
        }
        _emit(payload, ns.format)
        return EXIT_OK
    if ns.verb == "alpha":
        closed = certify_mod.family_alpha(net)
        if closed is None:
            raise ConstructionError(
                "no closed-form weights: needs a critical push-pull network, a critical "
                "ring with evenly many servers, or a critical re-entrant network"
            )
        _emit({"family": net.family, "alpha": [format_rational(x) for x in closed]}, ns.format)
        return EXIT_OK
    # The simulator, and with it numpy, loads only once a simulation is asked for.
    from . import simulate

    policy = _parse_policy(simulate, net, ns.policy)
    cfg = _sim_config(simulate, ns, net)
    if ns.verb == "simulate":
        report = simulate.run_trajectories(net, policy, cfg)
    elif ns.verb == "return-time":
        report = simulate.estimate_return_time(net, policy, cfg)
    elif ns.verb == "martingale":
        if ns.alpha is not None:
            alpha = ns.alpha.split(",")  # martingale_test reads each weight through check_alpha
        else:
            cert = certify_mod.certify_nonstabilizable(net)
            if cert.alpha is None:
                raise ConstructionError(
                    "no --alpha given and no certificate exists (the verdict is inconclusive)"
                )
            alpha = cert.alpha
        report = simulate.martingale_test(net, policy, alpha, cfg)
    else:  # blowup
        report = simulate.blowup_probe(net, policy, cfg)
    _emit(report.to_json_dict(), ns.format)
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one verb, and return the process exit code.

    ``--help`` prints the help to stdout and returns EXIT_OK. Safe to call
    repeatedly in one process.
    """
    try:
        ns = build_parser().parse_args(argv)
    except _HelpShown:
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _dispatch(ns)
    except (SpecFileError, ConstructionError, PolicyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
