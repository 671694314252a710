"""Helpers shared by the tests: a network's actions listed one id at a time,
and an exact inner product."""

from __future__ import annotations

from fractions import Fraction


def list_actions(net):
    """Every action of ``net`` in id order, each built from its id."""
    return [net.action(a) for a in range(net.listable_actions())]


def label_ids(net) -> dict[str, int]:
    """Each action's id by its label."""
    return {a.label: a.id for a in list_actions(net)}


def dot(u, v) -> Fraction:
    """Exact inner product of two rational vectors."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))
