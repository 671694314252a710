"""qstab: harmonic certificates of non-stabilizability for queueing networks.

Build a homogeneous controlled queueing network (push-pull, ring,
re-entrant, or custom), certify non-stabilizability through an exact
rational null-space certificate of the action drift matrix, and
corroborate verdicts by reproducible Monte Carlo simulation of the
embedded chain under non-idling policies.

The exact engine (``certify`` and ``netmodel``) uses ``fractions`` only,
so ``import qstab`` does not load numpy. The simulator's names (``SimConfig``,
``make_policy``, ``run_trajectories``, ...) load :mod:`qstab.simulate`, and
with it numpy, on first use. ``PolicyError`` lives in ``netmodel``, so
catching it needs no simulator.
"""

from .certify import (
    DriftMatrix,
    HarmonicCertificate,
    UnsupportedFamilyError,
    Verdict,
    certify_nonstabilizable,
    check_nondegeneracy_direct,
    check_nondegeneracy_lemma,
    drift_matrix,
    family_alpha,
    is_critical,
    null_space_basis,
    rank,
    reentrant_alpha,
    ring_alpha_even,
    sign_matrix,
    verify_sign_pattern,
    verify_unit_pairing,
)
from .netmodel import (
    ConstructionError,
    IndexSets,
    NetworkSpec,
    PolicyError,
    SpecFileError,
    available_actions,
    build_custom,
    build_push_pull,
    build_reentrant,
    build_ring,
    build_two_stream_example,
    dump_spec,
    format_rational,
    index_sets,
    load_spec,
    loads_spec,
    parse_rational,
    spec_document,
    transition_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "DriftMatrix",
    "GrowthReport",
    "HarmonicCertificate",
    "IndexSets",
    "MartingaleReport",
    "NetworkSpec",
    "Policy",
    "PolicyError",
    "ReturnTimeStats",
    "SimConfig",
    "SpecFileError",
    "TrajectorySummary",
    "UnsupportedFamilyError",
    "Verdict",
    "available_actions",
    "blowup_probe",
    "build_custom",
    "build_push_pull",
    "build_reentrant",
    "build_ring",
    "build_two_stream_example",
    "certify_nonstabilizable",
    "check_nondegeneracy_direct",
    "check_nondegeneracy_lemma",
    "drift_matrix",
    "dump_spec",
    "estimate_return_time",
    "family_alpha",
    "format_rational",
    "index_sets",
    "is_critical",
    "load_spec",
    "loads_spec",
    "make_policy",
    "martingale_test",
    "null_space_basis",
    "parse_rational",
    "rank",
    "reentrant_alpha",
    "ring_alpha_even",
    "run_trajectories",
    "sign_matrix",
    "spec_document",
    "step",
    "substream_seed",
    "transition_distribution",
    "trial_rng",
    "verify_sign_pattern",
    "verify_unit_pairing",
    "__version__",
]


# The names in __all__ that the certify and netmodel imports do not define
# are the simulator's; __getattr__ (PEP 562) imports it on first use.
_SIMULATE_NAMES = frozenset(__all__) - frozenset(globals())


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATE_NAMES)
