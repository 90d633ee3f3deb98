"""Witness generators with re-verifiable certificates for series behavior.

Given a catalog series in a concrete normed space, this package builds
finite, machine-checkable evidence: unbounded subseries and
rearrangements with certified growth checkpoints, escape and containment
witnesses for the category-style sets of bounded codings, and
ideal-boundedness verdicts backed by interval counting.
"""

from .spaces import DELTA, FiniteSupportVector, basis, fsv
from .stems import (
    RearrStem,
    SelectionStem,
    SubseqStem,
    extend_to_prefix_bijection,
)
from .series import (
    HorizonExceedsStem,
    PartialSumTrace,
    SeriesOracle,
    UnknownSeries,
    catalog_names,
    catalog_series,
    norms_at,
    partial_sums,
    prefix_norms,
)
from .ideals import (
    BoundednessVerdict,
    ExceedanceReport,
    TalagrandSequence,
    exceedance_report,
    geometric_talagrand,
    i_bounded_verdict,
    interval,
    linear_talagrand,
)
from .witnesses import (
    Checkpoint,
    CheckpointColumns,
    InconsistentGrowthWitness,
    PatternTooLarge,
    PreconditionViolation,
    ScanExhausted,
    WitnessCertificate,
    dense_open_witness_Am,
    dense_open_witness_Bm,
    dense_open_witness_Cm,
    grow_unbounded_subseries,
    limsup_subseries,
    nowhere_dense_witness_rearr,
    nowhere_dense_witness_subseq,
    provision_candidate_stream,
    rearrangement_pipeline,
    small_norm_block,
    subseries_to_rearrangement,
    uniform_bound_bruteforce,
    verify_certificate,
)

__version__ = "0.1.0"
