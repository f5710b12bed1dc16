"""Static soundness analysis for the directed-rounding discipline.

The verifier's SAFE verdicts are only as good as the promise that every
bound in ``repro.intervals`` / ``ode`` / ``sets`` / ``verify`` is
computed with outward rounding. This package checks that promise
mechanically, in two whole-program passes: an interprocedural
bound-taint dataflow feeding the soundness rules (S001-S008) over the
sound-path packages, and a concurrency-safety pass (C001-C005) over
the campaign runtime — with inline ``# sound: ok <reason>`` pragmas
for vetted exceptions and a committed baseline for grandfathered
findings.

Entry points: ``repro check`` on the command line, or::

    from repro.analysis import Policy, check_paths
    findings = check_paths(["src/repro"], Policy())

The policy (which files each pass checks, with which rules) is
:mod:`repro.analysis.policy`; nothing else configures it.

See ``docs/SOUNDNESS.md`` for the discipline and the rule catalogue.
"""

from .baseline import load_baseline, partition, write_baseline
from .concurrency import CONCURRENCY_RULES
from .model import CheckError, Finding, Pragma, fingerprint, parse_pragma
from .policy import Policy
from .report import FORMATS, render
from .rules import ALL_CODES, RULES
from .visitor import check_paths, check_source

__all__ = [
    "ALL_CODES",
    "CONCURRENCY_RULES",
    "CheckError",
    "FORMATS",
    "Finding",
    "Policy",
    "Pragma",
    "RULES",
    "check_paths",
    "check_source",
    "fingerprint",
    "load_baseline",
    "parse_pragma",
    "partition",
    "render",
    "write_baseline",
]
