"""OWL: directed concurrency attack detection (the paper's contribution).

The pipeline (paper Figure 3):

1. a concurrency bug detector produces race reports
   (:mod:`repro.detectors`),
2. the **static adhoc synchronization detector** extracts benign-schedule
   hints from the reports and annotates the program
   (:mod:`repro.owl.adhoc`, section 5.1),
3. the **dynamic race verifier** catches each remaining race "in the racing
   moment" with thread-specific breakpoints and emits security hints
   (:mod:`repro.owl.race_verifier`, section 5.2),
4. the **static vulnerability analyzer** runs Algorithm 1 — call-stack-
   directed, inter-procedural, data- and control-flow propagation from the
   corrupted load to the five vulnerable site types — producing vulnerable
   input hints (:mod:`repro.owl.vuln_analysis`, section 6.1),
5. the **dynamic vulnerability verifier** re-runs the program, enforces the
   racing order and checks that the attack is realized
   (:mod:`repro.owl.vuln_verifier`, section 6.2).

:mod:`repro.owl.pipeline` wires the stages together and keeps the per-stage
counters that reproduce the paper's Tables 2 and 3.
"""

from repro.owl.vuln_sites import VulnSiteType, VulnSiteRegistry, DEFAULT_REGISTRY
from repro.owl.adhoc import AdhocSyncDetector
from repro.owl.race_verifier import DynamicRaceVerifier, RaceVerification, SecurityHints
from repro.owl.vuln_analysis import (
    AnalysisOptions,
    DependenceKind,
    VulnerabilityAnalyzer,
    VulnerabilityReport,
)
from repro.owl.vuln_verifier import DynamicVulnerabilityVerifier, VulnVerification
from repro.owl.hints import format_call_stack, format_vulnerability_report
from repro.owl.pipeline import OwlPipeline, PipelineResult, StageCounters
from repro.owl.provenance import (
    Decision,
    ProvenanceLog,
    ReportProvenance,
    provenance_path,
)
from repro.owl.audit import AuditingObserver, AuditScope
from repro.owl.batch import (
    can_parallelize,
    make_executor,
    verify_races_batch,
    verify_vulns_batch,
)
from repro.owl.sweep import Sweep, run_sweep

__all__ = [
    "VulnSiteType",
    "VulnSiteRegistry",
    "DEFAULT_REGISTRY",
    "AdhocSyncDetector",
    "DynamicRaceVerifier",
    "RaceVerification",
    "SecurityHints",
    "AnalysisOptions",
    "DependenceKind",
    "VulnerabilityAnalyzer",
    "VulnerabilityReport",
    "DynamicVulnerabilityVerifier",
    "VulnVerification",
    "format_call_stack",
    "format_vulnerability_report",
    "OwlPipeline",
    "PipelineResult",
    "StageCounters",
    "Decision",
    "ProvenanceLog",
    "ReportProvenance",
    "provenance_path",
    "AuditingObserver",
    "AuditScope",
    "can_parallelize",
    "make_executor",
    "Sweep",
    "run_sweep",
    "verify_races_batch",
    "verify_vulns_batch",
]
