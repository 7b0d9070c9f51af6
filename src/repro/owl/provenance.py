"""Per-report decision provenance: why did OWL keep or prune each report?

OWL's headline claim is report *reduction* (Table 3: tens of thousands of
raw race reports pruned down to a handful of concurrency attacks), but the
pipeline counters only say *how many* reports each stage removed, not *why
this one*.  The provenance log closes that gap: as :class:`OwlPipeline`
runs, every race report accumulates a :class:`Decision` per stage with the
stage's actual evidence —

- **schedule reduction** (§5.1): the matched adhoc-sync chain (spin-read,
  breaking branch, constant write) that pruned the report;
- **race verification** (§5.2): whether the verifier caught the race in the
  racing moment, with its security hints (values about to be read/written,
  NULL-write flag) or the failed-attempt budget;
- **vulnerability analysis** (§6.1): each vulnerable site Algorithm 1
  reached, with its dependence kind and corrupted-branch propagation chain;
- **vulnerability verification** (§6.2): whether a re-run realized the
  attack, with the observed faults and the matched ground truth.

Each report ends in exactly one terminal disposition — ``pruned-adhoc``,
``unverified``, ``predicted``, ``verified-benign``, ``attack`` or
``repaired`` (an ``owl fix`` run emitted a patch that passed all three
repair gates) — and ``owl explain <program> <report-uid>`` renders the
whole record as a narrative.

**Determinism and parity invariants** (what makes provenance comparable
across runs, and what the result cache relies on):

1. *Stable keys* — reports are keyed by
   :attr:`repro.detectors.report.RaceReport.uid`, derived from the static
   instruction pair (``"r<a>-<b>"``), so the same logical report has the
   same uid across re-runs, job counts, and process boundaries.
2. *Order independence* — decisions are recorded in stage order and, within
   a stage, in report (not completion) order, so ``as_dict()`` of a
   ``jobs=8`` run equals that of a serial run on the same seeds.
3. *Cache transparency* — a cached stage result replays the same evidence
   the live stage recorded (see :mod:`repro.owl.cache`), so a warm-cache
   run's provenance log is bit-identical to the cold run's; the tests in
   ``tests/owl/test_cache.py`` compare the full ``as_dict()``.
4. *Evidence is data, not prose* — decision evidence holds plain values
   (uids, counts, describe() strings of deterministic objects), never
   wall-clock readings or memory addresses, which is what makes invariant
   3 possible.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional

from repro.detectors.report import RaceReport

#: The terminal dispositions a report can end in.
DISPOSITION_PRUNED_ADHOC = "pruned-adhoc"
DISPOSITION_UNVERIFIED = "unverified"
DISPOSITION_VERIFIED_BENIGN = "verified-benign"
DISPOSITION_ATTACK = "attack"
#: A race the predictive detector inferred from one recorded trace and
#: that no later stage upgraded: witnessed (or honestly unwitnessed —
#: ARCHITECTURE invariant 8) evidence, but never caught in a live sweep.
DISPOSITION_PREDICTED = "predicted"
#: A race for which ``owl fix`` emitted a patch that passed all three
#: repair gates — diff oracle, detector re-run, scheduler sweep
#: (ARCHITECTURE invariant 10).  Trumps every other disposition: a
#: repaired report's history still shows how it was found and verified.
DISPOSITION_REPAIRED = "repaired"

SCHEMA_VERSION = 1


class Decision:
    """One stage's verdict on one report, with the evidence behind it."""

    __slots__ = ("stage", "verdict", "evidence")

    def __init__(self, stage: str, verdict: str,
                 evidence: Optional[Dict] = None):
        self.stage = stage
        self.verdict = verdict
        self.evidence = evidence if evidence is not None else {}

    def as_dict(self) -> Dict:
        return {"stage": self.stage, "verdict": self.verdict,
                "evidence": self.evidence}

    def __repr__(self) -> str:
        return "<Decision %s: %s>" % (self.stage, self.verdict)


class ReportProvenance:
    """The decision record for one race report."""

    def __init__(self, report: RaceReport):
        self.uid = report.uid
        self.variable = report.variable
        self.detector = report.detector
        self.first = "%s by t%d at %s" % (
            "write" if report.first.is_write else "read",
            report.first.thread_id, report.first.location,
        )
        self.second = "%s by t%d at %s" % (
            "write" if report.second.is_write else "read",
            report.second.thread_id, report.second.location,
        )
        self.decisions: List[Decision] = []

    # ------------------------------------------------------------------

    def record(self, stage: str, verdict: str, **evidence) -> Decision:
        decision = Decision(stage, verdict, evidence)
        self.decisions.append(decision)
        return decision

    def verdicts(self) -> List[str]:
        return [decision.verdict for decision in self.decisions]

    @property
    def disposition(self) -> str:
        """The terminal disposition, resolved from the recorded verdicts.

        Precedence mirrors the pipeline: a gated repair trumps everything
        (the report's history still shows how it was found); a realized
        attack trumps the rest; an adhoc prune means the verifier never saw
        the report; an unverified race was eliminated (R.V.E.); everything
        else that was caught in the racing moment is verified-benign.
        """
        verdicts = set(self.verdicts())
        if "repaired" in verdicts:
            return DISPOSITION_REPAIRED
        if "attack-realized" in verdicts:
            return DISPOSITION_ATTACK
        if "pruned-adhoc" in verdicts or "eliminated-by-annotation" in verdicts:
            return DISPOSITION_PRUNED_ADHOC
        if "verified" in verdicts:
            return DISPOSITION_VERIFIED_BENIGN
        if "predicted" in verdicts:
            return DISPOSITION_PREDICTED
        return DISPOSITION_UNVERIFIED

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict:
        return {
            "uid": self.uid,
            "variable": self.variable,
            "detector": self.detector,
            "first": self.first,
            "second": self.second,
            "decisions": [decision.as_dict() for decision in self.decisions],
            "disposition": self.disposition,
        }

    def narrative(self) -> str:
        """The human-readable story ``owl explain`` prints."""
        lines = [
            "report %s: data race on %s [%s]" % (
                self.uid, self.variable or "?", self.detector,
            ),
            "  first:  %s" % self.first,
            "  second: %s" % self.second,
            "",
        ]
        for decision in self.decisions:
            lines.append("  [%s] %s" % (decision.stage, decision.verdict))
            for key in sorted(decision.evidence):
                value = decision.evidence[key]
                if isinstance(value, (list, tuple)):
                    value = ", ".join(str(item) for item in value) or "none"
                lines.append("      %s: %s" % (key, value))
        lines.append("")
        lines.append("  disposition: %s" % self.disposition)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<ReportProvenance %s %s (%d decisions)>" % (
            self.uid, self.disposition, len(self.decisions),
        )


class ProvenanceLog:
    """All per-report provenance of one pipeline run, in detection order."""

    def __init__(self, program: str):
        self.program = program
        self._records: Dict[str, ReportProvenance] = {}

    # ------------------------------------------------------------------
    # accumulation (called by OwlPipeline as the stages run)

    def observe(self, report: RaceReport) -> ReportProvenance:
        """The record for ``report``, created on first sight."""
        record = self._records.get(report.uid)
        if record is None:
            record = ReportProvenance(report)
            self._records[report.uid] = record
        return record

    def record(self, report: RaceReport, stage: str, verdict: str,
               **evidence) -> Decision:
        return self.observe(report).record(stage, verdict, **evidence)

    # ------------------------------------------------------------------
    # queries

    def get(self, uid: str) -> Optional[ReportProvenance]:
        return self._records.get(uid)

    def uids(self) -> List[str]:
        return list(self._records)

    def by_disposition(self, disposition: str) -> List[ReportProvenance]:
        return [record for record in self
                if record.disposition == disposition]

    def __iter__(self) -> Iterator[ReportProvenance]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def summary(self) -> str:
        """One line per report: the ``owl explain <program>`` listing."""
        lines = ["%-12s %-16s %s" % ("uid", "disposition", "race")]
        for record in self:
            lines.append("%-12s %-16s %s" % (
                record.uid, record.disposition, record.variable or "?",
            ))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # export

    def as_dict(self) -> Dict:
        counts: Dict[str, int] = {}
        for record in self:
            disposition = record.disposition
            counts[disposition] = counts.get(disposition, 0) + 1
        return {
            "schema": SCHEMA_VERSION,
            "program": self.program,
            "dispositions": counts,
            "reports": [record.as_dict() for record in self],
        }

    def save(self, path: str) -> str:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, default=str)
            handle.write("\n")
        return path

    def __repr__(self) -> str:
        return "<ProvenanceLog %s reports=%d>" % (
            self.program, len(self),
        )


def provenance_path(out_dir: str, program: str) -> str:
    """Canonical location of a program's provenance file under ``out_dir``."""
    return os.path.join(out_dir, "provenance_%s.json" % program)
