"""JSON export of pipeline results (for CI dashboards and diffing runs).

``result_to_dict`` flattens a :class:`repro.owl.pipeline.PipelineResult`
into plain data: stage counters, per-report summaries with call stacks,
Figure-5-style hints, and attack verification outcomes.  ``save_result``
writes it to disk.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.owl.hints import format_vulnerability_report
from repro.owl.pipeline import PipelineResult


def _location(loc) -> str:
    return "%s:%d" % (loc.filename, loc.line)


def _call_stack(stack) -> List[Dict]:
    return [
        {"function": function, "file": filename, "line": line}
        for function, filename, line in stack
    ]


def _race_report(report) -> Dict:
    return {
        "uid": report.uid,
        "variable": report.variable,
        "detector": report.detector,
        "first": {
            "kind": "write" if report.first.is_write else "read",
            "location": _location(report.first.location),
            "call_stack": _call_stack(report.first.call_stack),
        },
        "second": {
            "kind": "write" if report.second.is_write else "read",
            "location": _location(report.second.location),
            "call_stack": _call_stack(report.second.call_stack),
        },
        "tags": sorted(report.tags),
    }


def _vulnerability(vulnerability) -> Dict:
    return {
        "site": _location(vulnerability.site.location),
        "site_type": vulnerability.site_type.value,
        "dependence": vulnerability.kind.value,
        "branches": [_location(branch.location)
                     for branch in vulnerability.branches],
        "call_stack": _call_stack(vulnerability.call_stack),
        "hint_text": format_vulnerability_report(vulnerability),
    }


def result_to_dict(result: PipelineResult) -> Dict:
    """Flatten one pipeline run to JSON-ready data."""
    return {
        "program": result.spec.name,
        "counters": result.counters.as_dict(),
        "adhoc_syncs": [
            annotation.describe() for annotation in (result.annotations or [])
        ],
        "remaining_reports": [
            _race_report(report) for report in result.remaining_reports
        ],
        "vulnerabilities": [
            _vulnerability(v) for v in result.vulnerabilities
        ],
        "attacks": [
            {
                "ground_truth": (
                    attack.ground_truth.attack_id
                    if attack.ground_truth else None
                ),
                "realized": attack.realized,
                "outcome": attack.verification.describe(),
                "site": _location(attack.vulnerability.site.location),
            }
            for attack in result.attacks
        ],
        "provenance": (
            result.provenance.as_dict() if result.provenance else None
        ),
        "cache": (
            result.metrics.blocks.get("cache")
            if result.metrics is not None else None
        ),
    }


def save_result(result: PipelineResult, path: str) -> None:
    """Write the flattened result to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(result_to_dict(result), handle, indent=2)
