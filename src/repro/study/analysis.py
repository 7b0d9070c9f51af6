"""Computations behind the study's findings I-V (paper section 3).

Each ``findingN_*`` function returns a plain dict so the benchmark harness
can print paper-vs-measured rows.  Where a finding is measurable against the
model programs (spread through the call graph, call-stack prefixes,
repetitions to trigger), the functions take live measurements; the corpus
supplies the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.study.corpus import CORPUS, PROGRAMS, corpus_totals, reproduced_attacks


def finding1_severity() -> Dict:
    """Finding I: concurrency attacks are more severe than concurrency bugs.

    Every studied program has attacks; fixing the bug does not expel an
    attacker who already broke in.
    """
    totals = corpus_totals()
    return {
        "programs_studied": len(PROGRAMS),
        "programs_with_attacks": sum(1 for count in totals.values() if count > 0),
        "total_attacks": sum(totals.values()),
        "per_program": totals,
        "violation_types": sorted({record.violation for record in CORPUS}),
    }


def finding2_spread() -> Dict:
    """Finding II: bugs and their attacks are widely spread in program code.

    Paper: among the 10 attacks with source and exploit scripts, 7 have
    their bugs and vulnerability sites in different functions.
    """
    reproduced = reproduced_attacks()
    different = [r for r in reproduced if not r.same_function]
    return {
        "reproduced": len(reproduced),
        "bug_and_site_in_different_functions": len(different),
        "paper_claim": "7 of 10 attacks spread across different functions",
        "attack_ids": [r.attack_id for r in different],
    }


def finding3_repetitions(measured: Optional[Dict[str, int]] = None) -> Dict:
    """Finding III: subtle inputs trigger attacks within few repetitions.

    Paper: "8 out of the 10 reproduced concurrency attacks [...] can be
    easily triggered with less than 20 repetitive executions".  ``measured``
    may carry live repetition counts from the exploit drivers; the corpus
    numbers are the recorded defaults.
    """
    repetitions = {
        record.attack_id: record.repetitions_to_trigger
        for record in reproduced_attacks()
    }
    if measured:
        repetitions.update(measured)
    under_20 = sum(
        1 for count in repetitions.values() if count is not None and count < 20
    )
    return {
        "repetitions": repetitions,
        "attacks_under_20_repetitions": under_20,
        "total_reproduced": len(repetitions),
        "paper_claim": "8 of 10 under 20 repetitions",
    }


def finding4_bug_types() -> Dict:
    """Finding IV: all studied vulnerable concurrency bugs were data races
    (hence detectable by TSan/SKI-style race detectors)."""
    bug_types = {}
    for record in CORPUS:
        bug_types[record.bug_type] = bug_types.get(record.bug_type, 0) + 1
    return {
        "bug_types": bug_types,
        "all_data_races": set(bug_types) == {"data race"},
        "detectable": sum(
            1 for record in CORPUS if record.detectable_by_race_detector
        ),
    }


def finding5_burial(measured_raw: Optional[Dict[str, int]] = None,
                    measured_vulnerable: Optional[Dict[str, int]] = None) -> Dict:
    """Finding V: attacks are overlooked because detectors bury them.

    Paper anchor: one bug-triggering MySQL query produced 202 race reports
    of which 2 were vulnerable.  ``measured_raw``/``measured_vulnerable``
    may carry live per-program counts from our detectors.
    """
    paper_reports = {
        program.name: program.race_reports
        for program in PROGRAMS if program.race_reports is not None
    }
    result = {
        "paper_raw_reports": paper_reports,
        "paper_total_reports": sum(paper_reports.values()),
        "paper_mysql_anchor": {"reports": 202, "vulnerable": 2},
    }
    if measured_raw:
        result["measured_raw_reports"] = dict(measured_raw)
    if measured_vulnerable:
        result["measured_vulnerable"] = dict(measured_vulnerable)
        if measured_raw:
            totals = sum(measured_raw.values())
            vulnerable = sum(measured_vulnerable.values())
            result["measured_burial_ratio"] = (
                vulnerable / totals if totals else 0.0
            )
    return result


# ---------------------------------------------------------------------------
# live measurements against model programs


def callstack_prefix_stats(pairs: List[Tuple[Tuple, Tuple]]) -> Dict:
    """Section 3.2's second pattern: bugs and attacks share call-stack
    prefixes.

    ``pairs`` holds (bug_stack, site_stack) tuples of (function, file, line)
    entries, outermost first.  Returns how many site stacks extend the bug
    stack (bug stack is a prefix) or sit within two frames of it.
    """
    prefix = 0
    near = 0
    for bug_stack, site_stack in pairs:
        bug_functions = [frame[0] for frame in bug_stack]
        site_functions = [frame[0] for frame in site_stack]
        if site_functions[: len(bug_functions)] == bug_functions or \
                bug_functions[: len(site_functions)] == site_functions:
            prefix += 1
        else:
            shared = 0
            for a, b in zip(bug_functions, site_functions):
                if a != b:
                    break
                shared += 1
            if max(len(bug_functions), len(site_functions)) - shared <= 2:
                near += 1
    return {
        "pairs": len(pairs),
        "prefix_shared": prefix,
        "within_two_frames": near,
        "paper_claim": "7 of 10 sites are in callees of the bug's stack",
    }
