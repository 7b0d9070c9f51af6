"""Table 3 — OWL's reduction of race detector reports.

Per program: raw reports (R.R.), adhoc synchronizations annotated (A.S.),
race-verifier eliminations (R.V.E.), remaining reports (R.), and the average
static-analysis cost per report (A.C.).  The paper's headline: the schedule
reduction and the verifier remove 94.3% of all reports without losing any
evaluated attack.
"""

import json
import os

from reporting import OUT_DIR, emit

#: paper row: (name, R.R., A.S., R.V.E., R.)
PAPER_ROWS = {
    "apache": (715, 7, 1506, 10),
    "chrome": (1715, 1, 1587, 126),
    "libsafe": (3, 0, 0, 3),
    "linux": (24641, 8, None, 1718),
    "memcached": (5376, 0, 5372, 4),
    "mysql": (1123, 6, 783, 18),
    "ssdb": (12, 0, 10, 2),
}


def test_table3_reduction(pipelines, benchmark):
    rows = []
    total_raw = total_remaining = total_adhoc = 0
    for name, paper in PAPER_ROWS.items():
        result = pipelines.result(name)
        counters = result.counters
        rows.append({
            "Name": name,
            "R.R.": counters.raw_reports,
            "A.S.": counters.adhoc_syncs,
            "R.V.E.": counters.verifier_eliminated,
            "R.": counters.remaining,
            "A.C. (s/report)": "%.4f" % counters.analysis_seconds_per_report,
            "reduction": "%.1f%%" % (100 * counters.reduction_ratio),
            "paper (R.R./A.S./R.V.E./R.)": "/".join(
                str(x) if x is not None else "N/A" for x in paper
            ),
        })
        total_raw += counters.raw_reports
        total_remaining += counters.remaining
        total_adhoc += counters.adhoc_syncs
    overall = 1 - total_remaining / total_raw if total_raw else 0
    rows.append({
        "Name": "Total",
        "R.R.": total_raw,
        "A.S.": total_adhoc,
        "R.V.E.": "",
        "R.": total_remaining,
        "A.C. (s/report)": "",
        "reduction": "%.1f%%" % (100 * overall),
        "paper (R.R./A.S./R.V.E./R.)": "31870/22/9258/1881 (94.3%)",
    })
    emit(
        "table3_reduction", "Table 3: OWL's reduction of detector reports",
        ["Name", "R.R.", "A.S.", "R.V.E.", "R.", "A.C. (s/report)",
         "reduction", "paper (R.R./A.S./R.V.E./R.)"],
        rows,
        notes=("Shape check: the majority of raw reports are pruned; no "
               "evaluated attack's race is eliminated."),
    )
    assert overall > 0.5  # strong reduction at model scale
    # None of the vulnerable races may be lost.
    for name in PAPER_ROWS:
        result = pipelines.result(name)
        spec = pipelines.spec(name)
        found = {t.attack_id for t in result.detected_ground_truths()}
        assert found == {a.attack_id for a in spec.attacks}, name

    # Benchmark the schedule-reduction stage: adhoc analysis of raw reports.
    libsafe_raw = pipelines.result("mysql").raw_reports

    def adhoc_stage():
        from repro.owl.adhoc import AdhocSyncDetector

        return AdhocSyncDetector().analyze(libsafe_raw)

    annotations = benchmark.pedantic(adhoc_stage, rounds=3, iterations=1)
    assert annotations.unique_static_count() >= 6


STAGE_NAMES = [
    "detect", "schedule_reduction", "race_verification",
    "vulnerability_analysis", "vulnerability_verification",
]


def test_table3_stage_metrics(pipelines):
    """Every pipeline run exports per-stage metrics JSON next to the tables."""
    from repro.runtime.metrics import metrics_path

    for name in PAPER_ROWS:
        pipelines.result(name)  # ensures the run happened and metrics saved
        path = metrics_path(OUT_DIR, name)
        assert os.path.exists(path), path
        with open(path) as handle:
            data = json.load(handle)
        assert data["program"] == name
        assert data["jobs"] == pipelines.jobs
        assert [stage["name"] for stage in data["stages"]] == STAGE_NAMES
        detect = data["stages"][0]
        assert detect["runs"] > 0 and detect["vm_steps"] > 0
