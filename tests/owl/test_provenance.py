"""Tests for report provenance, pipeline span traces, and the CLI around them."""

import json

import pytest

from repro.cli import main
from repro.owl.export import result_to_dict
from repro.owl.pipeline import OwlPipeline
from repro.owl.provenance import (
    DISPOSITION_ATTACK,
    DISPOSITION_PRUNED_ADHOC,
    DISPOSITION_UNVERIFIED,
    DISPOSITION_VERIFIED_BENIGN,
    ReportProvenance,
)

ALL_DISPOSITIONS = {
    DISPOSITION_PRUNED_ADHOC, DISPOSITION_UNVERIFIED,
    DISPOSITION_VERIFIED_BENIGN, DISPOSITION_ATTACK,
}


@pytest.fixture(scope="module")
def libsafe_result():
    from repro.apps.libsafe import libsafe_spec

    return OwlPipeline(libsafe_spec()).run()


@pytest.fixture(scope="module")
def uselib_result():
    from repro import spec_by_name

    return OwlPipeline(spec_by_name("linux_uselib")).run()


class TestDispositions:
    def test_every_report_gets_a_record(self, uselib_result):
        assert len(uselib_result.provenance) == \
            uselib_result.counters.raw_reports

    def test_every_disposition_is_terminal(self, uselib_result):
        for record in uselib_result.provenance:
            assert record.disposition in ALL_DISPOSITIONS

    def test_disposition_counts_match_stage_counters(self, uselib_result):
        provenance = uselib_result.provenance
        counters = uselib_result.counters
        assert len(provenance.by_disposition(DISPOSITION_PRUNED_ADHOC)) == \
            counters.raw_reports - counters.after_annotation
        assert len(provenance.by_disposition(DISPOSITION_UNVERIFIED)) == \
            counters.verifier_eliminated
        kept = (len(provenance.by_disposition(DISPOSITION_VERIFIED_BENIGN))
                + len(provenance.by_disposition(DISPOSITION_ATTACK)))
        assert kept == counters.remaining

    def test_attack_disposition_for_realized_attack(self, libsafe_result):
        attacked = libsafe_result.provenance.by_disposition(DISPOSITION_ATTACK)
        assert attacked
        realized_sources = {
            attack.vulnerability.source.uid
            for attack in libsafe_result.realized_attacks()
            if attack.vulnerability.source is not None
        }
        assert {record.uid for record in attacked} == realized_sources

    def test_precedence_attack_trumps_everything(self, libsafe_result):
        report = list(libsafe_result.raw_reports)[0]
        record = ReportProvenance(report)
        record.record("race_verification", "verified")
        record.record("vulnerability_verification", "attack-realized")
        assert record.disposition == DISPOSITION_ATTACK

    def test_precedence_adhoc_prune_beats_verified(self, libsafe_result):
        report = list(libsafe_result.raw_reports)[0]
        record = ReportProvenance(report)
        record.record("schedule_reduction", "pruned-adhoc")
        record.record("race_verification", "verified")
        assert record.disposition == DISPOSITION_PRUNED_ADHOC

    def test_no_decisions_means_unverified(self, libsafe_result):
        record = ReportProvenance(list(libsafe_result.raw_reports)[0])
        assert record.disposition == DISPOSITION_UNVERIFIED


class TestNarratives:
    def test_attack_narrative_has_hints_and_evidence(self, libsafe_result):
        record = libsafe_result.provenance.by_disposition(
            DISPOSITION_ATTACK)[0]
        text = record.narrative()
        assert record.uid in text
        assert "racing on" in text            # verifier security hints
        assert "[vulnerability_analysis] site-reached" in text
        assert "attack REALIZED" in text
        assert "disposition: attack" in text

    def test_pruned_narrative_names_the_adhoc_sync(self, uselib_result):
        record = uselib_result.provenance.by_disposition(
            DISPOSITION_PRUNED_ADHOC)[0]
        text = record.narrative()
        assert "adhoc sync on" in text
        assert "disposition: pruned-adhoc" in text

    def test_summary_lists_every_uid(self, uselib_result):
        summary = uselib_result.provenance.summary()
        for uid in uselib_result.provenance.uids():
            assert uid in summary


class TestProvenanceExport:
    def test_save_round_trips(self, libsafe_result, tmp_path):
        path = str(tmp_path / "provenance_libsafe.json")
        libsafe_result.provenance.save(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == 1
        assert data["program"] == "libsafe"
        assert sum(data["dispositions"].values()) == len(data["reports"])
        for report in data["reports"]:
            assert report["disposition"] in ALL_DISPOSITIONS

    def test_result_to_dict_includes_provenance_and_uids(self, libsafe_result):
        data = result_to_dict(libsafe_result)
        assert data["provenance"]["program"] == "libsafe"
        for report in data["remaining_reports"]:
            assert report["uid"].startswith("r")


class TestSpanParityAcrossJobs:
    def test_structure_identical_serial_vs_parallel(self):
        from repro import spec_by_name

        serial = OwlPipeline(spec_by_name("apache_log"), jobs=1).run()
        parallel = OwlPipeline(spec_by_name("apache_log"), jobs=2).run()
        assert serial.spans.structure() == parallel.spans.structure()
        assert serial.provenance.as_dict()["reports"] == \
            parallel.provenance.as_dict()["reports"]

    def test_pipeline_root_covers_the_stages(self, libsafe_result):
        structure = libsafe_result.spans.structure()
        assert [name for name, _ in structure] == ["pipeline"]
        stage_names = [name for name, _ in structure[0][1]]
        assert stage_names == [
            "stage:detect", "stage:schedule_reduction",
            "stage:race_verification", "stage:vulnerability_analysis",
            "stage:vulnerability_verification",
        ]


class TestCli:
    def test_trace_command(self, capsys, tmp_path):
        base = str(tmp_path / "trace")
        assert main(["trace", "libsafe", "--out", base, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest spans" in out
        with open(base + ".json") as handle:
            chrome = json.load(handle)
        assert all(e["ph"] in ("B", "E") for e in chrome["traceEvents"])
        with open(base + ".jsonl") as handle:
            assert all(json.loads(line) for line in handle if line.strip())

    def test_explain_listing(self, capsys):
        assert main(["explain", "libsafe"]) == 0
        out = capsys.readouterr().out
        assert "disposition" in out
        assert "attack" in out

    def test_explain_single_report(self, capsys, libsafe_result):
        uid = libsafe_result.provenance.by_disposition(
            DISPOSITION_ATTACK)[0].uid
        assert main(["explain", "libsafe", uid]) == 0
        out = capsys.readouterr().out
        assert "racing on" in out
        assert "disposition: attack" in out

    def test_explain_unknown_uid_fails_with_listing(self, capsys):
        assert main(["explain", "libsafe", "r999-999"]) == 1
        err = capsys.readouterr().err
        assert "known uids" in err

    def test_detect_trace_flag_writes_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "detect.trace.jsonl")
        assert main(["detect", "libsafe", "--trace", path]) == 0
        with open(path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        assert any(row["name"] == "pipeline" for row in rows)

    def test_export_trace_flag_writes_chrome(self, capsys, tmp_path):
        out = str(tmp_path / "libsafe.json")
        trace = str(tmp_path / "trace.json")
        assert main(["export", "libsafe", out, "--trace", trace]) == 0
        with open(trace) as handle:
            chrome = json.load(handle)
        assert chrome["traceEvents"]
