"""Tests for the CLI and the ProgramSpec contract."""

import pytest

from repro.cli import build_parser, main
from repro.spec import AttackGroundTruth, ProgramSpec
from repro.owl.vuln_sites import VulnSiteType


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "libsafe" in out
        assert "ssdb-cve-2016-1000324" in out

    def test_study_command(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "Finding I" in out
        assert "Finding V" in out

    def test_exploit_command(self, capsys):
        assert main(["exploit", "libsafe-2.0-16", "--repetitions", "40"]) == 0
        out = capsys.readouterr().out
        assert "EXPLOITED" in out

    def test_detect_command(self, capsys):
        assert main(["detect", "libsafe"]) == 0
        out = capsys.readouterr().out
        assert "race reports (R.R.)" in out
        assert "verified attacks" in out
        assert "Ctrl Dependent Vulnerability" in out

    def test_export_command(self, capsys, tmp_path):
        target = tmp_path / "libsafe.json"
        assert main(["export", "libsafe", str(target)]) == 0
        assert target.exists()
        import json

        data = json.loads(target.read_text())
        assert data["program"] == "libsafe"

    def test_fix_command_emits_gated_patches(self, capsys, tmp_path):
        import glob
        import json

        out_dir = str(tmp_path / "patches")
        metrics = str(tmp_path / "metrics.json")
        assert main(["fix", "apache_log", "--out", out_dir,
                     "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "4/4 verified races repaired" in out
        assert "oracle=ok, detector=ok, schedulers=ok" in out
        artifacts = sorted(glob.glob(out_dir + "/patch_apache_log_*.json"))
        assert len(artifacts) == 4
        payloads = [json.loads(open(path).read()) for path in artifacts]
        payload = payloads[0]
        assert payload["strategy"] == "mutex"
        assert payload["ir_diff"]
        # all four races are on one variable: one patch
        assert len({p["patched_digest"] for p in payloads}) == 1
        data = json.loads(open(metrics).read())
        assert data["schema"] == 9
        assert data["repair"]["emitted"] == 4
        assert data["telemetry"]["counters"]["repair.emitted"] == 4

    def test_fix_warm_cache_hits_every_target(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        blocks = []
        for name in ("cold", "warm"):
            metrics = str(tmp_path / ("%s.json" % name))
            assert main(["fix", "apache_log", "--cache", "--cache-dir",
                         cache_dir, "--metrics", metrics]) == 0
            blocks.append(json.loads(open(metrics).read()))
        cold, warm = blocks
        assert cold["cache"]["stages"]["repair"]["stores"] == 4
        assert warm["cache"]["stages"]["repair"]["hits"] == 4
        assert warm["cache"]["misses"] == 0
        assert json.dumps(cold["repair"], sort_keys=True) == \
            json.dumps(warm["repair"], sort_keys=True)
        # the repair stage's cache counters land in the telemetry once,
        # and no other stage's counter doubles
        for data, what in ((cold, "misses"), (cold, "stores"),
                           (warm, "hits")):
            assert data["telemetry"]["counters"]["cache.repair." + what] == 4
        for data in (cold, warm):
            folded = {name: value for name, value
                      in data["telemetry"]["counters"].items()
                      if name.startswith("cache.")}
            assert folded == {
                "cache.%s.%s" % (stage, what): value
                for stage, counters in data["cache"]["stages"].items()
                for what, value in counters.items()}

    def test_detect_with_profile_prints_hot_functions(self, capsys):
        assert main(["detect", "memcached", "--profile",
                     "--profile-interval", "97"]) == 0
        out = capsys.readouterr().out
        assert "samples, " in out
        assert "function" in out and "opcode" in out

    def test_trace_stage_rollup_and_filtering(self, capsys, tmp_path):
        base = str(tmp_path / "trace")
        assert main(["trace", "memcached", "--out", base,
                     "--stage", "race_verification", "--top", "3"]) == 0
        out = capsys.readouterr().out
        # the rollup table covers every stage with sum/count/max columns
        assert "sum ms" in out and "count" in out and "max ms" in out
        assert "detect" in out and "race_verification" in out
        # the slowest-span listing is restricted to the requested stage
        assert "slowest spans in stage race_verification" in out
        assert "verify_report" in out
        assert "detect_seed" not in out.split("slowest spans")[1]

    def test_trace_unknown_stage_fails_and_lists_stages(self, capsys,
                                                        tmp_path):
        base = str(tmp_path / "trace")
        assert main(["trace", "memcached", "--out", base,
                     "--stage", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "no stage 'nonsense'" in err
        assert "detect" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestProgramSpec:
    def make_spec(self):
        from repro.apps.libsafe import build_module

        return ProgramSpec("demo", build_module, attacks=[
            AttackGroundTruth(
                "demo-1", "demo", VulnSiteType.MEMORY_OP,
                ("intercept.c", 165), "dying", {},
            ),
        ])

    def test_attack_for_site(self):
        spec = self.make_spec()
        module = spec.build()
        site = module.find_instructions(filename="intercept.c", line=165)[0]
        assert spec.attack_for_site(site.location).attack_id == "demo-1"
        other = module.find_instructions(filename="intercept.c", line=164)[0]
        assert spec.attack_for_site(other.location) is None

    def test_make_vm_uses_workload_inputs(self):
        spec = self.make_spec()
        spec.workload_inputs = {1: [5]}
        vm = spec.make_vm(seed=0)
        assert vm.inputs == {1: [5]}
        vm2 = spec.make_vm(seed=0, inputs={1: [9]})
        assert vm2.inputs == {1: [9]}

    def test_initial_world_factory(self):
        from repro.runtime.os_model import OSWorld

        spec = self.make_spec()
        spec.initial_world = lambda: OSWorld(uid=0, euid=0)
        vm = spec.make_vm()
        assert vm.world.uid == 0
