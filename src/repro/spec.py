"""Program-under-test specifications.

A :class:`ProgramSpec` bundles everything OWL needs to analyze one target:
the module factory, the entry point, the testing workload inputs, which
detector front end applies (TSan for applications, SKI for kernels), and the
ground truth for its known concurrency attacks — used by the pipeline to
match findings, by the exploit drivers to steer inputs/schedules, and by the
benchmarks to compare against the paper's tables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.owl.vuln_sites import VulnSiteType
from repro.runtime.interpreter import VM
from repro.runtime.os_model import OSWorld
from repro.runtime.scheduler import RandomScheduler, Scheduler


class AttackGroundTruth:
    """One known (or newly found) concurrency attack in a target program."""

    def __init__(
        self,
        attack_id: str,
        name: str,
        vuln_type: VulnSiteType,
        site_location: Tuple[str, int],
        racy_variable: str,
        subtle_inputs: Dict,
        description: str = "",
        naive_inputs: Optional[Dict] = None,
        racing_order: str = "write-first",
        predicate: Optional[Callable[[VM], bool]] = None,
        reference: str = "",
        subtle_input_summary: str = "",
    ):
        self.attack_id = attack_id
        self.name = name
        self.vuln_type = vuln_type
        self.site_location = site_location
        self.racy_variable = racy_variable
        self.subtle_inputs = subtle_inputs
        self.naive_inputs = naive_inputs if naive_inputs is not None else {}
        self.racing_order = racing_order
        self.predicate = predicate
        self.description = description
        self.reference = reference
        #: Table-4-style human description of the subtle inputs
        self.subtle_input_summary = subtle_input_summary

    def matches_site(self, location) -> bool:
        return (
            location.filename == self.site_location[0]
            and location.line == self.site_location[1]
        )

    def __repr__(self) -> str:
        return "<Attack %s %s at %s:%d>" % (
            self.attack_id, self.vuln_type.value, *self.site_location,
        )


class ProgramSpec:
    """One target program plus its testing configuration."""

    def __init__(
        self,
        name: str,
        module_factory: Callable[[], Module],
        detector: str = "tsan",
        entry: str = "main",
        workload_inputs: Optional[Dict] = None,
        detect_seeds: Sequence[int] = range(10),
        verify_seeds: Sequence[int] = range(6),
        max_steps: int = 120_000,
        attacks: Sequence[AttackGroundTruth] = (),
        paper_loc: str = "",
        paper_raw_reports: Optional[int] = None,
        paper_remaining_reports: Optional[int] = None,
        paper_adhoc_syncs: Optional[int] = None,
        initial_world: Optional[Callable[[], OSWorld]] = None,
    ):
        self.name = name
        self.module_factory = module_factory
        self.detector = detector
        self.entry = entry
        self.workload_inputs = dict(workload_inputs or {})
        self.detect_seeds = list(detect_seeds)
        self.verify_seeds = list(verify_seeds)
        self.max_steps = max_steps
        self.attacks = list(attacks)
        self.paper_loc = paper_loc
        self.paper_raw_reports = paper_raw_reports
        self.paper_remaining_reports = paper_remaining_reports
        self.paper_adhoc_syncs = paper_adhoc_syncs
        self.initial_world = initial_world
        self._module: Optional[Module] = None

    # ------------------------------------------------------------------

    def build(self) -> Module:
        """The module, built once and cached (instruction uids must be stable)."""
        if self._module is None:
            self._module = self.module_factory()
        return self._module

    def rebuild(self) -> Module:
        self._module = self.module_factory()
        return self._module

    def make_world(self) -> Optional[OSWorld]:
        """A fresh OS world for one execution (None: the VM's default)."""
        return self.initial_world() if self.initial_world is not None else None

    def make_vm(
        self,
        seed: int = 0,
        inputs: Optional[Dict] = None,
        scheduler: Optional[Scheduler] = None,
        max_steps: Optional[int] = None,
        module: Optional[Module] = None,
    ) -> VM:
        """A VM for one execution of this spec: ``seed``'s random scheduler
        unless ``scheduler`` is given, a fresh world, the workload inputs
        and step budget unless overridden, on the built module unless
        ``module`` (a patched clone) is given."""
        world = self.make_world()
        return VM(
            module if module is not None else self.build(),
            scheduler=scheduler or RandomScheduler(seed),
            world=world,
            inputs=inputs if inputs is not None else self.workload_inputs,
            max_steps=max_steps or self.max_steps,
            seed=seed,
        )

    def attack_for_site(self, location) -> Optional[AttackGroundTruth]:
        for attack in self.attacks:
            if attack.matches_site(location):
                return attack
        return None

    def __repr__(self) -> str:
        return "<ProgramSpec %s detector=%s attacks=%d>" % (
            self.name, self.detector, len(self.attacks),
        )
