"""Oracle-verified automated race repair — the back half of ``owl fix``.

OWL's pipeline ends with *verified* races and realized attacks; this module
closes the detect→fix loop in the style of RaceFixer: for each verified
race it clones the module (:func:`repro.ir.patch.clone_module` — uids
preserved, so the race's static key still addresses the clone), synthesizes
candidate IR-level patches, and emits a candidate only after **three
independent gates** all pass:

(a) **diffcheck oracle** — behaviour-set inclusion.  A synchronization
    patch can only *restrict* the set of interleavings, never add one, so
    every observable behaviour of the patched module (OS world files,
    exec/privilege logs, stdout, exit code, faults, termination reason —
    projected over a serialized run plus the detect-seed sweep) must be a
    behaviour the unpatched module already exhibits over the same
    schedules.  A pairwise per-seed comparison is too strong here: lock
    acquisition order legitimately permutes schedule-dependent output
    (e.g. which log message lands first), and for programs whose threads
    block mid-critical-section even the serialized baseline overlaps the
    racy region.
(b) **detector re-run** — the spec's front-end detector (tsan or ski) over
    the full detect-seed sweep no longer reports the targeted static pair,
    (for tsan specs) the predictive detector does not predict it from a
    recorded trace of the patched module either, and no attack the
    pipeline realized on the repaired variable can still be driven against
    the patched module by the dynamic vulnerability verifier.  The attack
    leg is what rejects patches that merely *silence* the detector:
    promoting the racy pair to atomic accesses makes every detector go
    quiet yet constrains no interleaving, and the verifier still drives
    the exploit straight through the unchanged window.
(c) **scheduler sweep** — round-robin, random and PCT schedules all
    terminate normally: no new deadlock or livelock, step counts bounded
    by the spec budget.

Three candidate strategies, tried in deterministic order per target:

- ``mutex``   — region locking on one fresh lock word per variable,
  named after the variable's racy access-uid group: every function
  containing one of those accesses takes the lock on entry and releases
  it before each return, making the whole check-to-use window one
  critical section (the shape of the ``apps/*_fixed`` ground truth).
  Helper functions reached only through an already-locked caller are
  left unlocked — locking both would self-deadlock on the non-reentrant
  stdlib mutex.
- ``order``   — force one access before the other through the stdlib
  condvar primitives (``cond_broadcast`` after the first access,
  ``cond_wait`` before the second).  Ordering is wrong for most verified
  races — a waiter that arrives after the broadcast sleeps forever — and
  gate (c) rejects such candidates; the strategy exists for races whose
  fix really is an ordering, and the gates decide.
- ``realsync`` — adhoc-sync → real-sync rewrite: when the pair carries an
  :class:`repro.detectors.annotations.AdhocSyncAnnotation`, promote the
  flag's write and read to atomic accesses, so detectors need no
  annotation to see the synchronization.

Strategies run in rounds over the targets still unrepaired.  Within a
round, targets whose candidates print identically — every mutex target on
one variable — share one clone and are gated once
(:func:`_gate_candidate`): the oracle and scheduler verdicts do not read
the target, and gate (b) runs its sweep, predict leg and attack re-drives
once per variable, then reads each target's pair out of that evidence.
Gate (a)'s unpatched allowed set is built at most once per
:func:`repair_program` call, by the first oracle gate that runs.  Every
target still records its own attempts, gates, cache entry and patch
artifact, so targets on one variable carry one identical patch.

Each target's gating is one ``repair`` stage item (:func:`gate_item`,
:mod:`repro.owl.batch`), mapped through a :class:`repro.owl.sweep.Sweep`
once per distinct candidate and keyed by the patched clone and the
target's payload (:func:`gate_job`), which names everything the gates
read; the candidate's verdict memo rides in the map's ``local``.

Everything here is deterministic (no wall clock, no unseeded randomness),
runs serially regardless of the pipeline's ``jobs``, and orders targets by
static key — the ``repair`` metrics block is bit-identical at
``jobs=1`` vs ``jobs=N``.  Patched modules hash to different
:func:`repro.owl.cache.module_digest` values than their originals, so gate
results cached under a ``repair`` stage can never collide with the
unpatched module's detector entries.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime import externals

from repro.ir.instructions import (
    AtomicRMW, Call, Cast, Instruction, Load, Ret, Store)
from repro.ir.module import Module
from repro.ir.patch import ModulePatcher, clone_module, ir_diff
from repro.ir.types import I64, I8, PointerType
from repro.ir.verifier import verify_module
from repro.owl.batch import verify_job, verify_vuln_item, vuln_to_payload
from repro.owl.cache import module_digest
from repro.owl.sweep import Sweep
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import (
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.runtime.telemetry import MetricsRegistry

#: strategy order per target; first candidate passing all gates is emitted
STRATEGIES = ("mutex", "order", "realsync")

#: termination reasons gate (c) accepts
_CLEAN_REASONS = (ExecutionResult.FINISHED, ExecutionResult.EXITED)


# ---------------------------------------------------------------------------
# execution + behavioural projection


def _run_vm(spec, module: Module, scheduler, seed: int,
            inputs: Optional[Dict] = None) -> Tuple[VM, object]:
    vm = spec.make_vm(seed, inputs=inputs, scheduler=scheduler,
                      module=module)
    vm.start(spec.entry)
    result = vm.run()
    return vm, result


def behaviour_projection(spec, module: Module, scheduler, seed: int) -> Dict:
    """Everything the OS world can observe about one execution.

    Deliberately excludes step counts, addresses and interleaving detail:
    a patch adds instructions and shifts all of those without changing
    what the program *does*.  Faults are projected as sorted kinds — their
    presence is observable, their interleaved order is not.
    """
    vm, result = _run_vm(spec, module, scheduler, seed)
    world = vm.world
    return {
        "reason": result.reason,
        "exit_code": result.exit_code,
        "process_killed": world.process_killed,
        "stdout": bytes(world.stdout).hex(),
        "files": sorted(
            (path, bytes(handle.content).hex())
            for path, handle in world.files_by_path.items()
        ),
        "exec_log": [(record.kind, record.command, record.uid, record.euid)
                     for record in world.exec_log],
        "privilege_log": [(record.kind, record.target)
                          for record in world.privilege_log],
        "faults": sorted(fault.kind.value for fault in vm.faults),
    }


def _serial_scheduler(spec) -> RoundRobinScheduler:
    # Quantum ≥ the step budget: each thread runs until it blocks, so the
    # schedule is insensitive to patch-inserted instructions.
    return RoundRobinScheduler(quantum=spec.max_steps)


# ---------------------------------------------------------------------------
# gates


def _projection_key(projection: Dict) -> str:
    return json.dumps(projection, sort_keys=True)


@contextmanager
def _delays_neutralized():
    """Make ``io_delay``/``usleep`` no-ops for the serialized reference.

    Timing externals exist to stretch race windows: they force every
    work-conserving scheduler to run the *other* threads through the
    window, so the race-free serialized behaviour is unreachable in a
    normal sweep.  With delays gone, a run-to-block schedule executes each
    thread's critical path without interference — the legal behaviours an
    idling scheduler could have produced all along.
    """

    def _no_sleep(vm, thread, call, args):
        return None

    with externals.overridden("io_delay", _no_sleep):
        with externals.overridden("usleep", _no_sleep):
            yield


def _behaviour_set(spec, module: Module, seeds: Sequence[int]) -> Dict[str, str]:
    """Distinct observable behaviours over a serialized run + a seed sweep,
    keyed by canonical JSON, valued by the first schedule exhibiting each."""
    behaviours: Dict[str, str] = {}
    serial = behaviour_projection(spec, module, _serial_scheduler(spec), 0)
    behaviours[_projection_key(serial)] = "serial"
    for seed in seeds:
        projection = behaviour_projection(
            spec, module, RandomScheduler(seed), seed)
        behaviours.setdefault(_projection_key(projection), "seed=%d" % seed)
    return behaviours


def _reference_behaviours(spec, module: Module,
                          seeds: Sequence[int]) -> Dict[str, str]:
    """Race-free serializations of ``module`` over many thread orders.

    Delays are neutralized so each run-to-block schedule executes whole
    critical paths without interference, and a depth-1 PCT schedule (random
    thread priorities, no change points) serializes the threads in a
    seed-dependent *order* — together they enumerate the behaviours an
    idling scheduler could produce, e.g. "worker 2's log entry lands first"
    as well as "worker 1's does".
    """
    behaviours: Dict[str, str] = {}
    with _delays_neutralized():
        serial = behaviour_projection(spec, module, _serial_scheduler(spec), 0)
        behaviours[_projection_key(serial)] = "delay-free serial"
        for seed in seeds:
            projection = behaviour_projection(
                spec, module,
                PCTScheduler(seed=seed, depth=1,
                             expected_steps=spec.max_steps),
                seed)
            behaviours.setdefault(_projection_key(projection),
                                  "delay-free order seed=%d" % seed)
    return behaviours


def _allowed_behaviours(spec, original: Module,
                        seeds: Sequence[int]) -> Dict[str, str]:
    """Gate (a)'s allowed set: the unpatched module's behaviours over the
    seed sweep plus a deterministic margin, then under delay-neutralized
    serialization (see :func:`gate_oracle`)."""
    margin = ([max(seeds) + 1 + i for i in range(8)]
              if seeds else list(range(8)))
    allowed = _behaviour_set(spec, original, seeds + margin)
    for key, label in _reference_behaviours(spec, original,
                                            seeds + margin).items():
        allowed.setdefault(key, label)
    return allowed


def gate_oracle(spec, original: Module, patched: Module,
                seeds: Optional[Sequence[int]] = None,
                memo: Optional[Dict] = None) -> Dict:
    """Gate (a): behaviour-set inclusion, patched ⊆ unpatched.

    The unpatched set is collected over a wider sweep (the patched seeds
    plus a deterministic margin): a patch reshuffles which *seed* maps to
    which interleaving, so the allowed set must be sampled generously
    enough that a legitimate pre-existing behaviour is not misread as
    novel.  It additionally includes a delay-neutralized sweep of the
    unpatched module (see :func:`_delays_neutralized`): the serialized,
    race-free behaviour a correct patch enforces is often unreachable by
    any work-conserving schedule of the original, yet it is precisely the
    behaviour the patch must be allowed to produce.  Any behaviour only
    the patched module exhibits — new fault kinds, changed files, a
    deadlock reason — fails the gate.

    The allowed set depends only on ``original`` and the seeds.  Calls on
    one original may share a ``memo`` dict: the first call that needs a
    sweep's allowed set builds it there, and later calls reuse it.
    """
    seeds = list(spec.detect_seeds if seeds is None else seeds)
    allowed = None if memo is None else memo.get(tuple(seeds))
    if allowed is None:
        allowed = _allowed_behaviours(spec, original, seeds)
        if memo is not None:
            memo[tuple(seeds)] = allowed
    observed = _behaviour_set(spec, patched, seeds)
    novel = sorted(label for key, label in observed.items()
                   if key not in allowed)
    return {
        "passed": not novel,
        "unpatched_behaviours": len(allowed),
        "patched_behaviours": len(observed),
        "novel_behaviours": novel,
        "seeds_checked": len(seeds) + 1,
    }


def _front_detector_reports(spec, module: Module):
    from repro.detectors.seed import run_seeds
    from repro.owl.integration import spec_job

    reports, _ = run_seeds(module, spec_job(spec), spec.detect_seeds)
    return reports


def gate_detector(spec, patched: Module, pairs: Sequence[Tuple[int, int]],
                  variable: Optional[str] = None,
                  attack_probes: Optional[Sequence[Tuple[Dict, object]]] = None
                  ) -> List[Dict]:
    """Gate (b): the targeted pair is gone from detect *and* predict, and
    no attack the pipeline realized on this variable still realizes.

    Runs without annotations on purpose: a repair (realsync in
    particular) must stand on its own synchronization, not on an adhoc
    annotation silencing the report.  ``attack_probes`` are
    ``(vulnerability_payload, ground_truth)`` pairs for attacks the
    pipeline *realized* on the unpatched module; each is re-driven against
    the patched clone with the full
    :class:`repro.owl.vuln_verifier.DynamicVulnerabilityVerifier` —
    subtle inputs, racing-order enforcement, breakpoint steering — and
    must no longer realize.  A plain seed sweep is too weak here: a patch
    that promotes the racy pair to atomic accesses silences every
    detector without constraining the interleaving, random schedules
    almost never thread the narrow window on their own, and only the
    order-enforcing verifier reliably drives the exploit — exactly that
    class of patch must die on this leg.

    ``pairs`` are the targeted static pairs of every target one candidate
    repairs on ``variable``.  The detect sweep, the predict leg and the
    attack re-drives do not read them, so they run once; one gate dict per
    pair comes back, in order.
    """
    reports = _front_detector_reports(spec, patched)
    reported = {report.static_key for report in reports}
    predicted = None
    if spec.detector == "tsan":
        from repro.detectors.predict import predict_from_log
        from repro.runtime.record import record_seed

        seed = next(iter(spec.detect_seeds), 0)
        log, _result, _ = record_seed(
            patched,
            seed,
            entry=spec.entry,
            inputs=spec.workload_inputs,
            max_steps=spec.max_steps,
            scheduler=RandomScheduler(seed),
            scheduler_label="random",
            world=spec.make_world(),
            program=spec.name,
        )
        predicted = predict_from_log(
            patched, log, inputs=spec.workload_inputs,
            world_factory=spec.initial_world,
        ).predicted_keys
    probes = _probes_on(attack_probes, variable)
    attacks_realized = []
    for payload, truth in probes:
        if _drive_attack(spec, patched, payload, truth):
            attacks_realized.append(truth.attack_id)
    gates = []
    for pair in pairs:
        pair_reported = pair in reported
        pair_predicted = predicted is not None and pair in predicted
        gates.append({
            "passed": (not pair_reported and not pair_predicted
                       and not attacks_realized),
            "pair_reported": pair_reported,
            "pair_predicted": pair_predicted,
            "predict_ran": predicted is not None,
            "reports_total": len(reports),
            "attacks_checked": len(probes),
            "attacks_realized": list(attacks_realized),
        })
    return gates


def _probes_on(attack_probes: Optional[Sequence[Tuple[Dict, object]]],
               variable: Optional[str]) -> List[Tuple[Dict, object]]:
    """The attack probes gate (b) re-drives for a target on ``variable``."""
    return [(payload, truth) for payload, truth in (attack_probes or [])
            if variable is not None and truth.racy_variable == variable]


def _drive_attack(spec, patched: Module, payload: Dict, truth) -> bool:
    """Re-run one realized attack against the patched module.

    ``clone_module`` preserves uids, so the vulnerability payload recorded
    against the original resolves on the clone — same site, same branches,
    same source race — and the vulnerability item's verifier steers the
    patched execution with everything it has (the attack's subtle inputs,
    racing-order breakpoints over the verify seeds).  Returns whether the
    attack still realized.
    """
    job = verify_job(spec, vuln=payload, inputs=truth.subtle_inputs)
    return verify_vuln_item(job, spec=spec, module=patched)["attack_realized"]


def gate_schedulers(spec, patched: Module,
                    seeds: Sequence[int] = range(3)) -> Dict:
    """Gate (c): no deadlock/livelock under any scheduler family."""
    runs = []
    sweep = [("round_robin", RoundRobinScheduler(), 0)]
    for seed in seeds:
        sweep.append(("random", RandomScheduler(seed), seed))
        sweep.append(("pct", PCTScheduler(seed=seed), seed))
    for label, scheduler, seed in sweep:
        _, result = _run_vm(spec, patched, scheduler, seed)
        runs.append({
            "scheduler": label,
            "seed": seed,
            "reason": result.reason,
            "steps": result.steps,
        })
    bad = [run for run in runs if run["reason"] not in _CLEAN_REASONS]
    return {
        "passed": not bad,
        "runs": runs,
        "violations": [
            "%s seed=%d: %s" % (run["scheduler"], run["seed"], run["reason"])
            for run in bad
        ],
    }


# ---------------------------------------------------------------------------
# candidate synthesis


def _lock_name(uids: Sequence[int], suffix: str = "lock") -> str:
    return "__owl_fix_%s_%s" % (suffix, "_".join(str(uid) for uid in uids))


def _as_i8_pointer(patcher: ModulePatcher, anchor: Instruction,
                   variable, before: bool) -> Cast:
    cast = Cast("bitcast", variable, PointerType(I8))
    if before:
        patcher.insert_before(anchor, cast)
    else:
        patcher.insert_after(anchor, cast)
    return cast


def synthesize_mutex(module: Module, static_key: Tuple[int, int],
                     access_uids: Optional[Sequence[int]] = None
                     ) -> Optional[ModulePatcher]:
    """Region-lock every function touching the racy variable.

    ``access_uids`` is the union of the variable's verified racy access
    uids (all reports sharing the target's variable); it defaults to the
    target pair alone.  Each containing function takes one fresh lock word
    on entry and releases it before every return, so the entire
    check-to-use window becomes a single critical section — a per-access
    lock/unlock pair would remove the data race yet leave the atomicity
    violation (and the attack) intact.  The lock is named after the uid
    group, so every target on one variable gets the same patch.  A
    containing function that is itself called from another containing
    function is left unlocked: its racy path already runs under the
    caller's lock, and taking the non-reentrant stdlib mutex twice would
    self-deadlock (gate (c) exists to catch exactly that, but there is no
    reason to synthesize it).
    """
    uids = sorted(set(access_uids if access_uids else static_key))
    accesses = [module.instruction_by_uid(uid) for uid in uids]
    if not all(isinstance(a, (Load, Store, AtomicRMW)) for a in accesses):
        return None
    functions = []
    for access in accesses:
        function = access.block.function
        if function not in functions:
            functions.append(function)
    called_within = set()
    for function in functions:
        for instruction in function.instructions():
            if (isinstance(instruction, Call)
                    and instruction.callee in functions
                    and instruction.callee is not function):
                called_within.add(instruction.callee.name)
    to_lock = [function for function in functions
               if function.name not in called_within]
    patcher = ModulePatcher(module)
    lock = patcher.add_global(_lock_name(uids), I64, 0)
    lock_fn = patcher.ensure_external("mutex_lock")
    unlock_fn = patcher.ensure_external("mutex_unlock")
    for function in to_lock:
        first = function.first_instruction()
        entry_ptr = _as_i8_pointer(patcher, first, lock, before=True)
        patcher.insert_before(first, Call(lock_fn, [entry_ptr]))
        returns = [instruction for instruction in function.instructions()
                   if isinstance(instruction, Ret)]
        for ret in returns:
            exit_ptr = _as_i8_pointer(patcher, ret, lock, before=True)
            patcher.insert_before(ret, Call(unlock_fn, [exit_ptr]))
    return patcher


def synthesize_order(module: Module, static_key: Tuple[int, int]
                     ) -> Optional[ModulePatcher]:
    """Order the pair through the condvar primitives: the lower-uid access
    broadcasts after it runs; the other waits first.

    A deliberately optimistic candidate — if the broadcast can run before
    the waiter parks (the common case for verified races, which have no
    inherent order), the waiter sleeps forever and gate (c) rejects the
    candidate with a deadlock verdict.
    """
    first_uid, second_uid = min(static_key), max(static_key)
    if first_uid == second_uid:
        return None  # one instruction racing with itself has no order
    first = module.instruction_by_uid(first_uid)
    second = module.instruction_by_uid(second_uid)
    if not all(isinstance(a, (Load, Store, AtomicRMW))
               for a in (first, second)):
        return None
    patcher = ModulePatcher(module)
    cond = patcher.add_global(_lock_name(static_key, "cond"), I64, 0)
    lock = patcher.add_global(_lock_name(static_key, "condlock"), I64, 0)
    lock_fn = patcher.ensure_external("mutex_lock")
    unlock_fn = patcher.ensure_external("mutex_unlock")
    wait_fn = patcher.ensure_external("cond_wait")
    broadcast_fn = patcher.ensure_external("cond_broadcast")
    # first access, then: lock; broadcast; unlock
    cond_out = _as_i8_pointer(patcher, first, cond, before=False)
    lock_out = _as_i8_pointer(patcher, cond_out, lock, before=False)
    patcher.insert_after(lock_out, Call(lock_fn, [lock_out]))
    broadcast = patcher.insert_after(lock_out, Call(broadcast_fn, [cond_out]))
    patcher.insert_after(broadcast, Call(unlock_fn, [lock_out]))
    # before second access: lock; wait; unlock
    cond_in = _as_i8_pointer(patcher, second, cond, before=True)
    lock_in = _as_i8_pointer(patcher, second, lock, before=True)
    patcher.insert_before(second, Call(lock_fn, [lock_in]))
    patcher.insert_before(second, Call(wait_fn, [cond_in, lock_in]))
    patcher.insert_before(second, Call(unlock_fn, [lock_in]))
    return patcher


def synthesize_realsync(module: Module, static_key: Tuple[int, int],
                        annotations) -> Optional[ModulePatcher]:
    """Adhoc-sync → real sync: promote the annotated flag accesses to
    atomic, so the synchronization is visible without any annotation."""
    if annotations is None:
        return None
    match = None
    for annotation in annotations:
        if tuple(sorted(annotation.static_key)) == tuple(sorted(static_key)):
            match = annotation
            break
    if match is None:
        return None
    read = module.instruction_by_uid(match.read_instruction.uid)
    write = module.instruction_by_uid(match.write_instruction.uid)
    if not all(isinstance(a, (Load, Store)) for a in (read, write)):
        return None
    patcher = ModulePatcher(module)
    patcher.set_atomic(write, True)
    patcher.set_atomic(read, True)
    return patcher


def synthesize(strategy: str, module: Module, static_key: Tuple[int, int],
               annotations=None,
               access_uids: Optional[Sequence[int]] = None
               ) -> Optional[ModulePatcher]:
    if strategy == "mutex":
        return synthesize_mutex(module, static_key, access_uids=access_uids)
    if strategy == "order":
        return synthesize_order(module, static_key)
    if strategy == "realsync":
        return synthesize_realsync(module, static_key, annotations)
    raise ValueError("unknown repair strategy %r" % strategy)


# ---------------------------------------------------------------------------
# per-target driving


class CandidateOutcome:
    """One strategy's attempt on one target."""

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.applicable = False
        self.gates: Dict[str, Dict] = {}
        self.passed = False
        self.ops: List[str] = []
        self.diff: List[str] = []
        self.patched_digest: Optional[str] = None
        self.cached = False

    def as_dict(self) -> Dict:
        return {
            "strategy": self.strategy,
            "applicable": self.applicable,
            "passed": self.passed,
            "gates": {
                name: {key: value for key, value in outcome.items()
                       if key != "runs"}
                for name, outcome in self.gates.items()
            },
        }


class TargetOutcome:
    """Everything repair did for one verified race."""

    def __init__(self, report):
        self.report = report
        self.static_key = report.static_key
        self.uid = report.uid
        self.variable = report.variable
        self.attempts: List[CandidateOutcome] = []
        self.emitted: Optional[CandidateOutcome] = None
        self.ground_truth_race_gone: Optional[bool] = None

    @property
    def repaired(self) -> bool:
        return self.emitted is not None

    def patch_payload(self, program: str) -> Optional[Dict]:
        """The emitted patch + evidence artifact (JSON-serializable)."""
        if self.emitted is None:
            return None
        return {
            "program": program,
            "target": {
                "uid": self.uid,
                "static_key": list(self.static_key),
                "variable": self.variable,
                "locations": [str(self.report.first.location),
                              str(self.report.second.location)],
            },
            "strategy": self.emitted.strategy,
            "ops": list(self.emitted.ops),
            "ir_diff": list(self.emitted.diff),
            "gates": self.emitted.gates,
            "patched_digest": self.emitted.patched_digest,
            "ground_truth_race_gone": self.ground_truth_race_gone,
        }

    def as_dict(self) -> Dict:
        return {
            "uid": self.uid,
            "static_key": list(self.static_key),
            "variable": self.variable,
            "repaired": self.repaired,
            "strategy": self.emitted.strategy if self.emitted else None,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
            "ground_truth_race_gone": self.ground_truth_race_gone,
        }


class RepairResult:
    """Outcome of one ``repair_program`` run."""

    def __init__(self, program: str):
        self.program = program
        self.targets: List[TargetOutcome] = []
        self.registry = MetricsRegistry()
        self.ground_truth_spec: Optional[str] = None
        self.original_digest: Optional[str] = None

    @property
    def emitted(self) -> List[TargetOutcome]:
        return [target for target in self.targets if target.repaired]

    def patch_payloads(self) -> List[Dict]:
        return [target.patch_payload(self.program)
                for target in self.emitted]

    def metrics_block(self) -> Dict:
        """The metrics-JSON ``"repair"`` block.

        Deterministic given the spec — targets are processed in static-key
        order and nothing here reads a clock — so jobs=1 and jobs=N runs
        serialize bit-identically.
        """
        matched = [target.ground_truth_race_gone
                   for target in self.emitted
                   if target.ground_truth_race_gone is not None]
        return {
            "program": self.program,
            "original_digest": self.original_digest,
            "targets": len(self.targets),
            "candidates": sum(len(target.attempts)
                              for target in self.targets),
            "emitted": len(self.emitted),
            "ground_truth": {
                "spec": self.ground_truth_spec,
                "checked": len(matched),
                "matched": sum(1 for value in matched if value),
            },
            "per_target": [target.as_dict() for target in self.targets],
            "counters": self.registry.snapshot()["counters"],
        }

    def describe(self) -> str:
        lines = ["repair (%s): %d/%d verified races repaired" % (
            self.program, len(self.emitted), len(self.targets))]
        for target in self.targets:
            if target.repaired:
                verdict = "repaired via %s" % target.emitted.strategy
            else:
                verdict = "unrepaired (%d candidates rejected)" % len(
                    target.attempts)
            lines.append("  %s %s at %s / %s: %s" % (
                target.uid, target.variable or "?",
                target.report.first.location, target.report.second.location,
                verdict))
            for attempt in target.attempts:
                if not attempt.applicable:
                    lines.append("    %-8s inapplicable" % attempt.strategy)
                    continue
                gates = ", ".join(
                    "%s=%s" % (name, "ok" if outcome["passed"] else "FAIL")
                    for name, outcome in attempt.gates.items())
                lines.append("    %-8s %s" % (attempt.strategy, gates))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# gating: one ``repair`` stage item per target


#: The gates, in the order each target meets them.
GATES = ("oracle", "detector", "schedulers")


def gate_job(spec, target: TargetOutcome, sweep_seeds: Sequence[int],
             attack_probes: Sequence[Tuple[Dict, object]]) -> Dict:
    """One target's item payload: everything its gates read beside the
    patched clone, which keys the item as its module — the spec's name,
    entry, workload inputs, verify seeds and step budget
    (:func:`repro.owl.batch.verify_job`), its detector and detect seeds,
    the scheduler sweep, the targeted pair and variable, and the realized
    attacks gate (b) re-drives on that variable."""
    return verify_job(
        spec, detector=spec.detector, detect_seeds=list(spec.detect_seeds),
        sweep=list(sweep_seeds), target=list(target.static_key),
        variable=target.variable,
        probes=[[payload, truth.attack_id, truth.subtle_inputs]
                for payload, truth in _probes_on(attack_probes,
                                                 target.variable)])


def gate_item(job: Dict, tracer=None, gate=None) -> Dict:
    """Gate one target (``job``, :func:`gate_job`): ``gate(name, job)`` is
    gate ``name``'s verdict on the target's candidate, and the gates run
    in order up to the first that fails.  The output payload: their
    verdicts, and whether all three passed."""
    verdicts: Dict[str, Dict] = {}
    for name in GATES:
        verdicts[name] = gate(name, job)
        if not verdicts[name]["passed"]:
            break
    return {"gates": verdicts, "passed": verdicts[name]["passed"]}


def _gate_candidate(sweep, spec, original: Module, patched: Module,
                    members: Sequence[Tuple[TargetOutcome, CandidateOutcome]],
                    registry: MetricsRegistry,
                    sweep_seeds: Sequence[int],
                    unpatched: Dict,
                    attack_probes: Sequence[Tuple[Dict, object]]) -> None:
    """Gate one distinct candidate for every target (``members``) whose
    synthesized clone printed identically: one ``repair`` item per target
    through ``sweep``, keyed by the clone and the target's payload.

    Each gate runs on first need and at most once: the oracle and
    scheduler verdicts do not read the target, and gate (b) runs once per
    variable and reads each member's pair out of that one run.  Each
    member stops at its first failing gate, so it records exactly the
    gates dict it would record if gated alone; with a cache, every member
    keeps its own entry, and only members that miss are gated.
    ``unpatched`` is gate (a)'s memo.
    """
    verdicts: Dict[Tuple[str, Optional[str]], Dict] = {}

    def gate(name: str, job: Dict) -> Dict:
        variable = job["variable"] if name == "detector" else None
        if (name, variable) not in verdicts:
            if name == "oracle":
                verdict = gate_oracle(spec, original, patched, memo=unpatched)
            elif name == "detector":
                pairs = [target.static_key for target, _ in members
                         if target.variable == variable]
                verdict = dict(zip(pairs, gate_detector(
                    spec, patched, pairs, variable=variable,
                    attack_probes=attack_probes)))
            else:
                verdict = gate_schedulers(spec, patched, seeds=sweep_seeds)
            verdicts[name, variable] = verdict
        verdict = verdicts[name, variable]
        return verdict[tuple(job["target"])] if name == "detector" else verdict

    def finish(index: int, output: Dict) -> None:
        attempt = members[index][1]
        attempt.gates = output["gates"]
        attempt.passed = output["passed"]
        attempt.cached = bool(output.get("cached"))
        for name, verdict in attempt.gates.items():
            registry.counter("repair.gate.%s.%s" % (
                name, "pass" if verdict["passed"] else "fail")).inc()

    jobs = [gate_job(spec, target, sweep_seeds, attack_probes)
            for target, _ in members]
    sweep.map("repair", gate_item, jobs, sweep.keys("repair", patched, jobs),
              finish, rebuildable=False, gate=gate)


def repair_program(spec, result=None,
                   strategies: Sequence[str] = STRATEGIES,
                   sweep_seeds: Sequence[int] = range(3),
                   max_targets: Optional[int] = None,
                   include_adhoc: bool = False,
                   cache=None) -> RepairResult:
    """Synthesize and gate patches for every verified race of ``spec``.

    ``result`` is a finished :class:`repro.owl.pipeline.PipelineResult`
    (one is computed serially when omitted).  Targets are the pipeline's
    ``remaining_reports`` — races the verifier reproduced — plus, with
    ``include_adhoc=True``, the adhoc-annotated reports (for which the
    ``realsync`` rewrite is the natural candidate).  Emitted patches are
    recorded into ``result.provenance`` under the ``repair`` stage with
    verdict ``"repaired"``.
    """
    if result is None:
        from repro.owl.pipeline import OwlPipeline

        result = OwlPipeline(spec, cache=cache).run()

    repair = RepairResult(spec.name)
    registry = repair.registry
    original = spec.build()
    repair.original_digest = module_digest(original)

    targets = sorted(result.remaining_reports, key=lambda r: r.static_key)
    if include_adhoc and result.annotations is not None:
        annotated_keys = {tuple(sorted(a.static_key))
                          for a in result.annotations}
        extra = [report for report in result.raw_reports
                 if tuple(sorted(report.static_key)) in annotated_keys]
        known = {target.static_key for target in targets}
        targets += sorted(
            (report for report in extra if report.static_key not in known),
            key=lambda r: r.static_key)
    if max_targets is not None:
        targets = targets[:max_targets]

    # The mutex strategy locks the variable's whole access region: union
    # the racy access uids across every verified report on that variable.
    uids_by_variable: Dict[str, set] = {}
    for report in result.remaining_reports:
        if report.variable:
            uids_by_variable.setdefault(
                report.variable, set()).update(report.static_key)

    # Attacks the pipeline realized on the unpatched module, as payloads
    # that resolve against uid-preserving clones: gate (b) re-drives each
    # against every candidate and requires it to stop realizing.
    attack_probes = [
        (vuln_to_payload(detected.vulnerability), detected.ground_truth)
        for detected in getattr(result, "attacks", [])
        if detected.realized and detected.ground_truth is not None
    ]

    for report in targets:
        repair.targets.append(TargetOutcome(report))
        registry.counter("repair.targets").inc()
    annotations = result.annotations
    unpatched: Dict = {}
    sweep = Sweep(cache=cache)
    pending = list(repair.targets)
    for strategy in strategies:
        # One round per strategy over the targets still unrepaired.
        # Candidates that print identically (every mutex target on one
        # variable) share one clone and one gating.
        candidates: Dict[str, Tuple[Module, List[str], List]] = {}
        for target in pending:
            attempt = CandidateOutcome(strategy)
            target.attempts.append(attempt)
            patched = clone_module(original)
            patcher = synthesize(
                strategy, patched, target.static_key,
                annotations=annotations,
                access_uids=sorted(
                    uids_by_variable.get(target.variable or "", set())
                    or set(target.static_key)))
            if patcher is None:
                continue
            attempt.applicable = True
            registry.counter("repair.candidates").inc()
            attempt.ops = list(patcher.ops)
            digest = module_digest(patched)
            if digest not in candidates:
                verify_module(patched)
                candidates[digest] = (patched, ir_diff(original, patched), [])
            _, diff, members = candidates[digest]
            attempt.patched_digest = digest
            attempt.diff = list(diff)
            members.append((target, attempt))
        for patched, _, members in candidates.values():
            _gate_candidate(sweep, spec, original, patched, members, registry,
                            sweep_seeds, unpatched, attack_probes)
            # The clone is done executing.  IR graphs are cyclic, so it
            # waits for the cyclic collector; its ops and plans need not.
            patched.fuse_engine = None
            for target, attempt in members:
                if attempt.passed:
                    target.emitted = attempt
                    registry.counter("repair.emitted").inc()
                    registry.counter("repair.emitted.%s" % strategy).inc()
        pending = [target for target in pending if not target.repaired]
    for target in pending:
        registry.counter("repair.unrepaired").inc()

    _check_ground_truth(spec, repair)
    _record_provenance(result, repair)
    return repair


def _check_ground_truth(spec, repair: RepairResult) -> None:
    """Compare against the ``apps/*_fixed`` variant when one is registered:
    its detector sweep must agree that the repaired variable no longer
    races (same disposition as our gated patch)."""
    from repro.apps.registry import has_spec, spec_by_name

    fixed_name = "%s_fixed" % spec.name
    if not has_spec(fixed_name) or not repair.targets:
        return
    fixed_spec = spec_by_name(fixed_name)
    repair.ground_truth_spec = fixed_name
    reports = _front_detector_reports(fixed_spec, fixed_spec.build())
    racing_variables = {report.variable for report in reports}
    for target in repair.targets:
        target.ground_truth_race_gone = (
            target.variable not in racing_variables)
        repair.registry.counter(
            "repair.ground_truth.%s" % (
                "matched" if target.ground_truth_race_gone else "mismatched")
        ).inc()


def _record_provenance(result, repair: RepairResult) -> None:
    provenance = getattr(result, "provenance", None)
    if provenance is None:
        return
    for target in repair.targets:
        if target.repaired:
            provenance.record(
                target.report, "repair", "repaired",
                strategy=target.emitted.strategy,
                gates={name: outcome["passed"]
                       for name, outcome in target.emitted.gates.items()},
                patched_digest=target.emitted.patched_digest,
            )
        else:
            provenance.record(
                target.report, "repair", "unrepaired",
                candidates=[attempt.strategy
                            for attempt in target.attempts
                            if attempt.applicable],
            )


def merge_repair_telemetry(result, repair: RepairResult,
                           cache=None) -> None:
    """Fold the ``repair.*`` counters into the run's telemetry snapshot.

    With the ``cache`` the repair ran against, its ``repair`` stage
    counters land too, as ``cache.repair.*``: the pipeline folded the
    cache's registry in before the repair stage looked anything up, and
    repair touches no other cache stage, so nothing counts twice.
    """
    from repro.runtime.telemetry import merge_snapshots

    snapshot = repair.registry.snapshot()
    if cache is not None:
        snapshot = merge_snapshots(snapshot, {"counters": {
            "cache.repair." + what: value
            for what, value in cache.stage_counters("repair").items()}})
    if getattr(result, "telemetry", None) is not None:
        result.telemetry = merge_snapshots(result.telemetry, snapshot)
    metrics = getattr(result, "metrics", None)
    if metrics is not None and "telemetry" in metrics.blocks:
        metrics.blocks["telemetry"] = result.telemetry
