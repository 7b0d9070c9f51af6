"""Race report data structures shared by all detectors and by OWL.

A :class:`RaceReport` carries the two conflicting accesses with their call
stacks — the exact payload OWL's components consume: the adhoc-sync detector
inspects the read/write instructions (section 5.1), the dynamic race verifier
sets breakpoints on both (section 5.2), and the static vulnerability analyzer
starts Algorithm 1 from the racy load and its call stack (section 6.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.instructions import Instruction, Load

CallStack = Tuple[Tuple[str, str, int], ...]


class AccessRecord:
    """One side of a race: an instruction, its thread and its call stack."""

    def __init__(
        self,
        instruction: Instruction,
        thread_id: int,
        is_write: bool,
        value: int,
        call_stack: CallStack,
        address: int,
        step: int = 0,
        size: int = 1,
    ):
        self.instruction = instruction
        self.thread_id = thread_id
        self.is_write = is_write
        self.value = value
        self.call_stack = call_stack
        self.address = address
        self.step = step
        self.size = size

    @property
    def byte_range(self) -> Tuple[int, int]:
        """Half-open [start, end) span of bytes this access touched."""
        return (self.address, self.address + max(1, self.size))

    @property
    def location(self):
        return self.instruction.location

    def is_load(self) -> bool:
        return isinstance(self.instruction, Load)

    def __repr__(self) -> str:
        return "<Access %s t%d %s at %s>" % (
            "W" if self.is_write else "R", self.thread_id,
            self.instruction.opcode, self.location,
        )


class RaceReport:
    """Two unordered conflicting accesses to the same memory."""

    def __init__(self, first: AccessRecord, second: AccessRecord,
                 variable: Optional[str] = None, detector: str = "hb"):
        self.first = first
        self.second = second
        self.variable = variable
        self.detector = detector
        #: Loads of the racy address observed after the race, captured by the
        #: corrupted-address watch list (section 6.3's modified SKI policy).
        self.subsequent_reads: List[AccessRecord] = []
        #: Labels attached by OWL stages ("adhoc-sync", "verified", ...).
        self.tags: Dict[str, object] = {}

    # ------------------------------------------------------------------

    @property
    def static_key(self) -> Tuple[int, int]:
        """Unordered pair of instruction uids: the dedup key for reports."""
        a = self.first.instruction.uid or 0
        b = self.second.instruction.uid or 0
        return (a, b) if a <= b else (b, a)

    @property
    def uid(self) -> str:
        """Stable human-typable identifier ("r<a>-<b>") for this report.

        Derived from :attr:`static_key`, so it is identical across detector
        re-runs, job counts and processes — the handle ``owl explain`` and
        the provenance log key reports by.
        """
        a, b = self.static_key
        return "r%d-%d" % (a, b)

    @property
    def address(self) -> int:
        return self.first.address

    def accesses(self) -> Tuple[AccessRecord, AccessRecord]:
        return (self.first, self.second)

    def read_access(self) -> Optional[AccessRecord]:
        """The racy *load* whose corrupted value Algorithm 1 starts from.

        Prefers a load among the two racing accesses; for write-write races
        falls back to the first watched subsequent read (the detector
        modification described in section 6.3).
        """
        for access in self.accesses():
            if access.is_load():
                return access
        for access in self.subsequent_reads:
            if access.is_load():
                return access
        return None

    def write_access(self) -> Optional[AccessRecord]:
        for access in self.accesses():
            if access.is_write:
                return access
        return None

    def is_write_write(self) -> bool:
        return self.first.is_write and self.second.is_write

    def describe(self) -> str:
        lines = [
            "data race on %s (0x%x) [%s]" % (
                self.variable or "?", self.address, self.detector,
            )
        ]
        for label, access in (("first", self.first), ("second", self.second)):
            mode = "write" if access.is_write else "read"
            lines.append("  %s: %s by t%d at %s" % (
                label, mode, access.thread_id, access.location,
            ))
            for func, filename, line in reversed(access.call_stack):
                lines.append("    #%s (%s:%d)" % (func, filename, line))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<RaceReport %s %s<->%s>" % (
            self.variable or hex(self.address),
            self.first.location, self.second.location,
        )


class ReportSet:
    """Deduplicated collection of race reports (one per static pair)."""

    def __init__(self):
        self._by_key: Dict[Tuple[int, int], RaceReport] = {}

    def add(self, report: RaceReport) -> bool:
        """Insert; returns False (and merges watch data) for duplicates."""
        key = report.static_key
        existing = self._by_key.get(key)
        if existing is not None:
            existing.subsequent_reads.extend(report.subsequent_reads)
            return False
        self._by_key[key] = report
        return True

    def get(self, static_key: Tuple[int, int]) -> Optional[RaceReport]:
        """O(1) lookup of the canonical report for a static pair."""
        return self._by_key.get(static_key)

    def merge(self, other: "ReportSet") -> None:
        for report in other:
            self.add(report)

    def remove(self, report: RaceReport) -> None:
        self._by_key.pop(report.static_key, None)

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, report: RaceReport) -> bool:
        return report.static_key in self._by_key

    def reports(self) -> List[RaceReport]:
        return list(self._by_key.values())

    def untagged(self, tag: str) -> List[RaceReport]:
        return [report for report in self if tag not in report.tags]

    def tagged(self, tag: str) -> List[RaceReport]:
        return [report for report in self if tag in report.tags]


# ---------------------------------------------------------------------------
# payloads: plain tuples/dicts for process boundaries and cache entries.
# Instruction identity travels as the module uid; rehydrating against the
# same (deterministically built) module restores it.


def access_to_payload(record: AccessRecord) -> Tuple:
    return (
        record.instruction.uid or 0, record.thread_id, record.is_write,
        record.value, tuple(record.call_stack), record.address, record.step,
        record.size,
    )


def access_from_payload(module, payload: Tuple) -> AccessRecord:
    uid, thread_id, is_write, value, call_stack, address, step, size = payload
    # Frames arrive as tuples from pickled payloads but as lists from
    # JSON-round-tripped cache entries; normalize so both rehydrate to the
    # same CallStack shape.
    return AccessRecord(
        module.instruction_by_uid(uid), thread_id, is_write, value,
        tuple(tuple(frame) for frame in call_stack), address,
        step=step, size=size,
    )


def report_to_payload(report: RaceReport) -> Dict:
    return {
        "first": access_to_payload(report.first),
        "second": access_to_payload(report.second),
        "variable": report.variable,
        "detector": report.detector,
        "subsequent": [access_to_payload(a) for a in report.subsequent_reads],
    }


def report_from_payload(module, payload: Dict) -> RaceReport:
    report = RaceReport(
        access_from_payload(module, payload["first"]),
        access_from_payload(module, payload["second"]),
        variable=payload["variable"],
        detector=payload["detector"],
    )
    report.subsequent_reads.extend(
        access_from_payload(module, a) for a in payload["subsequent"]
    )
    return report


def reports_to_payloads(reports: Iterable[RaceReport]) -> List[Dict]:
    return [report_to_payload(report) for report in reports]


def reports_from_payloads(module, payloads: List[Dict]) -> ReportSet:
    reports = ReportSet()
    for payload in payloads:
        reports.add(report_from_payload(module, payload))
    return reports
