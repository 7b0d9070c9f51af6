"""TSan-markup-style annotations applied by OWL's adhoc-sync stage.

Paper section 5.1: after identifying an adhoc synchronization (one thread
busy-waits on a shared flag until another sets it), "OWL automatically
annotates program source code with TSAN markups and re-runs the detector".

Rather than rewriting the IR, an :class:`AnnotationSet` tells the
happens-before detector to treat the annotated write as a *release* and the
annotated read as an *acquire* on the accessed address — semantically
identical to inserting ``__tsan_release`` / ``__tsan_acquire`` markups at
those source locations.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.ir.instructions import Instruction
from repro.ir.values import SourceLocation


class AdhocSyncAnnotation:
    """One adhoc synchronization: the flag's write and read locations."""

    def __init__(self, read_instruction: Instruction, write_instruction: Instruction,
                 variable: Optional[str] = None):
        self.read_instruction = read_instruction
        self.write_instruction = write_instruction
        self.variable = variable

    @property
    def read_location(self) -> SourceLocation:
        return self.read_instruction.location

    @property
    def write_location(self) -> SourceLocation:
        return self.write_instruction.location

    @property
    def static_key(self) -> Tuple[int, int]:
        return (self.write_instruction.uid or 0, self.read_instruction.uid or 0)

    def describe(self) -> str:
        return "adhoc sync on %s: write at %s, read at %s" % (
            self.variable or "?", self.write_location, self.read_location,
        )

    def __repr__(self) -> str:
        return "<AdhocSync %s>" % self.describe()


class AnnotationSet:
    """The set of annotated instructions consulted by detectors."""

    def __init__(self, annotations: Iterable[AdhocSyncAnnotation] = ()):
        self.annotations: List[AdhocSyncAnnotation] = []
        self._release_uids: Set[int] = set()
        self._acquire_uids: Set[int] = set()
        for annotation in annotations:
            self.add(annotation)

    def add(self, annotation: AdhocSyncAnnotation) -> None:
        self.annotations.append(annotation)
        self._release_uids.add(annotation.write_instruction.uid or -1)
        self._acquire_uids.add(annotation.read_instruction.uid or -1)

    def is_release(self, instruction: Instruction) -> bool:
        return (instruction.uid or -2) in self._release_uids

    def is_acquire(self, instruction: Instruction) -> bool:
        return (instruction.uid or -2) in self._acquire_uids

    def __len__(self) -> int:
        return len(self.annotations)

    def __iter__(self):
        return iter(self.annotations)

    def unique_static_count(self) -> int:
        """Number of distinct static adhoc synchronizations annotated."""
        return len({annotation.static_key for annotation in self.annotations})


def annotations_to_payload(
        annotations: Optional[AnnotationSet]) -> Optional[Tuple]:
    """The annotations as ``(read uid, write uid, variable)`` triples.

    Instruction identity travels as the module uid, so the payload can
    cross process boundaries and key cache entries.
    """
    if annotations is None:
        return None
    return tuple(
        (a.read_instruction.uid or 0, a.write_instruction.uid or 0,
         a.variable)
        for a in annotations
    )


def annotations_from_payload(module,
                             payload: Optional[Tuple]) -> Optional[AnnotationSet]:
    """Rehydrate :func:`annotations_to_payload` output against ``module``."""
    if payload is None:
        return None
    return AnnotationSet(
        AdhocSyncAnnotation(
            module.instruction_by_uid(read_uid),
            module.instruction_by_uid(write_uid),
            variable,
        )
        for read_uid, write_uid, variable in payload
    )
