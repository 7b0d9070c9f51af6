"""Shared building blocks for the model target programs.

Real servers carry large amounts of *benign* shared state that race
detectors flag: statistics counters updated without locks (harmless), and
adhoc flag synchronizations (correct but invisible to happens-before
detectors).  ``add_benign_counters`` and ``add_adhoc_sync_workers`` generate
those at a configurable scale so each model app reproduces the paper's
signal-to-noise ratio: the vulnerable race is a needle in a haystack of
benign reports (paper Finding V).
"""

from __future__ import annotations

from typing import List

from repro.ir.builder import IRBuilder
from repro.ir.types import I32, I64, I8, ptr
from repro.ir.values import GlobalVariable


def add_benign_counters(
    builder: IRBuilder,
    count: int,
    source_file: str,
    first_line: int = 9000,
    iterations: int = 1,
    prefix: str = "stat",
    atomic: bool = False,
) -> str:
    """Create ``count`` racy-but-harmless statistics counters.

    Returns the name of a worker function that bumps every counter
    ``iterations`` times without holding a lock.  Two such workers racing
    produce ``count`` distinct benign race reports (reads and writes of each
    counter), none of which is an adhoc sync and all of which verify as real
    races — the reports that "deeply bury the vulnerable ones".  With
    ``atomic=True`` the bumps use atomic loads/stores — the "fixed"
    upstream shape, under which the detector reports nothing.
    """
    counters: List[GlobalVariable] = []
    for index in range(count):
        counters.append(
            builder.global_var("%s_%s_%d" % (prefix, source_file.split(".")[0], index),
                               I64, 0)
        )
    name = "%s_worker_%s" % (prefix, source_file.split(".")[0])
    builder.begin_function(name, I32, [("arg", ptr(I8))], source_file=source_file)
    line = first_line
    for _ in range(iterations):
        for counter in counters:
            value = builder.load(counter, line=line, atomic=atomic)
            builder.store(builder.add(value, 1, line=line), counter,
                          line=line, atomic=atomic)
            line += 1
    builder.ret(builder.i32(0), line=line)
    builder.end_function()
    return name


def add_adhoc_sync_workers(
    builder: IRBuilder,
    count: int,
    source_file: str,
    first_line: int = 8000,
    prefix: str = "ready",
) -> tuple:
    """Create ``count`` adhoc flag synchronizations.

    Returns ``(setter_name, waiter_name)``.  The setter stores the constant 1
    into each flag; the waiter busy-waits on each flag in a loop whose exit
    branch depends on the read — exactly the section 5.1 pattern OWL's
    adhoc-sync detector recognizes and annotates away.
    """
    flags: List[GlobalVariable] = []
    for index in range(count):
        flags.append(
            builder.global_var("%s_%s_%d" % (prefix, source_file.split(".")[0], index),
                               I32, 0)
        )
    setter = "%s_setter_%s" % (prefix, source_file.split(".")[0])
    builder.begin_function(setter, I32, [("arg", ptr(I8))], source_file=source_file)
    line = first_line
    for flag in flags:
        builder.store(1, flag, line=line)
        line += 1
    builder.ret(builder.i32(0), line=line)
    builder.end_function()

    waiter = "%s_waiter_%s" % (prefix, source_file.split(".")[0])
    builder.begin_function(waiter, I32, [("arg", ptr(I8))], source_file=source_file)
    line = first_line + 100
    for index, flag in enumerate(flags):
        spin = "spin%d" % index
        after = "after%d" % index
        builder.br(spin, line=line)
        builder.at(spin)
        value = builder.load(flag, line=line)
        done = builder.icmp("ne", value, 0, line=line)
        builder.cond_br(done, after, spin, line=line)
        builder.at(after)
        line += 1
    builder.ret(builder.i32(0), line=line)
    builder.end_function()
    return setter, waiter


def add_publish_races(
    builder: IRBuilder,
    count: int,
    source_file: str,
    first_line: int = 7000,
    iterations: int = 5,
    prefix: str = "job",
) -> tuple:
    """Create ``count`` racy-publish patterns whose races resist verification.

    Each pattern is the classic publish-through-racy-pointer shape: a
    producer initializes a fresh heap object *then* publishes its address
    with an atomic store; a consumer reads the pointer with a plain load (no
    acquire) and writes a field of the published object.  A happens-before
    detector flags the two field writes as a race (the publication edge is
    invisible), but the race verifier can never catch the pair "in the racing
    moment": when the producer is halted at its field write it always holds a
    *newer, unpublished* object than the one the consumer holds, so the
    pending addresses never match.  These model the reports the paper's
    dynamic race verifier eliminates (the R.V.E. column of Table 3) —
    schedule-sensitive races that "can't be reliably reproduced".

    Returns ``(producer_name, consumer_name)``.
    """
    from repro.ir.types import U64

    slots = []
    for index in range(count):
        slots.append(
            builder.global_var("%s_slot_%s_%d" % (prefix, source_file.split(".")[0], index),
                               U64, 0)
        )
    stem = source_file.split(".")[0]
    producer = "%s_producer_%s" % (prefix, stem)
    builder.begin_function(producer, I32, [("arg", ptr(I8))], source_file=source_file)
    line = first_line
    for index, slot in enumerate(slots):
        loop = "produce%d" % index
        done = "produced%d" % index
        i_slot = builder.local(I64, "i%d" % index, 0, line=line)
        builder.br(loop, line=line)
        builder.at(loop)
        i_value = builder.load(i_slot, line=line)
        more = builder.icmp("slt", i_value, iterations, line=line)
        body = "pbody%d" % index
        builder.cond_br(more, body, done, line=line)
        builder.at(body)
        job = builder.call("malloc", [16], line=line + 1)
        field = builder.cast("bitcast", job, ptr(I64), line=line + 1)
        builder.store(7, field, line=line + 1)          # racy field write (W-producer)
        address = builder.cast("ptrtoint", job, I64, line=line + 2)
        builder.store(address, slot, line=line + 2, atomic=True)  # publish
        builder.store(builder.add(i_value, 1, line=line + 3), i_slot, line=line + 3)
        builder.br(loop, line=line + 3)
        builder.at(done)
        line += 10
    builder.ret(builder.i32(0), line=line)
    builder.end_function()

    consumer = "%s_consumer_%s" % (prefix, stem)
    builder.begin_function(consumer, I32, [("arg", ptr(I8))], source_file=source_file)
    line = first_line + 500
    for index, slot in enumerate(slots):
        loop = "consume%d" % index
        done = "consumed%d" % index
        skip = "cskip%d" % index
        i_slot = builder.local(I64, "ci%d" % index, 0, line=line)
        builder.br(loop, line=line)
        builder.at(loop)
        i_value = builder.load(i_slot, line=line)
        more = builder.icmp("slt", i_value, iterations, line=line)
        body = "cbody%d" % index
        builder.cond_br(more, body, done, line=line)
        builder.at(body)
        published = builder.load(slot, line=line + 1)   # plain load: no acquire
        is_set = builder.icmp("ne", published, 0, line=line + 1)
        use = "cuse%d" % index
        builder.cond_br(is_set, use, skip, line=line + 1)
        builder.at(use)
        pointer = builder.cast("inttoptr", published, ptr(I64), line=line + 2)
        builder.store(9, pointer, line=line + 2)        # racy field write (W-consumer)
        builder.br(skip, line=line + 2)
        builder.at(skip)
        builder.store(builder.add(i_value, 1, line=line + 3), i_slot, line=line + 3)
        builder.br(loop, line=line + 3)
        builder.at(done)
        line += 10
    builder.ret(builder.i32(0), line=line)
    builder.end_function()
    return producer, consumer
