"""JSON-lines files: the one reader and appender every log in ``repro`` uses.

Run logs (:mod:`repro.owl.runlog`, which also carry each run's span tree
as ``begin``/``end`` events) and schedule logs (:mod:`repro.runtime.record`)
hold one JSON object per line, under one policy:

- **A record exists only if its line ends in a newline and parses** as a
  JSON object.  Blank lines are not records.
- **A torn tail** — bytes after the last newline, the trace of a writer
  killed mid-line — is not a record: :func:`read` drops it and counts it,
  and an appending :class:`Writer` truncates it (and counts it) before its
  first line, so a new record never fuses with the fragment.
- **A damaged interior line** — newline-terminated but unparseable — is
  damage after the fact, not a crash trace: :func:`read` and
  :func:`follow` raise ``ValueError`` naming the file and line number.

Writers emit one ``json.dumps(record, sort_keys=True)`` line per record and
flush after each line, so a reader polling the file sees whole records as
they land.  This module imports only ``json``, ``os`` and ``time``: every
log sits on it, so it must stay cheap to import.
"""

import json
import os
import time


def encode(record) -> str:
    """One record as its newline-terminated line."""
    return json.dumps(record, sort_keys=True, default=str) + "\n"


def _parse(path, number, line):
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        record = None
    if not isinstance(record, dict):
        raise ValueError("%s: corrupt record on line %d (not a JSON object)"
                         % (path, number))
    return record


def read(path):
    """``(records, torn)``: every record in ``path``, and 1 if a torn tail
    was dropped (else 0).  A missing file reads as empty."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0
    *lines, tail = data.split(b"\n")
    records = [_parse(path, number, line)
               for number, line in enumerate(lines, 1) if line.strip()]
    return records, 1 if tail else 0


def follow(path, poll=0.2, timeout=None):
    """Yield records as their lines land in ``path``, like ``tail -f``.

    The file may not exist yet.  Ends after ``timeout`` seconds without a
    new complete line (None: never); a caller that has seen enough simply
    stops iterating.
    """
    position = number = 0
    pending = b""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            with open(path, "rb") as handle:
                handle.seek(position)
                chunk = handle.read()
        except FileNotFoundError:
            chunk = b""
        position += len(chunk)
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            number += 1
            if line.strip():
                yield _parse(path, number, line)
        if lines:
            if timeout is not None:
                deadline = time.monotonic() + timeout
            continue
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll)


def _drop_torn_tail(path) -> int:
    """Truncate ``path`` after its last newline; 1 if that cut anything."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with handle:
        data = handle.read()
        keep = data.rfind(b"\n") + 1
        if keep == len(data):
            return 0
        handle.truncate(keep)
        return 1


class Writer:
    """Line-flushed JSON-lines writer.

    ``append=True`` keeps the file's records and first truncates a torn
    tail, counted in :attr:`torn`; ``append=False`` starts the file empty.
    Errors (``OSError``) propagate: callers decide whether a log is best
    effort.
    """

    def __init__(self, path, append=True):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self.torn = _drop_torn_tail(path) if append else 0
        self._handle = open(path, "a" if append else "w")

    def write(self, record) -> None:
        self._handle.write(encode(record))
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def write(path, records) -> None:
    """Write ``records`` to ``path`` as a fresh file."""
    with Writer(path, append=False) as writer:
        for record in records:
            writer.write(record)
