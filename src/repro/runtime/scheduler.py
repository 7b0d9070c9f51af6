"""Thread schedulers: the interleaving knob.

In the paper, whether a race manifests depends on "runtime effects (e.g.,
hardware timings)".  Here the interleaving is chosen per instruction by a
:class:`Scheduler`.  The implementations:

- :class:`RoundRobinScheduler` — deterministic quantum-based switching; the
  "common case" schedule under which most races stay latent.
- :class:`RandomScheduler` — uniform random choice each step from a seed;
  the workhorse for detector runs and for the race verifier's re-executions.
- :class:`PCTScheduler` — probabilistic concurrency testing (random priorities
  plus d-1 priority-change points), a stronger bug-finding schedule.
- :class:`ScriptedScheduler` — an explicit schedule script; used by the
  dynamic vulnerability verifier to enforce the racing order (paper
  section 6.2 "requires user intervention to decide the execution order of
  the racing instructions") and by the exploit drivers.
"""

from __future__ import annotations

import copy
import random
from typing import List, Optional, Sequence, Tuple, Union

from repro.runtime.thread import ThreadContext


def copy_rng(rng: random.Random) -> random.Random:
    """An independent generator in ``rng``'s state (``copy.copy`` would
    seed a new one from the OS first, then overwrite that state)."""
    twin = random.Random.__new__(random.Random)
    twin.setstate(rng.getstate())
    return twin


class Scheduler:
    """Chooses which runnable thread executes the next instruction."""

    #: Whether :meth:`run_length` can ever return more than 1.  A VM
    #: fuses only under a scheduler that can; the wrapping schedulers
    #: (recording, replay, scripted, coverage tracking, the sampling
    #: profiler) keep False — they observe every individual decision, so
    #: a VM driven by one runs its compiled ops one step at a time.
    commits_runs = False

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        raise NotImplementedError

    def can_commit(self, step: int) -> bool:
        """Whether :meth:`run_length`, called now for decision ``step``,
        could return more than 1.

        Called by the VM right after :meth:`choose`, before it looks up a
        fused plan: plans are looked up or compiled only where a run of at
        least 2 can be granted.  Must not change any state.
        """
        return False

    def run_length(self, thread: ThreadContext, step: int,
                   max_len: int) -> int:
        """Guaranteed no-preempt run length for block fusion: the grant.

        Called by the VM immediately after :meth:`choose` returned
        ``thread`` for decision ``step``, and only while the runnable set
        is guaranteed not to change (nothing blocked, halted or sleeping;
        fused instructions cannot spawn, block or exit).  Returns a length
        ``k`` in ``[1, max_len]`` promising that the next ``k - 1`` calls
        to :meth:`choose` would also return ``thread``.  A pure query: the
        VM reports the steps that actually ran through :meth:`commit`.

        The default of 1 grants nothing.
        """
        return 1

    def commit(self, steps: int) -> None:
        """Advance state for a fused run of ``steps`` steps.

        Called by the VM after every run that :meth:`run_length` granted
        ``k > 1`` steps, with ``1 <= steps <= k``: a loop trace may leave
        its loop, or a fault end the run, before the grant is spent.  The
        scheduler must end up exactly as the ``steps - 1`` :meth:`choose`
        calls after the first would have left it, so the schedule is
        bit-identical whether the VM fuses or not.

        The default commits nothing: PCT's skipped choices would mutate
        nothing, and the wrappers never grant a run.
        """

    def on_thread_created(self, thread: ThreadContext) -> None:
        pass

    def reset(self) -> None:
        pass

    def fork(self) -> "Scheduler":
        """An independent copy that goes on to make the same decisions
        (:meth:`repro.runtime.interpreter.VM.fork`)."""
        return copy.deepcopy(self)


class RoundRobinScheduler(Scheduler):
    """Run each thread for ``quantum`` steps before switching."""

    commits_runs = True

    def __init__(self, quantum: int = 50):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._current_id: Optional[int] = None
        self._remaining = quantum

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        current = None
        if self._current_id is not None:
            for thread in runnable:
                if thread.thread_id == self._current_id:
                    current = thread
                    break
        if current is not None and self._remaining > 0:
            self._remaining -= 1
            return current
        ordered = sorted(runnable, key=lambda t: t.thread_id)
        if self._current_id is None:
            chosen = ordered[0]
        else:
            # Continue the rotation from the last scheduled id even when that
            # thread is no longer runnable (blocked/exited).  Restarting at
            # the lowest id instead would starve high-id threads whenever a
            # low-id thread keeps blocking and unblocking.
            chosen = next(
                (t for t in ordered if t.thread_id > self._current_id),
                ordered[0],
            )
        self._current_id = chosen.thread_id
        self._remaining = self.quantum - 1
        return chosen

    def can_commit(self, step: int) -> bool:
        return self._remaining > 0

    def run_length(self, thread: ThreadContext, step: int,
                   max_len: int) -> int:
        # ``choose`` just returned ``thread`` leaving ``_remaining`` steps
        # of its quantum: each of the next ``_remaining`` choices keeps the
        # current thread, so the guaranteed run is ``_remaining + 1`` long
        # (including the step already chosen).
        if max_len <= 1:
            return 1
        return min(max_len, self._remaining + 1)

    def commit(self, steps: int) -> None:
        # Each skipped choice consumes one step of the quantum.
        self._remaining -= steps - 1

    def reset(self) -> None:
        self._current_id = None
        self._remaining = self.quantum


class RandomScheduler(Scheduler):
    """Uniformly random choice each step, from a reproducible seed.

    Draws inline ``random.Random.randrange``'s rejection loop over
    ``getrandbits`` (``k = n.bit_length()``, redraw while ``r >= n``): the
    same stream, without two Python frames per decision.
    """

    commits_runs = True

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.reset()

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        n = len(runnable)
        self._last_n = n
        getrandbits = self._rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return runnable[r]

    def can_commit(self, step: int) -> bool:
        return self._last_n == 1

    def run_length(self, thread: ThreadContext, step: int,
                   max_len: int) -> int:
        # Only a lone runnable thread is guaranteed to win the next
        # draws; with two or more, any draw may preempt it.
        if max_len <= 1 or self._last_n != 1:
            return 1
        return max_len

    def commit(self, steps: int) -> None:
        # Every skipped ``choose`` still consumes its entropy — a draw
        # from one thread redraws single bits until one is 0 — so the rng
        # stream stays bit-identical to stepwise execution.
        getrandbits = self._rng.getrandbits
        for _ in range(steps - 1):
            while getrandbits(1):
                pass

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._last_n = None

    def fork(self) -> "RandomScheduler":
        twin = copy.copy(self)
        twin._rng = copy_rng(self._rng)
        return twin


class PCTScheduler(Scheduler):
    """Probabilistic concurrency testing (Burckhardt et al.).

    Each thread gets a random priority; at ``depth - 1`` random step indices
    the running thread's priority drops below all others.  Guarantees a
    lower-bound probability of hitting any bug of depth ``d``.
    """

    commits_runs = True

    def __init__(self, seed: int = 0, depth: int = 3, expected_steps: int = 2000):
        self.seed = seed
        self.depth = depth
        self.expected_steps = expected_steps
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._priorities = {}
        self._used_priorities: set = set()
        self._next_priority = 1_000_000
        # PCT's probabilistic guarantee needs exactly d-1 *distinct* change
        # points; colliding draws would silently shrink the effective depth.
        # Redraw until distinct, clamped to the population of step indices.
        population = max(1, self.expected_steps)
        target = min(max(0, self.depth - 1), population)
        points: set = set()
        while len(points) < target:
            points.add(self._rng.randrange(population))
        self._change_points = points
        self._low_water = 0

    @property
    def change_points(self) -> frozenset:
        """The d-1 distinct priority-change step indices of this schedule."""
        return frozenset(self._change_points)

    def _priority(self, thread: ThreadContext) -> int:
        if thread.thread_id not in self._priorities:
            # PCT's guarantee also needs *distinct* initial priorities: a
            # colliding draw would leave the tie to runnable-list order.
            # Redraw until distinct (change-point demotions use negative
            # low-water values and can never collide with these draws).
            draw = self._rng.randrange(1, self._next_priority)
            while draw in self._used_priorities:
                draw = self._rng.randrange(1, self._next_priority)
            self._used_priorities.add(draw)
            self._priorities[thread.thread_id] = draw
        return self._priorities[thread.thread_id]

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        chosen = max(runnable, key=self._priority)
        if step in self._change_points:
            self._low_water -= 1
            self._priorities[chosen.thread_id] = self._low_water
            chosen = max(runnable, key=self._priority)
        return chosen

    def can_commit(self, step: int) -> bool:
        return step + 1 not in self._change_points

    def run_length(self, thread: ThreadContext, step: int,
                   max_len: int) -> int:
        # Priorities only move at change points, and every runnable thread
        # already has a priority assigned (``choose`` evaluated the whole
        # runnable list at ``step``), so the highest-priority thread keeps
        # winning until the next change point: the guaranteed run is the
        # distance to it, found over the d-1 points rather than by walking
        # the steps (loop grants reach the whole step budget).  Nothing
        # needs committing — the skipped ``choose`` calls would not have
        # mutated anything.
        if max_len <= 1:
            return 1
        length = max_len
        for point in self._change_points:
            if step < point < step + length:
                length = point - step
        return length


ScriptSegment = Tuple[Union[int, str], int]


class ScriptedScheduler(Scheduler):
    """Follow an explicit schedule script, then fall back to round-robin.

    The script is a sequence of ``(thread, steps)`` segments where ``thread``
    is a thread id or name.  If the scripted thread is not currently runnable
    the scheduler waits on it by running other threads one step at a time
    (lowest id first) — this is how a verifier expresses "let the write side
    reach its breakpoint first".  The wait is *bounded*: a scripted thread
    that stays non-runnable for ``wait_limit`` consecutive choices (it may
    have exited for good) has its segment skipped and recorded in
    :attr:`skipped_segments`, instead of spinning the other threads forever.
    """

    def __init__(self, script: Sequence[ScriptSegment],
                 fallback: Optional[Scheduler] = None,
                 wait_limit: int = 1000):
        if wait_limit <= 0:
            raise ValueError("wait_limit must be positive")
        self.script: List[ScriptSegment] = list(script)
        self.fallback = fallback or RoundRobinScheduler()
        self.wait_limit = wait_limit
        #: ``(segment_index, thread_key, steps_left)`` of segments abandoned
        #: after ``wait_limit`` consecutive waits on a non-runnable thread.
        self.skipped_segments: List[Tuple[int, Union[int, str], int]] = []
        self._segment = 0
        self._remaining = self.script[0][1] if self.script else 0
        self._waited = 0

    def _matches(self, thread: ThreadContext, key: Union[int, str]) -> bool:
        if isinstance(key, int):
            return thread.thread_id == key
        return thread.name == key

    def _advance_segment(self) -> None:
        self._segment += 1
        self._waited = 0
        if self._segment < len(self.script):
            self._remaining = self.script[self._segment][1]

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        while self._segment < len(self.script):
            key, _ = self.script[self._segment]
            if self._remaining <= 0:
                self._advance_segment()
                continue
            target = next((t for t in runnable if self._matches(t, key)), None)
            if target is not None:
                self._waited = 0
                self._remaining -= 1
                return target
            # Scripted thread not runnable: nudge others forward, but only
            # up to wait_limit times — a permanently exited thread must not
            # stall the rest of the script.
            self._waited += 1
            if self._waited >= self.wait_limit:
                self.skipped_segments.append(
                    (self._segment, key, self._remaining))
                self._advance_segment()
                continue
            return min(runnable, key=lambda t: t.thread_id)
        return self.fallback.choose(runnable, step)

    def on_thread_created(self, thread: ThreadContext) -> None:
        # The fallback takes over once the script is exhausted; it must
        # learn about every thread created while the script was running.
        self.fallback.on_thread_created(thread)

    def reset(self) -> None:
        self._segment = 0
        self._remaining = self.script[0][1] if self.script else 0
        self._waited = 0
        self.skipped_segments = []
        self.fallback.reset()


class RecordingScheduler(Scheduler):
    """Wraps another scheduler and records the chosen thread ids.

    Together with :class:`ReplayScheduler` this gives PRES-style
    deterministic record/replay (the paper's reference [60]): because the
    VM is deterministic given the interleaving, replaying the recorded
    choice sequence reproduces the execution exactly — including a
    race-triggering one.
    """

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.trace: List[int] = []

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        chosen = self.inner.choose(runnable, step)
        self.trace.append(chosen.thread_id)
        return chosen

    def on_thread_created(self, thread: ThreadContext) -> None:
        self.inner.on_thread_created(thread)

    def reset(self) -> None:
        self.inner.reset()
        self.trace = []


class ReplayScheduler(Scheduler):
    """Replays a recorded choice sequence; falls back after the trace ends.

    If the recorded thread is not runnable at some step (the execution has
    diverged, e.g. because the program or inputs changed), the scheduler
    counts the divergence and picks the lowest-id runnable thread.
    """

    def __init__(self, trace: Sequence[int], fallback: Optional[Scheduler] = None):
        self.trace = list(trace)
        self.fallback = fallback or RoundRobinScheduler()
        self._cursor = 0
        self.divergences = 0

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        if self._cursor < len(self.trace):
            wanted = self.trace[self._cursor]
            self._cursor += 1
            for thread in runnable:
                if thread.thread_id == wanted:
                    return thread
            self.divergences += 1
            return min(runnable, key=lambda t: t.thread_id)
        return self.fallback.choose(runnable, step)

    def on_thread_created(self, thread: ThreadContext) -> None:
        # The fallback takes over once the trace is exhausted; it must
        # learn about every thread created while the trace was replaying.
        self.fallback.on_thread_created(thread)

    def reset(self) -> None:
        self._cursor = 0
        self.divergences = 0
        self.fallback.reset()
