"""Span recorder: wrappers around each measured layer's public functions.

:class:`Recorder` replaces class and module attributes with timing
wrappers (:meth:`Recorder.install`) and puts the originals back
(:meth:`Recorder.restore`).  Nothing under ``src/`` changes.

Two kinds of wrapper:

* **span** — coarse calls (a system run, a job, a store write, a pool
  dispatch).  Each call keeps one record ``[name, start, end, parent,
  job]`` in memory; :meth:`Recorder.dump` writes them out as JSON lines.
* **leaf** — hot calls (``Network.delay``, ``CacheBank.access``, one
  interpreted block).  They number in the millions per sweep, so each
  one only bumps a call counter and the self-time ledger below instead
  of keeping a record.

Both kinds feed one exclusive-time ledger.  A stack holds the wrapped
calls that are open.  Each clock reading charges the time since the
previous reading to the call on top of the stack.  A call's self time
is therefore its span minus the part its wrapped children cover, and
the self times of all calls, plus ``bench`` (time spent outside every
wrapped call), add up to the time from :meth:`Recorder.reset_clock`
to the last wrapped call's return.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

clock = time.perf_counter

#: Self time spent outside every wrapped call.
BASE = "bench"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent, job]
        self._open: list[int] = [-1]         # indices of open span records
        self._stack: list[str] = [BASE]      # names of open wrapped calls
        self._mark = clock()
        self.job: Optional[str] = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()     # counters fed by hooks
        self.samples: dict[str, list] = defaultdict(list)
        self._installed: list[tuple] = []

    # -- the exclusive-time ledger ---------------------------------------

    def _enter(self, name: str) -> float:
        now = clock()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(name)
        return now

    def _leave(self) -> float:
        now = clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now
        return now

    def reset_clock(self) -> None:
        """Start the ledger now (time before this is not charged)."""
        self._mark = clock()

    # -- wrappers --------------------------------------------------------

    def span(self, fn: Callable, name: str, pre=None, post=None,
             job_of=None) -> Callable:
        """Wrap ``fn`` so each call keeps a span record.

        ``pre(args)`` runs before the call and its value goes to
        ``post(rec, args, result, before)``.  ``job_of(args)`` names the
        job the call belongs to: it is set for the call's duration, so
        every span opened inside carries it.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            outer_job = rec.job
            if job_of is not None:
                rec.job = job_of(args)
            rec.calls[name] += 1
            entry = [name, 0.0, 0.0, rec._open[-1], rec.job]
            rec._open.append(len(rec.spans))
            rec.spans.append(entry)
            entry[1] = rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = rec._leave()
                rec._open.pop()
                rec.job = outer_job
            if post is not None:
                post(rec, args, result, before)
            return result

        return wrapper

    def leaf(self, fn: Callable, name: str, pre=None, post=None) -> Callable:
        """Wrap a hot ``fn``: count calls and charge self time, no record."""
        rec = self
        calls = self.calls

        if pre is None and post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                rec._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._leave()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            calls[name] += 1
            rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._leave()
            if post is not None:
                post(rec, args, result, before)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, owner, attr: str, kind: str, name: str,
                **hooks) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        wrapper of ``kind`` (``"span"`` or ``"leaf"``)."""
        own = attr in vars(owner)        # False: inherited from a base
        original = getattr(owner, attr)
        make = self.span if kind == "span" else self.leaf
        setattr(owner, attr, make(original, name, **hooks))
        self._installed.append((owner, attr, original if own else None))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- read-out --------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of every span record called ``name``."""
        return sum(end - start for n, start, end, __, __j in self.spans
                   if n == name)

    def dump(self, path, header: dict) -> None:
        """Write the header, the span records and the ledger as JSON
        lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "job": job}) + "\n")
            handle.write(json.dumps(
                {"calls": dict(self.calls), "self_s": dict(self.self_s),
                 "counts": dict(self.counts)}, sort_keys=True) + "\n")
