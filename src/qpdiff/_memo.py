"""A bounded, thread-safe memo of complex values, shared by the process.

``whfactor`` keeps two: the contour projections of spectral variables
and the quarter-factor values that take an integral.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np


class Memo:
    """Complex values by key: at most ``cap``, the oldest evicted first;
    ``clear()``, ``hits`` and ``misses`` as an ``lru_cache`` has them.  The
    lock is not held while computing.  Keys start with ``token(context)``."""

    def __init__(self, cap: int):
        self.cap, self.lock, self.tokens = cap, threading.Lock(), itertools.count()
        self.clear()

    def clear(self):
        with self.lock:
            self.values, self.contexts, self.hits, self.misses = {}, {}, 0, 0

    def token(self, context):
        """An int never given to another context; at most ``cap`` kept."""
        with self.lock:
            if len(self.contexts) >= self.cap:
                self.contexts.clear()
            return self.contexts.setdefault(context, next(self.tokens))

    def lookup(self, keys, compute):
        """The value of every key.  Each key it lacks is computed once, by
        ``compute(positions in keys)``, and stored only after that call
        has returned, its checks passed."""
        with self.lock:
            found = list(map(self.values.get, keys))
            todo = {key: pos for pos, (key, value)
                    in enumerate(zip(keys, found)) if value is None}
            self.hits += len(keys) - len(todo)
            self.misses += len(todo)
        if todo:
            fresh = dict(zip(todo, compute(np.fromiter(todo.values(), int))))
            with self.lock:
                self.values.update(fresh)
                for old in list(itertools.islice(
                        self.values, max(0, len(self.values) - self.cap))):
                    del self.values[old]
            found = [fresh[key] if value is None else value
                     for key, value in zip(keys, found)]
        return np.array(found, dtype=np.complex128)
