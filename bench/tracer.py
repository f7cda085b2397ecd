"""In-memory call spans recorded by wrapping functions from outside.

A ``Tracer`` replaces a binding (a module attribute, a class attribute or a
mapping entry) with a wrapper that records one span per call: name, start,
end and the span that was open when the call began.  Nothing inside the
traced program changes; ``restore`` puts every original object back.

Spans live in a plain list until the caller writes them out, so recording a
call costs two clock reads and a list append.
"""

import functools
import resource
import time


def max_rss_kb():
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Wraps bindings and records spans ``[name, start, end, parent, rss0, rss1]``.

    ``parent`` is the index of the enclosing span or -1.  ``rss0``/``rss1``
    are peak RSS readings (KiB) taken around the call when the binding was
    wrapped with ``rss=True``, else 0.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (container, key, original, is_mapping)

    def wrap(self, container, key, name, on_result=None, rss=False):
        """Replace ``container.key`` (or ``container[key]``) with a recorder.

        ``on_result(span_index, result)`` runs after the span has closed.
        Class attributes are wrapped through the class ``__dict__``, so
        classmethods and plain methods both keep their binding behaviour.
        """
        is_mapping = isinstance(container, dict)
        original = self._get(container, key)
        if isinstance(original, classmethod):
            replacement = classmethod(self._recorder(original.__func__, name,
                                                     on_result, rss))
        else:
            replacement = self._recorder(original, name, on_result, rss)
        self._patches.append((container, key, original, is_mapping))
        self._set(container, key, replacement, is_mapping)

    def _recorder(self, fn, name, on_result, rss):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            spans.append(rec)
            stack.append(idx)
            if rss:
                rec[4] = max_rss_kb()
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if rss:
                rec[5] = max_rss_kb()
            if on_result is not None:
                on_result(idx, out)
            return out

        return recorder

    @staticmethod
    def _get(container, key):
        """The object bound at ``container.key``, as ``wrap`` replaces it."""
        if isinstance(container, dict):
            return container[key]
        if isinstance(container, type):
            return container.__dict__[key]
        return getattr(container, key)

    @staticmethod
    def _set(container, key, value, is_mapping):
        if is_mapping:
            container[key] = value
        else:
            setattr(container, key, value)

    def restore(self):
        """Put every wrapped binding back, most recent first.

        Returns whether each binding now holds the very object it held
        before it was wrapped.
        """
        restored = True
        while self._patches:
            container, key, original, is_mapping = self._patches.pop()
            self._set(container, key, original, is_mapping)
            restored &= self._get(container, key) is original
        return restored


def self_times(spans):
    """Per-span duration minus the time covered by its direct children.

    Calls run on one thread, so sibling spans never overlap and the
    children's durations can simply be summed.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def nesting_errors(spans, slack=1e-9):
    """Spans that end before they start or stick out of their parent."""
    bad = []
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            bad.append((i, "ends before it starts"))
        if s[3] >= 0:
            parent = spans[s[3]]
            if s[1] < parent[1] - slack or s[2] > parent[2] + slack:
                bad.append((i, f"outside parent {s[3]}"))
    return bad
