"""Layer timings taken from outside the program.

A Tracer wraps named public functions of the program's modules and
records every call as a span (layer, parent span, start, end).  Each
function is replaced wherever a caller looks it up: in every loaded
`lambdamu` module whose globals hold that very function object (for
example both `analysis.explore_sn` and `lemmas.explore_sn`), and in the
package namespace.  Calls from a function-local import resolve through
the defining module's attribute, so they are caught too.  A generator
function gets one span per resumption.  A layer whose function no longer
exists is reported as absent; the run goes on without it.

Spans are kept in memory in flat arrays and written out by `dump`.  A
layer's self time is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from typing import Callable, Optional

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, layers: dict[str, Optional[Callable]]):
        """layers maps "module.function" to a hook called after each
        call as hook(tracer, result, args, parent_layer), or to None."""
        self.layers = list(layers)
        self.hooks = [layers[name] for name in self.layers]
        n = len(self.layers)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.span_layer = array.array("H")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack: list[list[int]] = []  # [span id, layer, child ns]
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ---- spans ----

    def _open(self, layer: int) -> None:
        sid = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([sid, layer, 0])
        self.span_start.append(_now())

    def _close(self) -> None:
        end = _now()
        sid, layer, child_ns = self._stack.pop()
        self.span_end[sid] = end
        took = end - self.span_start[sid]
        self.calls[layer] += 1
        self.total_ns[layer] += took
        self.self_ns[layer] += took - child_ns
        if self._stack:
            self._stack[-1][2] += took

    def _parent_layer(self) -> Optional[str]:
        return self.layers[self._stack[-1][1]] if self._stack else None

    # ---- wrapping ----

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        hook = self.hooks[layer]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def resume_each(*args, **kwargs):
                parent = tracer._parent_layer()
                inner = fn(*args, **kwargs)
                while True:
                    tracer._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close()
                        return
                    except BaseException:
                        tracer._close()
                        raise
                    tracer._close()
                    if hook is not None:
                        hook(tracer, item, args, parent)
                    yield item

            return resume_each

        def traced(*args, **kwargs):
            parent = tracer._parent_layer()
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(tracer, result, args, parent)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lambdamu" or name.startswith("lambdamu."))]
        for layer, qualified in enumerate(self.layers):
            module_name, func_name = qualified.rsplit(".", 1)
            home = sys.modules.get(f"lambdamu.{module_name}")
            fn = getattr(home, func_name, None) if home is not None else None
            if not callable(fn):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(layer, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- results ----

    def layer_stats(self, qualified: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one layer."""
        i = self.layers.index(qualified)
        return self.calls[i], self.total_ns[i] / 1e9, self.self_ns[i] / 1e9

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the four span
        columns as raw native arrays (layer uint16, parent int64 with -1
        for none, start and end int64 nanoseconds), in that order."""
        header = {
            "layers": self.layers,
            "absent": self.absent,
            "spans": len(self.span_layer),
            "columns": ["layer:H", "parent:q", "start_ns:q", "end_ns:q"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


def load(path) -> tuple[dict, list[array.array]]:
    """Read back a file written by Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for spec in header["columns"]:
            column = array.array(spec.split(":")[1])
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return header, columns
