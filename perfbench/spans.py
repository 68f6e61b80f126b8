"""Per-layer spans recorded from outside the program.

``Tracer`` wraps every public function of every ``kerrcav`` module and
rebinds each module-level name that refers to it, in every ``kerrcav``
module, so calls made through those names (including calls from one module
into another) pass through the wrapper.  ``src/`` is not modified; leaving
the ``with`` block puts the original functions back.

For each function the tracer keeps calls, total time and self time (a
span's duration minus the part its child spans cover), calls broken down by
the benchmark operation that was running (``tracer.op``), and the summed
length of list results.
"""

import functools
import sys
import time
import types
from collections import Counter


PACKAGE = "kerrcav"


class Tracer:
    def __init__(self):
        self.op = None
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.op_calls = Counter()
        self.items = Counter()
        self._children = []
        self._restore = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _wrap(self, name, fn):
        children = self._children
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - inner
                self.op_calls[self.op, name] += 1
                if type(result) is list:
                    self.items[name] += len(result)
        return wrapper

    def __enter__(self):
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def module_self_s(self, module):
        prefix = module + "."
        return sum(ns for name, ns in self.self_ns.items()
                   if name.startswith(prefix)) / 1e9

    def per_call(self, name, unit_ns):
        calls = self.calls[name]
        return self.total_ns[name] / calls / unit_ns if calls else 0.0

    def calls_in(self, ops, name):
        return sum(self.op_calls[op, name] for op in ops)
