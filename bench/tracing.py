"""Spans around the public functions of the spinaccess layers, from outside.

``Tracer.install`` wraps every public function of the layer modules and
puts the wrapper in every ``spinaccess`` module namespace that holds the
original, so calls between modules and inside one module (for example
``cones.rank_drop_certificate`` calling ``cones.isotropic_span``) are caught
as nested spans.  Spans are kept in memory and written out at the end.
"""

import inspect
import json
import sys
import time

#: Modules whose public functions are layer boundaries.
LAYERS = ("cones", "liealg", "dynamics", "stochastic", "reproduce", "cli")


def _span_name(module, name):
    if module == "cli" and name.startswith("cmd_"):
        return "cli." + name[4:].replace("_", "-")
    return f"{module}.{name}"


def _sample_steps(result):
    return result.n_samples * (len(result.times) - 1)


#: Work counted per span, from the call's result, beside the call count.
WORK = {
    "stochastic.mc_validate": ("sample_steps", _sample_steps),
    "dynamics.evolve_schedule": ("samples", lambda traj: len(traj.times)),
}


class Tracer:
    """Records (name, start, end, parent) for every wrapped call."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None, op]
        self._stack = []
        self.work = {}        # "<span>.<kind>" -> counted work
        self.op = None        # label of the benchmark operation in progress
        self._originals = []  # (namespace, attribute, original) to restore

    def _wrap(self, name, fn):
        tracer = self
        extra = WORK.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if extra is not None:
                key = f"{name}.{extra[0]}"
                tracer.work[key] = tracer.work.get(key, 0) + extra[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer functions in every loaded spinaccess namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"spinaccess.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(_span_name(layer, attr), fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "spinaccess" and not modname.startswith("spinaccess."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals = []

    def self_times(self):
        """Per span name: (total self time, call count).

        Self time is a span's duration minus the durations of its direct
        children, which is the part of the interval no child covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one traced call adds, measured on a wrapped no-op."""
        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(time.perf_counter() - start - bare, 0.0) / calls

    def covered(self):
        """Summed duration of the top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
