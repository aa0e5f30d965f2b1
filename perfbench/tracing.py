"""Per-layer tracing from outside the package.

The tracer replaces the package's public functions at each module boundary
with timing wrappers for the length of a traced pass, then puts the
originals back.  A span is a call of a wrapped function; it is aggregated in
memory under its call path (the chain of enclosing spans, rooted at the
benchmark operation), which keeps every span's count, total and child time
without storing a record per call (``Word.is_pure`` alone runs about
80,000 times per search pass).  Self time is total time minus the time of
the child spans.  Wrappers that only count (``LaurentPoly.__mul__``) carry
no timer.  Each thread aggregates on its own, so counts stay exact when
``search_kernel`` runs its thread pool.
"""
from __future__ import annotations

import threading
from time import perf_counter_ns

import workloads

LAYERS = ("words", "maps", "reps", "laurent", "kernel", "cli")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []          # [path, child_ns]
        self.spans: dict[tuple, list[int]] = {}  # path -> [calls, ns, child_ns, raised]
        self.counters: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def top(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.enabled = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- state -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def begin_pass(self) -> None:
        with self._lock:
            for state in self._states:
                state.spans.clear()
                state.counters.clear()
                state.stack.clear()

    def collect(self) -> tuple[dict[tuple, list[int]], dict[str, int]]:
        """Spans and counters of the pass, merged over threads."""
        spans: dict[tuple, list[int]] = {}
        counters: dict[str, int] = {}
        maxima = ("laurent.result_terms_max", "laurent.coeff_bits_max")
        with self._lock:
            for state in self._states:
                for path, rec in state.spans.items():
                    total = spans.setdefault(path, [0, 0, 0, 0])
                    for i, v in enumerate(rec):
                        total[i] += v
                for key, value in state.counters.items():
                    if key in maxima:
                        counters[key] = max(counters.get(key, 0), value)
                    else:
                        counters[key] = counters.get(key, 0) + value
        return spans, counters

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a timed span.  `name` is a string or a function of
        the call's arguments; `after(state, path, args, kwargs, result)`
        records counters once the span has ended."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            label = name if isinstance(name, str) else name(args, kwargs)
            path = stack[-1][0] + (label,) if stack else (label,)
            frame = [path, 0]
            stack.append(frame)
            raised = 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = state.spans.get(path)
                if rec is None:
                    rec = state.spans[path] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                rec[3] += raised
            if after is not None:
                after(state, path, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._state().add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        m = self.mods
        spans = [
            (m.kernel, "search_kernel", _search_name, _after_search),
            (m.kernel, "verify_theorem1", "kernel.verify", None),
            (m.kernel, "verify_theorem2", "kernel.verify", None),
            (m.kernel, "bigelow_alpha", "kernel.bigelow_alpha", None),
            (m.kernel, "mn_map", "maps.mn_map", None),
            (m.kernel, "burau", "reps.burau", None),
            (m.kernel, "is_trivial_braid", "reps.is_trivial_braid", None),
            (m.maps, "mn_map", "maps.mn_map", None),
            (m.maps, "project_pk", "maps.project_pk", _growth("pk")),
            (m.maps, "stabilize_fd", "maps.stabilize_fd", _growth("fd")),
            (m.maps, "rho_word", "reps.rho_word", _after_rho),
            (m.reps, "rho_word", "reps.rho_word", _after_rho),
            (m.reps, "rho_letter", "reps.rho_letter", None),
            (m.reps, "burau", "reps.burau", None),
            (m.reps, "is_trivial_braid", "reps.is_trivial_braid", None),
            (m.reps, "handle_reduce", "reps.handle_reduce", None),
            (m.reps, "artin_apply", "reps.artin_apply", None),
            (m.laurent.PolyMatrix, "det", "laurent.det", _after_det),
            (m.laurent.PolyMatrix, "__mul__", "laurent.matmul", None),
            (m.words.Word, "is_pure", "words.is_pure", _after_is_pure),
            (m.cli, "main", "cli.main", None),
        ]
        for owner, attr, name, after in spans:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, after))
        poly = m.laurent.LaurentPoly
        for attr in ("__mul__", "__rmul__"):
            original = poly.__dict__[attr]
            self._saved.append((poly, attr, original))
            setattr(poly, attr, self.counter("laurent.mul.calls", original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- counters recorded after a span -----------------------------------------


def _search_name(args, kwargs) -> str:
    workers = kwargs.get("workers", args[4] if len(args) > 4 else 0)
    return "kernel.search_kernel.threaded" if workers else \
        "kernel.search_kernel"


def _after_search(state, path, args, kwargs, result) -> None:
    if path[-1] == "kernel.search_kernel":
        n, k, _, max_len = args[:4]
        state.add("search.hits", len(result))
        state.add("search.space_words", workloads.space_words(n, k, max_len))


def _after_is_pure(state, path, args, kwargs, result) -> None:
    if result and path[-2:-1] == ("kernel.search_kernel",):
        state.add("search.candidates", 1)


def _growth(key):
    def after(state, path, args, kwargs, result) -> None:
        state.add(key + ".in", len(args[0]))
        state.add(key + ".out", len(result))
    return after


def _matrix_sizes(state, entries) -> None:
    for poly in entries:
        terms = poly.terms()
        state.top("laurent.result_terms_max", len(terms))
        for _, _, coeff in terms:
            state.top("laurent.coeff_bits_max", abs(coeff).bit_length())


def _after_rho(state, path, args, kwargs, result) -> None:
    state.add("rho.letters", len(args[0]))
    _matrix_sizes(state, (p for row in result.rows for p in row))


def _after_det(state, path, args, kwargs, result) -> None:
    _matrix_sizes(state, (result,))


# -- per-layer metrics --------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: dict[tuple, list[int]], counters: dict[str, int]
                  ) -> dict[str, float]:
    """Per-pass layer metrics from one traced pass."""
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    raised: dict[str, int] = {}
    search_eval_ns = search_eval_calls = 0
    for path, (n, ns, child, err) in spans.items():
        name = path[-1]
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0) + ns
        raised[name] = raised.get(name, 0) + err
        layer = name.split(".")[0]
        if layer in self_ns:
            self_ns[layer] += ns - child
        if name == "maps.mn_map" and path[-2:-1] == ("kernel.search_kernel",):
            search_eval_ns += ns
            search_eval_calls += n

    def s(name: str) -> float:
        return total.get(name, 0) / 1e9

    c = counters.get
    candidates = c("search.candidates", 0)
    rho_s = s("reps.rho_word")
    out = {
        "kernel.search.enumerate_s":
            s("kernel.search_kernel") - search_eval_ns / 1e9,
        "kernel.search.evaluate_s": search_eval_ns / 1e9,
        "kernel.search.candidates": candidates,
        "kernel.search.hits": c("search.hits", 0),
        "kernel.search.space_words": c("search.space_words", 0),
        "kernel.search.pure_ratio":
            _ratio(candidates, c("search.space_words", 0)),
        "kernel.search.reverify_ratio": _ratio(search_eval_calls, candidates),
        "kernel.verify.s": s("kernel.verify"),
        "words.is_pure.calls": calls.get("words.is_pure", 0),
        "words.is_pure.s": s("words.is_pure"),
        "maps.mn_map.calls": calls.get("maps.mn_map", 0),
        "maps.project_pk.s": s("maps.project_pk"),
        "maps.project_pk.growth": _ratio(c("pk.out", 0), c("pk.in", 0)),
        "maps.stabilize_fd.s": s("maps.stabilize_fd"),
        "maps.stabilize_fd.growth": _ratio(c("fd.out", 0), c("fd.in", 0)),
        "reps.rho_word.s": rho_s,
        "reps.rho_word.letters": c("rho.letters", 0),
        "reps.rho_word.letters_per_s": _ratio(c("rho.letters", 0), rho_s),
        "reps.handle_reduce.s": s("reps.handle_reduce"),
        "reps.handle_reduce.calls": calls.get("reps.handle_reduce", 0),
        "reps.artin_apply.s": s("reps.artin_apply"),
        "reps.artin_apply.inconclusive_ratio":
            _ratio(raised.get("reps.artin_apply", 0),
                   calls.get("reps.artin_apply", 0)),
        "laurent.det.s": s("laurent.det"),
        "laurent.det.calls": calls.get("laurent.det", 0),
        "laurent.mul.calls": c("laurent.mul.calls", 0),
        "laurent.result_terms_max": c("laurent.result_terms_max", 0),
        "laurent.coeff_bits_max": c("laurent.coeff_bits_max", 0),
        "laurent.matmul.s": s("laurent.matmul"),
        "cli.main_s": s("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return out
