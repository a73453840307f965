"""In-memory spans around zxel's layer boundaries, for one traced pass.

``Tracer.installed()`` replaces each traced function by a wrapper in
every loaded ``zxel`` module that holds it (modules bind functions such
as ``compose`` at import time, so patching one module is not enough),
and restores the originals on exit.  A span records its name, start,
end and parent span; a layer's self time is its spans' durations minus
the time their child spans cover.  Counts are taken in the same
wrappers, from the arguments and results of the traced calls.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time

import numpy as np

# (span name, module, attribute path); a dotted path names a method
LAYERS = (
    ("diagram.check_validity", "zxel.diagram", "Diagram.check_validity"),
    ("diagram.compose", "zxel.diagram", "compose"),
    ("diagram.tensor", "zxel.diagram", "tensor"),
    ("semantics.interpret", "zxel.semantics", "interpret"),
    ("normalform.normalize", "zxel.normalform", "normalize"),
    ("normalform.nf_tensor", "zxel.normalform", "nf_tensor"),
    ("normalform.nf_self_plug", "zxel.normalform", "nf_self_plug"),
    ("normalform.nf_to_diagram", "zxel.normalform", "nf_to_diagram"),
    ("rewrite.simplify", "zxel.rewrite", "simplify"),
    ("rewrite.find_matches", "zxel.rewrite", "find_matches"),
    ("rewrite.apply", "zxel.rewrite", "apply"),
    ("rules.check_soundness", "zxel.rules", "check_soundness"),
    ("equivalence.check_equivalent", "zxel.equivalence", "check_equivalent"),
    ("io.load_diagram", "zxel.io", "load_diagram"),
    ("io.dumps_diagram", "zxel.io", "dumps_diagram"),
)
# numpy.einsum as called from zxel.semantics: the contraction kernel
EINSUM = "semantics.einsum"

COUNTS = ("semantics.einsum.out_elems", "semantics.einsum.peak_open_wires",
          "normalform.peak_frontier", "rewrite.find_matches.hit_ratio",
          "rewrite.nodes_removed", "rules.draws_checked")


def metric_names() -> list[str]:
    """Names of the metrics ``Tracer.summary`` reports, in order."""
    names = []
    for span in [name for name, _, _ in LAYERS] + [EINSUM]:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTS)


def _post_einsum(tr, args, kwargs, out):
    tr.counts["semantics.einsum.out_elems"] += int(np.size(out))
    tr.peak("semantics.einsum.peak_open_wires", np.ndim(out))


def _post_nf_tensor(tr, args, kwargs, nf):
    tr.peak("normalform.peak_frontier", nf.m)


def _post_find_matches(tr, args, kwargs, sites):
    tr.counts["rewrite.find_matches.hits"] += bool(sites)


def _post_simplify(tr, args, kwargs, res):
    tr.counts["rewrite.nodes_removed"] += (len(args[0].nodes)
                                           - len(res.diagram.nodes))


def _post_check_soundness(tr, args, kwargs, report):
    tr.counts["rules.draws_checked"] += report.checked


POST = {EINSUM: _post_einsum,
        "normalform.nf_tensor": _post_nf_tensor,
        "rewrite.find_matches": _post_find_matches,
        "rewrite.simplify": _post_simplify,
        "rules.check_soundness": _post_check_soundness}


class _NumpyView:
    """numpy as seen by zxel.semantics, with einsum replaced."""

    def __init__(self, einsum):
        self.einsum = einsum

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.covered: list[float] = []  # time covered by each span's children
        self.stack: list[int] = []
        self.counts: dict[str, float] = {
            "semantics.einsum.out_elems": 0, "rewrite.find_matches.hits": 0,
            "rewrite.nodes_removed": 0, "rules.draws_checked": 0}
        self.peaks: dict[str, int] = {}

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), int(value))

    def wrap(self, name: str, fn):
        post = POST.get(name)
        spans, covered, stack = self.spans, self.covered, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent])
            covered.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
                if parent >= 0:
                    covered[parent] += end - start
            if post is not None:
                post(self, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for name, module, path in LAYERS:
                owner = sys.modules[module]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    orig = getattr(owner, attr)
                    undo.append((owner, attr, orig))
                    setattr(owner, attr, self.wrap(name, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self.wrap(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "zxel" and not mod_name.startswith("zxel."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            semantics = sys.modules["zxel.semantics"]
            undo.append((semantics, "np", semantics.np))
            semantics.np = _NumpyView(self.wrap(EINSUM, np.einsum))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def summary(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), cov in zip(self.spans, self.covered):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - cov)
        out: dict[str, float] = {}
        for span in [name for name, _, _ in LAYERS] + [EINSUM]:
            out[f"{span}.calls"] = calls.get(span, 0)
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        fm_calls = calls.get("rewrite.find_matches", 0)
        out.update({
            "semantics.einsum.out_elems": self.counts["semantics.einsum.out_elems"],
            "semantics.einsum.peak_open_wires":
                self.peaks.get("semantics.einsum.peak_open_wires", 0),
            "normalform.peak_frontier": self.peaks.get("normalform.peak_frontier", 0),
            "rewrite.find_matches.hit_ratio":
                (self.counts["rewrite.find_matches.hits"] / fm_calls
                 if fm_calls else 0.0),
            "rewrite.nodes_removed": self.counts["rewrite.nodes_removed"],
            "rules.draws_checked": self.counts["rules.draws_checked"],
        })
        return out

    def dump(self, path) -> None:
        """Write every span, gzipped JSON: names plus
        [name index, start, end, parent index] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p]
                for n, a, b, p in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh)
