"""Span tracing of the engine from outside: wraps the public entry points
of each toricgit module listed in TRACED (small helpers such as vdot stay
unwrapped, so their time counts as their caller's), records one span per
call and counts the work done.

Spans (name, start, end, parent, operation) stay in flat arrays in memory
and are written out when the run ends.  A `from x import f` binding in
another module is the same function object, so every module attribute
that is the wrapped function gets the wrapper; otherwise calls through
that binding would bypass the counter.  Self time of a span is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute or Class.method, pre hook, post hook); hooks are names
# of Tracer methods, called with the call's arguments (pre) or result (post)
TRACED = (
    ("intlinalg", "smith_normal_form", None, None),
    ("intlinalg", "hermite_normal_form", None, None),
    ("intlinalg", "rank_of_rows", None, None),
    ("intlinalg", "kernel_basis", None, None),
    ("intlinalg", "saturate", None, None),
    ("intlinalg", "solve_integer", None, None),
    ("intlinalg", "cokernel_projection", None, None),
    ("intlinalg", "Sublattice.from_rows", None, None),
    ("cones", "double_description", "_dd_input", None),
    ("cones", "faces", None, None),
    ("cones", "dual", None, None),
    ("cones", "intersect", None, None),
    ("cones", "image", None, None),
    ("cones", "feasible_strict", None, "_feasible_out"),
    ("cones", "product_feasible_strict", None, "_feasible_out"),
    ("cones", "Cone.from_generators", None, None),
    ("cones", "Cone.from_inequalities", None, None),
    ("fans", "validate_fan", None, None),
    ("fans", "chart_witness", None, "_chart_witness_out"),
    ("fans", "is_cartier_on", None, None),
    ("fans", "cartier_locus", None, None),
    ("fans", "ample_locus", None, None),
    ("fans", "class_group", None, None),
    ("fans", "Fan.face_cone", None, None),
    ("fans", "Fan.has_face", None, None),
    ("fans", "Fan.all_keys_under", None, None),
    ("fans", "SubfanLocus.closure", None, None),
    ("actions", "SubtorusAction.from_columns", None, None),
    ("actions", "semistable_divisor", "_locus_input", "_locus_out"),
    ("actions", "semistable_group", "_locus_input", "_locus_out"),
    ("actions", "mumford_trivial_semistable", None, None),
    ("actions", "achievable_weight_cone", None, None),
    ("actions", "git_chambers", None, "_chambers_out"),
    ("actions", "obstruction_report", None, None),
    ("quotients", "quotient_projection", None, None),
    ("quotients", "orbit_image", None, None),
    ("quotients", "is_saturated", None, None),
    ("quotients", "build_quotient", None, "_quotient_out"),
    ("hilbert_mumford", "hilbert_basis", "_box_input", "_basis_out"),
    ("hilbert_mumford", "ambient_model", None, None),
    ("hilbert_mumford", "ambient_semistable", None, None),
    ("hilbert_mumford", "cross_validate", None, None),
    ("hilbert_mumford", "limit", None, None),
    ("hilbert_mumford", "destabilize", None, None),
    ("certcheck", "check_locus", None, None),
    ("certcheck", "check_certificate", None, None),
    ("problemfile", "load_problem", None, None),
    ("problemfile", "parse_problem", None, None),
    ("cli", "run", None, None),
)

LAYERS = ("intlinalg", "cones", "fans", "actions", "quotients",
          "hilbert_mumford", "certcheck", "problemfile", "cli")


class Tracer:
    """Installs wrappers on a loaded `toricgit` package; use as a context
    manager so the originals are restored however the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sp_name = array("l")
        self.sp_parent = array("l")
        self.sp_op = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_child = array("d")
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.counters: Counter = Counter()
        self.dd_seen: set = set()
        self.op_index = -1
        self._restore: list = []
        self.t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.sp_start)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_op.append(self.op_index)
        self.sp_child.append(0.0)
        self.sp_end.append(0.0)
        self.stack.append(idx)
        self.depth[nid] += 1
        self.sp_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t1 = time.perf_counter()
        self.sp_end[idx] = t1
        dur = t1 - self.sp_start[idx]
        self.stack.pop()
        parent = self.sp_parent[idx]
        if parent >= 0:
            self.sp_child[parent] += dur
        nid = self.sp_name[idx]
        self.depth[nid] -= 1
        if not self.depth[nid]:
            self.inclusive[nid] += dur

    @contextlib.contextmanager
    def operation(self, family: str):
        """Root span of one benchmark operation; every engine span opened
        inside it carries its index."""
        self.op_index = len(self.sp_start)
        idx = self._open(f"op.{family}")
        try:
            yield
        finally:
            self._close(idx)
            self.op_index = -1

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name, pre, post):
        pre = getattr(self, pre) if pre else None
        post = getattr(self, post) if post else None

        def traced(*args, **kwargs):
            if pre:
                pre(args, kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post:
                post(args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        pkg = sys.modules["toricgit"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "toricgit" or n.startswith("toricgit.")]
        for mod_name, attr, pre, post in TRACED:
            mod = getattr(pkg, mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, name, pre, post)
                self._set(cls, meth, staticmethod(wrapped) if is_static else wrapped, raw)
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, name, pre, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped, fn)
        cone_cls = pkg.cones.Cone
        init = cone_cls.__dict__["__init__"]

        def counted_init(obj, *args, **kwargs):
            self.counters["cones.cones_built"] += 1
            init(obj, *args, **kwargs)
        self._set(cone_cls, "__init__", counted_init, init)
        return self

    def _set(self, owner, key, value, original) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    # -- hooks ---------------------------------------------------------

    def _dd_input(self, args, kwargs):
        ambient = args[0] if args else kwargs["ambient"]
        ineqs = args[1] if len(args) > 1 else kwargs.get("inequalities", ())
        eqs = args[2] if len(args) > 2 else kwargs.get("equalities", ())
        # the hash of a tuple of ints is the same in every process
        key = hash((ambient, tuple(map(tuple, ineqs)), tuple(map(tuple, eqs))))
        if key in self.dd_seen:
            self.counters["cones.dd_repeats"] += 1
        else:
            self.dd_seen.add(key)

    def _feasible_out(self, args, kwargs, out):
        self.counters["cones.feasible_hits"] += out is not None

    def _chart_witness_out(self, args, kwargs, out):
        self.counters["fans.chart_witness_hits"] += out is not None

    def _locus_input(self, args, kwargs):
        fan = args[3] if len(args) > 3 else kwargs["fan"]
        self.counters["actions.faces_tested"] += len(fan.face_keys())

    def _locus_out(self, args, kwargs, out):
        self.counters["actions.charts_certified"] += len(out.certificates)

    def _chambers_out(self, args, kwargs, out):
        self.counters["actions.chambers_out"] += len(out)

    def _quotient_out(self, args, kwargs, out):
        self.counters["quotients.charts"] += len(out.charts)

    def _box_input(self, args, kwargs):
        """Points of the zonotope box of the cone's generators, counted
        when the box is within the candidate budget (so enumerated)."""
        cone = args[0] if args else kwargs["c"]
        budget = args[1] if len(args) > 1 else kwargs.get("max_points", 200000)
        gens = cone.generators
        points = 1 if gens else 0
        for j in range(cone.ambient_rank):
            points *= (sum(max(0, g[j]) for g in gens)
                       - sum(min(0, g[j]) for g in gens) + 1)
        if points <= budget:
            self.counters["hilbert_mumford.box_points"] += points

    def _basis_out(self, args, kwargs, out):
        self.counters["hilbert_mumford.basis_size"] += len(out)

    # -- results -------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            return 0
        return self.sp_name.count(nid)

    def inclusive_s(self, name: str) -> float:
        nid = self.name_id.get(name)
        return self.inclusive[nid] if nid is not None else 0.0

    def self_times(self) -> Counter:
        """Self time per span name, in seconds."""
        out: Counter = Counter()
        for nid, s, e, c in zip(self.sp_name, self.sp_start, self.sp_end,
                                self.sp_child):
            out[nid] += (e - s) - c
        return Counter({self.names[k]: v for k, v in out.items()})

    def layer_metrics(self) -> dict:
        """Per-layer counts (exact) and times (seconds) of the traced run."""
        selfs = self.self_times()
        layer_self = Counter()
        for name, v in selfs.items():
            layer_self[name.split(".")[0]] += v
        c = self.counters
        dd = self.calls("cones.double_description")
        feas = (self.calls("cones.feasible_strict")
                + self.calls("cones.product_feasible_strict"))
        cw = self.calls("fans.chart_witness")
        m = {
            "cones.dd_calls": dd,
            "cones.dd_self_s": selfs["cones.double_description"],
            "cones.cones_built": c["cones.cones_built"],
            "cones.faces_calls": self.calls("cones.faces"),
            "cones.faces_s": self.inclusive_s("cones.faces"),
            "cones.dd_repeat_ratio": c["cones.dd_repeats"] / dd if dd else 0.0,
            "cones.feasible_calls": feas,
            "cones.feasible_hit_ratio": c["cones.feasible_hits"] / feas if feas else 0.0,
            "fans.chart_witness_calls": cw,
            "fans.chart_witness_hit_ratio": c["fans.chart_witness_hits"] / cw if cw else 0.0,
            "fans.validate_s": self.inclusive_s("fans.validate_fan"),
            "fans.face_lookups": sum(self.calls(f"fans.Fan.{n}") for n in
                                     ("face_cone", "has_face", "all_keys_under")),
            "intlinalg.snf_calls": self.calls("intlinalg.smith_normal_form"),
            "intlinalg.hnf_calls": self.calls("intlinalg.hermite_normal_form"),
            "intlinalg.rank_calls": self.calls("intlinalg.rank_of_rows"),
            "intlinalg.kernel_calls": self.calls("intlinalg.kernel_basis"),
            "intlinalg.sublattice_calls": self.calls("intlinalg.Sublattice.from_rows"),
            "actions.locus_calls": (self.calls("actions.semistable_divisor")
                                    + self.calls("actions.semistable_group")),
            "actions.faces_tested": c["actions.faces_tested"],
            "actions.charts_certified": c["actions.charts_certified"],
            "actions.chambers_out": c["actions.chambers_out"],
            "quotients.orbit_image_calls": self.calls("quotients.orbit_image"),
            "quotients.orbit_image_s": self.inclusive_s("quotients.orbit_image"),
            "quotients.charts": c["quotients.charts"],
            "hilbert_mumford.hilbert_basis_s": self.inclusive_s("hilbert_mumford.hilbert_basis"),
            "hilbert_mumford.basis_size": c["hilbert_mumford.basis_size"],
            "hilbert_mumford.box_points": c["hilbert_mumford.box_points"],
            "hilbert_mumford.ambient_checks": self.calls("hilbert_mumford.ambient_semistable"),
            "certcheck.certs_replayed": self.calls("certcheck.check_certificate"),
            "problemfile.parse_s": self.inclusive_s("problemfile.load_problem"),
        }
        for layer in LAYERS:
            if layer != "problemfile":
                m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line
        `id parent op name start_s end_s` (times from tracer creation),
        gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i, (nid, p, op, s, e) in enumerate(zip(
                    self.sp_name, self.sp_parent, self.sp_op, self.sp_start,
                    self.sp_end)):
                fh.write(f"{i}\t{p}\t{op}\t{self.names[nid]}\t"
                         f"{s - self.t0:.9f}\t{e - self.t0:.9f}\n")
        return len(self.sp_start)
