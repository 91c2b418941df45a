"""Problem file parsing: a single JSON tree describing a fan, an acting
subtorus, named divisors with optional character shifts, and optional
divisor groups.  Unknown fields and non-integer data are rejected with
messages naming the offending entry, and a fan that `validate_fan`
rejects keeps its `FanError` kind and message after the field at fault,
`rays` or `cones`; a ray of the wrong length also names `lattice_rank`,
and a divisor name that `divisors` lacks names `divisors`."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .actions import Linearization, SubtorusAction
from .fans import DivisorGroup, Fan, FanError, ToricDivisor, validate_fan


class ParseError(Exception):
    pass


KNOWN_FIELDS = {"lattice_rank", "rays", "cones", "action", "divisors",
                "shifts", "group", "weights"}


@dataclass
class Problem:
    fan: Fan
    action: Optional[SubtorusAction]
    divisors: dict
    shifts: dict
    groups: dict            # name -> list of divisor names
    weights: Optional[tuple]

    def divisor(self, name: str) -> ToricDivisor:
        if name not in self.divisors:
            raise ParseError(f"unknown divisor name: {name!r} is not in divisors")
        return self.divisors[name]

    def group(self, name: str) -> tuple[DivisorGroup, Linearization]:
        if name not in self.groups:
            raise ParseError(f"unknown group name: {name!r}")
        names = self.groups[name]
        basis = tuple(self.divisor(nm) for nm in names)
        d = self.action.d if self.action else 0
        shifts = tuple(self.shift_for(nm, d) for nm in names)
        return DivisorGroup(basis), Linearization(shifts)

    def shift_for(self, divisor_name: str, d: int) -> tuple:
        s = self.shifts.get(divisor_name)
        if s is None:
            return tuple(0 for _ in range(d))
        if len(s) != d:
            raise ParseError(
                f"shift for {divisor_name!r} has length {len(s)}, expected {d}")
        return s

    def linearization_for(self, divisor_name: str) -> Linearization:
        d = self.action.d if self.action else 0
        return Linearization((self.shift_for(divisor_name, d),))


def _int_vector(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ParseError(f"{where}: expected a list of integers, got {value!r}")
    return tuple(value)


def _container(data: dict, field: str, kind: type):
    """data[field], which must be a list or a mapping (kind); an absent or
    null mapping reads as empty."""
    value = data.get(field)
    if value is None and kind is dict:
        return {}
    if not isinstance(value, kind):
        what = "a list" if kind is list else "a mapping of names"
        raise ParseError(f"{field} must be {what}, got {value!r}")
    return value


def parse_problem(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    unknown = set(data) - KNOWN_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for required in ("lattice_rank", "rays", "cones"):
        if required not in data:
            raise ParseError(f"missing required field {required!r}")

    rank = data["lattice_rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ParseError(f"lattice_rank must be a nonnegative integer")
    rays = [_int_vector(r, f"rays[{i}]") for i, r in enumerate(_container(data, "rays", list))]
    cones = [_int_vector(c, f"cones[{i}]") for i, c in enumerate(_container(data, "cones", list))]
    try:
        fan = validate_fan(rank, rays, cones)
    except FanError as e:  # name the field; the rays are checked first, and
        # a bad index names what it misses: the rank for a ray of the wrong
        # length, the ray count for a cone's index out of range
        on_rays = e.kind in ("NonPrimitiveRay", "DuplicateRay") or any(len(r) != rank for r in rays)
        miss = f"lattice_rank {rank}" if on_rays else f"{len(rays)} rays"
        e.args = (f"{'rays' if on_rays else 'cones'}: {e}" + f" for {miss}" * (e.kind == "BadIndex"),)
        raise

    action = None
    if "action" in data:
        cols = [_int_vector(c, f"action[{i}]")
                for i, c in enumerate(_container(data, "action", list))]
        for c in cols:
            if len(c) != rank:
                raise ParseError(f"action column {c} has wrong length")
        action = SubtorusAction.from_columns(cols, rank)

    divisors = {}
    for name, coeffs in _container(data, "divisors", dict).items():
        v = _int_vector(coeffs, f"divisors[{name!r}]")
        if len(v) != len(rays):
            raise ParseError(
                f"divisors[{name!r}]: {len(v)} coefficients for {len(rays)} rays")
        divisors[name] = ToricDivisor(v)

    shifts = {}
    for name, vec in _container(data, "shifts", dict).items():
        if name not in divisors:
            raise ParseError(f"shift given for unknown divisor {name!r}")
        shifts[name] = _int_vector(vec, f"shifts[{name!r}]")

    groups = {}
    g = data.get("group")
    if g is not None:
        if isinstance(g, list):
            groups["G"] = [str(x) for x in g]
        elif isinstance(g, dict):
            for name, names in g.items():
                if not isinstance(names, list):
                    raise ParseError(f"group {name!r} must list divisor names")
                groups[name] = [str(x) for x in names]
        else:
            raise ParseError("group must be a list of divisor names or a "
                             "mapping of group names to such lists")
        for gname, names in groups.items():
            for nm in names:
                if nm not in divisors:
                    raise ParseError(
                        f"group {gname!r} references unknown divisor {nm!r}, "
                        "which is not in divisors")

    weights = None
    if "weights" in data:
        weights = tuple(_int_vector(w, f"weights[{i}]")
                        for i, w in enumerate(_container(data, "weights", list)))
        for i, w in enumerate(weights):
            if len(w) != len(weights[0]):
                raise ParseError(f"weights[{i}]: length {len(w)}, expected "
                                 f"{len(weights[0])} as in weights[0]")

    return Problem(fan, action, divisors, shifts, groups, weights)


def load_problem(raw: bytes) -> Problem:
    """The problem in the bytes of a problem file, read as a text file is
    read: UTF-8 with universal newlines.  The CLI reads a file once, and
    hashes and parses the same bytes."""
    try:  # newlines translated as in text mode, for the line numbers
        data = json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}: {e.msg}")
    return parse_problem(data)
