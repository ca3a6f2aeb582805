"""JSON system descriptions with exact rational round-tripping.

A config carries the number field (minimal polynomial plus isolating
box), the generator maps as field-element literals, the probability
vector and the computation budgets.  All rationals are written as
"num/den" strings; loading then re-serializing a canonical file
reproduces it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .field import NumberField, RootBox, FieldError, format_rational
from .intervals import RatInterval
from .maps import IFS, ScaleBase, Similitude, MapError


class ConfigError(ValueError):
    pass


# Each budget's default, read by the loader and the library's signatures, and
# its floor, the smallest value read (2 is the finite-n route's).  The four keys
# with floor None are accepted and hashed into config_hash but read by nothing.
Budget = namedtuple("Budget", "default floor")
BUDGETS = {
    "max_neighbor_nodes": Budget(20000, 1),
    "max_states": Budget(20000, 1),
    "tuple_budget": Budget(200000, 1),
    "pressure_n": Budget(14, 2),
    "kron_dim_budget": Budget(200000, 1),
    "null_eps": Budget(1e-12, None),
    "iteration_tol": Budget(1e-10, None),
    "max_iterations": Budget(10000, None),
    "subdivision_depth": Budget(12, None),
}


def check_budget(key: str, value):
    """value itself if it is an int (not a bool) at least the budget's floor."""
    floor = BUDGETS[key].floor
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ConfigError(f"budget {key!r} must be an integer >= {floor}, got {value!r}")
    return value


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _get(obj, key: str, shape=None, where: str = ""):
    """obj[key], for obj a JSON object at path where and a value of the given shape."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'the config'} must be an object, got {obj!r}")
    if key not in obj:
        raise ConfigError(f"missing config key {path!r}")
    value = obj[key]
    if shape is not None and not isinstance(value, shape):
        raise ConfigError(f"{path} must be {_SHAPES[shape]}, got {value!r}")
    return value


def _rat(s, where: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(f"{where}: bad rational {s!r}: {exc}") from exc


def _interval(pair, where: str) -> RatInterval:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{where} must be a list of two rationals, got {pair!r}")
    lo, hi = (_rat(x, where) for x in pair)
    if lo > hi:
        raise ConfigError(f"{where}: empty interval [{lo}, {hi}]")
    return RatInterval(lo, hi)


def _positive_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and value >= 1


def _element_literal(entry, where: str):
    if not isinstance(entry, list) or not entry:
        raise ConfigError(f"{where}: field element literal must be a non-empty list")
    return [_rat(x, where) for x in entry]


@dataclass
class IfsConfig:
    name: str
    backend: str                   # "real" | "complex"
    dimension: int
    mode: str                      # "equicontractive" | "commensurable"
    min_poly: list
    root_box: RootBox              # the root's region; imag None for a real root
    base_ratio: list               # element coeffs; complex: |r|^2 coeffs
    maps: list                     # [{"linear": ..., "translation": ..., "scale_exponent": k}]
    probabilities: list
    budgets: dict = dfield(default_factory=dict)

    # -- parsing -------------------------------------------------------------
    @staticmethod
    def from_dict(data: dict) -> "IfsConfig":
        name = _get(data, "name", str)
        if not name or name == ".." or "\0" in name or Path(name).name != name:
            raise ConfigError(f"name must be a file name, without a directory, got {name!r}")
        backend = _get(data, "backend")
        if backend not in ("real", "complex"):
            raise ConfigError(f"backend must be 'real' or 'complex', got {backend!r}")
        mode = _get(data, "mode")
        if mode not in ("equicontractive", "commensurable"):
            raise ConfigError(f"mode must be 'equicontractive' or 'commensurable', got {mode!r}")
        dim = _get(data, "dimension")
        if not _positive_int(dim):
            raise ConfigError("dimension must be a positive integer")
        if backend == "complex" and dim != 1:
            raise ConfigError("complex backend fixes dimension 1 (maps act on C)")
        fdesc = _get(data, "field")
        minpoly = [_rat(c, "minimal_polynomial")
                   for c in _get(fdesc, "minimal_polynomial", list, "field")]
        boxd = _get(fdesc, "root_box", where="field")
        box = RootBox(_interval(_get(boxd, "real", where="field.root_box"), "root_box.real"),
                      _interval(boxd["imag"], "root_box.imag") if "imag" in boxd else None)
        if backend == "complex" and box.imag is None:
            raise ConfigError("complex backend needs an 'imag' part in root_box")
        base = _element_literal(_get(data, "base_ratio"), "base_ratio")
        maps_in = _get(data, "maps", list)
        if not maps_in:
            raise ConfigError("maps must be a non-empty list")
        maps = []
        for i, mp in enumerate(maps_in):
            where = f"maps[{i}]"
            k = _get(mp, "scale_exponent", where=where)
            if not _positive_int(k):
                raise ConfigError(f"{where}: scale_exponent must be a positive integer")
            rows = _get(mp, "linear", list, where)
            tr = _get(mp, "translation", list, where)
            if backend == "complex":
                lin = _element_literal(rows, where + ".linear")
                tr = _element_literal(tr, where + ".translation")
            else:
                if len(rows) != dim or any(
                        not isinstance(row, list) or len(row) != dim for row in rows):
                    raise ConfigError(f"{where}: linear part must be {dim}x{dim}")
                lin = [[_element_literal(e, where + ".linear") for e in row] for row in rows]
                tr = [_element_literal(e, where + ".translation") for e in tr]
                if len(tr) != dim:
                    raise ConfigError(f"{where}: translation must have {dim} entries")
            maps.append({"linear": lin, "translation": tr, "scale_exponent": k})
        probs = [_rat(p, "probabilities") for p in _get(data, "probabilities", list)]
        given = _get(data, "budgets", dict) if "budgets" in data else {}
        budgets = {k: b.default for k, b in BUDGETS.items()}
        for k, v in given.items():
            if k not in BUDGETS:
                raise ConfigError(f"unknown budget key {k!r}")
            budgets[k] = v if BUDGETS[k].floor is None else check_budget(k, v)
        return IfsConfig(name, backend, dim, mode, minpoly, box, base,
                         maps, probs, budgets)

    @staticmethod
    def load(path) -> "IfsConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return IfsConfig.from_dict(data)

    # -- construction -----------------------------------------------------------
    def build_field(self) -> NumberField:
        try:
            return NumberField(self.min_poly, self.root_box,
                               complex_embedding=(self.backend == "complex"))
        except FieldError as exc:
            raise ConfigError(f"field: {exc}") from exc

    def build_ifs(self, field: NumberField | None = None) -> IFS:
        if field is None:
            field = self.build_field()
        try:
            if self.backend == "complex":
                base = ScaleBase(field, ratio_sq=field.element(self.base_ratio))
            else:
                base = ScaleBase(field, ratio=field.element(self.base_ratio))
            maps = []
            for m in self.maps:
                lin, tr = m["linear"], m["translation"]
                if self.backend == "complex":  # z -> c z + t is the 1x1 case of x -> L x + t
                    lin, tr = [[lin]], [tr]
                maps.append(Similitude(field, tuple(tuple(map(field.element, row)) for row in lin),
                                       tuple(map(field.element, tr)), m["scale_exponent"]))
            return IFS(field, maps, self.probabilities, base, mode=self.mode)
        except (FieldError, MapError) as exc:
            raise ConfigError(f"maps: {exc}") from exc

    # -- canonical serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        def elem(e):
            return [format_rational(c) for c in e]

        def interval(iv):
            return [format_rational(iv.lo), format_rational(iv.hi)]

        out = {
            "name": self.name,
            "backend": self.backend,
            "dimension": self.dimension,
            "mode": self.mode,
            "field": {
                "minimal_polynomial": [format_rational(c) for c in self.min_poly],
                "root_box": {"real": interval(self.root_box.real)},
            },
            "base_ratio": elem(self.base_ratio),
            "maps": [],
            "probabilities": [format_rational(p) for p in self.probabilities],
            "budgets": {k: self.budgets[k] for k in sorted(self.budgets)},
        }
        if self.root_box.imag is not None:
            out["field"]["root_box"]["imag"] = interval(self.root_box.imag)
        for m in self.maps:
            if self.backend == "complex":
                lin, tr = elem(m["linear"]), elem(m["translation"])
            else:
                lin = [[elem(e) for e in row] for row in m["linear"]]
                tr = [elem(e) for e in m["translation"]]
            out["maps"].append({"linear": lin, "translation": tr,
                                "scale_exponent": m["scale_exponent"]})
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def bundled_names() -> list:
    files = resources.files("selfsim.configs")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> IfsConfig:
    ref = resources.files("selfsim.configs").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}; "
                          f"available: {', '.join(bundled_names())}")
    with ref.open("r", encoding="utf-8") as fh:
        return IfsConfig.from_dict(json.load(fh))
