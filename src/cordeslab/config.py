"""Plain-text configuration: ``key = value`` lines.

Problem files and run configs share one syntax: one assignment per line,
``#`` comments, dotted/bracketed keys (``domain.lo``, ``b[1][2]``),
double-quoted strings for expressions, bare words for names, numbers and
whitespace-separated number lists for everything else.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .fields import (Box, CoefficientField, TableField, builtin_problem,
                     builtin_solve_data, make_field)

__all__ = ["ConfigError", "parse_kv_text", "load_problem_mapping",
           "RunConfig", "config_hash"]


class ConfigError(ValueError):
    pass


def parse_kv_text(text: str) -> dict:
    """Parse assignment lines into an ordered ``{key: value}`` mapping."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = _parse_value(value, lineno)
    return out


def _parse_value(value: str, lineno: int):
    if not value:
        raise ConfigError(f"line {lineno}: empty value")
    if value[0] == '"':
        if len(value) < 2 or value[-1] != '"':
            raise ConfigError(f"line {lineno}: unterminated string")
        return value[1:-1]
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    parts = value.replace(",", " ").split()
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        return value  # bare word such as a builtin name
    return nums[0] if len(nums) == 1 else nums


class _Keys(dict):
    """Parsed pairs of one file that record the keys the loader reads;
    ``check`` rejects those it never read."""

    def __init__(self, kv: dict, where):
        super().__init__(kv)
        self.where, self.read = where, set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def under(self, prefix: str) -> dict:
        """The open namespace ``prefix``, keyed by the rest of the names."""
        return {key[len(prefix):]: self[key] for key in list(self)
                if key.startswith(prefix)}

    def check(self):
        unread = [key for key in self if key not in self.read]
        if unread:
            raise ConfigError(f"{self.where}: unknown key {unread[0]!r}")


def _numbers(kv: dict, key: str, default=None, integer=False,
             count=None, least=None) -> list:
    """``kv[key]`` (``default`` when absent, else ``KeyError``) as a list
    of floats, or of ints when ``integer``; ``count`` fixes its length
    (an int, or a tuple of the lengths allowed), ``least`` bounds every
    entry from below."""
    value = kv[key] if default is None else kv.get(key, default)
    vals = value if isinstance(value, list) else [value]
    counts = tuple(dict.fromkeys(count if isinstance(count, tuple)
                                 else (count,)))
    try:
        nums = [float(v) for v in vals]
    except (TypeError, ValueError):
        nums = None
    if (nums is None or None not in counts and len(nums) not in counts
            or integer and not all(x.is_integer() for x in nums)
            or least is not None and min(nums) < least):
        what = "integer" if integer else "number"
        many = " or ".join(str(c) for c in counts) if count else "only"
        raise ConfigError(f"{key} = {value!r}: expected {many} {what}"
                          + "s" * (counts != (1,))
                          + ("" if least is None else f" >= {least}"))
    return [int(x) for x in nums] if integer else nums


def _number(kv: dict, key: str, default=None, integer=False, least=None):
    return _numbers(kv, key, default, integer, count=1, least=least)[0]


def _load_table(path: Path, n: int, box: Box, cells) -> list:
    """Piecewise-constant matrix from CSV rows ``i1..in, b11..bnn``: 0-based
    cell indices, at most one row per cell (a cell with none holds zeros);
    ``#`` starts a comment."""
    cells = tuple(cells)
    values = np.zeros(cells + (n, n))
    seen = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"table {path} line {lineno}"
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ConfigError(f"{where}: non-numeric entry") from None
        if len(row) != n + n * n:
            raise ConfigError(f"{where}: needs {n + n * n} columns")
        if not all(v.is_integer() and 0 <= v < c
                   for v, c in zip(row[:n], cells)):
            raise ConfigError(f"{where}: cell indices must be integers "
                              f"in 0..cells-1 (b.table.cells)")
        idx = tuple(int(v) for v in row[:n])
        if idx in seen:
            raise ConfigError(f"{where}: cell {list(idx)} is given twice")
        seen.add(idx)
        values[idx] = np.reshape(row[n:], (n, n))
    return [[TableField(box, cells, values[..., i, j]) for j in range(n)]
            for i in range(n)]


def load_problem_mapping(kv: dict, base_dir: Path) -> CoefficientField:
    """Build a coefficient field from a problem-file mapping.

    Keys: ``n``, ``T``, ``domain.lo``/``domain.hi`` (or ``domain = all``),
    ``b[i][j]``/``f[i]``/``lambda.re``/``lambda.im``/``beta[i][j]`` with
    quoted expressions, or ``b.table.file`` plus ``b.table.cells`` for a
    piecewise-constant matrix.
    """
    try:
        n = _number(kv, "n", integer=True)
        T = _number(kv, "T")
        domain = None if kv.get("domain") == "all" else Box(
            tuple(_numbers(kv, "domain.lo", count=n)),
            tuple(_numbers(kv, "domain.hi", count=n)))
    except KeyError as missing:
        raise ConfigError(f"problem file lacks key {missing}") from None
    table_box = domain or Box((-1.0,) * n, (1.0,) * n)

    if "b.table.file" in kv:
        cells = _numbers(kv, "b.table.cells", [1] * n, integer=True,
                         count=n, least=1)
        b = _load_table(base_dir / str(kv["b.table.file"]), n, table_box, cells)
    else:
        b = [[kv.get(f"b[{i + 1}][{j + 1}]", 1.0 if i == j else 0.0)
              for j in range(n)] for i in range(n)]
    f = [kv.get(f"f[{i + 1}]", 0.0) for i in range(n)]
    lam = (kv.get("lambda.re", 0.0), kv.get("lambda.im", 0.0))
    beta = None
    if any(key.startswith("beta[") for key in kv):
        beta = [[kv.get(f"beta[{i + 1}][{j + 1}]", 0.0) for j in range(n)]
                for i in range(n)]
    return make_field(n, T, domain, b, f, lam, beta)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    field: CoefficientField
    resolved: dict
    base_dir: Path
    grid_m: tuple | None = None
    grid_nt: int | None = None
    theta: float = 1.0
    split: str = "identity"
    index_set: tuple | None = None
    gamma: tuple | None = None
    samples_space: int = 9
    samples_time: int = 3
    phi: object = None
    Phi: object = None
    exact: object = None
    proof_eps: float | None = None
    proof_K: object = "auto"
    mc_M: int = 10000
    mc_dt: float = 1e-3
    mc_seed: int = 1
    sampler_kind: str = "uniform"
    sampler_params: dict = dc_field(default_factory=dict)
    pairing_allowance: float = 2e-2
    density_times: list = dc_field(default_factory=list)
    density_l1: float = 0.05
    char_panel: Path | None = None
    char_allowance: float = 3e-2
    out_dir: Path = Path("out")
    dump_paths: bool = False

    @staticmethod
    def load(path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        kv = _Keys(parse_kv_text(path.read_text()), path)
        kv.update(overrides or {})
        return RunConfig.from_mapping(kv, path.parent)

    @staticmethod
    def from_mapping(kv: dict, base_dir: Path) -> "RunConfig":
        from .fields import ExprField

        base_dir = Path(base_dir)
        kv = kv if isinstance(kv, _Keys) else _Keys(kv, "run config")
        if "problem.builtin" in kv:
            name = str(kv["problem.builtin"])
            params = kv.under("problem.param.")
            try:
                field = builtin_problem(name, params)
            except KeyError as err:
                raise ConfigError(str(err)) from None
            solve_data = builtin_solve_data(name, field.T)
        elif "problem.file" in kv:
            ppath = base_dir / str(kv["problem.file"])
            if not ppath.exists():
                raise ConfigError(f"problem file {ppath} does not exist")
            pkv = _Keys(parse_kv_text(ppath.read_text()), ppath)
            field = load_problem_mapping(pkv, ppath.parent)
            pkv.check()
            solve_data = None
        else:
            field = load_problem_mapping(kv, base_dir)
            solve_data = None

        cfg = RunConfig(field=field, resolved=dict(kv), base_dir=base_dir)
        if solve_data is not None:
            cfg.phi, cfg.Phi, cfg.exact = solve_data

        if "grid.m" in kv:   # one count serves every axis
            cfg.grid_m = tuple(_numbers(kv, "grid.m", integer=True,
                                        count=(1, field.n), least=3))
        if "grid.nt" in kv:
            cfg.grid_nt = _number(kv, "grid.nt", integer=True, least=1)
        cfg.theta = _number(kv, "scheme.theta", 1.0)
        if not 0.5 <= cfg.theta <= 1.0:
            raise ConfigError(f"scheme.theta={cfg.theta} outside [0.5, 1]")

        cfg.split = str(kv.get("conditions.split", "identity"))
        if cfg.split not in ("identity", "constant"):
            raise ConfigError(f"unknown split spec {cfg.split!r}")
        if "conditions.N" in kv:
            cfg.index_set = tuple(_numbers(kv, "conditions.N",
                                           integer=True))
            if any(not 1 <= k <= field.n for k in cfg.index_set):
                raise ConfigError("conditions.N indices outside 1..n")
        if "conditions.gamma" in kv:
            count = None if cfg.index_set is None else len(cfg.index_set)
            cfg.gamma = tuple(_numbers(kv, "conditions.gamma", count=count))
            if any(not 0.0 < g < 2.0 for g in cfg.gamma):
                raise ConfigError("conditions.gamma entries must lie in (0, 2)")
        cfg.samples_space = _number(kv, "conditions.samples.space", 9,
                                    integer=True, least=2)
        cfg.samples_time = _number(kv, "conditions.samples.time", 3,
                                   integer=True, least=1)

        if "solve.phi" in kv or "solve.phi_im" in kv:
            cfg.phi = ExprField(str(kv.get("solve.phi", "0")))
            if "solve.phi_im" in kv:
                cfg.phi = (cfg.phi, ExprField(str(kv["solve.phi_im"])))
        if "solve.Phi" in kv:
            cfg.Phi = ExprField(str(kv["solve.Phi"]))
        if "solve.exact" in kv:
            cfg.exact = ExprField(str(kv["solve.exact"]))
        if "solve.proof_mirror.eps" in kv:
            cfg.proof_eps = _number(kv, "solve.proof_mirror.eps")
        if kv.get("solve.proof_mirror.K", "auto") != "auto":
            cfg.proof_K = _number(kv, "solve.proof_mirror.K")

        cfg.mc_M = _number(kv, "mc.M", 10000, integer=True, least=1)
        cfg.mc_dt = _number(kv, "mc.dt", 1e-3)
        if cfg.mc_dt <= 0:
            raise ConfigError("mc.dt must be positive")
        cfg.mc_seed = _number(kv, "mc.seed", 1, integer=True)
        cfg.sampler_kind = str(kv.get("mc.sampler", "uniform"))
        cfg.sampler_params = kv.under("mc.sampler.")
        cfg.dump_paths = bool(kv.get("mc.dump_paths", False))

        cfg.pairing_allowance = _number(kv, "verify.pairing.allowance", 2e-2)
        if "verify.density.times" in kv:
            cfg.density_times = _numbers(kv, "verify.density.times")
        cfg.density_l1 = _number(kv, "verify.density.l1", 0.05)
        if "characteristic.panel" in kv:
            cfg.char_panel = base_dir / str(kv["characteristic.panel"])
        cfg.char_allowance = _number(kv, "characteristic.allowance", 3e-2)
        if "out.dir" in kv:
            cfg.out_dir = base_dir / str(kv["out.dir"])
        kv.check()
        return cfg

    def make_sampler(self):
        from .stochastic import (HatSampler, PointSampler,
                                 TruncatedGaussianSampler, UniformBoxSampler)
        n, kind = self.field.n, self.sampler_kind
        params = {"mc.sampler." + k: v for k, v in self.sampler_params.items()}

        def numbers(name, default, count=None):
            return _numbers(params, "mc.sampler." + name, default,
                            count=count)
        center = numbers("center", [0.0] * n)   # one value serves all axes
        center = center * n if len(center) == 1 else center
        if kind == "uniform":
            return UniformBoxSampler(self.field.sampling_box())
        if kind == "gaussian":
            return TruncatedGaussianSampler(center, numbers("sigma", 1.0),
                                            self.field.sampling_box())
        if kind == "hat":
            return HatSampler(center, numbers("width", 0.25))
        if kind == "point":
            return PointSampler(numbers("at", [0.0] * n, count=n))
        raise ConfigError(f"unknown sampler {kind!r}")

    def make_grid(self):
        from .grid import build_grid
        if self.grid_m is None or self.grid_nt is None:
            raise ConfigError("this command needs grid.m and grid.nt")
        if self.field.domain is None:
            raise ConfigError("grids need a bounded domain; emulate free "
                              "space with a wide box in the problem file")
        m = self.grid_m if len(self.grid_m) > 1 else self.grid_m[0]
        return build_grid(self.field.domain, m, self.grid_nt, self.field.T)

    def gamma_map(self):
        if self.gamma is None:
            return None
        if self.index_set is None:
            raise ConfigError("conditions.gamma needs conditions.N")
        return dict(zip(self.index_set, self.gamma))

    def hash(self) -> str:
        return config_hash(self.resolved)
