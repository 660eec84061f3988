"""Plain-text configuration: ``key = value`` lines.

Problem files and run configs share one syntax: one assignment per line,
``#`` comments on lines of their own, dotted/bracketed keys
(``domain.lo``, ``b[1][2]``), double-quoted strings for expressions,
bare words for names, numbers and whitespace-separated number lists for
everything else.

Loading resolves the whole run: the field, the grid, the sampler, the
index set and weights and the characteristic panel are built and checked
before any command starts, so a fault of the input ends every command at
load, whether or not the command reads the part at fault.  Every key is
read by name, and a key never read is refused: a builtin problem takes
the ``problem.param.*`` names of its keyword signature (a count where
the default is an int), a sampler the ``mc.sampler.*`` names of its kind.
Every number is read by one rule (``_numbers``): finite, not ``true`` or
``false``, whole where it counts, and inside its key's interval; a fault
names the key and the interval.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .expr import ExprSyntaxError
from .fields import (GAMMA_RANGE, Box, CoefficientField, ExprField,
                     FieldConstructionError, SampleSet, TableField,
                     _validate_index_set, as_scalar_field, builtin_problem,
                     builtin_signature, builtin_solve_data, make_field,
                     sample_set)
from .grid import Grid, build_grid

if TYPE_CHECKING:
    from .solver import BackwardProblem

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
        parsed = _parse_value(value, lineno)
        if parsed == []:
            raise ConfigError(f"line {lineno}: {key} = {value}: expected a "
                              f"value, not separators alone")
        out[key] = parsed
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

    @classmethod
    def parse(cls, path: Path) -> "_Keys":
        """The pairs of the file at ``path``; a fault names the file."""
        try:
            return cls(parse_kv_text(path.read_text()), path)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def check(self):
        unread = [key for key in self if key not in self.read]
        if unread:
            raise ConfigError(f"{self.where}: unknown key {unread[0]!r}")


def _numbers(kv: dict, key: str, default=None, integer=False,
             count=None, least=None, most=None, strict=False) -> list:
    """``kv[key]`` (``default`` when absent, else ``KeyError``) as a list
    of finite floats (not ``true``/``false``), or of ints when ``integer``;
    ``count`` fixes its length (an int, or a tuple of the lengths allowed),
    ``least`` and ``most`` (``None``: unbounded) bound every entry, and
    ``strict`` excludes the bounds themselves."""
    value = kv[key] if default is None else kv.get(key, default)
    vals = value if isinstance(value, list) else [value]
    counts = tuple(dict.fromkeys(count if isinstance(count, tuple)
                                 else (count,)))
    lo, hi = (-np.inf if least is None else least,
              np.inf if most is None else most)
    try:    # true and false are flags, not the numbers 1 and 0
        nums = None if isinstance(value, bool) else [float(v) for v in vals]
    except (TypeError, ValueError):
        nums = None
    if (nums is None or not nums
            or None not in counts and len(nums) not in counts
            or not np.isfinite(nums).all()
            or integer and not all(x.is_integer() for x in nums)
            or not all(lo < x < hi if strict else lo <= x <= hi
                       for x in nums)):
        what = "integer" if integer else "finite number"
        many = " or ".join(str(c) for c in counts) if count else "only"
        bound = ("" if least is None and most is None else
                 f" >{'=' * (not strict)} {least}" if most is None else
                 f" in {'(['[not strict]}{lo}, {hi}{')]'[not strict]}")
        raise ConfigError(f"{key} = {value!r}: expected {many} {what}"
                          + "s" * (counts != (1,)) + bound)
    return [int(x) for x in nums] if integer else nums


def _number(kv: dict, key: str, default=None, **rules):
    return _numbers(kv, key, default, count=1, **rules)[0]


def _entry(kv: _Keys, key: str, default, read=as_scalar_field):
    """``kv[key]`` (``default`` when absent) read by ``read``; a syntax
    fault in its expression names the file and the key."""
    try:
        return read(kv.get(key, default))
    except ExprSyntaxError as err:
        raise ConfigError(f"{kv.where}: {key}: {err}") from None


def _finite_row(cells, where: str) -> list:
    """One CSV row as finite floats; a fault names ``where``."""
    try:
        row = [float(v) for v in cells]
    except ValueError:
        raise ConfigError(f"{where}: non-numeric entry") from None
    if not np.isfinite(row).all():
        raise ConfigError(f"{where}: non-finite entry")
    return row


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
        row = _finite_row(line.split(","), where)
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


def _load_panel(path: Path, n: int) -> list:
    """``(func, times, xis)`` of each function of a panel CSV, by id:
    columns ``t, xi1..xin`` (one function, id 0) or ``func, t, xi1..``,
    under a header when the first row is not all numbers.  Every entry
    must be finite, a ``func`` id an integer, and the times of each
    function must increase strictly down the file."""
    try:
        with path.open() as handle:
            rows = list(csv.reader(handle))
    except OSError as err:
        raise ConfigError(f"cannot read panel {path}: {err}") from None
    header = [c.strip().lower() for c in rows[0]] if rows else []
    has_func = header[:1] == ["func"]
    try:
        [float(c) for c in header]
        first = 1       # line of the first row: no header
    except ValueError:
        first = 2
    panels: dict = {}
    for lineno, row in enumerate(rows[first - 1:], start=first):
        if not any(c.strip() for c in row):
            continue
        where = f"panel {path} line {lineno}"
        vals = _finite_row(row, where)
        if has_func and not vals[0].is_integer():
            raise ConfigError(f"{where}: func id {row[0].strip()} is not "
                              f"an integer")
        fid, data = (int(vals[0]), vals[1:]) if has_func else (0, vals)
        if len(data) != n + 1:
            raise ConfigError(f"{where}: expected t and {n} components")
        if fid in panels and data[0] <= panels[fid][-1][0]:
            raise ConfigError(f"{where}: time {data[0]:g} does not follow "
                              f"{panels[fid][-1][0]:g} of func {fid}")
        panels.setdefault(fid, []).append(data)
    if not panels:
        raise ConfigError(f"panel {path} is empty")
    arrays = [(fid, np.asarray(panels[fid])) for fid in sorted(panels)]
    return [(fid, arr[:, 0], arr[:, 1:]) for fid, arr in arrays]


def _sampler(kv: _Keys, field: CoefficientField):
    """The initial law that ``mc.sampler`` names, from the
    ``mc.sampler.*`` keys that its kind takes and no others."""
    from .stochastic import (HatSampler, PointSampler,
                             TruncatedGaussianSampler, UniformBoxSampler)
    n, kind = field.n, str(kv.get("mc.sampler", "uniform"))
    if kind in ("gaussian", "hat"):
        center = _numbers(kv, "mc.sampler.center", [0.0] * n, count=(1, n))
        center = center * n if len(center) == 1 else center     # all axes
    spread = functools.partial(_numbers, kv, count=(1, n), least=0,
                               strict=True)     # per axis, or one for all
    try:
        if kind == "uniform":
            return UniformBoxSampler(field.sampling_box())
        if kind == "gaussian":
            return TruncatedGaussianSampler(
                center, spread("mc.sampler.sigma", 1.0), field.sampling_box())
        if kind == "hat":
            return HatSampler(center, spread("mc.sampler.width", 0.25))
        if kind == "point":
            return PointSampler(_numbers(kv, "mc.sampler.at", [0.0] * n,
                                         count=n))
    except ConfigError:
        raise
    except ValueError as err:   # a range fault, led by the name it concerns
        raise ConfigError(f"mc.sampler.{err}") from None
    raise ConfigError(f"unknown sampler {kind!r}")


def load_problem_mapping(kv: dict, base_dir: Path) -> CoefficientField:
    """Build a coefficient field from a problem-file mapping.

    Keys: ``n``, ``T``, ``domain.lo``/``domain.hi`` (or ``domain = all``),
    ``b[i][j]``/``f[i]``/``lambda.re``/``lambda.im``/``beta[i][j]`` with
    quoted expressions, or ``b.table.file`` plus ``b.table.cells`` for a
    piecewise-constant matrix.
    """
    kv = kv if isinstance(kv, _Keys) else _Keys(kv, "problem")
    try:
        n = _number(kv, "n", integer=True, least=1)
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
        b = [[_entry(kv, f"b[{i + 1}][{j + 1}]", 1.0 if i == j else 0.0)
              for j in range(n)] for i in range(n)]
    f = [_entry(kv, f"f[{i + 1}]", 0.0) for i in range(n)]
    lam = (_entry(kv, "lambda.re", 0.0), _entry(kv, "lambda.im", 0.0))
    beta = None
    if any(key.startswith("beta[") for key in kv):
        beta = [[_entry(kv, f"beta[{i + 1}][{j + 1}]", 0.0)
                 for j in range(n)] for i in range(n)]
    return make_field(n, T, domain, b, f, lam, beta)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """One run, resolved at load.  ``grid`` is ``None`` without grid keys,
    and ``problem``, the ``BackwardProblem`` of ``field``, ``phi`` and
    ``Phi``, with them; ``gamma`` maps each index to its weight and
    ``panel`` holds ``(func, times, xis)`` per function; ``samples`` is
    built when first read."""

    field: CoefficientField
    resolved: dict
    grid: Grid | None = None
    problem: BackwardProblem | None = None
    theta: float = 1.0
    split: str = "identity"
    index_set: tuple | None = None
    gamma: dict | None = None
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
    sampler: object = None
    pairing_allowance: float = 2e-2
    density_times: list = dc_field(default_factory=list)
    density_l1: float = 0.05
    panel: list | None = None
    char_allowance: float = 3e-2
    out_dir: Path = Path("out")
    dump_paths: bool = False

    @staticmethod
    def load(path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        kv = _Keys.parse(path)
        kv.update(overrides or {})
        return RunConfig.from_mapping(kv, path.parent)

    @staticmethod
    def from_mapping(kv: dict, base_dir: Path) -> "RunConfig":
        base_dir = Path(base_dir)
        kv = kv if isinstance(kv, _Keys) else _Keys(kv, "run config")
        solve_data = None
        if "problem.builtin" in kv:
            name = str(kv["problem.builtin"])
            params = {}     # the keys that the builtin's signature names
            try:
                for key, p in builtin_signature(name).parameters.items():
                    rules = (dict(integer=True, least=1)
                             if type(p.default) is int  # an int default: a count
                             else dict(least=0, strict=True) if key == "T"
                             else {})
                    if f"problem.param.{key}" in kv:
                        params[key] = _number(kv, f"problem.param.{key}",
                                              **rules)
                field = builtin_problem(name, params)
            except KeyError as err:
                raise ConfigError(err.args[0]) from None
            solve_data = builtin_solve_data(name, field.T)
        elif "problem.file" in kv:
            ppath = base_dir / str(kv["problem.file"])
            if not ppath.exists():
                raise ConfigError(f"problem file {ppath} does not exist")
            pkv = _Keys.parse(ppath)
            field = load_problem_mapping(pkv, ppath.parent)
            pkv.check()
        else:
            field = load_problem_mapping(kv, base_dir)

        cfg = RunConfig(field=field, resolved=dict(kv))
        if solve_data is not None:
            cfg.phi, cfg.Phi, cfg.exact = solve_data

        m = (_numbers(kv, "grid.m", integer=True, count=(1, field.n),
                      least=3) if "grid.m" in kv else None)
        nt = (_number(kv, "grid.nt", integer=True, least=1)
              if "grid.nt" in kv else None)
        if (m is None) != (nt is None):
            raise ConfigError("one grid key without the other: this command "
                              "needs grid.m and grid.nt")
        if m is not None and field.domain is None:
            raise ConfigError("grids need a bounded domain; emulate free "
                              "space with a wide box in the problem file")
        if m is not None:   # one count serves every axis
            cfg.grid = build_grid(field.domain, m if len(m) > 1 else m[0],
                                  nt, field.T)
        cfg.theta = _number(kv, "scheme.theta", cfg.theta, least=0.5, most=1)

        cfg.split = str(kv.get("conditions.split", cfg.split))
        if cfg.split not in ("identity", "constant"):
            raise ConfigError(f"unknown split spec {cfg.split!r}")
        if "conditions.N" in kv:
            given = _numbers(kv, "conditions.N", integer=True)
            try:
                cfg.index_set = _validate_index_set(given, field.n)
            except FieldConstructionError as err:
                raise ConfigError(f"conditions.N {err}") from None
        if "conditions.gamma" in kv:
            if cfg.index_set is None:
                raise ConfigError("conditions.gamma needs conditions.N")
            gamma = _numbers(kv, "conditions.gamma", count=len(cfg.index_set),
                             least=GAMMA_RANGE[0], most=GAMMA_RANGE[1],
                             strict=True)
            # the weights pair with the indices in the order written
            cfg.gamma = dict(zip(dict.fromkeys(given), gamma))
        cfg.samples_space = _number(kv, "conditions.samples.space",
                                    cfg.samples_space, integer=True, least=2)
        cfg.samples_time = _number(kv, "conditions.samples.time",
                                   cfg.samples_time, integer=True, least=1)

        def expression(key, default=None):
            return _entry(kv, key, default, lambda text: ExprField(str(text)))
        if "solve.phi" in kv or "solve.phi_im" in kv:
            cfg.phi = expression("solve.phi", "0")
            if "solve.phi_im" in kv:
                cfg.phi = (cfg.phi, expression("solve.phi_im"))
        if "solve.Phi" in kv:
            cfg.Phi = expression("solve.Phi")
        if "solve.exact" in kv:
            cfg.exact = expression("solve.exact")
        if "solve.proof_mirror.eps" in kv:
            cfg.proof_eps = _number(kv, "solve.proof_mirror.eps", least=0,
                                    strict=True)
        if kv.get("solve.proof_mirror.K", "auto") != "auto":
            from .solver import MAX_KT
            cfg.proof_K = _number(kv, "solve.proof_mirror.K")
            if not abs(cfg.proof_K) * field.T <= MAX_KT:
                raise ConfigError(f"solve.proof_mirror.K = {cfg.proof_K!r}: "
                                  f"expected a finite number with |K|*T <= "
                                  f"{MAX_KT:g}")
        if cfg.grid is not None:    # the solver, and scipy, load with a grid
            from .solver import BackwardProblem
            cfg.problem = BackwardProblem(field, phi=cfg.phi, Phi=cfg.Phi)

        cfg.mc_M = _number(kv, "mc.M", cfg.mc_M, integer=True, least=1)
        cfg.mc_dt = _number(kv, "mc.dt", cfg.mc_dt, least=0, strict=True)
        cfg.mc_seed = _number(kv, "mc.seed", cfg.mc_seed, integer=True,
                              least=0)
        cfg.sampler = _sampler(kv, field)
        cfg.dump_paths = kv.get("mc.dump_paths", cfg.dump_paths)
        if not isinstance(cfg.dump_paths, bool):
            raise ConfigError(f"mc.dump_paths = {cfg.dump_paths!r}: expected "
                              f"true or false")

        cfg.pairing_allowance = _number(kv, "verify.pairing.allowance",
                                        cfg.pairing_allowance, least=0)
        if "verify.density.times" in kv:
            cfg.density_times = _numbers(kv, "verify.density.times", least=0,
                                         most=field.T)
        cfg.density_l1 = _number(kv, "verify.density.l1", cfg.density_l1,
                                 least=0, strict=True)
        if "characteristic.panel" in kv:
            cfg.panel = _load_panel(base_dir / str(kv["characteristic.panel"]),
                                    field.n)
        cfg.char_allowance = _number(kv, "characteristic.allowance",
                                     cfg.char_allowance, least=0)
        if "out.dir" in kv:
            cfg.out_dir = base_dir / str(kv["out.dir"])
        kv.check()
        return cfg

    @functools.cached_property
    def samples(self) -> SampleSet:
        """The sample set of the condition checks, (2 * samples_space - 1)^n
        points: about 1.2 GB at n = 6 by default, unread by simulate."""
        return sample_set(self.field.sampling_box(), self.field.T,
                          self.samples_space, self.samples_time)

    def hash(self) -> str:
        return config_hash(self.resolved)
