"""Command-line front end: solve, sweep, verify, profile.

Outputs are deterministic: fixed float formatting (17 significant digits),
fixed row order, no timestamps, so repeated runs with the same config are
byte-identical. A CSV table follows two rules: a float cell is written as
`.17g`, and any other cell as `str`, in double quotes (inner quotes doubled,
RFC 4180) when it holds a comma, a double quote or a line break. A `profile`
CSV formats only its p >= 0 half and writes each p < 0 line as "-" + its mirror
line: the same bytes, as %.17g of -x is "-" + %.17g of x for x > 0.

The all-float tables (`profile` and the `solve --plot` eigenfunctions) reach
`write_table` as 2-D float64 arrays. A chunk of cells that all lie in
%.17g's fixed-notation range, 1e-4 <= |x| < 1e17, or are ±0, is formatted by
numpy with exact integer rounding (`_fixed_text`); any other chunk by `%`. The
`solve` and `sweep` tables, with int and str cells, go cell by cell.

`solve` and `sweep` solve each model in its Liouville normal form
(`gupmdm.models.normal_form_sl`), so they take no box size; `profile` prints
the momentum-space problem on [-pmax, pmax].

Only the commands that eigensolve (`solve`, `sweep`, `verify susy` and
`verify hermitize`) import `gupmdm.solver`, and with it scipy's LAPACK
extension alone; they do so when they run, so `profile`, `verify reduction`
and `verify vonroos` start without scipy.

Exit codes: 0 ok, 1 verification failure, 2 invalid config, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial

import numpy as np

from . import __version__
from .core import SolverError, constant, inner_slice, make_grid, sample
from .models import (
    MODELS,
    GupOscillatorParams,
    SwansonParams,
    normal_form_grid,
    normal_form_sl,
)


class ConfigError(ValueError):
    pass


EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


@dataclass(frozen=True)
class RunConfig:
    model: str = "gup-oscillator"
    omega: float = 1.0
    tau: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    n: int = 1201
    k: int = 6
    format: str = "csv"
    out: str | None = None
    plot: bool = False

    def params(self):
        """The model's params; ConfigError for a parameter the model does not have."""
        cls = MODELS.get(self.model)
        if cls is None:
            raise ConfigError(f"model must be one of {tuple(MODELS)}, "
                              f"got {self.model!r}")
        names = [f.name for f in fields(cls)]
        for other in MODELS.values():
            for name in (f.name for f in fields(other) if f.name not in names):
                if getattr(self, name) != getattr(RunConfig, name):
                    raise ConfigError(f"model {self.model} has no parameter {name} "
                                      f"(got {name} = {getattr(self, name)!r})")
        return cls(**{name: getattr(self, name) for name in names})

    def validate(self) -> "RunConfig":
        if self.n < 5:
            raise ConfigError(f"need n >= 5 grid points, got {self.n}")
        if self.k < 1:
            raise ConfigError(f"need k >= 1 eigenvalues, got {self.k}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.plot and self.out in (None, "-"):
            raise ConfigError("--plot needs a file --out; the plot is named after it")
        if self.plot and os.path.splitext(self.out)[0] + ".svg" == self.out:
            raise ConfigError(f"--plot would write its plot over --out {self.out!r}; "
                              "give the table another extension")
        self.params()
        return self


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return values


_FIELDS = tuple(f.name for f in fields(RunConfig))


def config_from_sources(file_values: dict, cli_overrides: dict) -> RunConfig:
    """Build a RunConfig from config-file values with CLI flags winning."""
    merged = dict(file_values)
    merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    kwargs = {}
    for key, raw in merged.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(raw, str):
            kwargs[key] = _parse_value(key, raw)
        else:
            kwargs[key] = raw
    return RunConfig(**kwargs).validate()


def _parse_value(key: str, raw: str):
    """A config-file value as the type of `key`'s default in RunConfig: a bool
    (true/on/1/yes or false/off/0/no), else an int or a float, else the text."""
    default = getattr(RunConfig, key)
    if isinstance(default, bool):
        if raw.lower() in ("true", "on", "1", "yes"):
            return True
        if raw.lower() in ("false", "off", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean {key} = {raw!r}")
    if not isinstance(default, (int, float)):
        return raw
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


# ---------------------------------------------------------------- output


# Rows per string of a CSV table of lists; bounds the text held at once.
CSV_BLOCK_ROWS = 4096

# Cells per chunk of a float-array CSV table; bounds the working set of
# `_fixed_text` and of its `%` fallback.
CSV_CHUNK_CELLS = 1024


def _csv_cell(v) -> str:
    """A float as .17g; anything else as str, quoted if it holds , " or a line break."""
    if isinstance(v, float):
        return f"{v:.17g}"
    text = str(v)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# The exact %.17g kernel. %.17g writes x in fixed notation when its exponent
# E = floor(log10|x|) lies in [-4, 16], i.e. for 1e-4 <= |x| < 1e17, and ±0 as
# "0". A cell's bucket j counts the _BOUNDS <= |x|: 0 for ±0, 1 below 1e-4,
# E + 6 in range and 23 at or above 1e17 or for nan. The bounds are the doubles
# nearest 10^E; each lies above 10^E when E < 0, so no double between the two
# is misplaced.
_POW10 = np.multiply.accumulate(np.r_[1.0, np.full(20, 10.0)])    # exact to 1e20
_BOUNDS = np.r_[np.nextafter(0.0, 1.0), 1.0 / _POW10[4:0:-1], _POW10[:18]]
_OUTSIDE = np.isin(np.arange(24), (1, 23))


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo, each with at most 26 significant bits (Dekker's split)."""
    big = x * 134217729.0
    hi = big - (big - x)
    return hi, x - hi


# Per bucket, 10^(16 - E) and its two halves.
_SCALE = _POW10[np.clip(22 - np.arange(24), 0, 20)]
_SCALE = np.stack([_SCALE, *_split(_SCALE)])
# A cell's characters before the keep mask: a sign, the "0.000" of E < 0, then
# the 17 significant digits d_i at columns 6 + 2i, each followed by a point
# (kept only after the last integer digit) and d_16 by the separator.
_CELL_WIDTH = 40
_TEMPLATE = b"-0.000" + b"0." * 16 + b"0,"


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per four-digit value q: its digits with their points as one little-endian
    word; and, in each slot k of d_1-4, ..., d_13-16, the 1-based place among
    d_1 ... d_16 of its last nonzero digit (0 for q = 0), at index q + 10^4 k."""
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)
    words = np.empty((10**4, 8), np.uint8)
    words[:] = np.frombuffer(b"0.0.0.0.", np.uint8)
    words[:, ::2] += digits.T
    trailing = np.logical_and.accumulate(digits[::-1] == 0, axis=0).sum(axis=0, dtype=np.uint8)
    slot = np.arange(4, dtype=np.uint8)[:, None]
    last = np.where(trailing == 4, 0, 4 * slot + 4 - trailing)
    return words.view("<u8").ravel(), last.ravel()


_QUAD_WORDS, _QUAD_LAST = _quad_tables()
_QUAD_OFFSET = 10**4 * np.arange(4)[:, None]


def _keep_table() -> np.ndarray:
    """Which of a cell's _CELL_WIDTH characters %.17g writes, as 0xff or 0, per
    (sign, j, nsig).

    nsig is the number of significant digits left once trailing zeros are
    dropped; a point is kept only when a fraction digit follows it.
    """
    neg = np.arange(2)[:, None, None, None]
    j = np.arange(24)[:, None, None]
    nsig = np.arange(18)[:, None]
    col = np.arange(_CELL_WIDTH)
    e, i = j - 6, (col - 6) // 2
    fixed = (j >= 2) & (j <= 22)
    digit, point = (col >= 6) & (col % 2 == 0), (col >= 7) & (col % 2 == 1) & (i < 16)
    keep = ((col == 0) & (neg == 1)
            | (col >= 1) & (col <= 2) & fixed & (e < 0)
            | (col >= 3) & (col <= 5) & fixed & (col - 3 < -e - 1)
            | digit & fixed & ((i < nsig) | (i <= e))
            | digit & (j == 0) & (i == 0)
            | point & fixed & (i == e) & (nsig - 1 > e)
            | (col == _CELL_WIDTH - 1))
    return (keep * np.uint8(255)).reshape(-1, _CELL_WIDTH)


_KEEP = _keep_table()


def _exact_product(mag: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = |x| 10^(16 - E) exactly: hi is the rounded product and lo its
    error, from Dekker's split of both factors."""
    scale, scale_hi, scale_lo = np.take(_SCALE, j, axis=1)
    hi = mag * scale
    mag_hi, mag_lo = _split(mag)
    lo = mag_hi * scale_hi
    lo -= hi
    lo += mag_hi * scale_lo
    lo += mag_lo * scale_hi
    lo += mag_lo * scale_lo
    return hi, lo


def _significand(mag: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d_0 and the four-digit groups of D = round-half-even(|x| 10^(16 - E)).

    D lies in [1e16, 1e17). hi >= 1e16 is an even integer, so hi + rint(lo) is
    D. D never rounds up to 1e17, which would take |x| within 5e-18 10^(E+1)
    below 10^(E+1); no double of the range is that close. Returns d_0 and a
    (4, n) float32 array of d_1-4, ..., d_13-16.
    """
    hi, lo = _exact_product(mag, j)
    # D = top 10^8 + low. top 10^8 has at most 49 significant bits and lies
    # within 1e8 of hi, so hi - top 10^8 is exact. low reuses hi's buffer and
    # carry lo's, to bound the working set.
    top = np.floor(hi / 1e8)
    low = hi
    low -= top * 1e8
    low += np.rint(lo, out=lo)
    carry = np.floor(low / 1e8, out=lo)
    top += carry
    low -= carry * 1e8
    lead = np.floor(top / 1e8)
    top -= lead * 1e8
    quads = np.empty((2, 2, len(mag)), np.float32)     # four digits are exact
    for eight, quad in zip((top, low), quads):
        np.floor(eight / 1e4, out=quad[0], casting="same_kind")
        np.subtract(eight, np.multiply(quad[0], 1e4, dtype=np.float64), out=quad[1],
                    casting="same_kind")
    return lead, quads.reshape(4, -1)


def _write_digits(chars: np.ndarray, mag: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Writes d_0 ... d_16 of each cell into its row of chars; returns each
    cell's number of significant digits, trailing zeros dropped."""
    lead, quads = _significand(mag, j)
    np.add(lead, 48, out=chars[:, 6], casting="unsafe")
    quads = quads.astype(np.intp)
    separators = chars[:, -1].copy()       # the last word covers them
    chars.view("<u8")[:, 1:] = np.take(_QUAD_WORDS, quads).T
    chars[:, -1] = separators
    quads += _QUAD_OFFSET
    return np.take(_QUAD_LAST, quads).max(axis=0) + 1


def _fixed_text(cells: np.ndarray, mag: np.ndarray, j: np.ndarray, chars: np.ndarray) -> str:
    """%.17g of each of the float cells, whose buckets j all lie in range or at ±0.

    mag is |cells|; chars holds _TEMPLATE on each of its len(cells) rows, with
    the separator of each cell's column. Each helper frees its temporaries
    before the next stage, to bound the working set.
    """
    row = (np.signbit(cells) * 24 + j) * 18 + _write_digits(chars, mag, j)
    return _kept(chars, row).decode("ascii")


def _kept(chars: np.ndarray, row: np.ndarray) -> bytearray:
    """The characters of chars that each row of _KEEP[row] keeps, in order."""
    text = bytearray(chars.size)
    keep = np.frombuffer(text, np.uint8).reshape(chars.shape)
    np.take(_KEEP, row, axis=0, out=keep)
    keep &= chars
    return text.translate(None, b"\0")


def _float_blocks(table: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float64 array, one string per CSV_CHUNK_CELLS cells.

    A chunk whose cells all lie in %.17g's fixed-notation range (1e-4 <= |x| <
    1e17) or are ±0 is formatted by `_fixed_text`; any other chunk by one `%`
    on a repeated `%.17g` row template. Both give `_csv_cell`'s text.
    """
    cols = table.shape[1]
    step = max(1, CSV_CHUNK_CELLS // cols)
    chars = np.empty((step, cols, _CELL_WIDTH), np.uint8)
    chars[:] = np.frombuffer(_TEMPLATE, np.uint8)
    chars[:, -1, -1] = ord("\n")
    chars = chars.reshape(-1, _CELL_WIDTH)
    template = ",".join(["%.17g"] * cols) + "\n"
    for start in range(0, len(table), step):
        cells = table[start:start + step].ravel()
        mag = np.abs(cells)
        j = np.searchsorted(_BOUNDS, mag, side="right")
        if _OUTSIDE[j].any():
            yield (template * (len(cells) // cols)) % tuple(cells.tolist())
        else:
            yield _fixed_text(cells, mag, j, chars[:len(cells)])


def _csv_blocks(rows: list[list] | np.ndarray) -> Iterator[str]:
    """The CSV lines of `rows`.

    A float array (the `profile` and `solve --plot` tables) goes through
    `_float_blocks`: numpy for chunks in 1e-4 <= |x| < 1e17 or ±0, `%` for any
    other chunk. A list of rows (`solve`, `sweep`) goes cell by cell through
    `_csv_cell`, one string per CSV_BLOCK_ROWS rows.
    """
    if isinstance(rows, np.ndarray):
        yield from _float_blocks(rows)
        return
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        yield "".join(",".join(map(_csv_cell, row)) + "\n" for row in block)


def _finite_or_null(v):
    """v with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(v, dict):
        return {key: _finite_or_null(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return list(map(_finite_or_null, v))
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_json(payload: dict, dest) -> None:
    """payload as indented JSON with NaN and inf as null (RFC 8259), in one write."""
    dest.write(json.dumps(_finite_or_null(payload), indent=2, default=float,
                          allow_nan=False) + "\n")


def write_table(header: list[str], rows: list[list] | np.ndarray, cfg: RunConfig,
                dest) -> None:
    """The table as CSV (`_csv_blocks`) or JSON.

    The all-float tables (`profile`, `solve --plot`) come as 2-D float64
    arrays: CSV writes cells with 1e-4 <= |x| < 1e17 or ±0 with numpy, and a
    chunk holding any other cell with `%`, the same bytes either way. Tables
    with int or str cells come as lists of rows and go cell by cell.
    """
    if cfg.format == "csv":
        dest.write(",".join(header) + "\n")
        if len(rows):
            dest.writelines(_csv_blocks(rows))
    else:
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        _write_json({
            "meta": {"config": asdict(cfg), "version": __version__},
            "rows": [dict(zip(header, row)) for row in rows],
        }, dest)


@contextlib.contextmanager
def _output(out: str | None):
    """The file `out`, or stdout when it is unset or "-"; a file that cannot be
    opened is a ConfigError naming --out."""
    if out in (None, "-"):
        yield sys.stdout
        return
    try:
        dest = open(out, "w")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out!r}: {exc.strerror}") from exc
    with dest:
        yield dest


def _emit(header: list[str], rows: list[list] | np.ndarray, cfg: RunConfig) -> None:
    with _output(cfg.out) as dest:
        write_table(header, rows, cfg, dest)


def _plot(cfg: RunConfig, xs, ys, title: str) -> str | None:
    """With --plot, write <stem>.svg of ys against xs.

    stem is --out without its suffix; returns it, or None when there is no plot.
    """
    if not cfg.plot:
        return None
    stem = os.path.splitext(cfg.out)[0]
    with _output(stem + ".svg") as fh:
        fh.write(svg_polyline(xs, ys, title))
    return stem


def svg_polyline(xs, ys, title: str) -> str:
    """Minimal static SVG 1.1: one polyline, a frame, and tick labels."""
    width, height, pad = 640, 420, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    pts = " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    ticks = []
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        px = pad + (fx - x0) * sx
        ticks.append(
            f'<line x1="{px:.2f}" y1="{height - pad}" x2="{px:.2f}" '
            f'y2="{height - pad + 5}" stroke="black"/>'
            f'<text x="{px:.2f}" y="{height - pad + 18}" font-size="10" '
            f'text-anchor="middle">{fx:.3g}</text>'
        )
        fy = y0 + (y1 - y0) * i / 4
        py = height - pad - (fy - y0) * sy
        ticks.append(
            f'<line x1="{pad - 5}" y1="{py:.2f}" x2="{pad}" y2="{py:.2f}" '
            f'stroke="black"/>'
            f'<text x="{pad - 8}" y="{py + 3:.2f}" font-size="10" '
            f'text-anchor="end">{fy:.3g}</text>'
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">\n'
        f'<title>{title}</title>\n'
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>\n'
        + "\n".join(ticks)
        + f'\n<polyline points="{pts}" fill="none" stroke="blue" '
        'stroke-width="1.2"/>\n</svg>\n'
    )


# ---------------------------------------------------------------- commands


# Largest |energy - energy_shooting| / |energy| a solve accepts: the
# acceptance tolerance of matrix against shooting.
AGREE_RTOL = 1e-6


# A solve's shooting half-steps at any n, 4/3 of the default fine grid's: where
# kappa >= 5, RK4 in g = y/R on the fine grid's n - 1 refuses right spectra at
# n <= 401 and k = 40.
SHOOTING_STEPS = 1600


def _solve_rows(cfg: RunConfig):
    """Rows of one normal-form solve and its fine-grid spectrum in x.

    ValueError (naming tau) where the model has no usable normal form;
    SolverError when matrix and shooting disagree.
    """
    from .solver import Shooter, shooting_eigenvalue, solve_extrapolated

    params = cfg.params()
    form = params.normal_form()
    # The closed-form levels seed the coarse grid: a cost, not a bias (`solve_extrapolated`).
    mus, _, fine_spec = solve_extrapolated(
        partial(normal_form_sl, form.eps), normal_form_grid(form.eps, cfg.n), cfg.k,
        form.exact_levels(cfg.k)
    )
    shooter = Shooter(form.eps, SHOOTING_STEPS)
    rows = []
    for idx, mu in enumerate(mus.tolist()):
        lam = form.eigenvalue(mu)
        energy = params.energy_from_eigenvalue(lam)
        # The matrix eigenvalue only saves sweeps: Theta has one root per level.
        rep = shooting_eigenvalue(shooter, idx, start=mu)
        e_shoot = params.energy_from_eigenvalue(form.eigenvalue(rep.eigenvalue))
        delta = abs(energy - e_shoot)
        if not delta <= AGREE_RTOL * abs(energy):
            raise SolverError(
                f"level {idx}: matrix energy {energy:.12g} and shooting energy "
                f"{e_shoot:.12g} differ by more than {AGREE_RTOL:g} (relative)"
            )
        rows.append([idx, lam, energy, e_shoot, delta])
    return rows, fine_spec


def cmd_solve(cfg: RunConfig) -> int:
    rows, spec = _solve_rows(cfg)
    # Only --plot reads the eigenfunctions (their first read runs dstein), and
    # before any file is written, so a solver failure there leaves none.
    funcs = spec.eigenfunctions if cfg.plot else []
    _emit(["index", "lambda", "energy", "energy_shooting", "abs_delta"], rows, cfg)
    if funcs:
        x, ys = funcs[0].grid.points, [f.values for f in funcs]
        stem = _plot(cfg, x, ys[0], "ground state y0(x)")
        header = ["x", *(f"y{j}" for j in range(len(ys)))]
        with _output(stem + "_eigenfunctions.csv") as fh:
            write_table(header, np.column_stack([x, *ys]), replace(cfg, format="csv"), fh)
    return EXIT_OK


SWEEPABLE = ("tau", "omega", "alpha", "beta")


def cmd_sweep(cfg: RunConfig, param: str, start: float, stop: float, count: int) -> int:
    if count < 2:
        raise ConfigError(f"sweep needs at least 2 points, got {count}")
    if cfg.plot:
        raise ConfigError("--plot: sweep draws no plot")
    for flag, value in (("--start", start), ("--stop", stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    fixed = getattr(cfg, param)
    if fixed != getattr(RunConfig, param):
        raise ConfigError(f"sweep sets {param} at each point, so a fixed "
                          f"{param} = {fixed!r} would be ignored")
    values = np.linspace(start, stop, count).tolist()
    point_cfgs = [replace(cfg, **{param: v}).validate() for v in values]
    rows = []
    nan = float("nan")
    for v, point_cfg in zip(values, point_cfgs):
        try:
            point_rows, _ = _solve_rows(point_cfg)
            rows += [[v, *r, ""] for r in point_rows]
        except (SolverError, ValueError) as exc:
            rows += [[v, idx, nan, nan, nan, nan, str(exc)] for idx in range(cfg.k)]
    _emit(
        [param, "index", "lambda", "energy", "energy_shooting", "abs_delta", "error"],
        rows,
        cfg,
    )
    return EXIT_OK


def cmd_profile(
    cfg: RunConfig, which: str, energy: float | None, pmax: float | None = None
) -> int:
    """Mass M = 1/c or V_eff - Lambda = q - lam w of the model's SL problem.

    On p in [-pmax, pmax]; pmax defaults to 12/sqrt(omega). A profile has no
    k and a mass profile no energy, so setting either is a ConfigError. A CSV
    whose rows mirror bit for bit (`_mirrored`) is written from its p >= 0 half.
    """
    if cfg.k != RunConfig.k:
        raise ConfigError(f"profile has no parameter k (got k = {cfg.k!r})")
    if which == "mass" and energy is not None:
        raise ConfigError(f"profile mass has no parameter energy (got energy = {energy!r})")
    if which == "veff" and energy is None:
        raise ConfigError("veff profile requires --energy")
    params = cfg.params()
    if pmax is None:
        pmax = 12.0 / math.sqrt(cfg.omega)
    slp = params.sl(make_grid(-pmax, pmax, cfg.n))
    if which == "mass":
        prof = slp.mass
    else:
        try:
            with np.errstate(over="raise", invalid="raise"):
                prof = slp.effective_potential(params.eigenvalue_from_energy(energy))
        except (FloatingPointError, ValueError) as exc:
            raise ConfigError(f"--energy: V_eff - Lambda is not finite at "
                              f"energy = {energy!r}") from exc
    points, values = slp.grid.points, prof.values
    if cfg.format == "csv" and _mirrored(points, values):
        # Each p < 0 row holds -p and its mirror row's value: "-" + that line.
        m, half = cfg.n // 2, io.StringIO()
        write_table(["p", "value"], np.column_stack([points[m:], values[m:]]), cfg, half)
        header, body = half.getvalue().split("\n", 1)
        mirror = body.splitlines(keepends=True)[cfg.n % 2:]   # not the centre row
        with _output(cfg.out) as dest:
            dest.writelines([header, "\n-", "-".join(reversed(mirror)), body])
    else:
        _emit(["p", "value"], np.column_stack([points, values]), cfg)
    _plot(cfg, points, values, f"{which} profile")
    return EXIT_OK


def _mirrored(points: np.ndarray, values: np.ndarray) -> bool:
    """Whether each row i < n // 2 of (points, values) is row n - 1 - i with p
    negated, bit for bit (0.0 and -0.0 differ), and every such row n - 1 - i
    has p > 0."""
    m = points.size // 2
    top_p, top_v = points[points.size - m:], values[values.size - m:]
    return bool((top_p > 0.0).all()
                and np.array_equal(points[:m].view(np.int64), (-top_p).view(np.int64)[::-1])
                and np.array_equal(values[:m].view(np.int64), top_v.view(np.int64)[::-1]))


# ---------------------------------------------------------------- verify


def _check(name: str, measured: float, tolerance: float | tuple[float, float]) -> dict:
    """One verify record: `measured` passes at most an upper bound `tolerance`,
    or within a (lo, hi) pair, which the record writes as [lo, hi]."""
    pair = isinstance(tolerance, tuple)
    lo, hi = tolerance if pair else (-math.inf, tolerance)
    return {"name": name, "measured": float(measured),
            "tolerance": [float(lo), float(hi)] if pair else float(hi),
            "passed": bool(lo <= measured <= hi)}


def verify_vonroos() -> list[dict]:
    from .vonroos import AmbiguityParams, reduced_problem, vonroos_apply

    orderings = [AmbiguityParams(a, b)
                 for a, b in ((0.0, -1.0), (-0.5, 0.0), (0.0, 0.0), (-1.0, 0.0))]
    devs = {amb: [] for amb in orderings}
    for n in (401, 801, 1601):
        grid = make_grid(-6.0, 6.0, n)
        M = GupOscillatorParams(1.0, 0.1).sl(grid).mass
        V = sample(grid, lambda p: p * p)
        phi = sample(grid, lambda p: np.exp(-0.5 * p * p))
        sl = inner_slice(n)
        for amb in orderings:
            lhs = vonroos_apply(M, amb, phi) + V * phi
            rhs = -reduced_problem(M, V, amb).residual(phi, 0.0)
            devs[amb].append(float(np.max(np.abs(lhs.values[sl] - rhs.values[sl]))))
    return [
        _check(f"identity_convergence a={amb.a} b={amb.b} refine {i}", d[i] / d[i + 1],
               (3.6, 4.4))
        for amb, d in devs.items() for i in range(len(d) - 1)
    ]


def verify_reduction() -> list[dict]:
    tau, omega = 0.1, 1.0
    grid = make_grid(-8.0, 8.0, 801)
    params = GupOscillatorParams(omega=omega, tau=tau)
    slp = params.sl(grid)
    u = slp.c   # the integrating factor 1 + tau p^2
    checks = []
    for j, (amp, width, shift) in enumerate(
        [(1.0, 1.0, 0.0), (0.7, 1.3, 0.5), (1.2, 0.8, -0.4), (0.5, 2.0, 1.0),
         (1.0, 0.6, -1.2)]
    ):
        phi = sample(
            grid, lambda p: amp * np.exp(-0.5 * ((p - shift) / width) ** 2)
        )
        lam = 1.0 + 0.1 * j
        lhs = u * params.raw_residual(phi, lam)
        rhs = slp.residual(phi, lam)
        defect = float(np.max(np.abs(lhs.values - rhs.values)))
        checks.append(_check(f"integrating_factor_identity gaussian {j}", defect, 1e-12))
    return checks


def verify_susy() -> list[dict]:
    from .susy import partner_check

    checks = []
    for tau in (0.0, 0.05):
        pc = partner_check(GupOscillatorParams(1.0, tau).normal_form(), 3001, k=5)
        checks.append(_check(f"partner_shift tau={tau}", float(np.max(pc.shift_defects)), 1e-4))
        checks.append(_check(f"mapped_residual tau={tau}", float(np.max(pc.mapped_residuals)),
                             1e-3))
    return checks


def verify_hermitize() -> list[dict]:
    from .algebra import (
        LadderRep,
        hermitized_problem,
        similarity_weight,
        swanson_coefficients,
        untransformed_residual,
    )
    from .solver import solve_sl

    params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
    grid = make_grid(-10.0, 10.0, 8001)
    # The momentum-space annihilation operator (D + p)/sqrt(2), so [eta, eta+] = 1.
    rep = LadderRep(r=constant(grid, math.sqrt(0.5)),
                    s=sample(grid, lambda p: p * math.sqrt(0.5)))
    coeffs = swanson_coefficients(rep, params)
    rho = similarity_weight(coeffs)
    # Swanson's closed-form levels at tau = 0 seed the solve and check its result;
    # certified, the levels are the pencil's own (`eigen_solve`'s `near`).
    exact = (np.arange(5) + 0.5) * params.omega_bar
    spec = solve_sl(hermitized_problem(coeffs), 5, exact)
    checks = []
    for n in range(5):
        res = untransformed_residual(
            coeffs, rho, spec.eigenfunctions[n], float(spec.eigenvalues[n])
        )
        checks.append(_check(f"rho_mapped_residual n={n}", res, 1e-4))
    checks.append(_check("hermitized_spectrum",
                         float(np.max(np.abs(spec.eigenvalues - exact) / exact)), 1e-5))
    herm = SwansonParams(omega=2.0, alpha=0.2, beta=0.2, tau=0.0)
    coeffs_h = swanson_coefficients(rep, herm)
    rho_h = similarity_weight(coeffs_h)
    checks.append(_check("hermitian_case_rho_identity",
                         float(np.max(np.abs(rho_h.values - 1.0))), 0.0))
    return checks


VERIFY_SUITES = {
    "vonroos": verify_vonroos,
    "susy": verify_susy,
    "hermitize": verify_hermitize,
    "reduction": verify_reduction,
}


def cmd_verify(suite: str, out: str | None) -> int:
    checks = VERIFY_SUITES[suite]()
    passed = all(c["passed"] for c in checks)
    payload = {"suite": suite, "passed": passed, "checks": checks}
    with _output(out) as dest:
        _write_json(payload, dest)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- parsing


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of `main`; parse_args leaves it unchanged, so it is built once."""
    parser = argparse.ArgumentParser(
        prog="gupmdm",
        description="Deformed-oscillator / Swanson eigenproblems as "
        "momentum-dependent-mass Sturm-Liouville problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--omega", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--plot", action="store_const", const=True)
        p.add_argument("--config", help="flat key = value config file")

    p_solve = sub.add_parser("solve", help="solve one eigenproblem")
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter linearly")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p_verify.add_argument("--out")

    p_profile = sub.add_parser("profile", help="mass / effective-potential profile")
    add_common(p_profile)
    p_profile.add_argument("which", choices=("mass", "veff"))
    p_profile.add_argument("--energy", type=float)
    p_profile.add_argument("--pmax", type=float,
                           help="momentum box half-width (default 12/sqrt(omega))")

    return parser


def _config_from_args(args) -> RunConfig:
    file_values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    overrides = {name: getattr(args, name) for name in _FIELDS if hasattr(args, name)}
    return config_from_sources(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
        cfg = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, args.start, args.stop, args.count)
        return cmd_profile(cfg, args.which, args.energy, args.pmax)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, MemoryError) as exc:   # MemoryError: an n or count too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
