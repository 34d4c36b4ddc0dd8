"""Time-series files, resampling, splitting, excitation signals, and the one
text reader, JSON parser and file writer of the workbench.

Every file written is UTF-8 with LF line ends and one final newline; numbers
are the repr() of the Python value (an exact round trip), JSON is `indent=2,
sort_keys=True`. The time-series CSV has header `t,w,y,u,d` plus optional
extra channel pairs y2,u2,...
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import DataError, MustResample, ParseError

_BASE_COLUMNS = ("t", "w", "y", "u", "d")


def read_text(path) -> str:
    """A file read as `Path.read_text` reads it (UTF-8, universal newlines);
    bytes that are not UTF-8 raise ParseError with the path and the 1-based
    line of the first bad byte."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x})",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# a JSON string, or a bare JSON number or constant
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|NaN|-?Infinity|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def _json_number(token: str):
    """A bare JSON number token as `json.loads` converts it; ValueError for NaN,
    Infinity, a float beyond the range and an integer too long for `int`."""
    if token.lstrip("-").isdigit():
        return int(token)
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not finite")
    return value


def _bad_number_line(text: str) -> int:
    """The 1-based line of the first number `_json_number` rejects."""
    for m in _JSON_TOKEN.finditer(text):
        if m.group()[0] != '"':
            try:
                _json_number(m.group())
            except ValueError:
                return text.count("\n", 0, m.start()) + 1
    return 1


def parse_json(text: str, where):
    """`text` parsed as JSON (RFC 8259); a syntax error or a number that
    `_json_number` rejects is a ParseError naming `where` and the line."""
    try:
        return json.loads(text, parse_int=_json_number, parse_float=_json_number,
                          parse_constant=_json_number)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:
        raise ParseError(f"{where}: invalid number: {exc}", line=_bad_number_line(text)) from None


def write_lines(path, lines) -> None:
    """`lines` joined by LF with one final newline, as UTF-8."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_csv(path, header, rows) -> None:
    """A comma-separated file: a `str` cell as it is, any other cell as the
    repr of its Python value (a numpy scalar is converted first, since numpy 2
    reprs `np.float64(0.1)`)."""
    write_lines(path, [",".join(header)] + [
        ",".join([c if isinstance(c, str) else repr(c.item() if isinstance(c, np.generic) else c)
                  for c in row]) for row in rows])


def format_column(values: list) -> list[str]:
    """Each Python number's repr, cut from one repr of the list: a list's repr
    joins its items' reprs with ", ", which no number's repr contains."""
    return repr(values)[1:-1].split(", ") if values else []


def write_columns(path, columns: dict[str, list[str]]) -> None:
    write_lines(path, [",".join(columns), *map(",".join, zip(*columns.values()))])


def write_json(path, obj) -> None:
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def uniform_dt(t) -> float:
    """Spacing of a uniform time grid; raises DataError below two samples and
    MustResample when the spacing varies by more than 1e-9 of max(step, 1)."""
    spacing = np.diff(np.asarray(t, dtype=float))
    if len(spacing) == 0:
        raise DataError("need at least two samples")
    step = float(spacing[0])
    if np.ptp(spacing) > 1e-9 * max(step, 1.0):
        raise MustResample("series is not uniformly sampled")
    return step


@dataclass
class TimeSeries:
    """In-memory image of one data file."""

    t: np.ndarray
    w: np.ndarray
    y: np.ndarray
    u: np.ndarray
    d: np.ndarray
    extra: dict[str, np.ndarray] | None  # y2,u2,... in header order

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> dict[str, np.ndarray]:
        cols = {name: getattr(self, name) for name in _BASE_COLUMNS}
        if self.extra:
            cols.update(self.extra)
        return cols

    def is_uniform(self) -> bool:
        try:
            uniform_dt(self.t)
            return True
        except MustResample:
            return False


def from_trajectory(traj) -> TimeSeries:
    """Build a file record from a simulation trajectory.

    The y column records the measured response (what an experimenter's data
    logger sees). Extra output channels, when present, become y2, y3, ...
    """
    extra = None
    if getattr(traj, "y_extra", None) is not None:
        extra = {f"y{i + 2}": traj.y_extra[:, i] for i in range(traj.y_extra.shape[1])}
    return TimeSeries(t=traj.t, w=traj.w, y=traj.y_meas, u=traj.u, d=traj.d, extra=extra)


def _validate_header(fields: list[str], path) -> list[str]:
    for i, name in enumerate(_BASE_COLUMNS):
        if i >= len(fields) or fields[i] != name:
            got = fields[i] if i < len(fields) else "<missing>"
            raise ParseError(f"{path}: expected column {name!r}, got {got!r}", line=1)
    for name in fields[len(_BASE_COLUMNS):]:
        if len(name) < 2 or name[0] not in "yu" or not name[1:].isdigit() or int(name[1:]) < 2:
            raise ParseError(f"{path}: unknown column {name!r}", line=1)
    return fields


def write_timeseries(series: TimeSeries, path) -> dict[str, list[str]]:
    """Write the series; returns its formatted columns for reuse."""
    cols = series.columns()
    n = len(series)
    for name, arr in cols.items():
        if len(arr) != n:
            raise ValueError(f"column {name!r} length mismatch")
    cells = {name: format_column(np.asarray(arr, dtype=float).tolist()) for name, arr in cols.items()}
    write_columns(path, cells)
    return cells


def read_timeseries(path) -> TimeSeries:
    """Parse and validate a data file; every failure names the file and
    carries a 1-based line number.

    The body is read in one pass: each line's comma count is checked, the
    cells stream through `float` into one array, and `t` order and
    finiteness are checked on that array. Only a file that fails one of
    these checks is scanned line by line, to name its first bad line.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file", line=1)
    names = _validate_header([f.strip() for f in lines[0].split(",")], path)
    n_cols = len(names)
    body = list(filter(None, lines[1:]))
    if not body:
        raise ParseError(f"{path}: no data rows", line=2)

    data = _parse_body(body, n_cols)
    if data is None:
        _raise_first_fault(lines, n_cols, path)
    extra = {name: data[:, i] for i, name in enumerate(names) if i >= len(_BASE_COLUMNS)}
    return TimeSeries(t=data[:, 0], w=data[:, 1], y=data[:, 2], u=data[:, 3], d=data[:, 4],
                      extra=extra or None)


def _parse_body(body: list[str], n_cols: int) -> np.ndarray | None:
    """The non-blank body lines as one (rows, n_cols) array, or None when a
    line has another cell count, a cell is not a number or not finite, or
    `t` does not rise from row to row."""
    if set(map(str.count, body, repeat(","))) != {n_cols - 1}:
        return None
    # every line has n_cols - 1 commas, so one split of the joined body
    # gives the cells row after row
    cells = map(float, ",".join(body).split(","))
    try:
        data = np.fromiter(cells, dtype=float, count=len(body) * n_cols).reshape(-1, n_cols)
    except ValueError:
        return None
    t = data[:, 0]
    if (t[1:] <= t[:-1]).any() or not np.isfinite(data).all():
        return None
    return data


def _raise_first_fault(lines: list[str], n_cols: int, path) -> None:
    """ParseError for the first bad line of a file body that failed a check
    of `read_timeseries`: a wrong cell count, a non-numeric cell or a `t` not
    above the row before, in line order, and only then a non-finite cell."""
    prev_t = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ParseError(f"{path}: expected {n_cols} cells, got {len(fields)}", line=lineno)
        try:
            row = [float(f) for f in fields]
        except ValueError:
            bad = next(f for f in fields if not _is_number(f))
            raise ParseError(f"{path}: non-numeric cell {bad!r}", line=lineno) from None
        if prev_t is not None and row[0] <= prev_t:
            raise ParseError(f"{path}: t is not strictly increasing", line=lineno)
        prev_t = row[0]
    lineno, cell = next((i, f) for i, line in enumerate(lines[1:], start=2) if line
                        for f in line.split(",") if not math.isfinite(float(f)))
    raise ParseError(f"{path}: non-finite cell {cell!r}", line=lineno)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Resampling and splitting
# ---------------------------------------------------------------------------

def resample_uniform(series: TimeSeries, target_dt: float) -> TimeSeries:
    """Linear interpolation onto the grid t0, t0+dt, ...; never extrapolates."""
    if target_dt <= 0.0:
        raise ValueError("target dt must be > 0")
    if len(series) < 2:
        raise DataError("cannot resample fewer than two samples")
    t = series.t
    span = float(t[-1] - t[0])
    n = int(math.floor(span / target_dt + 1e-9)) + 1
    grid = t[0] + np.arange(n) * target_dt
    cols = series.columns()
    out = {name: np.interp(grid, t, arr) for name, arr in cols.items() if name != "t"}
    extra_names = [name for name in cols if name not in _BASE_COLUMNS]
    return TimeSeries(
        t=grid, w=out["w"], y=out["y"], u=out["u"], d=out["d"],
        extra={name: out[name] for name in extra_names} or None,
    )


def split_contiguous(n: int, val_fraction: float) -> int:
    """Length of the training block when the last `val_fraction` of n samples
    is held out for validation: floor(n * (1 - val_fraction)). No shuffling;
    each caller checks the block sizes it needs."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    return math.floor(n * (1.0 - val_fraction))


# ---------------------------------------------------------------------------
# Excitation signals
# ---------------------------------------------------------------------------

# Maximal-length LFSR tap positions (Fibonacci form, XOR feedback) for
# register orders 3..16; each yields the full 2^n - 1 period.
PRBS_TAPS = {
    3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6), 8: (8, 6, 5, 4),
    9: (9, 5), 10: (10, 7), 11: (11, 9), 12: (12, 6, 4, 1), 13: (13, 4, 3, 1),
    14: (14, 5, 3, 1), 15: (15, 14), 16: (16, 15, 13, 4),
}


@dataclass(frozen=True)
class ExcitationSpec:
    """System-identification input: step train, PRBS, or linear chirp."""

    variant: str  # step_train | prbs | chirp
    levels: tuple
    dwell: float
    order: int
    amplitude: float
    bit_period: float
    seed: int
    f0: float
    f1: float
    duration: float | None

    def __post_init__(self):
        if self.variant not in ("step_train", "prbs", "chirp"):
            raise ValueError(f"unknown excitation variant {self.variant!r}")
        if self.variant == "step_train" and not self.levels:
            raise ValueError("step_train needs at least one level")
        if self.variant == "prbs" and self.order not in PRBS_TAPS:
            raise ValueError("PRBS order must be in 3..16")
        if self.variant == "chirp" and (self.f0 < 0.0 or self.f1 < 0.0):
            raise ValueError("chirp frequencies must be >= 0")


def prbs_bits(order: int, seed: int) -> np.ndarray:
    """One full period (2^order - 1 bits) of the maximal-length sequence.

    Fibonacci LFSR, shift-left convention: the new bit entering at the bottom
    is the XOR of the tapped stages; the emitted bit is the one leaving at
    the top. The seed selects the (nonzero) starting register state.
    """
    taps = PRBS_TAPS[order]
    period = (1 << order) - 1
    state = (seed % period) + 1  # any nonzero register state
    bits = np.empty(period, dtype=np.int64)
    for i in range(period):
        bits[i] = (state >> (order - 1)) & 1
        fb = 0
        for tap in taps:
            fb ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | fb) & period
    return bits


def generate_excitation(spec: ExcitationSpec, cfg, limits: tuple[float, float]) -> np.ndarray:
    """Sample the excitation onto the simulation grid.

    `cfg` is a SimConfig (dt/horizon/n_steps). Amplitudes outside the
    actuator `limits` are rejected up front.
    """
    n = cfg.n_steps
    dt = cfg.dt
    t = np.arange(n) * dt

    if spec.variant == "step_train":
        peak = max(abs(float(v)) for v in spec.levels)
        _check_amplitude(peak, limits)
        if spec.dwell <= 0.0:
            raise ValueError("dwell must be > 0")
        per_level = max(int(round(spec.dwell / dt)), 1)
        idx = (np.arange(n) // per_level) % len(spec.levels)
        return np.array([float(spec.levels[i]) for i in idx])

    if spec.variant == "prbs":
        _check_amplitude(abs(spec.amplitude), limits)
        if spec.bit_period < dt:
            raise ValueError("bit period must be >= dt")
        bits = prbs_bits(spec.order, spec.seed)
        per_bit = max(int(round(spec.bit_period / dt)), 1)
        idx = (np.arange(n) // per_bit) % len(bits)
        return np.where(bits[idx] == 1, spec.amplitude, -spec.amplitude).astype(float)

    # chirp
    _check_amplitude(abs(spec.amplitude), limits)
    duration = spec.duration if spec.duration is not None else cfg.horizon
    sweep_rate = (spec.f1 - spec.f0) / (2.0 * duration)
    phase = 2.0 * math.pi * (spec.f0 * t + sweep_rate * t * t)
    u = spec.amplitude * np.sin(phase)
    u[t > duration] = 0.0
    return u


def _check_amplitude(peak: float, limits: tuple[float, float]) -> None:
    if -peak < limits[0] or peak > limits[1]:
        raise ValueError(f"excitation amplitude {peak:.6g} exceeds actuator limits {limits}")
