import ast
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import loopbench
from loopbench import neuro, surrogate
from loopbench.dataio import (
    ExcitationSpec, PRBS_TAPS, TimeSeries, format_column, from_trajectory, generate_excitation,
    _is_number, _validate_header, parse_json, prbs_bits, read_text, read_timeseries,
    resample_uniform, split_contiguous, write_columns, write_csv, write_json, write_lines,
    write_timeseries,
)
from loopbench.errors import DataError, ParseError
from loopbench.neuro import NeuralController, train_imitation
from loopbench.nnet import Mlp, SupervisedDataset, TrainConfig
from loopbench.simcore import ConstantController, PlantModel, LinearStateSpace, SimConfig, simulate


def _series(n=20, dt=0.1):
    t = np.arange(n) * dt
    rng = np.random.default_rng(0)
    return TimeSeries(t=t, w=np.ones(n), y=rng.normal(size=n), u=rng.normal(size=n),
                      d=np.zeros(n), extra=None)


def test_write_read_round_trip_exact(tmp_path):
    s = _series()
    path = tmp_path / "run.csv"
    write_timeseries(s, path)
    r = read_timeseries(path)
    for name in ("t", "w", "y", "u", "d"):
        assert np.array_equal(getattr(s, name), getattr(r, name))


def test_round_trip_with_extra_channels(tmp_path):
    s = _series()
    s.extra = {"y2": np.linspace(0, 1, len(s))}
    path = tmp_path / "multi.csv"
    write_timeseries(s, path)
    r = read_timeseries(path)
    assert np.array_equal(r.extra["y2"], s.extra["y2"])


def test_header_error_names_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,w,x\n0,1,2\n")
    with pytest.raises(ParseError) as err:
        read_timeseries(path)
    assert "'y'" in str(err.value) and err.value.line == 1


def test_unknown_extra_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,w,y,u,d,bogus\n0,1,2,3,4,5\n")
    with pytest.raises(ParseError) as err:
        read_timeseries(path)
    assert "bogus" in str(err.value)


def test_non_monotone_t_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,w,y,u,d\n0,0,0,0,0\n1,0,0,0,0\n1,0,0,0,0\n2,0,0,0,0\n")
    with pytest.raises(ParseError) as err:
        read_timeseries(path)
    assert err.value.line == 4  # 1-based file line of the repeated t


def test_non_numeric_cell_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,w,y,u,d\n0,0,0,0,0\n0.1,0,oops,0,0\n")
    with pytest.raises(ParseError) as err:
        read_timeseries(path)
    assert err.value.line == 3 and "oops" in str(err.value)


def _per_line_reader(path) -> TimeSeries:
    """The reference for `read_timeseries`: every body line split, converted
    and checked for cell count, numeric cells and rising `t` in turn, then
    the whole array checked for finiteness."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file", line=1)
    names = _validate_header([f.strip() for f in lines[0].split(",")], path)
    n_cols = len(names)
    rows = []
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
        if rows and row[0] <= rows[-1][0]:
            raise ParseError(f"{path}: t is not strictly increasing", line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows", line=2)
    data = np.array(rows)
    if not np.isfinite(data).all():
        lineno, cell = next((i, f) for i, line in enumerate(lines[1:], start=2) if line
                            for f in line.split(",") if not math.isfinite(float(f)))
        raise ParseError(f"{path}: non-finite cell {cell!r}", line=lineno)
    extra = {name: data[:, i] for i, name in enumerate(names) if i >= 5}
    return TimeSeries(t=data[:, 0], w=data[:, 1], y=data[:, 2], u=data[:, 3], d=data[:, 4],
                      extra=extra or None)


def _outcome(reader, path):
    """The columns' names and bytes, or the ParseError's text and line."""
    try:
        series = reader(path)
    except ParseError as exc:
        return str(exc), exc.line
    return [(name, col.dtype, col.tobytes()) for name, col in series.columns().items()]


def _assert_reads_as_reference(path, data: bytes):
    path.write_bytes(data)
    assert _outcome(read_timeseries, path) == _outcome(_per_line_reader, path), data[:300]


HEADER = b"t,w,y,u,d,y2\n"


@pytest.mark.parametrize("body", [
    # cell counts wrong in opposite directions, the total right
    b"0,1,2,3,4,5\n0.1,1,2,3,4,5,6\n0.2,1,2,3,4,5\n0.3,1,2,3,4\n",
    b"0,1,2,3,4,5\n0.1,1,2,3,4\n0.2,1,2,3,4,5,6\n",
    # blank lines and CRLF, alone and mixed, and a lone CR
    b"\n0,1,2,3,4,5\n\n\n0.1,1,2,3,4,5\n\n",
    b"0,1,2,3,4,5\r\n0.1,1,2,3,4,5\r\n\r\n0.2,1,2,3,4,5\r\n",
    b"0,1,2,3,4,5\r\n0.1,1,2,3,4,5\n0.2,1,2,3,4,5\r0.3,1,2,3,4,5",
    # a NaN t, then a smaller t; a NaN t first
    b"0,1,2,3,4,5\nnan,1,2,3,4,5\n-1,1,2,3,4,5\n",
    b"nan,1,2,3,4,5\n0,1,2,3,4,5\n",
    # a non-finite cell after, and before, a t that does not rise
    b"0,1,2,3,4,5\n0.1,1,2,3,4,5\n0.1,1,2,3,4,5\n0.2,1,inf,3,4,5\n",
    b"0,1,2,3,4,5\n0.1,1,-inf,3,4,5\n0.05,1,2,3,4,5\n",
    b"0,1,2,3,4,5\n0.1,1,1e999,3,4,5\n0.2,1,nan,3,4,5\n",
    # a count fault after a non-numeric cell, and the reverse
    b"0,1,2,3,4,5\n0.1,1,x,3,4,5\n0.2,1,2\n",
    b"0,1,2,3,4,5\n0.1,1,2\n0.2,1,x,3,4,5\n",
    # empty, blank, padded and underscored cells; a rising -0.0 after 0.0
    b"0,1,2,3,4,5\n0.1,1,,3,4,5\n",
    b"0,1, 2 ,3,4,5\n0.1,1,2_0,3,4,5\n",
    b"0.0,1,2,3,4,5\n-0.0,1,2,3,4,5\n",
    # header only, header plus blank lines, one row
    b"", b"\n\n", b"0,1,2,3,4,5\n",
])
@pytest.mark.bits
def test_read_timeseries_matches_the_per_line_reference(tmp_path, body):
    _assert_reads_as_reference(tmp_path / "a.csv", HEADER + body)
    _assert_reads_as_reference(tmp_path / "b.csv", body)


@pytest.mark.bits
def test_read_timeseries_matches_the_per_line_reference_on_fuzz_mutants(tmp_path):
    """The trajectory file mutants of the CSV fuzz test (cut, a junk cell, a
    dropped column, a permuted header, swapped or deleted rows, a 0xff byte)."""
    from test_fuzz import _mutate_csv

    plant = PlantModel(LinearStateSpace(a=[[-0.5, 0.5], [0.0, -3.0]], b=[0.0, 3.0], c=np.eye(2)),
                       u_min=-math.inf, u_max=math.inf, x0=None)
    traj = simulate(plant, ConstantController(0.5), 1.0,
                    cfg=SimConfig(dt=0.1, horizon=3.0, seed=0))
    good = tmp_path / "good.csv"
    write_timeseries(from_trajectory(traj), good)
    lines = good.read_text().splitlines()
    _assert_reads_as_reference(good, good.read_bytes())
    rng = np.random.default_rng(17)
    for _ in range(300):
        _assert_reads_as_reference(tmp_path / "mutant.csv", _mutate_csv(rng, lines)[0])


def test_resample_linear_midpoint():
    s = TimeSeries(t=np.array([0.0, 0.1]), w=np.zeros(2), y=np.array([0.0, 1.0]),
                   u=np.zeros(2), d=np.zeros(2), extra=None)
    r = resample_uniform(s, 0.05)
    assert r.y[1] == pytest.approx(0.5)
    assert len(r) == 3


def test_resample_identity_on_matching_grid():
    s = _series(n=30, dt=0.05)
    r = resample_uniform(s, 0.05)
    assert np.array_equal(r.t, s.t)
    assert np.array_equal(r.y, s.y)


def test_resample_never_extrapolates():
    s = _series(n=10, dt=0.1)  # spans 0 .. 0.9
    r = resample_uniform(s, 0.4)
    assert r.t[-1] <= s.t[-1] + 1e-12
    assert len(r) == 3  # 0.0, 0.4, 0.8


def test_resample_single_sample_too_short():
    s = TimeSeries(t=np.array([0.0]), w=np.zeros(1), y=np.zeros(1), u=np.zeros(1), d=np.zeros(1),
                   extra=None)
    with pytest.raises(DataError, match="^cannot resample fewer than two samples$"):
        resample_uniform(s, 0.1)


def test_split_75_25():
    """The surrogate fit holds out the last quarter by default: a 100-sample
    record trains on samples 0..74 and validates on 75..99 (lag-2 rows)."""
    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=1, patience=10_000, seed=0)
    _, rep = surrogate.fit_surrogate(_series(n=100), 2, 2, cfg, hidden=(2,), val_fraction=0.25,
                                     resampled=False)
    assert (rep.n_train, rep.n_val) == (75 - 3, 25 - 3)


class _Split(Exception):
    """Carries the first training block's length out of the caller under test."""


def _stop(length):
    raise _Split(length)


def test_split_floor_rule(monkeypatch):
    """Each caller's train/validation boundary for every length 2..5000, against
    the expressions the callers used before the one rule: floor(n * (1 - f)) in
    the surrogate fit and floor(n * 0.75) in imitation, each with its caller's
    minimum block sizes. The first block the caller builds after the split
    reports its length and stops the call."""
    p = q = 2
    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=200, patience=10_000, seed=0)
    t, zeros = np.arange(5000) * 0.1, np.zeros(5000)
    monkeypatch.setattr(surrogate, "make_regression_dataset",
                        lambda y, u, p, q: _stop(len(y)))
    for val_fraction in (0.1, 0.25, 0.3, 0.5):
        for n in range(2, 5001):
            want = int(np.floor(n * (1.0 - val_fraction)))
            assert split_contiguous(n, val_fraction) == want
            short = [(block, size) for block, size in (("training", want), ("held-out", n - want))
                     if size < p + q + 2]
            if short:
                want = ("the %s block of the record has %d samples; p = 2, q = 2 need at least 6"
                        % short[0])
            record = SimpleNamespace(t=t[:n], y=zeros[:n], u=zeros[:n])
            try:
                surrogate.fit_surrogate(record, p, q, cfg, val_fraction=val_fraction, hidden=(32,),
                                        resampled=False)
            except DataError as exc:
                got = str(exc)
            except _Split as exc:
                got = exc.args[0]
            assert got == want, (n, val_fraction)

    nc = NeuralController(Mlp([3, 2, 1], seed=0), -1.0, 1.0, memory=1)
    rows, targets = np.zeros((5000, 3)), np.zeros((5000, 1))
    monkeypatch.setattr(neuro, "SupervisedDataset", lambda x, y: _stop(len(x)))
    for n in range(2, 5001):
        ds = SupervisedDataset(rows[:n], targets[:n])
        want = int(np.floor(n * 0.75))
        assert split_contiguous(n, 0.25) == want
        if want < 1 or n - want < 1:
            want = "dataset too small for a train/validation split"
        try:
            train_imitation(nc, ds, ds, 0.5, cfg, aux_weight=0.0)
        except DataError as exc:
            got = str(exc)
        except _Split as exc:
            got = exc.args[0]
        assert got == want, n


def test_split_too_short_rejected():
    """The rule has no minimum size: each caller rejects a block too short for it."""
    # split 7/3: three samples leave no lag-2 validation row
    with pytest.raises(DataError, match="^the held-out block of the record has 3 samples; "
                                        "p = 2, q = 2 need at least 6$"):
        surrogate.fit_surrogate(_series(n=10), 2, 2,
                                TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=200,
                                            patience=10_000, seed=0),
                                hidden=(32,), val_fraction=0.25, resampled=False)
    one_row = SupervisedDataset(np.zeros((1, 3)), np.zeros((1, 1)))
    # split 0/1
    with pytest.raises(DataError, match="^dataset too small for a train/validation split$"):
        train_imitation(NeuralController(Mlp([3, 2, 1], seed=0), -1.0, 1.0, memory=1),
                        one_row, one_row, 0.5,
                        TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=200,
                                    patience=10_000, seed=0), aux_weight=0.0)


def test_prbs_period_and_balance_order5():
    bits = prbs_bits(5, seed=1)
    assert len(bits) == 31
    assert int(bits.sum()) == 16  # ones
    assert int((1 - bits).sum()) == 15  # zeros


def test_prbs_maximal_length_all_orders():
    for order in PRBS_TAPS:
        period = (1 << order) - 1
        if order > 12:
            continue  # keep runtime modest; long registers covered by taps check below
        bits = prbs_bits(order, seed=3)
        assert len(bits) == period
        assert int(bits.sum()) == 1 << (order - 1)
        # maximal length: the state sequence must not repeat early, which the
        # ones/zeros balance over one full period certifies for LFSRs
        seq = np.where(bits == 1, 1.0, -1.0)
        r0 = float(np.dot(seq, seq))
        for lag in (1, 2, 7 % period or 1):
            r = float(np.dot(seq, np.roll(seq, lag)))
            assert r == pytest.approx(-r0 / period, abs=1e-9)


def test_prbs_long_orders_balanced():
    for order in (13, 14, 15, 16):
        bits = prbs_bits(order, seed=1)
        assert len(bits) == (1 << order) - 1
        assert int(bits.sum()) == 1 << (order - 1)


def test_prbs_deterministic_given_seed():
    assert np.array_equal(prbs_bits(7, seed=42), prbs_bits(7, seed=42))


def test_generate_prbs_signal():
    cfg = SimConfig(dt=0.1, horizon=10.0, seed=0)
    spec = ExcitationSpec(variant="prbs", order=5, amplitude=0.8, bit_period=0.2, seed=1,
                          levels=(), dwell=1.0, f0=0.1, f1=1.0, duration=None)
    u = generate_excitation(spec, cfg, limits=(-math.inf, math.inf))
    assert len(u) == 100
    assert set(np.unique(u)) == {-0.8, 0.8}
    # each bit held for 2 samples
    assert np.all(u[0::2][:50] == u[1::2][:50])


def test_chirp_degenerates_to_sinusoid():
    cfg = SimConfig(dt=0.001, horizon=2.0, seed=0)
    spec = ExcitationSpec(variant="chirp", amplitude=1.0, f0=2.0, f1=2.0, levels=(), dwell=1.0,
                          order=7, bit_period=1.0, seed=1, duration=None)
    u = generate_excitation(spec, cfg, limits=(-math.inf, math.inf))
    t = cfg.time_grid()
    assert np.allclose(u, np.sin(2 * np.pi * 2.0 * t), atol=1e-12)


def test_step_train_levels_and_dwell():
    cfg = SimConfig(dt=0.1, horizon=2.0, seed=0)
    spec = ExcitationSpec(variant="step_train", levels=(0.0, 1.0), dwell=1.0, order=7,
                          amplitude=1.0, bit_period=1.0, seed=1, f0=0.1, f1=1.0, duration=None)
    u = generate_excitation(spec, cfg, limits=(-math.inf, math.inf))
    assert np.all(u[:10] == 0.0) and np.all(u[10:20] == 1.0)


def test_excitation_amplitude_checked_against_limits():
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=0)
    spec = ExcitationSpec(variant="prbs", order=3, amplitude=5.0, bit_period=0.1, levels=(),
                          dwell=1.0, seed=1, f0=0.1, f1=1.0, duration=None)
    with pytest.raises(ValueError):
        generate_excitation(spec, cfg, limits=(-1.0, 1.0))


def test_prbs_order_range_enforced():
    with pytest.raises(ValueError):
        ExcitationSpec(variant="prbs", order=2, levels=(), dwell=1.0, amplitude=1.0,
                       bit_period=1.0, seed=1, f0=0.1, f1=1.0, duration=None)
    with pytest.raises(ValueError):
        ExcitationSpec(variant="prbs", order=17, levels=(), dwell=1.0, amplitude=1.0,
                       bit_period=1.0, seed=1, f0=0.1, f1=1.0, duration=None)


def test_from_trajectory_records_measurement(tmp_path):
    plant = PlantModel(LinearStateSpace(a=[[0.0]], b=[1.0], c=[[1.0]]), u_min=-math.inf,
                       u_max=math.inf, x0=None)
    traj = simulate(plant, ConstantController(1.0), 0.0,
                    cfg=SimConfig(dt=0.01, horizon=1.0, seed=0))
    ts = from_trajectory(traj)
    assert np.array_equal(ts.y, traj.y_meas)
    write_timeseries(ts, tmp_path / "t.csv")
    back = read_timeseries(tmp_path / "t.csv")
    assert np.array_equal(back.u, traj.u)


# ---------------------------------------------------------------------------
# the one writer
# ---------------------------------------------------------------------------

def test_parse_json_reads_what_json_loads_reads_of_finite_numbers():
    text = '{"a": [1, -0, 2.5e-3, 1e-400], "b": "NaN \\" Infinity", "c": {"d": null}}'
    assert parse_json(text, "x.json") == json.loads(text)


@pytest.mark.parametrize("text, line, message", [
    ('{"a": "NaN",\n "b": [1,\n 1e999]}', 3, "invalid number: 1e999 is not finite"),
    ('{"a": "-Infinity",\n\n "b": -Infinity}', 3, "invalid number: -Infinity is not finite"),
    ('{"a":\n 1' + "0" * 5000 + '}', 2, "invalid number: Exceeds the limit (4300 digits)"),
    ('{"a": 1,\n "b": 2,}', 2, "invalid JSON: Expecting property name enclosed in double quotes"),
], ids=["float-overflow", "constant", "long-integer", "syntax"])
def test_parse_json_rejects_with_the_line(text, line, message):
    """A number inside a string is no number; the line is that of the first
    number the parser rejects, or of the syntax error."""
    with pytest.raises(ParseError) as err:
        parse_json(text, "x.json")
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: x.json: {message}")


def test_write_lines_is_utf8_lf_with_one_final_newline(tmp_path):
    write_lines(tmp_path / "a.txt", ["µ", "", "b"])
    assert (tmp_path / "a.txt").read_bytes() == "µ\n\nb\n".encode("utf-8")


def test_write_json_sorts_keys_indents_two_and_ends_in_newline(tmp_path):
    write_json(tmp_path / "a.json", {"b": 1, "a": [0.1, None]})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "a": [\n    0.1,\n    null\n  ],\n  "b": 1\n}\n')


def test_write_csv_cells_are_reprs_of_python_values(tmp_path):
    # numpy 2 reprs a scalar as `np.float64(0.1)`, so a numpy scalar must be
    # written as the repr of its Python value, never as its own repr
    write_csv(tmp_path / "a.csv", ["s", "f", "i", "f64", "i64", "f32", "b"], [
        ("x", 0.1, 3, np.float64(0.1), np.int64(3), np.float32(0.5), np.bool_(True)),
        ("", math.nan, -0.0, np.float64(-0.0), np.int32(-7), np.float32(0.1), False),
    ])
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == (
        "s,f,i,f64,i64,f32,b\n"
        "x,0.1,3,0.1,3,0.5,True\n"
        f",nan,-0.0,-0.0,-7,{float(np.float32(0.1))!r},False\n")


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_write_timeseries_cells_are_float_reprs(tmp_path, dtype):
    rng = np.random.default_rng(1)
    cols = {name: (rng.normal(size=7) * 100).astype(dtype) for name in ("t", "w", "y", "u", "d")}
    cols["t"] = np.arange(7).astype(dtype)
    series = TimeSeries(**cols, extra={"y2": rng.normal(size=7).astype(dtype)})
    write_timeseries(series, tmp_path / "a.csv")
    names = [*cols, "y2"]
    expected = [",".join(names)] + [",".join(repr(float(series.columns()[n][k])) for n in names)
                                    for k in range(7)]
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_format_column_equals_per_cell_repr():
    edge = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e22, 1e-7,
            0.1 + 0.2, 1.0, 3, -7, 0, 10**20]
    rng = np.random.default_rng(3)
    scaled = (rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000)).tolist()
    for values in (edge, scaled, [2.5], [-1]):
        assert format_column(values) == [repr(v) for v in values]
    assert format_column([]) == []


def test_write_columns_joins_formatted_columns_row_by_row(tmp_path):
    write_columns(tmp_path / "a.csv", {"k": format_column([0, 1]), "x": format_column([0.5, -0.0])})
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "k,x\n0,0.5\n1,-0.0\n"
    write_columns(tmp_path / "b.csv", {"k": [], "x": []})
    assert (tmp_path / "b.csv").read_text(encoding="utf-8") == "k,x\n"


def test_write_timeseries_returns_the_cells_it_wrote(tmp_path):
    series = _series(n=5)
    cells = write_timeseries(series, tmp_path / "a.csv")
    assert list(cells) == ["t", "w", "y", "u", "d"]
    rows = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows == [",".join(col[k] for col in cells.values()) for k in range(5)]


# a call that writes a file: Path.write_text/write_bytes, json.dump, or open()
# with a mode that writes, appends, creates or updates
WRITE_CALL = re.compile(r"\.write_text\(|\.write_bytes\(|\bjson\.dump\(|"
                        r"\bopen\([^)]*[\"'][rbt]*[wax+][^\"']*[\"']")


def test_write_call_pattern_finds_every_writer_form():
    for line in ('Path(p).write_text(s, encoding="utf-8")', "p.write_bytes(b)",
                 "json.dump(obj, fh)", 'open(p, "w", newline="\\n")', "open(p, 'ab')",
                 'open(p, mode="r+")', 'open(p, "x")'):
        assert WRITE_CALL.search(line), line
    for line in ("open(p)", 'open(p, "rb")', "json.dumps(obj)", "read_text(p)"):
        assert not WRITE_CALL.search(line), line


def test_only_dataio_writes_files():
    src = Path(loopbench.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "dataio.py"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if WRITE_CALL.search(line)]
    assert hits == [], "write files through dataio.write_lines/write_csv/write_columns/write_json"


JSON_READERS = ("load", "loads")


def test_only_dataio_parses_json():
    """`dataio.parse_json` is the one JSON parser, so that every JSON number
    the workbench reads follows one rule: the one `json.loads` call in `src/`
    is in dataio, and no module imports `load` or `loads` from json."""
    src = Path(loopbench.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in JSON_READERS \
                    and isinstance(node.value, ast.Name) and node.value.id == "json":
                hits.append(f"{path.name}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                hits += [f"{path.name}: from json import {alias.name}" for alias in node.names
                         if alias.name in JSON_READERS]
    assert hits == ["dataio.py: json.loads"], "parse JSON text through dataio.parse_json"


CONCURRENCY_MODULES = ("concurrent", "threading", "multiprocessing")


def test_no_module_imports_threads_or_processes():
    """loopbench runs in one process on one thread: no module in `src/`
    imports concurrent.futures, threading or multiprocessing."""
    src = Path(loopbench.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if name.split(".")[0] in CONCURRENCY_MODULES]
    assert hits == []


def test_only_nnet_and_simcore_import_struct():
    """Network rows are packed in one place, `nnet`'s bound passes, which
    also normalize them; the only other packer is `simcore`'s, for plant
    states. So no other module imports `struct`, in either form."""
    src = Path(loopbench.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "struct":
                importers.add(path.stem)
    assert importers == {"nnet", "simcore"}


# the one public name that no command reaches on purpose: AC-11's latency instrument
UNREACHED_ON_PURPOSE = {"metrics.measure_latency"}


def test_every_public_definition_is_used_in_src():
    """Each public module-level function and class in `src/loopbench` is
    named somewhere in `src/` outside its own definition (imports aside)."""
    src = Path(loopbench.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    defined.append((owner, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, owner))
    unused = [owner for owner, name in defined
              if owner not in UNREACHED_ON_PURPOSE
              and not any(n == name and o != owner for n, o in used)]
    assert unused == [], "delete what nothing in src/ uses, or use it"


def test_every_public_method_is_used_in_src():
    """Each public method and property of a module-level class in
    `src/loopbench` is read as an attribute of that name somewhere in `src/`
    outside its own definition. Matching is by attribute name alone, so a
    method shares its uses with every other of that name."""
    src = Path(loopbench.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            parts = [(None, stmt)]
            if isinstance(stmt, ast.ClassDef):
                parts = [(f"{path.stem}.{stmt.name}.{m.name}"
                          if isinstance(m, ast.FunctionDef) else None, m) for m in stmt.body]
                defined += [(owner, m.name) for owner, m in parts
                            if owner is not None and not m.name.startswith("_")]
            used.update((node.attr, owner) for owner, part in parts
                        for node in ast.walk(part) if isinstance(node, ast.Attribute))
    unused = [owner for owner, name in defined
              if not any(n == name and o != owner for n, o in used)]
    assert unused == [], "delete what nothing in src/ uses, or use it"


# defaulted parameters that no call in src/ sets, on purpose; a whole
# function's entry covers each of its parameters
SET_BY_NO_SRC_CALL_ON_PURPOSE = {
    "cli.main.argv": "the console entry point calls main() without argv",
    "simcore.simulate.gain_schedule": "AC-10's process change and the five */linear goldens",
}


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls: ast.ClassDef):
    """(field names in order, defaulted field names) of a dataclass's
    `__init__`: annotated class attributes, less `field(init=False)` ones."""
    names, defaulted = [], []
    for s in cls.body:
        if not (isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)):
            continue
        kw = {k.arg: k.value for k in s.value.keywords} \
            if isinstance(s.value, ast.Call) and _name(s.value.func) == "field" else None
        if kw is not None and getattr(kw.get("init"), "value", True) is False:
            continue
        names.append(s.target.id)
        if s.value is not None and (kw is None or "default" in kw or "default_factory" in kw):
            defaulted.append(s.target.id)
    return names, defaulted


def _scan(src: Path):
    """The defaulted parameters of `src` and the calls that may set them.

    Yields (label, outcomes) per defaulted parameter of a module-level
    function, a method or a dataclass's generated `__init__` (labelled
    `module.Class.field`), where outcomes holds, for each call in `src` whose
    callee's name matches the function's (the class's for `__init__`),
    "sets" when the call sets the parameter by keyword or position and
    "may set" when it could set it only through `*` or `**`."""
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(src.glob("*.py"))]
    defs = []  # (label, callee name, positional parameters after self, defaulted names)
    for module, tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                members = [(f"{module}.", stmt, stmt.name, 0)]
            elif isinstance(stmt, ast.ClassDef):
                members = [(f"{module}.{stmt.name}.", fn,
                            stmt.name if fn.name == "__init__" else fn.name,
                            0 if any(_name(d) == "staticmethod" for d in fn.decorator_list) else 1)
                           for fn in stmt.body if isinstance(fn, ast.FunctionDef)]
                if _is_dataclass(stmt):
                    defs.append((f"{module}.{stmt.name}", stmt.name, *_init_fields(stmt)))
            else:
                continue
            for prefix, fn, callee, skip in members:
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):] + \
                    [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                defs.append((prefix + fn.name, callee, positional[skip:], defaulted))
    calls = [node for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def outcome(call, name, index):
        # the arguments before the first `*` have known positions
        known = next((i for i, x in enumerate(call.args) if isinstance(x, ast.Starred)),
                     len(call.args))
        if any(k.arg == name for k in call.keywords) or index is not None and index < known:
            return "sets"
        if any(k.arg is None for k in call.keywords) or \
                index is not None and known < len(call.args):
            return "may set"
        return None

    for label, callee, positional, defaulted in defs:
        for name in defaulted:
            index = positional.index(name) if name in positional else None
            yield f"{label}.{name}", [outcome(c, name, index) for c in calls
                                      if _name(c.func) == callee]


def defaulted_parameters_no_call_sets(src: Path) -> list[str]:
    """`module.function.parameter` (a method as `module.Class.method.parameter`,
    a dataclass field as `module.Class.field`) of each defaulted parameter in
    `src` that no call in `src` could set: by keyword, by position, or through
    `*`/`**`."""
    return [label for label, outcomes in _scan(src) if not any(outcomes)]


def defaulted_parameters_every_call_sets(src: Path) -> list[str]:
    """Each defaulted parameter (labelled as above) that every call in `src`
    sets by keyword or position, so that no call uses its default; a call
    through `*` or `**` may not set it, so it keeps the default in use."""
    return [label for label, outcomes in _scan(src)
            if outcomes and all(o == "sets" for o in outcomes)]


def kwargs_pass_throughs(src: Path) -> list[str]:
    """`module.function` of each function in `src`, nested ones included,
    that takes `**kwargs`."""
    return [f"{path.stem}.{node.name}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.args.kwarg is not None]


def test_scan_flags_a_defaulted_parameter_no_call_sets(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def g(self, z=0):\n        pass\n\n"
        "f(0, 1, c=2)\nK(1)\nk.g(**kw)\n", encoding="utf-8")
    assert defaulted_parameters_no_call_sets(tmp_path) == ["m.f.d", "m.K.__init__.y"]


def test_scan_flags_unset_fields_defaults_every_call_sets_and_kwargs(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n"
        "    c: list = field(default_factory=list)\n    d: int = field(init=False, default=0)\n\n"
        "def f(x, y=1, z=2):\n    pass\n\n"
        "def h(x, **kwargs):\n    pass\n\n"
        "D(1, 2)\nD(a=1, b=3)\nf(0, 1, z=2)\nf(0, y=5, z=3)\nf(*args, z=1)\nh(0, q=1)\n",
        encoding="utf-8")
    # c: a dataclass init field no call sets (d is no init field)
    assert defaulted_parameters_no_call_sets(tmp_path) == ["m.D.c"]
    # b and z: every call sets them; y: `f(*args, ...)` may leave it to its default
    assert defaulted_parameters_every_call_sets(tmp_path) == ["m.D.b", "m.f.z"]
    assert kwargs_pass_throughs(tmp_path) == ["m.h"]


def test_every_defaulted_parameter_is_set_by_a_call_in_src():
    """An option whose only value in use is its default is a constant: each
    defaulted parameter in `src/` is set by some call in `src/`, apart from
    the allow-list, each entry with its reason."""
    flagged = defaulted_parameters_no_call_sets(Path(loopbench.__file__).parent)
    unset = [p for p in flagged if p not in SET_BY_NO_SRC_CALL_ON_PURPOSE
             and p.rsplit(".", 1)[0] not in SET_BY_NO_SRC_CALL_ON_PURPOSE]
    assert unset == [], "make each a constant, or set it from a command"
    stale = [key for key in SET_BY_NO_SRC_CALL_ON_PURPOSE
             if not any(p == key or p.rsplit(".", 1)[0] == key for p in flagged)]
    assert stale == [], "drop allow-list entries that no longer match"


# defaulted parameters that every call in src/ sets, kept for a caller
# outside src/ and tests/ that relies on the default
SET_BY_EVERY_SRC_CALL_ON_PURPOSE = {
    "pid.PidGains.u_min": "perfbench/smoke.py builds PidGains(kp=1.0, ki=0.5)",
    "pid.PidGains.u_max": "perfbench/smoke.py builds PidGains(kp=1.0, ki=0.5)",
    "simcore.SimConfig.seed": "perfbench/smoke.py builds SimConfig(dt=0.01, horizon=0.5)",
    "simcore.PlantModel.x0": "perfbench/smoke.py builds its plant without x0",
}


def test_no_defaulted_parameter_is_set_by_every_call_in_src():
    """A default that every call overrides is a value no command uses: each
    such parameter or dataclass field is required, so that a command's every
    value comes from its config, whose one home of defaults is
    `config.DEFAULTS`; apart from the allow-list, each entry with its reason."""
    flagged = defaulted_parameters_every_call_sets(Path(loopbench.__file__).parent)
    assert [p for p in flagged if p not in SET_BY_EVERY_SRC_CALL_ON_PURPOSE] == [], \
        "drop the default: pass the value at every call"
    assert [p for p in SET_BY_EVERY_SRC_CALL_ON_PURPOSE if p not in flagged] == [], \
        "drop allow-list entries that no longer match"


def test_no_function_in_src_takes_kwargs():
    """A `**kwargs` pass-through can set what no signature names."""
    assert kwargs_pass_throughs(Path(loopbench.__file__).parent) == []


# every `** 2` in src/, by qualified name, with its count: either the operand
# is an array, whose `** 2` numpy computes as `np.square` (the same bits), or
# it is a scalar square, which goes through libm's `pow`; glibc's `pow` does
# not round as `x * x` does on every input, so these are part of the byte path
ARRAY_SQUARES = {"neuro.train_imitation._val_rmse": 1, "neuro._StackedSteps.slopes": 1,
                 "surrogate.fit_surrogate": 2}
LIBM_SQUARES = {"neuro._ControllerBlock.output_adjoint": 1, "neuro.bptt_loss_and_grad": 2,
                "tuning.ultimate_from_fopdt": 1}


def squares(src: Path) -> dict:
    """`module.function` (nested names joined by dots, a method as
    `module.Class.method`) of each function in `src` that squares with a
    power of the literal 2 (`x ** 2`, `x **= 2`), and how often."""
    counts = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            right = child.right if isinstance(child, ast.BinOp) else \
                child.value if isinstance(child, ast.AugAssign) else None
            if isinstance(getattr(child, "op", None), ast.Pow) and \
                    isinstance(right, ast.Constant) and right.value == 2:
                counts[name] = counts.get(name, 0) + 1
            visit(child, name)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return counts


def test_squares_scan_finds_every_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n    def g(y):\n        return y ** 2 + y ** 3\n    x **= 2\n    return x ** 2.0\n\n"
        "class K:\n    def h(self, a):\n        return (a ** 2) ** 2\n\n"
        "Z = 3 ** 2\n", encoding="utf-8")
    assert squares(tmp_path) == {"m.f.g": 1, "m.f": 2, "m.K.h": 2, "m": 1}


def test_every_square_in_src_is_declared():
    """A new `** 2` fails here until it is declared: an array operand gives
    the bits of `np.square`, while a scalar one is a libm `pow` call, whose
    rounding can differ from `x * x` and from one C library to another."""
    assert squares(Path(loopbench.__file__).parent) == {**ARRAY_SQUARES, **LIBM_SQUARES}


def test_array_square_has_the_bits_of_np_square():
    x = np.random.default_rng(0).uniform(-2.0, 2.0, (1000, 1, 7))
    assert (x ** 2).tobytes() == np.square(x).tobytes()
    assert (1.0 - x ** 2).tobytes() == (1.0 - np.square(x)).tobytes()
