import math

import pytest
from hypothesis import given, strategies as st

from twtl.trace import (
    NormalizationBounds,
    PredicateSpec,
    PredicateTable,
    Word,
    eta_margin,
    load_trace,
    margin,
)

ATOM_GE = PredicateSpec("A", "x", ">=", 4.0, NormalizationBounds(0.0, 8.0))
ATOM_LE = PredicateSpec("B", "x", "<=", 6.0, NormalizationBounds(0.0, 8.0))


class TestPredicateSpec:
    def test_margin_signs(self):
        assert ATOM_GE.margin_of(4.099) == pytest.approx(0.099)
        assert ATOM_GE.margin_of(2.0) == -2.0
        assert ATOM_LE.margin_of(5.0) == 1.0
        assert ATOM_LE.margin_of(7.5) == -1.5

    def test_eta_margin_normalizes(self):
        assert ATOM_GE.eta_margin_of(8.0) == pytest.approx(0.5)
        assert ATOM_GE.eta_margin_of(0.0) == pytest.approx(-0.5)
        assert ATOM_LE.eta_margin_of(0.0) == pytest.approx(0.75)

    def test_eta_margin_clamps_out_of_bounds(self, caplog):
        with caplog.at_level("WARNING", logger="twtl"):
            v = ATOM_GE.eta_margin_of(9.5)
        assert v == pytest.approx(0.5)
        assert "clamp" in caplog.text

    def test_extremes(self):
        lo, hi = ATOM_GE.eta_extremes()
        assert (lo, hi) == pytest.approx((-0.5, 0.5))
        lo, hi = ATOM_LE.eta_extremes()
        assert (lo, hi) == pytest.approx((-0.25, 0.75))

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_eta_margin_stays_in_extremes(self, v):
        lo, hi = ATOM_GE.eta_extremes()
        assert lo - 1e-12 <= ATOM_GE.eta_margin_of(v) <= hi + 1e-12

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            PredicateSpec("A", "x", "==", 0.0)
        with pytest.raises(ValueError):
            PredicateSpec("A", "x", ">=", 9.0, NormalizationBounds(0.0, 8.0))
        with pytest.raises(ValueError):
            NormalizationBounds(2.0, 2.0)

    def test_bounds_required_for_eta(self):
        spec = PredicateSpec("A", "x", ">=", 1.0)
        with pytest.raises(ValueError, match="bounds"):
            spec.eta_margin_of(3.0)


class TestPredicateTable:
    def test_from_dict_roundtrip(self):
        data = {"atoms": {
            "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
            "B": {"signal": "y", "op": "<=", "sigma": 1.5},
        }}
        table = PredicateTable.from_dict(data)
        assert table.names == ["A", "B"]
        assert table["A"].bounds == NormalizationBounds(0.0, 8.0)
        assert table["B"].bounds is None
        assert table.to_dict() == data

    def test_duplicate_and_missing(self):
        table = PredicateTable([ATOM_GE])
        with pytest.raises(ValueError, match="duplicate"):
            table.add(ATOM_GE)
        with pytest.raises(KeyError, match="unresolved"):
            table["nope"]

    def test_requires_atoms_key(self):
        with pytest.raises(ValueError):
            PredicateTable.from_dict({"A": {}})


class TestWord:
    def test_basic_indexing(self):
        w = Word(0.5, {"x": (1.0, 2.0, 3.0)}, t0=1.0)
        assert w.n == 3
        assert w.time_at(2) == 2.0
        assert w.index_of(1.5) == 1
        assert w.value("x", 1) == 2.0

    def test_off_grid_time_rejected(self):
        w = Word(0.5, {"x": (1.0, 2.0)})
        with pytest.raises(ValueError, match="grid"):
            w.index_of(0.3)

    def test_slice(self):
        w = Word(1.0, {"x": (0.0, 1.0, 2.0, 3.0), "y": (9.0, 8.0, 7.0, 6.0)})
        s = w.slice(1.0, 2.0)
        assert s.signals["x"] == (1.0, 2.0)
        assert s.t0 == 1.0
        assert w.slice(2.0, 1.0).n == 0  # empty when t2 < t1

    def test_prefix(self):
        w = Word(1.0, {"x": (0.0, 1.0, 2.0)})
        assert w.prefix(2).signals["x"] == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Word(0.0, {"x": (1.0,)})
        with pytest.raises(ValueError):
            Word(1.0, {})
        with pytest.raises(ValueError):
            Word(1.0, {"x": (1.0, 2.0), "y": (1.0,)})
        with pytest.raises(ValueError):
            Word(1.0, {"x": (math.nan,)})

    def test_margin_helpers(self):
        w = Word(1.0, {"x": (4.099, 2.0)})
        assert margin(w, ATOM_GE, 0) == pytest.approx(0.099)
        assert eta_margin(w, ATOM_GE, 1) == pytest.approx(-0.25)


class TestLoadTrace:
    def write(self, tmp_path, text):
        p = tmp_path / "trace.csv"
        p.write_text(text)
        return p

    def test_good_trace(self, tmp_path):
        p = self.write(tmp_path, "time,x,y\n0,1.0,2.0\n0.5,1.5,2.5\n1.0,2.0,3.0\n")
        w = load_trace(p, dt_expected=0.5)
        assert w.dt == pytest.approx(0.5)
        assert w.signals["y"] == (2.0, 2.5, 3.0)

    def test_nonuniform_rejected(self, tmp_path):
        p = self.write(tmp_path, "time,x\n0,1\n1,2\n2.7,3\n")
        with pytest.raises(ValueError, match="non-uniform"):
            load_trace(p)

    def test_dt_mismatch(self, tmp_path):
        p = self.write(tmp_path, "time,x\n0,1\n2,2\n")
        with pytest.raises(ValueError, match="expected dt"):
            load_trace(p, dt_expected=1.0)

    def test_empty_and_header_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no samples"):
            load_trace(self.write(tmp_path, ""))
        with pytest.raises(ValueError, match="no samples"):
            load_trace(self.write(tmp_path, "time,x\n"))
        with pytest.raises(ValueError, match="header"):
            load_trace(self.write(tmp_path, "t,x\n0,1\n"))

    def test_gap_rejected_with_its_line(self, tmp_path):
        p = self.write(tmp_path, "time,x\n0,1\n1,2\n3,3\n")
        with pytest.raises(ValueError, match=r"trace\.csv:4: time 3 is off the sampling grid"):
            load_trace(p)

    def test_bad_rows(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            load_trace(self.write(tmp_path, "time,x\n0,1,9\n"))
        with pytest.raises(ValueError, match="unparsable"):
            load_trace(self.write(tmp_path, "time,x\n0,oops\n"))
