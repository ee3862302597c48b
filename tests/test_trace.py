import math
import re

import pytest
from hypothesis import given, strategies as st

from twtl.trace import (
    NormalizationBounds,
    PredicateSpec,
    PredicateTable,
    Word,
    load_trace,
)

ATOM_GE = PredicateSpec("A", "x", ">=", 4.0, NormalizationBounds(0.0, 8.0))
ATOM_LE = PredicateSpec("B", "x", "<=", 6.0, NormalizationBounds(0.0, 8.0))
DROP = object()


def one_atom(**changes) -> dict:
    """A config of one good atom A with `changes`; a field set to DROP is left out."""
    entry = {"signal": "x", "op": ">=", "sigma": 4.0, **changes}
    return {"atoms": {"A": {k: v for k, v in entry.items() if v is not DROP}}}


class TestPredicateSpec:
    def test_margin_signs(self):
        assert ATOM_GE.margin_of(4.099) == pytest.approx(0.099)
        assert ATOM_GE.margin_of(2.0) == -2.0
        assert ATOM_LE.margin_of(5.0) == 1.0
        assert ATOM_LE.margin_of(7.5) == -1.5

    def test_eta_margin_normalizes(self):
        assert [ATOM_GE.eta_margin_of(v) for v in (8.0, 0.0, 4.0)] == \
            pytest.approx([0.5, -0.5, 0.0])
        assert ATOM_LE.eta_margin_of(0.0) == pytest.approx(0.75)

    def test_eta_margin_clamps_out_of_bounds(self, caplog):
        values = [9.5, 8.0, -1.0]
        with caplog.at_level("WARNING", logger="twtl"):
            assert ATOM_GE.warn_clamped(values, 3)
            assert not ATOM_GE.warn_clamped([8.0, 0.0], 5)
        assert [ATOM_GE.eta_margin_of(v) for v in values] == pytest.approx([0.5, 0.5, -0.5])
        assert caplog.messages == ["atom A: 2 of 3 samples outside bounds [0, 8], clamping"]

    def test_extremes(self):
        lo, hi = ATOM_GE.eta_extremes()
        assert (lo, hi) == pytest.approx((-0.5, 0.5))
        lo, hi = ATOM_LE.eta_extremes()
        assert (lo, hi) == pytest.approx((-0.25, 0.75))

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_eta_margin_stays_in_extremes(self, v):
        lo, hi = ATOM_GE.eta_extremes()
        m = ATOM_GE.eta_margin_of(v)
        assert lo - 1e-12 <= m <= hi + 1e-12

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            PredicateSpec("A", "x", "==", 0.0)
        with pytest.raises(ValueError):
            PredicateSpec("A", "x", ">=", 9.0, NormalizationBounds(0.0, 8.0))
        with pytest.raises(ValueError):
            NormalizationBounds(2.0, 2.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="atom A: sigma must be finite"):
                PredicateSpec("A", "x", ">=", value)
            for lo, hi in ((value, 8.0), (0.0, value)):
                with pytest.raises(ValueError, match="require finite lo < hi"):
                    NormalizationBounds(lo, hi)

    def test_bounds_need_a_finite_span(self):
        # finite ends whose difference overflows would normalize every margin
        # to 0 or nan, outside the range the AGM kernels assume
        with pytest.raises(ValueError, match="require finite lo < hi and a finite hi - lo"):
            NormalizationBounds(-1e308, 1e308)
        assert PredicateSpec("A", "x", ">=", -8e307, NormalizationBounds(-8e307, 8e307)
                             ).eta_extremes() == (0.0, 1.0)

    @pytest.mark.parametrize("op, sigma, x", [(">=", 1e308, -1e308), (">=", -1e308, 1e308),
                                              ("<=", -1e308, 1e308), ("<=", 1e308, -1e308)])
    def test_margin_that_overflows_names_the_atom(self, op, sigma, x):
        # x - sigma of finite numbers past the float range: rho was -inf or inf
        spec = PredicateSpec("A", "x", op, sigma)
        with pytest.raises(ValueError) as got:
            spec.margin_of(x)
        assert str(got.value) == \
            f"atom A: the margin of sample {x:g} against sigma={sigma:g} overflows"
        # a normalized margin clamps x to bounds with a finite span first:
        # here to the bound farther from sigma, a margin of -1 or 1
        bounds = NormalizationBounds(*sorted((sigma, sigma / 2)))
        assert abs(PredicateSpec("A", "x", op, sigma, bounds).eta_margin_of(x)) == 1.0

    def test_largest_margins_are_finite(self):
        assert PredicateSpec("A", "x", ">=", -8e307).margin_of(9e307) == 8e307 + 9e307
        assert PredicateSpec("A", "x", "<=", 8e307).margin_of(-9e307) == 8e307 + 9e307
        assert PredicateSpec("A", "x", ">=", 1e308).margin_of(-7e307) == -7e307 - 1e308

    def test_bounds_required_for_eta(self):
        spec = PredicateSpec("A", "x", ">=", 1.0)
        with pytest.raises(ValueError, match="bounds"):
            spec.eta_margin_of(3.0)
        with pytest.raises(ValueError, match="bounds"):
            spec.warn_clamped([3.0], 1)


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

    @pytest.mark.parametrize("data, message", [
        ([1], 'predicate config must be an object with an "atoms" object'),
        ({"atoms": [1]}, 'predicate config must be an object with an "atoms" object'),
        ({"atoms": {"A": 5}}, "atom A: entry must be an object, got 5"),
        (one_atom(signal=DROP), "atom A: missing field signal"),
        (one_atom(op=DROP), "atom A: missing field op"),
        (one_atom(sigma=DROP), "atom A: missing field sigma"),
        (one_atom(signal=3), "atom A: signal must be a non-empty string, got 3"),
        (one_atom(signal=""), "atom A: signal must be a non-empty string, got ''"),
        (one_atom(sigma=None), "atom A: sigma must be a finite number, got None"),
        (one_atom(sigma=True), "atom A: sigma must be a finite number, got True"),
        (one_atom(sigma="4"), "atom A: sigma must be a finite number, got '4'"),
        (one_atom(sigma=math.nan), "atom A: sigma must be a finite number, got nan"),
        (one_atom(sigma=10 ** 400), "atom A: sigma must be a finite number, got 1000"),
        (one_atom(min=None, max=8.0), "atom A: min must be a finite number, got None"),
        (one_atom(min=0.0, max="8"), "atom A: max must be a finite number, got '8'"),
        (one_atom(min=-math.inf, max=math.inf), "atom A: min must be a finite number, got -inf"),
        (one_atom(min=0.0), "atom A: min given without max"),
        (one_atom(max=8.0), "atom A: max given without min"),
        (one_atom(op="=="), "atom A: unsupported predicate op '=='"),
        (one_atom(min=5.0, max=1.0), "atom A: normalization bounds require finite lo < hi and "
                                     "a finite hi - lo, got [5.0, 1.0]"),
        (one_atom(min=-1e308, max=1e308), "atom A: normalization bounds require finite lo < hi "
                                          "and a finite hi - lo, got [-1e+308, 1e+308]"),
    ], ids=["top_level_list", "atoms_list", "entry_number", "no_signal", "no_op", "no_sigma",
            "signal_number", "signal_empty", "sigma_null", "sigma_bool", "sigma_string",
            "sigma_nan", "sigma_huge_int", "min_null", "max_string", "infinite_bounds",
            "min_alone", "max_alone", "bad_op", "min_above_max", "span_overflows"])
    def test_malformed_config_names_the_atom(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PredicateTable.from_dict(data)



class TestWord:
    def test_basic_indexing(self):
        w = Word(0.5, {"x": (1.0, 2.0, 3.0)}, t0=1.0)
        assert w.n == 3
        assert w.time_at(2) == 2.0
        assert w.value("x", 1) == 2.0

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

    def test_repeated_first_time_rejected_without_dt(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("time,x\n0,1\n0,2\n")
        with pytest.raises(ValueError,
                           match=r"dup\.csv:3: timestamps must be strictly increasing$"):
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
        for header, name in (("time,x,x", "x"), ("time,x,y,x", "x"), ("time,x,time", "time")):
            p = self.write(tmp_path, f"{header}\n{'0,' * header.count(',')}0\n")
            with pytest.raises(ValueError, match=rf"trace\.csv: duplicate column {name}$"):
                load_trace(p)

    @pytest.mark.parametrize("text, line", [
        ("time,x\n0,1\n1,{big}\n", 3), ("time,{big}\n0,1\n", 1),
    ], ids=["row", "header"])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, text, line):
        p = self.write(tmp_path, text.format(big='"' + "9" * 200_000 + '"'))
        with pytest.raises(ValueError, match=rf"trace\.csv:{line}: field larger than field limit"):
            load_trace(p)

    def test_gap_rejected_with_its_line(self, tmp_path):
        p = self.write(tmp_path, "time,x\n0,1\n1,2\n3,3\n")
        with pytest.raises(ValueError, match=r"trace\.csv:4: time 3 is off the sampling grid"):
            load_trace(p)

    def test_row_after_a_multiline_field_names_its_line(self, tmp_path):
        p = self.write(tmp_path, 'time,x\n0,"5\n"\n1,oops\n')
        with pytest.raises(ValueError, match=r"trace\.csv:4: unparsable number in \['1', 'oops'\]"):
            load_trace(p)

    def test_bad_rows(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            load_trace(self.write(tmp_path, "time,x\n0,1,9\n"))
        with pytest.raises(ValueError, match="unparsable"):
            load_trace(self.write(tmp_path, "time,x\n0,oops\n"))
