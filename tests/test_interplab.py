"""Dataset ingestion, moment tables, and rational-formula guessing."""

import json
import random
import sys
import types
from fractions import Fraction

import pytest

import oracles
from coxstat.elements import inv_count, iter_windows
from coxstat.interplab import (
    RationalFormula,
    builtin_dataset,
    fetch_findstat,
    format_sig3,
    ingest,
    lagrange_guess,
    summarize,
)
from coxstat.polynomials import ExactPolynomial


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestIngest:
    def test_values_json_round_trip(self, tmp_path):
        values = [oracles.inv_of(w, "A") for w in oracles.iter_windows("A", 4)]
        path = tmp_path / "inv.json"
        write_json(path, {"statistic": "inv", "group": "S",
                          "values": {"4": values}})
        ds = ingest(path, "values_json")
        assert ds.name == "inv"
        assert ds.sizes == (4,)
        assert ds.histograms[4] == tuple(oracles.TALLY_INV_A3)
        assert ds.group == "S"

    def test_values_json_length_mismatch(self, tmp_path):
        path = tmp_path / "short.json"
        write_json(path, {"statistic": "inv", "group": "S",
                          "values": {"4": [0] * 23}})
        with pytest.raises(ValueError, match="length mismatch at n = 4"):
            ingest(path, "values_json")

    def test_histogram_json_accepts_bigint_strings(self, tmp_path):
        path = tmp_path / "hist.json"
        big = str(2 ** 130 + 7)
        write_json(path, {"statistic": "huge", "histogram": {"3": [big, 5]}})
        ds = ingest(path, "histogram_json")
        assert ds.histograms[3] == (2 ** 130 + 7, 5)
        assert ds.sizes == (3,)

    def test_negative_histogram_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        write_json(path, {"statistic": "bad", "histogram": {"2": [1, -1]}})
        with pytest.raises(ValueError, match="negative"):
            ingest(path, "histogram_json")

    def test_findstat_csv(self, tmp_path):
        lines = []
        for n in (2, 3, 4):
            for w in oracles.iter_windows("A", n):
                lines.append(f"[{','.join(map(str, w))}];{oracles.des_of(w, 'A')}")
        path = tmp_path / "St000021.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ds = ingest(path, "findstat_csv")
        assert ds.name == "St000021"
        assert ds.group == "S"
        assert ds.histograms[3] == (1, 4, 1)
        assert ds.histograms[4] == tuple(oracles.TALLY_DES_A3)

    def test_findstat_csv_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("[1,2];0\n[2,1];oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            ingest(path, "findstat_csv")
        path.write_text("[1,3];0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a permutation"):
            ingest(path, "findstat_csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ingest(tmp_path / "x", "yaml")

    def test_wrong_document_shape_rejected(self, tmp_path):
        # a clean ValueError, not a KeyError, so the CLI can report it
        path = tmp_path / "wrong.json"
        write_json(path, {"statistic": "des", "histograms": {"2": [1, 1]}})
        with pytest.raises(ValueError, match="'histogram' object"):
            ingest(path, "histogram_json")
        write_json(path, [1, 2, 3])
        with pytest.raises(ValueError, match="JSON object"):
            ingest(path, "values_json")


class TestBuiltinDatasets:
    def test_inv_and_des_match_oracles(self):
        inv = builtin_dataset("inv", (4,))
        des = builtin_dataset("des", (4,))
        assert inv.histograms[4] == tuple(oracles.TALLY_INV_A3)
        assert des.histograms[4] == tuple(oracles.TALLY_DES_A3)

    def test_ides_is_equidistributed_with_des(self):
        for n in (3, 4, 5):
            assert (builtin_dataset("ides", (n,)).histograms[n]
                    == builtin_dataset("des", (n,)).histograms[n])

    def test_des_plus_ides_matches_oracle_tally(self):
        ds = builtin_dataset("des_plus_ides", (4,))
        expected = oracles.tally(
            "A", 4, lambda w: oracles.des_of(w, "A") + oracles.ides_of(w, "A"))
        assert list(ds.histograms[4]) == expected

    def test_fixed_points_histogram(self):
        ds = builtin_dataset("fixed_points", (5,))
        # derangement-style counts for S_5
        assert ds.histograms[5] == (44, 45, 20, 10, 0, 1)

    def test_rank_keying_shifts_index(self):
        ds = builtin_dataset("des", (3, 4), keyed_by="rank")
        assert ds.sizes == (2, 3)
        assert ds.histograms[3] == (1, 11, 11, 1)

    def test_rejects_unknown_statistic(self):
        with pytest.raises(ValueError, match="statistic"):
            builtin_dataset("maj", (4,))


class TestSummaries:
    def test_uniform_pair(self, tmp_path):
        path = tmp_path / "u.json"
        write_json(path, {"statistic": "u", "histogram": {"2": [1, 1]}})
        rows = summarize(ingest(path, "histogram_json"))
        assert rows[0].mean == Fraction(1, 2)
        assert rows[0].variance == Fraction(1, 4)
        assert rows[0].normalized_cumulants[3] == 0.0

    def test_fixed_points_table_rows(self):
        ds = builtin_dataset("fixed_points", (5, 6))
        rows = {r.n: r for r in summarize(ds, k_max=8)}
        for n in (5, 6):
            assert rows[n].mean == 1
            assert rows[n].variance == 1
        assert rows[5].formatted == ("1.00", "1.00", "1.00", "0.000",
                                     "-14.0", "-118.")
        assert rows[6].formatted == ("1.00", "1.00", "1.00", "1.00",
                                     "0.000", "-20.0")

    def test_descent_means_match_half_rank(self):
        ds = builtin_dataset("des", (3, 4, 5), keyed_by="rank")
        for row in summarize(ds):
            assert row.mean == Fraction(row.n, 2)
            assert row.variance == Fraction(row.n + 2, 12)

    def test_agrees_with_raw_value_moments(self):
        ds = builtin_dataset("inv", (4, 5))
        rows = {r.n: r for r in summarize(ds)}
        for n in (4, 5):
            vals = [inv_count(w, "A") for w in iter_windows("A", n)]
            mean = Fraction(sum(vals), len(vals))
            var = Fraction(sum(v * v for v in vals), len(vals)) - mean ** 2
            assert rows[n].mean == mean
            assert rows[n].variance == var

    def test_degenerate_row_is_flagged(self, tmp_path):
        path = tmp_path / "point.json"
        write_json(path, {"statistic": "p", "histogram": {"2": [0, 7]}})
        row = summarize(ingest(path, "histogram_json"))[0]
        assert row.degenerate
        assert row.formatted == ()


class TestFormatting:
    def test_style_cases(self):
        assert format_sig3(0) == "0.000"
        assert format_sig3(1.0) == "1.00"
        assert format_sig3(-20.04) == "-20.0"
        assert format_sig3(-118.49) == "-118."
        assert format_sig3(0.05) == "0.0500"
        assert format_sig3(0.002149) == "0.00215"
        assert format_sig3(2914000.0) == "2.91e6"
        assert format_sig3(0.00005) == "5.00e-5"
        assert format_sig3(1234.0) == "1230."
        assert format_sig3(99.96) == "100."
        # rounding edges, where the carry can move the exponent
        assert format_sig3(0.0009995) == "0.000999"
        assert format_sig3(0.00099949) == "0.000999"
        assert format_sig3(9.995) == "9.99"
        assert format_sig3(99.95) == "100."
        assert format_sig3(999949) == "1.00e6"
        assert format_sig3(999950) == "1.00e6"
        assert format_sig3(1e-4) == "0.000100"
        assert format_sig3(9.999e-5) == "0.000100"


class TestLagrangeGuess:
    def test_recovers_type_a_inversion_variance(self):
        ds = builtin_dataset("inv", range(2, 8), keyed_by="rank")
        points = [(r.n, r.variance) for r in summarize(ds)]
        formulas = lagrange_guess(points)
        assert len(formulas) == 1
        f = formulas[0]
        assert (f.a, f.b, f.c) == (0, 0, 0)
        assert str(f) == "(2*n^3 + 9*n^2 + 7*n)/72"
        assert f.evaluate(10) == Fraction(2 * 1000 + 9 * 100 + 70, 72)

    def test_recovers_descent_variance(self):
        ds = builtin_dataset("des", range(2, 7), keyed_by="rank")
        points = [(r.n, r.variance) for r in summarize(ds)]
        formulas = lagrange_guess(points)
        assert len(formulas) == 1
        assert str(formulas[0]) == "(n + 2)/12"

    def test_recovers_two_sided_descent_variance(self):
        ds = builtin_dataset("des_plus_ides", range(2, 7), keyed_by="rank")
        points = [(r.n, r.variance) for r in summarize(ds)]
        formulas = lagrange_guess(points)
        assert len(formulas) == 1
        f = formulas[0]
        assert (f.a, f.b, f.c) == (1, 1, 1)
        assert str(f) == "((n^2 + 9*n + 2)/6)/(n + 1)"
        assert f.evaluate(3) == Fraction(19, 12)

    def test_recovers_constant_for_fixed_points(self):
        ds = builtin_dataset("fixed_points", range(2, 7))
        points = [(r.n, r.variance) for r in summarize(ds)]
        formulas = lagrange_guess(points)
        assert len(formulas) == 1
        assert (formulas[0].a, formulas[0].b, formulas[0].c) == (0, 0, 0)
        assert str(formulas[0]) == "1"

    def test_recovers_simple_pole_form(self):
        points = [(n, Fraction(2 * (n - 2), n - 1)) for n in range(2, 9)]
        formulas = lagrange_guess(points)
        assert len(formulas) == 1
        f = formulas[0]
        assert (f.a, f.b, f.c) == (1, -1, 1)
        assert f.numerator == (Fraction(-4), Fraction(2))
        assert str(f) == "(2*n - 4)/(n - 1)"

    def test_stable_under_one_more_point(self):
        points = [(n, Fraction(2 * (n - 2), n - 1)) for n in range(2, 9)]
        extended = points + [(9, Fraction(2 * 7, 8))]
        assert lagrange_guess(points)[0] == lagrange_guess(extended)[0]

    def test_rejects_bad_inputs(self):
        pts = [(n, Fraction(n)) for n in range(4)]
        with pytest.raises(ValueError, match="at least 4"):
            lagrange_guess(pts[:3])
        with pytest.raises(ValueError, match="distinct"):
            lagrange_guess(pts + [(0, Fraction(5))])
        with pytest.raises(ValueError, match="target"):
            lagrange_guess(pts, target="mode")

    def test_rejects_non_integral_n(self):
        points = [(Fraction(5, 2), 1), (3, Fraction(5, 12)), (4, Fraction(1, 2)),
                  (5, Fraction(7, 12)), (6, Fraction(2, 3))]
        with pytest.raises(ValueError, match="5/2"):
            lagrange_guess(points)
        with pytest.raises(ValueError, match="2.5"):
            lagrange_guess([(2.5, 1)] + points[1:])
        # integral Fractions and floats are still nodes
        exact = [(n, Fraction(n + 2, 12)) for n in range(2, 7)]
        mixed = [(Fraction(n), v) if n % 2 else (float(n), v) for n, v in exact]
        assert lagrange_guess(mixed) == lagrange_guess(exact)
        assert [str(f) for f in lagrange_guess(mixed)] == ["(n + 2)/12"]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_newton_reference(self, seed):
        rng = random.Random(seed)
        for trial in range(25):
            k = rng.randint(4, 9)
            start = rng.randint(-8, 8)
            xs = list(range(start, start + k)) if trial % 2 else sorted(
                rng.sample(range(-12, 16), k))
            kind = trial % 5
            if kind == 0:
                values = [0] * k
            elif kind == 1:
                values = [rng.uniform(-3, 3) for _ in xs]
            elif kind == 2:
                values = [Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                          for _ in xs]
            else:
                # f(n) / (a n + b)^c, with a free value where a n + b = 0
                f = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                     for _ in range(rng.randint(1, k - 2))]
                a, b = rng.choice([-2, -1, 1, 2, 3]), rng.randint(-3, 3)
                c = rng.randint(0, 5)
                values = [sum(co * x ** i for i, co in enumerate(f))
                          / Fraction(a * x + b) ** c if a * x + b
                          else Fraction(rng.randint(-5, 5)) for x in xs]
            points = list(zip(xs, values))
            rng.shuffle(points)
            formulas = lagrange_guess(points)
            got = [(f.numerator, f.a, f.b, f.c) for f in formulas]
            assert got == oracles.guess_formulas(points), points
            # lagrange_guess does not recheck its formulas at the points
            for f in formulas:
                assert all(f.evaluate(n) == Fraction(v) for n, v in points), (f, points)

    def test_all_zero_data_order(self):
        # every denominator fits zero; the sort key ties b against -b, so
        # the order among those is the search order, +b first
        pairs = [(1, 0), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]
        want = [(0, 0, 0)] + [(a, b, c) for c in range(1, 6) for a, b in pairs]
        for xs in (range(3, 10), range(-7, -2)):
            formulas = lagrange_guess([(n, 0) for n in xs])
            assert [(f.a, f.b, f.c) for f in formulas] == want
            assert all(f.numerator == (0,) for f in formulas)

    def test_inconsistent_data_finds_nothing(self):
        # degree-5 interpolant through 6 points has no margin
        points = [(n, Fraction(n ** 5 + 1, 3)) for n in range(1, 7)]
        assert lagrange_guess(points) == []


class TestFindStat:
    @staticmethod
    def seed_cache(directory, sizes=(2, 3, 4)):
        lines = []
        for n in sizes:
            for w in oracles.iter_windows("A", n):
                lines.append(f"[{','.join(map(str, w))}];{oracles.des_of(w, 'A')}")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "St000021.csv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")

    @staticmethod
    def serve(monkeypatch, payload):
        """A fake requests module whose every download returns payload."""

        class Response:
            content = payload

            def raise_for_status(self):
                pass

        fake = types.ModuleType("requests")
        fake.get = lambda url, timeout: Response()
        monkeypatch.setitem(sys.modules, "requests", fake)

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError, match="StNNNNNN"):
            fetch_findstat("21")

    def test_cache_hit_parses_without_network(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
        self.seed_cache(tmp_path / "findstat")
        ds = fetch_findstat("St000021")
        assert ds.histograms[4] == tuple(oracles.TALLY_DES_A3)
        assert fetch_findstat("St000021") == ds

    def test_env_cache_dir_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
        self.seed_cache(tmp_path / "findstat", sizes=(2, 3))
        ds = fetch_findstat("St000021")
        assert ds.histograms[3] == (1, 4, 1)

    def test_download_does_not_use_a_fixed_temporary_name(self, tmp_path, monkeypatch):
        # a directory squatting on the old fixed temporary name, as a
        # concurrent downloader's file would, does not stop the write
        payload = b"[1,2];0\n[2,1];1\n"
        self.serve(monkeypatch, payload)
        monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
        directory = tmp_path / "findstat"
        (directory / "St000021.tmp").mkdir(parents=True)
        ds = fetch_findstat("St000021")
        assert ds.histograms[2] == (1, 1)
        assert (directory / "St000021.csv").read_bytes() == payload
        assert sorted(p.name for p in directory.iterdir()) == ["St000021.csv",
                                                               "St000021.tmp"]

    def test_unopenable_cache_entry_is_downloaded_again(self, tmp_path, monkeypatch):
        # a directory where the export should be cannot be read or replaced:
        # the download is parsed as it is, with one warning for the write
        payload = b"[1,2];0\n[2,1];1\n"
        self.serve(monkeypatch, payload)
        monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
        entry = tmp_path / "findstat" / "St000021.csv"
        entry.mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match="could not write") as caught:
            ds = fetch_findstat("St000021")
        assert len(caught) == 1
        assert ds.name == "St000021"
        assert ds.histograms[2] == (1, 1)
        assert entry.is_dir()
        assert [p.name for p in entry.parent.iterdir()] == ["St000021.csv"]

    def test_cache_miss_offline_is_explicit(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path / "empty"))
        with pytest.raises(RuntimeError, match="no cached copy"):
            fetch_findstat("St000099")
