"""The paired-run summary of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive_and_single_value():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_win_share_spread_and_ratio():
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [150.0, 110.0, 80.0, 160.0, 140.0]  # one tie, one loss
    lat_base = [2.0, 2.0, 2.0, 2.0, 2.0]
    lat_change = [1.0, 3.0, 1.0, 1.0, 2.0]  # lower is better; one tie, one loss
    pairs = [({"tput": b, "lat": lb}, {"tput": c, "lat": lc})
             for b, c, lb, lc in zip(base, change, lat_base, lat_change)]
    rows = bench_pairs.summarize(pairs, {"tput": "higher", "lat": "lower", "absent": "lower"})
    assert set(rows) == {"tput", "lat"}
    t = rows["tput"]
    assert t["base"] == (95.0, 100.0, 105.0)
    assert t["change"] == (110.0, 140.0, 150.0)
    assert t["win_share"] == pytest.approx(3 / 5)
    assert t["base_spread"] == 10.0
    assert t["ratio"] == pytest.approx(1.4)
    lat = rows["lat"]
    assert lat["win_share"] == pytest.approx(3 / 5)
    assert lat["base_spread"] == 0.0
    assert lat["ratio"] == pytest.approx(0.5)
    assert "tput" in bench_pairs.format_summary(rows)


def test_diagnostic_row_has_no_win_share():
    pairs = [({"cores": 1.8}, {"cores": 1.2}), ({"cores": 1.7}, {"cores": None})]
    assert bench_pairs.summarize(pairs, {"cores": None}) == {}
    rows = bench_pairs.summarize(pairs[:1], {"cores": None})
    assert rows["cores"]["win_share"] is None
    assert " - " in bench_pairs.format_summary(rows)


def test_train_cores_is_throughput_times_cpu_time():
    assert bench_pairs.train_cores({"train_samples_per_s": 500.0, "cpu_ms_per_sample": 3.6}) == \
        pytest.approx(1.8)
    assert bench_pairs.train_cores({"train_samples_per_s": 500.0}) is None


def _stat(user, idle, steal):
    # user nice system idle iowait irq softirq steal guest guest_nice
    return (f"cpu  {user} 0 10 {idle} 0 0 0 {steal} 7 0\n"
            f"cpu0 {user} 0 10 {idle} 0 0 0 {steal} 7 0\nintr 1 2 3\n")


def test_steal_share_from_two_proc_stat_readings():
    before, after = _stat(100, 800, 50), _stat(160, 910, 80)
    # 60 user + 110 idle + 30 steal ticks passed; guest ticks are inside user.
    assert bench_pairs.steal_share(before, after) == pytest.approx(30 / 200)
    assert bench_pairs.steal_share(before, before) is None
    with pytest.raises(ValueError):
        bench_pairs.steal_share("intr 1 2 3\n", after)


def test_per_pair_table_shows_the_chosen_metric():
    pairs = [({"train_samples_per_s": 120.0, "infer_p50_ms": 2.644, "train_cores": 1.8},
              {"train_samples_per_s": 130.0, "infer_p50_ms": 2.187, "steal_share": 0.01})]
    default = bench_pairs.format_pairs(pairs, [5101])
    assert "train_samples_per_s" in default.splitlines()[0]
    assert "120" in default and "2.644" not in default
    table = bench_pairs.format_pairs(pairs, [5101], metric="infer_p50_ms")
    header, row = table.splitlines()
    assert "base infer_p50_ms" in header and "chg infer_p50_ms" in header
    assert "2.644" in row and "2.187" in row and "120" not in row
    assert row.split()[:2] == ["0", "5101"]
    assert len(header) == len(row)
    missing = bench_pairs.format_pairs([({}, {})], [1], metric="infer_p50_ms")
    assert missing.splitlines()[1].split()[2] == "-"


def test_per_pair_table_shows_minor_faults_per_side():
    pairs = [({"train_samples_per_s": 120.0, "minor_faults": 452310},
              {"train_samples_per_s": 130.0, "minor_faults": 28114})]
    header, row = bench_pairs.format_pairs(pairs, [7]).splitlines()
    assert header.split().count("faults") == 2
    assert row.split() == ["0", "7", "120", "-", "-", "452310", "130", "-", "-", "28114"]
    assert len(header) == len(row)
    assert bench_pairs.format_pairs([({}, {})], [1]).splitlines()[1].split()[-1] == "-"


def test_child_minor_faults_count_a_finished_child():
    before = bench_pairs.child_minor_faults()
    subprocess.run([sys.executable, "-c", "b'1' * (8 << 20)"], check=True)
    assert bench_pairs.child_minor_faults() > before


def test_unknown_metric_is_rejected_before_any_run(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "HEAD", "--workload", "rkfold-pet8", "--pairs", "1",
                          "--seed0", "0", "--metric", "no_such_metric"])
    assert "--metric" in capsys.readouterr().err


def test_summary_marks_worse_medians_and_states_the_claim_verdict():
    base = [500.0, 510.0, 490.0, 505.0, 495.0, 520.0, 480.0, 515.0, 485.0, 500.0]
    change = [b + 120.0 for b in base[:9]] + [490.0]  # nine wins, one loss
    pairs = [({"tput": b, "lat": 1.0, "cores": 1.8}, {"tput": c, "lat": 1.2, "cores": 1.8})
             for b, c in zip(base, change)]
    rows = bench_pairs.summarize(pairs, {"tput": "higher", "lat": "lower", "cores": None},
                                 {"tput": 0.1, "lat": 0.1})
    assert rows["tput"]["worse"] is False and rows["lat"]["worse"] is True
    assert rows["cores"]["worse"] is None
    assert rows["tput"]["gain"] == pytest.approx(117.5)
    assert rows["lat"]["gain"] == pytest.approx(-0.2)
    table = bench_pairs.format_summary(rows).splitlines()
    assert table[0].split()[-1] == "worse"
    assert [line.split()[-1] for line in table[1:]] == ["no", "WORSE", "-"]

    # 0.9 wins and a median gain of 117.5 against a base IQR of 17.5: the claim holds.
    assert rows["tput"]["win_share"] == pytest.approx(0.9)
    assert rows["tput"]["base_spread"] == pytest.approx(17.5)
    assert bench_pairs.claim_verdict("tput", rows["tput"]).startswith("claim on tput: holds")
    # Too few wins.
    eight = bench_pairs.summarize(pairs[:8] + [(b, {**c, "tput": 400.0}) for b, c in pairs[8:]],
                                  {"tput": "higher"})["tput"]
    assert eight["win_share"] == pytest.approx(0.8)
    assert "fails (win share 0.80 < 0.9" in bench_pairs.claim_verdict("tput", eight)
    # Every pair won, but the gain is inside the base's own spread.
    small = bench_pairs.summarize([(b, {**c, "tput": b["tput"] + 10.0}) for b, c in pairs],
                                  {"tput": "higher"})["tput"]
    assert small["win_share"] == 1.0
    assert "fails" in bench_pairs.claim_verdict("tput", small)
    assert "median gain 10 <= base IQR 17.5" in bench_pairs.claim_verdict("tput", small)
    # A lower-is-better metric that got worse fails on both counts.
    assert "fails (win share 0.00 < 0.9" in bench_pairs.claim_verdict("lat", rows["lat"])


def _verdict(base, change, direction="lower", bound=0.1):
    pairs = [({"m": b}, {"m": c}) for b, c in zip(base, change)]
    row = bench_pairs.summarize(pairs, {"m": direction}, {"m": bound})["m"]
    return row, bench_pairs.format_summary({"m": row}).splitlines()[1].split()[-1]


def test_worse_needs_a_median_beyond_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]  # median 100, IQR 1
    # 5 % worse in the median: inside a 0.1 bound.
    row, verdict = _verdict(base, [b + 5.0 for b in base])
    assert row["gain"] == pytest.approx(-5.0)
    assert row["worse"] is False and row["unresolved"] is False and verdict == "no"
    # 12 % worse: beyond it.
    row, verdict = _verdict(base, [b + 12.0 for b in base])
    assert row["worse"] is True and verdict == "WORSE"
    # The same 12 % in a higher-is-better metric is a gain.
    row, verdict = _verdict(base, [b + 12.0 for b in base], direction="higher")
    assert row["worse"] is False and verdict == "no"
    # Without a bound any worse median counts.
    row, verdict = _verdict(base, [b + 0.5 for b in base], bound=0.0)
    assert row["worse"] is True and verdict == "WORSE"


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    base = [80.0, 120.0, 90.0, 110.0, 100.0]  # median 100, IQR 20 > 0.1 * 100
    row, verdict = _verdict(base, [101.0, 119.0, 92.0, 108.0, 99.0])
    assert row["base_spread"] == pytest.approx(20.0)
    assert row["worse"] is False and row["unresolved"] is True and verdict == "unresolved"
    # Every change run below every base run: the spread does not matter.
    row, verdict = _verdict(base, [70.0, 75.0, 60.0, 79.0, 65.0])
    assert row["unresolved"] is False and verdict == "no"
    # A median worse by more than the bound is WORSE even when the spread is wide.
    row, verdict = _verdict(base, [b + 15.0 for b in base])
    assert row["worse"] is True and row["unresolved"] is True and verdict == "WORSE"
    # A diagnostic gets neither verdict.
    pairs = [({"m": b}, {"m": b}) for b in base]
    diag = bench_pairs.summarize(pairs, {"m": None}, {"m": 0.1})["m"]
    assert diag["worse"] is None and diag["unresolved"] is None
