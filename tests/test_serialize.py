"""The column writers of ``serialize`` against the ``csv``/``json`` code they replace.

``old_*`` below are the writers as they were before the column writer: one
``csv.writer`` row per point, entry or member, and ``points.json`` through
``json.dumps(sort_keys=True, indent=2)``.  The new writers must produce the
same bytes.  The sha256 pins of the last test were taken from the old
writers on small Fibonacci and Ammann-Beenker runs.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aperiodic import cli
from aperiodic.autocorr import AlmostPeriods
from aperiodic.errors import DuplicatePoint
from aperiodic.pointset import Box, IndexedPointSet
from aperiodic.serialize import almost_periods_to_csv, peak_table_to_csv, pointset_to_csv
from aperiodic.spectral import PeakEntry, PeakTable


def old_pointset_to_csv(pset, path):
    k = 0 if pset.index is None else pset.index.shape[1]
    m = 0 if pset.star is None else pset.star.shape[1]
    header = ([f"n{i}" for i in range(k)]
              + [f"x{i}" for i in range(pset.dim)]
              + [f"s{i}" for i in range(m)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in range(len(pset)):
            out = []
            if k:
                out.extend(int(v) for v in pset.index[row])
            out.extend(repr(float(v)) for v in pset.physical[row])
            if m:
                out.extend(repr(float(v)) for v in pset.star[row])
            writer.writerow(out)


def old_points_json(pset) -> str:
    out = {
        "count": len(pset),
        "region": pset.region.to_json(),
        "physical": pset.physical.tolist(),
    }
    if pset.index is not None:
        out["index"] = pset.index.tolist()
    if pset.star is not None and pset.star.shape[1]:
        out["star"] = pset.star.tolist()
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def old_peak_table_to_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(table.entries[0].k) if table.entries else 1
        writer.writerow([f"k{i}" for i in range(dim)] + ["re", "im", "intensity", "is_control"])
        for entry in table.entries + table.controls:
            amp = entry.amplitudes[-1]
            writer.writerow([repr(float(v)) for v in entry.k]
                            + [repr(float(amp.real)), repr(float(amp.imag)),
                               repr(entry.intensity), int(entry.is_control)])


def old_almost_periods_to_csv(ap, path):
    rows = ap.to_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(rows[0]["delta"]) if rows else 1
        writer.writerow([f"delta{i}" for i in range(dim)] + ["d", "gap_to_next"])
        for i, row in enumerate(rows):
            if dim == 1 and i + 1 < len(rows):
                gap = rows[i + 1]["delta"][0] - row["delta"][0]
            else:
                gap = ""
            writer.writerow([repr(v) for v in row["delta"]]
                            + [repr(row["d"]), repr(gap) if gap != "" else ""])


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
INDICES = st.one_of(st.sampled_from((0, -1, 2**63 - 1, -2**63)),
                    st.integers(-2**63, 2**63 - 1))


def scratch_dir(tmp_path_factory):
    """One directory that every example of a property test overwrites."""
    path = tmp_path_factory.getbasetemp() / "serialize"
    path.mkdir(exist_ok=True)
    return path


def float_arrays(n, cols):
    return hnp.arrays(np.float64, (n, cols), elements=FLOATS)


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    physical = draw(hnp.arrays(np.float64, (n, d), elements=FLOATS, unique=True))
    index = draw(st.one_of(st.none(), st.integers(0, 4).flatmap(
        lambda k: hnp.arrays(np.int64, (n, k), elements=INDICES))))
    star = draw(st.one_of(st.none(), st.integers(0, 3).flatmap(lambda m: float_arrays(n, m))))
    lo = draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d))
    region = Box.make(lo, [v + 1.0 for v in lo])
    try:
        return IndexedPointSet(physical, region, index=index, star=star)
    except DuplicatePoint:
        # distinct rows closer than the duplicate tolerance, e.g. 0.0 and 5e-324
        assume(False)


@given(pset=point_sets())
@settings(max_examples=150, deadline=None)
def test_pointset_writers_match_csv_and_json_modules(pset, tmp_path_factory):
    tmp = scratch_dir(tmp_path_factory)
    pointset_to_csv(pset, tmp / "new.csv", tmp / "new.json")
    old_pointset_to_csv(pset, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    assert (tmp / "new.json").read_text() == old_points_json(pset)


def test_pointset_edge_cases(tmp_path):
    region = Box.make([-1.0, -1.0], [1.0, 1.0])
    cases = [
        IndexedPointSet(np.zeros((0, 2)), region),
        IndexedPointSet(np.zeros((0, 2)), region, index=np.zeros((0, 4), dtype=np.int64),
                        star=np.zeros((0, 2))),
        IndexedPointSet([[-0.0, 0.0], [math.nan, math.inf]], region,
                        index=[[2**63 - 1, -2**63], [0, -1]], star=np.zeros((2, 0))),
        IndexedPointSet([[0.5, -math.inf]], region, index=np.zeros((1, 0), dtype=np.int64),
                        star=[[math.nan, -0.0]]),
    ]
    for pset in cases:
        pointset_to_csv(pset, tmp_path / "new.csv", tmp_path / "new.json")
        pointset_to_csv(pset, tmp_path / "alone.csv")
        old_pointset_to_csv(pset, tmp_path / "old.csv")
        old = (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes() == old
        assert (tmp_path / "alone.csv").read_bytes() == old
        assert (tmp_path / "new.json").read_text() == old_points_json(pset)


@st.composite
def peak_tables(draw):
    dim = draw(st.integers(1, 3))

    def entry(is_control):
        k = draw(float_arrays(1, dim))[0]
        re, im = draw(float_arrays(1, 2))[0]
        return PeakEntry(k, None, np.array([0.0, complex(re, im)]), is_control)

    entries = [entry(False) for _ in range(draw(st.integers(0, 5)))]
    controls = [entry(True) for _ in range(draw(st.integers(0, 3)))]
    return PeakTable(entries, controls, [], 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@given(table=peak_tables())
@settings(max_examples=100, deadline=None)
def test_peak_table_writer_matches_csv_module(table, tmp_path_factory):
    tmp = scratch_dir(tmp_path_factory)
    peak_table_to_csv(table, tmp / "new.csv")
    old_peak_table_to_csv(table, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@st.composite
def almost_period_lists(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    members = draw(float_arrays(n, dim))
    d_values = draw(float_arrays(n, 1))[:, 0]
    return AlmostPeriods(0.1, members, d_values, 0.0, 10.0)


@given(ap=almost_period_lists())
@settings(max_examples=100, deadline=None)
def test_almost_periods_writer_matches_csv_module(ap, tmp_path_factory):
    tmp = scratch_dir(tmp_path_factory)
    almost_periods_to_csv(ap, tmp / "new.csv")
    old_almost_periods_to_csv(ap, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


FIB = {"name": "fibonacci"}
AB = {"name": "ammann_beenker"}
# (config, {artifact: sha256 of the file written by the old writers})
PINNED_RUNS = {
    "fib-generate": (
        {"operation": "generate", "scheme": FIB, "region": {"lo": [-1.0], "hi": [300.0]}},
        {"points.csv": "e717dd61ac7c8eefbe2d226a3c33fe9b92b902c063b145a54e1a9379fe50b4b7",
         "points.json": "21b0dec6789940270055ebc09d6213f58337c1025d7b6efad9f121bda86681a7"}),
    "ab-generate": (
        {"operation": "generate", "scheme": AB,
         "region": {"lo": [-6.0, -6.0], "hi": [6.0, 6.0]}},
        {"points.csv": "585954f79c052874aa45f259b5ff63aabb3d7c7984ba59c059cf17753ffc1446",
         "points.json": "6c26964b2c2eda12bc116edadd13598162712bed4c0e76a5010dd71255cf6458"}),
    "fib-diffract": (
        {"operation": "diffract", "scheme": FIB, "region": {"lo": [0.0], "hi": [300.0]},
         "boxes": {"sizes": [100, 200, 300]}, "seed": 5,
         "params": {"k_max": 1.5, "k_internal_max": 1.0, "n_controls": 4}},
        {"peaks.csv": "4022b13d981ad19719e0ff838fd5de0404a6691fb1d1d589a019b78e3b200eb0"}),
    "ab-diffract": (
        {"operation": "diffract", "scheme": AB,
         "region": {"lo": [0.0, 0.0], "hi": [10.0, 10.0]},
         "boxes": {"sizes": [5, 10]}, "seed": 5, "params": {"k_max": 0.8, "n_controls": 4}},
        {"peaks.csv": "7fcf99017584d3e97c717d71bbcaf411211ab04f3f337b44360dd99ba74c577e"}),
    "fib-almost-periods": (
        {"operation": "almost_periods", "scheme": FIB, "region": {"lo": [-21.0], "hi": [221.0]},
         "boxes": {"sizes": [100, 200], "anchored": True},
         "params": {"radius": 20.0, "eps_fracs": [0.2, 0.4]}},
        {"almost_periods_0.csv": "43b23964aa563b6d7814d4ee440884eb6f029ccbacc37cb823fd09f8de9a328f",
         "almost_periods_1.csv": "fa156b5c4d995bff03b01b4c2cb733b05b464360fd8f67a5bf4c0754abd3fbbf"}),
    "ab-almost-periods": (
        {"operation": "almost_periods", "scheme": AB,
         "region": {"lo": [-4.0, -4.0], "hi": [14.0, 14.0]},
         "boxes": {"sizes": [5, 10], "anchored": True},
         "params": {"radius": 3.0, "eps_fracs": [0.3]}},
        {"almost_periods_0.csv": "6575087eff945987136dfb85dddc46153608a1d89e785d03b7c70fb00aa12f2e"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    cfg, pins = PINNED_RUNS[name]
    cli.execute(cfg, tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pins}
    assert digests == pins
