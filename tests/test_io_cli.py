"""File formats and the command-line surface (exit codes, determinism)."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconf import (
    NAMED_POLICIES,
    ConfoundedDistribution,
    DataFormatError,
    ValidationError,
    ate_exact,
    binary_conditional,
    general_lower_pair,
    joint_from_parts,
    parts_from_joint,
    policy_lower_pair,
)
import deconf.io as dio
from deconf import cli
from deconf.cli import build_parser, main
from deconf.io import (
    CURVE_HEADER,
    read_dataset_csv,
    read_error_curve_csv,
    read_experiment_config,
    read_full_table_csv,
    read_instance,
    read_joint,
    read_marginal,
    read_stratified_csv,
    write_error_curve_csv,
    write_instance,
    write_joint_instance,
)
from deconf.model import Parts

from test_estimation import records_from_cells
from test_model import example_instance


@pytest.fixture
def instance_file(tmp_path):
    a, q = example_instance()
    path = tmp_path / "instance.json"
    write_instance(path, a, q)
    return path


class TestInstanceFiles:
    def test_parts_roundtrip(self, instance_file):
        a, q = example_instance()
        loaded = read_instance(instance_file)
        assert isinstance(loaded, Parts)
        assert np.allclose(loaded.a.a, a.a)
        assert np.allclose(loaded.q.q, q.q)
        # no joint table on disk: read_joint builds a * q from the parts
        built = joint_from_parts(loaded.a, loaded.q)
        assert read_joint(instance_file).p.tobytes() == built.p.tobytes()

    def test_joint_roundtrip(self, tmp_path):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        path = tmp_path / "joint.json"
        write_joint_instance(path, joint)
        assert np.allclose(read_joint(path).p, joint.p)
        loaded = read_instance(path)
        assert isinstance(loaded, Parts)
        split = parts_from_joint(joint)
        assert np.allclose(loaded.a.a, split.a.a) and np.allclose(loaded.q.q, split.q.q)

    def test_bad_sum_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"k": 2, "a": [0.5, 0.2, 0.1, 0.1], "q": [[0.5, 0.5]] * 4})
        )
        with pytest.raises(DataFormatError, match="a: must sum to 1"):
            read_instance(path)

    def test_bad_q_row_names_group(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "k": 2,
                    "a": [0.25, 0.25, 0.25, 0.25],
                    "q": [[0.5, 0.5], [0.9, 0.2], [0.5, 0.5], [0.5, 0.5]],
                }
            )
        )
        with pytest.raises(DataFormatError, match=r"q row \(y=0,t=1\)"):
            read_instance(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k": 2}))
        with pytest.raises(DataFormatError, match="expected fields"):
            read_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            read_instance(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"k": 2.9, "a": [0.25] * 4, "q": [[0.5, 0.5]] * 4}, "must be an integer"),
            ({"k": True, "a": [0.25] * 4, "q": [[0.5, 0.5]] * 4}, "must be an integer"),
            ({"k": "2", "a": [0.25] * 4, "q": [[0.5, 0.5]] * 4}, "must be an integer"),
            ({"k": 3, "p": [[0.125, 0.125]] * 4}, "k=3 does not match"),
        ],
        ids=["float", "bool", "string", "joint-mismatch"],
    )
    def test_bad_k_field_exits_2(self, tmp_path, capsys, raw, message):
        path = tmp_path / "bad_k.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DataFormatError, match=message):
            read_instance(path)
        assert main(["ate", "--instance", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_joint_is_read_or_built_only_for_ate(self, instance_file, tmp_path, capsys):
        a, q = example_instance()
        joint_file = tmp_path / "joint.json"
        written = joint_from_parts(a, q)
        write_joint_instance(joint_file, written)
        # a parts-form file's joint is built from its parts; a joint-form one is read as is
        built = joint_from_parts(*read_instance(instance_file))
        for path, expected in ((instance_file, built), (joint_file, written)):
            joint = read_joint(path)
            assert joint.p.tobytes() == expected.p.tobytes()
            assert main(["ate", "--instance", str(path)]) == 0
            out = capsys.readouterr().out
            assert out == f"ate = {ate_exact(joint):.10g}\ndegenerate strata: none\n"

    def test_joint_checked_only_where_ate_builds_it(self, tmp_path, capsys):
        # a and each q row sum to 1 + 0.9e-12, inside the 1e-12 tolerance,
        # so the product's total, 1 + 1.8e-12, fails only the joint's check
        path = tmp_path / "drift.json"
        a, q = [0.25 + 2.25e-13] * 4, [[0.5 + 4.5e-13] * 2] * 4
        path.write_text(json.dumps({"k": 2, "a": a, "q": q}))
        total = float((np.array(a)[:, None] * np.array(q)).sum())
        assert read_instance(path).q.k == 2
        with pytest.raises(DataFormatError) as err:
            read_joint(path)
        message = f"{path}: p: must sum to 1 (got {total!r})"
        assert str(err.value) == message
        assert main(["ate", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_joint_k_may_be_omitted_or_match(self, tmp_path):
        for raw in ({"p": [[0.125, 0.125]] * 4}, {"k": 2, "p": [[0.125, 0.125]] * 4}):
            path = tmp_path / "joint.json"
            path.write_text(json.dumps(raw))
            assert read_instance(path).q.k == 2


class TestDatasetCsv:
    def test_mixed_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,1,0\n0,0,\n1,0,1\n")
        rows = read_dataset_csv(path, k=2)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, 1, 0], [0, 0, -1], [1, 0, 1]]

    def test_bad_row_number_reported(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,1,0\n2,0,\n")
        with pytest.raises(DataFormatError, match="row 3"):
            read_dataset_csv(path, k=2)

    def test_z_out_of_range(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,1,5\n")
        with pytest.raises(DataFormatError, match=r"row 2: z must lie in \[0, 2\)"):
            read_dataset_csv(path, k=2)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("treat,out,conf\n1,1,0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_dataset_csv(path, k=2)

    @pytest.mark.parametrize("body", ["1,1,0\n0,0,\n1,0,1\n", "1,1,\n0,0,\n"])
    def test_k_checked_before_the_file_is_read(self, tmp_path, body):
        # with a revealed z or without one, the message names k
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n" + body)
        strat = tmp_path / "strat.csv"
        strat.write_text("x,y,t,z\n" + "".join(f"0,{line}\n" for line in body.split()))
        full = tmp_path / "full.csv"  # every z revealed
        full.write_text("y,t,z\n" + body.replace(",\n", ",0\n"))
        readers = ((read_dataset_csv, path), (read_stratified_csv, strat), (read_full_table_csv, full))
        for read, p in readers:
            with pytest.raises(ValidationError) as info:
                read(p, k=1)
            assert str(info.value) == "k must be >= 2, got 1"
            for k in (2.5, "3", True):
                with pytest.raises(ValidationError) as info:
                    read(p, k=k)
                assert str(info.value) == f"k must be an integer, got {k!r}"
            assert read(p, k=np.int64(3)).tolist() == read(p, k=3).tolist()

    def test_stratified_reader(self, tmp_path):
        path = tmp_path / "strat.csv"
        path.write_text("x,y,t,z\n0,1,1,0\n0,0,0,\n1,1,0,1\n1,0,1,0\n")
        rows = read_stratified_csv(path, k=2)
        assert rows.dtype == np.int64
        assert sorted(np.unique(rows[:, 0]).tolist()) == [0, 1]
        assert (rows[:, 3] == -1).sum() == 1

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,1,0\n0,1\n", "row 3: expected 3 fields, got 2"),
            ("1,1,0\n\n", "row 3: expected 3 fields, got 0"),
            ("0,1,x\n1,2,0\n", "row 2: z must be an integer, got 'x'"),
            ("0, 2 ,1\n", "row 2: t must be 0 or 1, got '2'"),
            ("0,1,0\n1,1,3\n", r"row 3: z must lie in [0, 3), got 3"),
            ("0,1,0\n1,1,0\n1,1\n1,5,0\n", "row 4: expected 3 fields, got 2"),
        ],
    )
    def test_dataset_messages(self, tmp_path, body, message):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n" + body)
        with pytest.raises(DataFormatError) as info:
            read_dataset_csv(path, k=3)
        assert str(info.value) == message

    def test_dataset_accepts_int_spellings(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n 1,0 ,+1\n0,1, \n1,1,01\n")
        rows = read_dataset_csv(path, k=2)
        assert rows.tolist() == [[1, 0, 1], [0, 1, -1], [1, 1, 1]]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,1,0\n 1.5,0,0,\n", "row 3: x must be an integer, got ' 1.5'"),
            ("0,1,1,0\n-1,0,0,\n", "row 3: x must be >= 0, got -1"),
            ("0,1,1\n", "row 2: expected 4 fields, got 3"),
            ("0,1,1,0\n2,1,0,2\n", r"row 3: z must lie in [0, 2), got 2"),
            ("x,1,1,0\n0,7,0,1\n", "row 2: x must be an integer, got 'x'"),
            ("0,1,1,0\n" + "9" * 20 + ",1,1,0\n", f"row 3: x must be below 2**63, got {'9' * 20}"),
        ],
    )
    def test_stratified_messages(self, tmp_path, body, message):
        path = tmp_path / "strat.csv"
        path.write_text("x,y,t,z\n" + body)
        with pytest.raises(DataFormatError) as info:
            read_stratified_csv(path, k=2)
        assert str(info.value) == message

    def test_stratified_accepts_int_spellings(self, tmp_path):
        path = tmp_path / "strat.csv"
        path.write_text("x,y,t,z\n+3,1,1, 0\n 007,0,0,\n12,1 ,0,+1\n")
        x, y, t, z = read_stratified_csv(path, k=2).T
        assert x.tolist() == [3, 7, 12]
        assert y.tolist() == [1, 0, 1]
        assert z.tolist() == [0, -1, 1]

    @pytest.mark.parametrize("x", ["1_000", "0_1", "1_0_0"])
    def test_x_rejects_underscore_grouping(self, tmp_path, x):
        path = tmp_path / "strat.csv"
        path.write_text(f"x,y,t,z\n0,1,1,0\n{x},0,0,\n")
        with pytest.raises(DataFormatError) as info:
            read_stratified_csv(path, k=2)
        assert str(info.value) == f"row 3: x must be an integer, got {x!r}"

    @pytest.mark.parametrize("z", ["0_1", "1_", "_1"])
    def test_z_rejects_underscore_grouping(self, tmp_path, z):
        path = tmp_path / "data.csv"
        path.write_text(f"y,t,z\n0,1,0\n1,1,{z}\n")
        for read in (partial(read_dataset_csv, k=3), partial(read_full_table_csv, k=3)):
            with pytest.raises(DataFormatError) as info:
                read(path)
            assert str(info.value) == f"row 3: z must be an integer, got {z!r}"

    # Arabic-Indic two, fullwidth one, an ASCII digit after an Arabic-Indic zero,
    # and ASCII digits behind a no-break space or a control character
    @pytest.mark.parametrize("z", ["\u0662", "\uff11", "\u06601", "\u00a02", "1\x1c"])
    def test_z_rejects_non_ascii_digits(self, tmp_path, z):
        path = tmp_path / "data.csv"
        path.write_text(f"y,t,z\n0,1,0\n1,1,{z}\n", encoding="utf-8")
        for read in (partial(read_dataset_csv, k=3), partial(read_full_table_csv, k=3)):
            with pytest.raises(DataFormatError) as info:
                read(path)
            assert str(info.value) == f"row 3: z must be an integer, got {z!r}"

    @pytest.mark.parametrize("x", ["\u0661\u0662", "\uff15", "7\u0663", "\u20037"])
    def test_x_rejects_non_ascii_digits(self, tmp_path, x):
        path = tmp_path / "strat.csv"
        path.write_text(f"x,y,t,z\n0,1,1,0\n{x},0,0,\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            read_stratified_csv(path, k=2)
        assert str(info.value) == f"row 3: x must be an integer, got {x!r}"

    @pytest.mark.parametrize("bit", ["\u00a01", "0\u2003", "\x1c1"])
    def test_bits_reject_non_ascii_blanks(self, tmp_path, bit):
        path = tmp_path / "data.csv"
        path.write_text(f"y,t,z\n0,1,0\n1,{bit},1\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            read_full_table_csv(path, k=3)
        assert str(info.value) == f"row 3: t must be 0 or 1, got {bit!r}"

    @pytest.mark.parametrize("read", [
        partial(read_dataset_csv, k=2), partial(read_stratified_csv, k=2),
        partial(read_full_table_csv, k=2), read_error_curve_csv,
    ], ids=["dataset", "stratified", "full-table", "curve"])
    def test_empty_file_names_the_path(self, tmp_path, read):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}: empty file"

    def test_stratified_no_rows(self, tmp_path):
        path = tmp_path / "strat.csv"
        path.write_text("x,y,t,z\n")
        with pytest.raises(DataFormatError) as info:
            read_stratified_csv(path, k=2)
        assert str(info.value) == f"{path}: no data rows"


class TestFullTableCsv:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2\n1,0\n", "row 3: expected 3 fields, got 2"),
            ("0,1,2\n1,0,1,1\n", "row 3: expected 3 fields, got 4"),
            ("2,1,0\n", "row 2: y must be 0 or 1, got '2'"),
            ("0,1,0\n1,t,0\n", "row 3: t must be 0 or 1, got 't'"),
            ("0,1,0\n1,1,\n", "row 3: ground-truth tables require z on every row"),
            ("0,1, \n", "row 2: ground-truth tables require z on every row"),
            ("0,1,3\n", r"row 2: z must lie in [0, 3), got 3"),
            ("0,1,-1\n", r"row 2: z must lie in [0, 3), got -1"),
            ("0,1,1.0\n", "row 2: z must be an integer, got '1.0'"),
            ("1,+1,0\n", "row 2: t must be 0 or 1, got '+1'"),
            ("1,2,x\n", "row 2: t must be 0 or 1, got '2'"),
        ],
    )
    def test_messages(self, tmp_path, body, message):
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n" + body)
        with pytest.raises(DataFormatError) as info:
            read_full_table_csv(path, k=3)
        assert str(info.value) == message

    def test_accepts_int_spellings(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n 1,0 , 1\n0,1,+1\n1,1,01\n0,0,2\n")
        records = read_full_table_csv(path, k=3)
        assert records.tolist() == [[1, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, 2]]

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n")
        with pytest.raises(DataFormatError) as info:
            read_full_table_csv(path, k=3)
        assert str(info.value) == f"{path}: no data rows"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("y,t\n0,1\n")
        with pytest.raises(DataFormatError, match="header"):
            read_full_table_csv(path, k=3)

    def test_large_table_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        records = np.column_stack(
            [rng.integers(0, 2, 50_000), rng.integers(0, 2, 50_000), rng.integers(0, 3, 50_000)]
        )
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n" + "".join(f"{y},{t},{z}\n" for y, t, z in records.tolist()))
        assert np.array_equal(read_full_table_csv(path, k=3), records)

    def test_bad_row_deep_in_large_file(self, tmp_path):
        lines = ["0,1,2"] * 50_000
        lines[41_234] = "1,1,7"
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            read_full_table_csv(path, k=3)
        assert str(info.value) == r"row 41236: z must lie in [0, 3), got 7"

    def test_first_bad_row_in_row_order_reported(self, tmp_path):
        # the later row's bad y comes before the earlier rows' bad z column-wise
        lines = ["0,1,2"] * 1_000
        lines[300] = "0,1,x"
        lines[500] = "0,1,9"
        lines[700] = "5,1,0"
        lines[900] = "0,1"
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            read_full_table_csv(path, k=3)
        assert str(info.value) == "row 302: z must be an integer, got 'x'"


# Generated tables: spellings every reader takes (z per reader), spellings some
# reader rejects, and flaws that leave a file to the csv path or make it invalid.
BITS = st.sampled_from(["0", "1", " 0", "1 ", " 1 "])
GOOD = {
    "x": st.tuples(
        st.integers(0, 10**8),
        st.sampled_from(["{}"] * 8 + ["+{}", " 00{}", "{} ", "{}_0", "1{:018}"]),
    ).map(lambda pair: pair[1].format(pair[0])),
    "y": BITS,
    "t": BITS,
}
Z_REQUIRED = ["0", "1", "2", " 1", "+2", "02"]
Z_OPTIONAL = Z_REQUIRED + ["", " "]
BAD = {
    "x": ["-1", "1.5", "", "x", "9" * 20],
    "y": ["+1", "01", "2", "", "y"],
    "t": ["+1", "01", "2", "", "t"],
    "z": ["3", "-1", "1.0", "z", "", " "],
}
ROW_FLAWS = [  # a blank line, a field short, a field over, every cell quoted or tabbed
    lambda cells: [],
    lambda cells: cells[:-1],
    lambda cells: cells + ["0"],
    lambda cells: [f'"{cell}"' for cell in cells],
    lambda cells: [f"\t{cell}" for cell in cells],
]
READERS = {
    "full": (["y", "t", "z"], Z_REQUIRED, partial(read_full_table_csv, k=3), lambda r: (r,)),
    "dataset": (["y", "t", "z"], Z_OPTIONAL, partial(read_dataset_csv, k=3), lambda r: (r,)),
    "stratified": (["x", "y", "t", "z"], Z_OPTIONAL, partial(read_stratified_csv, k=3),
                   lambda r: (r,)),
}


@st.composite
def table_files(draw, header, z_spellings):
    """The bytes of a ``header`` CSV; about a quarter have no flaw and no bad spelling."""
    good = dict(GOOD, z=st.sampled_from(z_spellings))
    rows = draw(st.lists(st.tuples(*(good[name] for name in header)).map(list), max_size=25))
    few = st.sampled_from([0, 0, 0, 0, 1, 2])
    for _ in range(draw(few) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        rows[i][j] = draw(st.sampled_from(BAD[header[j]]))
    for _ in range(draw(few) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from(ROW_FLAWS))(rows[i])
    names = draw(st.sampled_from([header] * 12 + [[n.upper() for n in header],
                                                  [f" {n} " for n in header], header[:-1]]))
    newline = draw(st.sampled_from(["\n"] * 16 + ["\r\n", "\r"]))
    text = newline.join(",".join(cells) for cells in [names] + rows)
    text += draw(st.sampled_from([newline] * 16 + ["", newline * 2]))
    prefix = draw(st.sampled_from([b""] * 24 + [b"\xef\xbb\xbf", b"\xe9"]))
    return prefix + text.encode("ascii")


# Fixed-stride tables: every column keeps one spelling width, so all data
# lines have one length; a comma may move between two cells of a line.
FIXED_GOOD = {
    "y": {1: ["0", "1"], 2: [" 0", "1 ", " 1"]},
    "z": {0: [""], 1: ["0", "1", "2", " "], 2: ["+2", "02", " 1", "2 "],
          9: ["000000001", "        2"]},
}
FIXED_BAD = {
    "y": {1: ["2", "y"], 2: ["+1", "01", "10"]},
    "z": {0: [""], 1: ["3", "z"], 2: ["-1", "1.", "20"], 9: ["1.0000000"]},
}
FIXED_GOOD["t"], FIXED_BAD["t"] = FIXED_GOOD["y"], FIXED_BAD["y"]


def fixed_spellings(name, width):
    """Good and bad spellings ``width`` bytes wide for column ``name``."""
    if name == "x":  # zero-padded, up to 9 digits
        good = st.integers(0, 10**width - 1).map(lambda x: f"{x:0{width}}")
        return good, st.sampled_from(["x" * width, "-" + "1" * (width - 1)])
    return st.sampled_from(FIXED_GOOD[name][width]), st.sampled_from(FIXED_BAD[name][width])


@st.composite
def fixed_stride_files(draw, header):
    """The bytes of a ``header`` CSV whose data lines all have one length."""
    widths = {name: draw(st.integers(1, 9) if name == "x" else st.sampled_from(
        sorted(FIXED_GOOD[name]))) for name in header}
    good, bad = zip(*(fixed_spellings(name, widths[name]) for name in header))
    rows = draw(st.lists(st.tuples(*good).map(list), min_size=1, max_size=25))
    few = st.sampled_from([0, 0, 0, 1, 2])
    for _ in range(draw(few)):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        rows[i][j] = draw(bad[j])
    for _ in range(draw(few)):  # move the comma between cells j and j + 1: 10,1 -> 1,01
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 2))
        cells = rows[i][j] + rows[i][j + 1]
        cut = draw(st.integers(0, len(cells)))
        rows[i][j : j + 2] = cells[:cut], cells[cut:]
    return "".join(",".join(cells) + "\n" for cells in [header] + rows).encode("ascii")


def field_codes(path, header, fixed=True):
    """``_field_codes`` as lists of ints; ``fixed=False`` turns the fixed-stride branch off."""
    with mock.patch.object(dio, "_fixed_fields", dio._fixed_fields if fixed else
                           lambda *args: None):
        codes = dio._field_codes(path, header, len(header))
    return None if codes is None else [column.tolist() for column in codes]


def takes_fixed_branch(path, header):
    """Whether ``_field_codes`` returns codes without a separator scan."""
    with mock.patch.object(dio, "_scan_codes", wraps=dio._scan_codes) as scan:
        codes = dio._field_codes(path, header, len(header))
    return codes is not None and not scan.called


def read_outcome(read, path, arrays):
    """A reader's arrays, or the message of the error it raised."""
    try:
        return [a.tolist() for a in arrays(read(path))]
    except DataFormatError as exc:
        return str(exc)


class TestReaderPaths:
    """The byte-level path agrees with the csv path, which alone raises errors."""

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_byte_path_matches_csv_path(self, name, tmp_path_factory):
        header, z_spellings, read, arrays = READERS[name]
        path = tmp_path_factory.mktemp(name) / "table.csv"
        taken = []

        @given(table_files(header, z_spellings))
        @settings(max_examples=200, deadline=None)
        def check(content):
            path.write_bytes(content)
            taken.append(dio._field_codes(path, header, len(header)) is not None)
            with mock.patch.object(dio, "_read_int_columns", dio._read_int_columns_csv):
                expected = read_outcome(read, path, arrays)
            assert read_outcome(read, path, arrays) == expected

        check()
        assert sum(taken) >= 20  # about a third of the files take the byte path

    def test_plain_table_takes_the_byte_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        records = np.column_stack(
            [rng.integers(0, 2, 50_000), rng.integers(0, 2, 50_000), rng.integers(0, 3, 50_000)]
        )
        path = tmp_path / "table.csv"
        path.write_text("y,t,z\n" + "".join(f"{y},{t},{z}\n" for y, t, z in records.tolist()))

        def no_csv(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain table")

        monkeypatch.setattr(csv, "reader", no_csv)
        assert np.array_equal(read_full_table_csv(path, k=3), records)

    @pytest.mark.parametrize(
        "content",
        [b"y,t,z\r\n0,1,2\r\n", b"\xef\xbb\xbfy,t,z\n0,1,2\n", b"y,t,z\n0,1,\xe9\n",
         b"y,t,z\n0,1,2", b'y,t,z\n0,"1",2\n', b"y,t,z\n0,1,2\n\n", b"y,t,z\n0,1,2,\n",
         b"y,t,z\n0,1\n0,1,2,0\n", b"y,t,z\n0,1,\t2\n", b"y,t,q\n0,1,2\n",
         b"y,t,z\n0,1,123456789\n", b"y,t,z\n", b"",
         # fixed-stride files: a one-byte field of ", comma, tab or \x0b; a
         # header that reads as y,t,z only once its control byte is stripped
         b'y,t,z\n0,1,2\n0,",2\n', b"y,t,z\n0,1,2\n0,1,,\n", b"y,t,z\n0,1,2\n\t,1,2\n",
         b"y,t,z\n0,1,2\n0,1,\x0b\n", b"y,t,z\x0b\n0,1,2\n0,1,2\n"],
    )
    def test_byte_path_passes_what_it_cannot_prove_simple(self, tmp_path, content):
        path = tmp_path / "table.csv"
        path.write_bytes(content)
        assert dio._field_codes(path, ["y", "t", "z"], 3) is None

    def test_distinct_codes_match_numpy_unique(self, monkeypatch):
        # each code parses to `step` times the rank of its first parse call, so
        # the parsed column is `step` times the inverse of the distinct codes in
        # parse order; at step 2 no byte column of two or more distinct bytes
        # parses to its bytes plus a constant, so the lookup table fills it
        monkeypatch.setattr(dio, "_spelling", lambda code: code)
        rng = np.random.default_rng(6)
        inputs = [rng.integers(0, high, 1_000).astype(dtype) for high, dtype in (
            (3, np.uint64), (1 << 8, np.uint8), (1 << 16, np.uint64), (1 << 40, np.uint64))]
        inputs += [
            rng.integers(0x30, 0x33, (1_000, 6)).astype(np.uint8)[:, 2],  # a grid column
            np.full(1_000, 0x31, dtype=np.uint8),  # one distinct byte
            rng.permutation(np.arange(0x20, 0x7F, dtype=np.uint8).repeat(9)),  # all printable
        ]
        for codes in inputs:
            for step in (1, 2):
                distinct, parsed = [], np.empty(codes.size, dtype=np.int64)
                assert dio._parse_codes(codes, lambda code, row: step * (
                    distinct.append(code) or len(distinct) - 1), parsed)
                expected, inverse = np.unique(codes, return_inverse=True)
                assert distinct == expected.tolist()
                assert parsed.tolist() == (step * inverse).tolist()

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_fixed_stride_files_match_csv_path(self, name, tmp_path_factory):
        header, _, read, arrays = READERS[name]
        path = tmp_path_factory.mktemp(name) / "table.csv"
        fixed = []

        @given(fixed_stride_files(header))
        @settings(max_examples=150, deadline=None)
        def check(content):
            path.write_bytes(content)
            fixed.append(takes_fixed_branch(path, header))
            assert field_codes(path, header) == field_codes(path, header, fixed=False)
            with mock.patch.object(dio, "_read_int_columns", dio._read_int_columns_csv):
                expected = read_outcome(read, path, arrays)
            assert read_outcome(read, path, arrays) == expected

        check()
        assert sum(fixed) >= len(fixed) / 3

    @pytest.mark.parametrize(
        "content",
        [b"y,t,z\n10,1,2\n1,10,2\n", b"y,t,z\n0,1,1\n0,1,\n10,1,1\n", b"y,t,z\n0,1,2\n0,1,,\n",
         b"y,t,z\n0,1,2\n0,1\n1,0,2\n", b"y,t,z\n0,1,2\n0,1,20\n",
         b"y,t,z\n0,1,2\n0;1;2\n", b"y,t,z\n0,1,2\n0,1\n2\n", b"y,t,z\n0,1,2\n0,1\n2,0,1,2\n"],
    )
    def test_near_fixed_files_give_the_scanned_codes(self, tmp_path, content):
        # a moved comma, a line end off the stride, an extra comma, a line
        # short by a field, lines of two lengths; then lines of the stride
        # whose field columns are plain but whose separator columns hold a
        # ';', a '\n' where a ',' belongs, and a ',' and '\n' swapped
        path = tmp_path / "table.csv"
        path.write_bytes(content)
        assert not takes_fixed_branch(path, ["y", "t", "z"])
        assert field_codes(path, ["y", "t", "z"]) == field_codes(path, ["y", "t", "z"], False)

    def test_fixed_stride_tables_skip_the_scan(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        records = rng.integers(0, [10**6, 2, 2, 3], (50_000, 4))
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("y,t,z\n" + "".join(f"{y},{t},{z}\n" for _, y, t, z in records.tolist()))
        padded.write_text("x,y,t,z\n" + "".join(f"{x:06},{y},{t},{z}\n"
                                                  for x, y, t, z in records.tolist()))

        def no_scan(*args, **kwargs):
            raise AssertionError("separator scan on a fixed-stride table")

        monkeypatch.setattr(dio, "_scan_codes", no_scan)
        monkeypatch.setattr(csv, "reader", no_scan)
        for got, want in [(read_full_table_csv(plain, k=3), records[:, 1:]),
                          (read_dataset_csv(plain, k=3), records[:, 1:]),
                          (read_stratified_csv(padded, k=3), records)]:
            assert got.dtype == np.int64 and np.array_equal(got, want)


class TestCurveCsv:
    def test_roundtrip(self, tmp_path):
        from deconf.simulation import CurveRow, ErrorCurve

        curve = ErrorCurve(
            (
                CurveRow("nsp", "m", 100, 0.125, 0.05, 200, 2),
                CurveRow("usp", "m", 100, 0.25, 0.1, 200, 2),
            )
        )
        path = tmp_path / "curve.csv"
        write_error_curve_csv(curve, path)
        assert read_error_curve_csv(path) == curve

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nsp,m,abc,0.1,0.05,20,2", "row 3: grid_value must be an integer, got 'abc'"),
            ("nsp,m,200,x,0.05,20,2", "row 3: mean_abs_error must be a number, got 'x'"),
            ("nsp,m,200,0.1,0.05,2.5,2", "row 3: reps must be an integer, got '2.5'"),
            ("nsp,m,200,0.1,0.05,20", "row 3: expected 7 fields, got 6"),
        ],
    )
    def test_bad_cell_names_its_row_and_field(self, tmp_path, row, message):
        path = tmp_path / "curve.csv"
        header = ",".join(CURVE_HEADER)
        path.write_text(f"{header}\nnsp,m,100,0.1,0.05,20,2\n{row}\n")
        with pytest.raises(DataFormatError, match=re.escape(message)):
            read_error_curve_csv(path)


class TestConfigFiles:
    def test_config_with_extras(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "k": 2,
                    "instances": 3,
                    "policies": ["nsp"],
                    "m_grid": [10],
                    "replications": 5,
                    "seed": 1,
                    "dataset": "table.csv",
                }
            )
        )
        config, extras = read_experiment_config(path)
        assert config.instances == 3
        assert extras["dataset"] == "table.csv"
        assert extras["fields"] == {"k", "instances", "policies", "m_grid", "replications",
                                    "seed", "dataset"}

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "mgrid": [10]}))
        with pytest.raises(DataFormatError, match="unknown config fields"):
            read_experiment_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "replications": 0}))
        with pytest.raises(DataFormatError, match="replications"):
            read_experiment_config(path)

    @pytest.mark.parametrize(
        "field, message",
        [({"policies": "nsp"}, "policies must be a list of policy names, got the string"),
         ({"policies": 3}, "policies must be a list of policy names, got 3"),
         ({"m_grid": 100}, "m_grid must be a list of positive integers, got 100")],
    )
    def test_non_list_fields_rejected(self, tmp_path, field, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, **field}))
        with pytest.raises(DataFormatError, match=message):
            read_experiment_config(path)

    @pytest.mark.parametrize(
        "field, message",
        [({"instance_files": "nsp.json"}, "instance_files must be a list of paths, got 'nsp"),
         ({"instance_files": 0}, "instance_files must be a list of paths, got 0"),
         ({"instance_files": [3]}, r"instance_files must be a list of paths, got \[3\]"),
         ({"dataset": 5}, "dataset must be a path, got 5")],
    )
    def test_path_fields_must_be_paths(self, tmp_path, field, message):
        # a string would be read as one path per character, and 5 as a file descriptor
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, **field}))
        with pytest.raises(DataFormatError, match=message):
            read_experiment_config(path)


def _commands(parser):
    """The sub-parser of each command."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _flag_argv(action, mode):
    """argv setting one flag: the value its mode names, else a choice, else "1"."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return [flag]
    words = mode.split()
    if flag in words[:-1] and not words[words.index(flag) + 1].startswith("--"):
        return [flag, words[words.index(flag) + 1]]
    return [flag, action.choices[0] if action.choices else "1"]


def _flag_matrix():
    """(command, mode, dest) for every row and optional flag, from the parser."""
    parser = build_parser()
    return [(command, mode, dest) for command in _commands(parser)
            for mode in sorted(m for c, m in cli._ROWS if c == command)
            for dest, _ in cli._optional_flags(parser, command)]


class TestFlagTable:
    """One table decides which optional flags each (command, mode) reads."""

    def test_every_flag_and_field_has_a_row(self):
        parser = build_parser()
        commands = _commands(parser)
        assert {c for c, _ in cli._ROWS} == set(commands)
        for command in commands:
            flags = {dest for dest, _ in cli._optional_flags(parser, command)}
            rows = [row for (c, _), row in cli._ROWS.items() if c == command]
            named = {dest for needs, reads, _ in rows for dest in (needs + " " + reads).split()}
            assert named == flags, command
        fields = {f for row in cli._ROWS.values() for f in row[2].split()}
        assert fields == dio._CONFIG_FIELDS
        assert {c for (c, _), row in cli._ROWS.items() if row[2]} == {
            "simulate", "simulate-finite", "simulate-real"}

    def test_zero_is_a_set_value(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["gen-instance", "--random", "--seed", "0", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote random k=2 instance to {path}\n"

    def test_unknown_command_returns_argparse_exit_code(self, capsys):
        assert main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: deconf")
        assert "invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("command, mode, dest", _flag_matrix())
    def test_flag_outside_its_row_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                          mode, dest):
        monkeypatch.chdir(tmp_path)  # no file is read or written; none of them exists
        parser = build_parser()
        actions = [a for a in _commands(parser)[command]._actions if a.option_strings]
        needs, reads, _ = (names.split() for names in cli._ROWS[command, mode])

        def argv_without(skip):  # required flags and the mode's needs, in parser order
            return [command] + [word for a in actions if a.dest != skip
                                and (a.required or a.dest in needs)
                                for word in _flag_argv(a, mode)]

        args = parser.parse_args(argv_without(None))
        assert cli._mode(args) == mode
        cli._check_flags(parser, args)  # the row accepts the flags it needs
        action = next(a for a in actions if a.dest == dest)
        flag = action.option_strings[0]
        if dest in reads:
            cli._check_flags(parser, parser.parse_args(argv_without(None)
                                                       + _flag_argv(action, mode)))
            return
        if dest in needs:
            argv, message = argv_without(dest), f"error: {mode} requires {flag}\n"
        else:
            argv = argv_without(None) + _flag_argv(action, mode)
            message = f"error: {flag} does not apply to {mode}\n"
        try:
            other = cli._mode(parser.parse_args(argv))
        except ValidationError:  # gen-instance without exactly one mode flag
            other = None
        if other not in (mode, None):  # a mode flag selects another row
            assert (command, other) in cli._ROWS
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == message if other == mode else flag in err
        assert list(tmp_path.iterdir()) == []


class TestCliAte:
    def test_prints_value(self, instance_file, capsys):
        assert main(["ate", "--instance", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "ate = 0.4334932127" in out

    def test_adversarial_regression_value(self, tmp_path, capsys):
        out_file = tmp_path / "nsp.json"
        assert main(["gen-instance", "--adversarial", "nsp", "--out", str(out_file)]) == 0
        assert main(["ate", "--instance", str(out_file)]) == 0
        out = capsys.readouterr().out
        # frozen from the brute-force evaluator over the fixed instance
        assert "ate = 0.6296070473" in out

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k": 2, "a": [0.5, 0.2, 0.1, 0.1], "q": [[0.5, 0.5]] * 4}))
        assert main(["ate", "--instance", str(path)]) == 2
        assert "a: must sum to 1" in capsys.readouterr().err


class TestConsoleEntry:
    """``python -m deconf.cli`` exits with ``main``'s code."""

    @pytest.mark.parametrize("args, code, stream, text", [
        (["ate", "--instance"], 0, "stdout", "ate = 0.4334932127"),
        (["plan"], 2, "stderr", "the following arguments are required: --instance"),
    ])
    def test_module_run_exits_with_main_code(self, instance_file, args, code, stream, text):
        args = args + [str(instance_file)] * (args[0] == "ate")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "deconf.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert text in getattr(done, stream)


class TestCliEstimate:
    def test_exact_proportions(self, tmp_path, capsys):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        cells = (joint.p * 1000).round().astype(int)
        rows = ["y,t,z"] + [f"{y},{t},{z}" for y, t, z in records_from_cells(cells)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(
            ["estimate", "--data", str(path), "--k", "2", "--mode", "deconf-only"]
        ) == 0
        assert "ate_hat = 0.4334932127" in capsys.readouterr().out

    def test_all_confounded_strict_exits_3(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,1,\n0,0,\n1,0,\n0,1,\n")
        code = main(
            [
                "estimate",
                "--data",
                str(path),
                "--k",
                "2",
                "--mode",
                "finite",
                "--fallback",
                "error",
            ]
        )
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_all_confounded_uniform_fallback_runs(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,1,\n0,0,\n1,0,\n0,1,\n")
        code = main(
            ["estimate", "--data", str(path), "--k", "2", "--mode", "finite", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ate_hat"] == pytest.approx(0.0, abs=1e-12)
        assert len(payload["degenerate_groups"]) == 4

    def test_known_a_ignores_zero_mass_group(self, tmp_path, capsys):
        a_path = tmp_path / "a.json"
        a_path.write_text(json.dumps({"a": [0.5, 0.0, 0.2, 0.3]}))
        data = tmp_path / "data.csv"
        data.write_text("y,t,z\n0,0,0\n0,0,1\n1,0,0\n1,1,1\n")
        code = main(
            [
                "estimate",
                "--data",
                str(data),
                "--k",
                "2",
                "--mode",
                "known-a",
                "--a-file",
                str(a_path),
                "--fallback",
                "error",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "file not found"),
            ("{not json", "invalid JSON"),
            ('[0.25, 0.25, 0.25, 0.25]', "expected a JSON object"),
            ('{"a": [0.5, 0.5]}', "expected 4 entries"),
            ('{"a": ["x", 0.2, 0.3, 0.5]}', "could not convert"),
            ('{"q": [[1.0, 0.0]]}', "expected fields"),
        ],
    )
    def test_bad_a_file_exits_2(self, tmp_path, capsys, content, message):
        a_path = tmp_path / "a.json"
        if content is not None:
            a_path.write_text(content)
        data = tmp_path / "data.csv"
        data.write_text("y,t,z\n0,0,0\n0,1,1\n1,0,0\n1,1,1\n")
        code = main(["estimate", "--data", str(data), "--k", "2", "--mode", "known-a",
                     "--a-file", str(a_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_a_file_may_be_an_instance_file(self, tmp_path, capsys):
        a, q = example_instance()
        joint_path = tmp_path / "joint.json"
        write_joint_instance(joint_path, joint_from_parts(a, q))
        assert np.allclose(read_marginal(joint_path).a, a.a, atol=1e-15)
        cells = (joint_from_parts(a, q).p * 1000).round().astype(int)
        rows = ["y,t,z"] + [f"{y},{t},{z}" for y, t, z in records_from_cells(cells)]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        args = ["estimate", "--data", str(data), "--k", "2", "--mode", "known-a"]
        assert main(args + ["--a-file", str(joint_path)]) == 0
        assert "ate_hat = 0.43" in capsys.readouterr().out

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n1,7,0\n")
        assert main(["estimate", "--data", str(path), "--k", "2"]) == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_stratified_output(self, tmp_path, capsys, json_flag):
        path = tmp_path / "strat.csv"
        rows = ["x,y,t,z"]
        for x in (0, 1):
            rows += [f"{x},{y},{t},{z}" for y in (0, 1) for t in (0, 1) for z in (0, 1)]
        path.write_text("\n".join(rows) + "\n")
        args = ["estimate", "--data", str(path), "--k", "2", "--stratified"]
        assert main(args + json_flag) == 0
        out = capsys.readouterr().out
        if not json_flag:
            assert "aggregate =" in out
            return
        payload = json.loads(out)
        assert payload["aggregate"] == 0.0
        assert payload["weights"] == {"0": 0.5, "1": 0.5}
        for stratum in ("0", "1"):
            result = payload["per_stratum"][stratum]
            assert result["ate_hat"] == 0.0 and result["a_hat"] == [0.25] * 4
            assert result["degenerate_groups"] == [] and result["degenerate_strata"] == []


    @pytest.mark.parametrize(
        "flags",
        [["--mode", "deconf-only"], ["--mode", "finite"], ["--a-file", "{a}"],
         ["--mode", "known-a", "--a-file", "{a}"]],
    )
    def test_stratified_rejects_mode_and_a_file(self, tmp_path, capsys, flags):
        a_path = tmp_path / "a.json"
        a_path.write_text(json.dumps({"a": [0.25] * 4}))
        path = tmp_path / "strat.csv"
        path.write_text("x,y,t,z\n0,1,1,0\n0,0,0,1\n")
        args = ["estimate", "--data", str(path), "--k", "2", "--stratified"]
        assert main(args + [f.format(a=a_path) for f in flags]) == 2
        assert capsys.readouterr().err == f"error: {flags[0]} does not apply to --stratified\n"

    @pytest.mark.parametrize("mode", [[], ["--mode", "finite"], ["--mode", "deconf-only"]])
    def test_a_file_outside_known_a_exits_2(self, tmp_path, capsys, mode):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n0,0,0\n0,1,1\n1,0,0\n1,1,1\n")
        args = ["estimate", "--data", str(path), "--k", "2", "--a-file", str(tmp_path / "none")]
        assert main(args + mode) == 2
        assert capsys.readouterr().err == (
            f"error: --a-file does not apply to --mode {(mode or ['', 'finite'])[1]}\n"
        )

    @pytest.mark.parametrize("fallback", ["error", "uniform"])
    def test_fallback_with_deconf_only_exits_2(self, tmp_path, capsys, fallback):
        path = tmp_path / "data.csv"
        path.write_text("y,t,z\n0,0,0\n0,1,1\n1,0,\n1,1,1\n")  # (y=1,t=0) has no reveal
        args = ["estimate", "--data", str(path), "--k", "2", "--mode", "deconf-only"]
        assert main(args + ["--fallback", fallback]) == 2
        assert capsys.readouterr().err == (
            "error: --fallback does not apply to --mode deconf-only\n"
        )
        assert main(args) == 0
        assert "degenerate groups: (y=1,t=0)" in capsys.readouterr().out

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("z", ["1", ""])
    def test_k_below_two_exits_2(self, tmp_path, capsys, stratified, z):
        path = tmp_path / "data.csv"
        prefix = "x," if stratified else ""
        row = "0," if stratified else ""
        path.write_text(f"{prefix}y,t,z\n{row}0,0,\n{row}1,1,{z}\n")
        args = ["estimate", "--data", str(path), "--k", "1"] + ["--stratified"] * stratified
        assert main(args) == 2
        assert capsys.readouterr().err == "error: k must be >= 2, got 1\n"


class TestCliPlan:
    def test_prints_constant(self, instance_file, capsys):
        assert main(
            [
                "plan",
                "--instance",
                str(instance_file),
                "--epsilon",
                "0.1",
                "--delta",
                "0.05",
                "--beta",
                "0.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "28841.6" in out
        assert "m_base" in out and "w_owsp" in out

    def test_owsp_worst_case_independent_of_a(self, tmp_path, capsys):
        paths = []
        for i, a_vals in enumerate(([0.4, 0.1, 0.2, 0.3], [0.7, 0.1, 0.1, 0.1])):
            a = ConfoundedDistribution(np.array(a_vals))
            q = binary_conditional((0.5, 0.5, 0.5, 0.5))
            path = tmp_path / f"inst{i}.json"
            write_instance(path, a, q)
            paths.append(path)
        lines = []
        for path in paths:
            assert main(
                [
                    "plan",
                    "--instance",
                    str(path),
                    "--epsilon",
                    "0.1",
                    "--delta",
                    "0.05",
                    "--beta",
                    "0.1",
                    "--csv",
                ]
            ) == 0
            out = capsys.readouterr().out
            lines.append([l for l in out.splitlines() if l.startswith("M_owsp")])
        assert lines[0] == lines[1]

    @pytest.mark.parametrize("a_vals", [[0.4, 0.1, 0.2, 0.3], [0.5, 0.0, 0.5, 0.0]])
    @pytest.mark.parametrize(
        "extra", [["--n", "1000000"], ["--policy", "custom", "--weights", "0.1,0.2,0.3,0.4"]]
    )
    def test_csv_values_parse_as_floats(self, tmp_path, capsys, a_vals, extra):
        # the second marginal has an empty treatment arm
        path = tmp_path / "instance.json"
        write_instance(path, ConfoundedDistribution(np.array(a_vals)),
                       binary_conditional((0.7, 0.5, 0.4, 0.5)))
        argv = ["plan", "--instance", str(path), "--epsilon", "0.2", "--delta", "0.1",
                "--beta", "0.1", "--csv"] + extra
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bound,value,witness"
        names = [line.split(",")[0] for line in lines[1:]]
        assert {"m_base", "m_nsp", "m_usp", "m_owsp"} <= set(names)
        for line in lines[1:]:
            float(line.split(",")[1])

    def test_non_number_in_weights_exits_2(self, instance_file, capsys):
        argv = ["plan", "--instance", str(instance_file), "--epsilon", "0.1", "--delta",
                "0.05", "--beta", "0.1", "--policy", "custom", "--weights", "0.1,x,0.3,0.4"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --weights expects four reals, got '0.1,x,0.3,0.4'\n"
        )

    @pytest.mark.parametrize("csv_flag", [[], ["--csv"]])
    def test_infeasible_m_star(self, instance_file, capsys, csv_flag):
        # one confounded record is too few for the finite condition under any policy
        argv = ["plan", "--instance", str(instance_file), "--epsilon", "0.1", "--delta",
                "0.05", "--beta", "0.1", "--n", "1"]
        assert main(argv + csv_flag) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("m_star")]
        if csv_flag:
            assert lines == [f"m_star_{kind}(n=1),nan,-" for kind in NAMED_POLICIES]
        else:
            assert lines == [f"{f'm_star_{kind}(n=1)':<22} infeasible" for kind in NAMED_POLICIES]

    @pytest.mark.parametrize("policy", NAMED_POLICIES)
    def test_weights_with_a_named_policy_exits_2(self, instance_file, capsys, policy):
        argv = ["plan", "--instance", str(instance_file), "--epsilon", "0.1",
                "--delta", "0.05", "--beta", "0.1", "--policy", policy,
                "--weights", "0.1,0.2,0.3,0.4", "--n", "1000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --weights does not apply to plan --policy {policy}\n"
        )

    @pytest.mark.parametrize("csv_flag", [[], ["--csv"]])
    def test_warning_is_one_line(self, tmp_path, capsys, csv_flag):
        path = tmp_path / "k3.json"
        assert main(["gen-instance", "--random", "--k", "3", "--seed", "1",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["plan", "--instance", str(path), "--epsilon", "0.1", "--delta", "0.05",
                "--beta", "0.4"]
        assert main(argv + csv_flag) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: lower-bound constructions assume k*beta < 1; got k*beta = 1.2\n"
        )
        assert ("VIOLATED" in captured.out) != bool(csv_flag)

    @pytest.mark.parametrize("c1", ["nan", "inf"])
    def test_non_finite_c1_exits_2(self, instance_file, capsys, c1):
        argv = ["plan", "--instance", str(instance_file), "--epsilon", "0.1",
                "--delta", "0.05", "--beta", "0.1", "--c1", c1]
        assert main(argv) == 2
        assert "c1 constant must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "epsilon, delta, field",
        [("1e-170", "0.1", "epsilon"), ("1e-160", "0.1", "epsilon"), ("0.1", "1e-310", "delta")],
    )
    def test_accuracy_past_float_range_exits_2(self, instance_file, capsys, epsilon, delta,
                                               field):
        argv = ["plan", "--instance", str(instance_file), "--epsilon", epsilon,
                "--delta", delta, "--beta", "0.1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {field}=[^\n]* is too small: [^\n]*\n", captured.err)


class TestCliPlanFlags:
    """Every flag deconf plan takes changes its output, or the command exits 2."""

    ARGS = ["--epsilon", "0.2", "--delta", "0.1", "--beta", "0.1"]
    BUDGET = ["--budget", "1e5", "--cost-confounded", "1", "--cost-deconfound", "20"]

    @pytest.mark.parametrize(
        "flags", [["--grid", "5"], ["--grid", "200"], ["--cost-confounded", "1"],
                  ["--cost-deconfound", "20"], ["--n", "1000", "--grid", "50"]],
    )
    def test_budget_flags_without_budget_exit_2(self, instance_file, capsys, flags):
        argv = ["plan", "--instance", str(instance_file)] + self.ARGS + flags
        assert main(argv) == 2
        flag = next(f for f in flags if f in ("--grid", "--cost-confounded", "--cost-deconfound"))
        assert capsys.readouterr().err == f"error: {flag} does not apply to plan\n"

    @pytest.mark.parametrize("policy", NAMED_POLICIES)
    def test_named_policy_without_n_exits_2(self, instance_file, capsys, policy):
        argv = ["plan", "--instance", str(instance_file)] + self.ARGS + ["--policy", policy]
        assert main(argv + self.BUDGET) == 2
        assert capsys.readouterr().err == f"error: plan --policy {policy} --budget requires --n\n"

    def test_custom_policy_without_n_prints_its_bound(self, instance_file, capsys):
        argv = ["plan", "--instance", str(instance_file)] + self.ARGS + [
            "--policy", "custom", "--weights", "0.1,0.2,0.3,0.4", "--csv"]
        assert main(argv) == 0
        assert "\nm_custom," in capsys.readouterr().out

    def test_grid_defaults_to_200(self, instance_file, capsys):
        argv = ["plan", "--instance", str(instance_file)] + self.ARGS + self.BUDGET
        outputs = []
        for grid in ([], ["--grid", "200"], ["--grid", "20"]):
            assert main(argv + grid) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]


class TestCliPlanBudgetInputs:
    ARGS = ["--epsilon", "0.2", "--delta", "0.1", "--beta", "0.1"]

    @pytest.mark.parametrize(
        "budget, c_confounded, c_deconfound",
        [("nan", "1", "20"), ("inf", "1", "20"), ("1e6", "nan", "20"),
         ("1e6", "1", "inf"), ("0", "1", "20")],
    )
    def test_non_finite_or_non_positive_values_exit_2(
        self, instance_file, capsys, budget, c_confounded, c_deconfound
    ):
        argv = ["plan", "--instance", str(instance_file)] + self.ARGS + [
            "--budget", budget, "--cost-confounded", c_confounded,
            "--cost-deconfound", c_deconfound,
        ]
        assert main(argv) == 2
        assert "budget and costs must be finite and positive" in capsys.readouterr().err

    def budget_argv(self, instance_file, budget, cost):
        return ["plan", "--instance", str(instance_file)] + self.ARGS + [
            "--budget", budget, "--cost-confounded", cost, "--cost-deconfound", cost,
        ]

    @pytest.mark.parametrize("budget, cost", [("1e25", "1"), ("1e12", "1e-300")])
    def test_m_past_int64_exits_2(self, instance_file, capsys, budget, cost):
        assert main(self.budget_argv(instance_file, budget, cost)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: budget {float(budget)!r}: ")
        assert err.endswith("does not fit a 64-bit integer\n")

    def test_m_inside_int64_plans(self, instance_file, capsys):
        assert main(self.budget_argv(instance_file, "1e19", "1")) == 0
        plan = re.search(r"budget plan: n = (\d+), m = (\d+),", capsys.readouterr().out)
        assert 2**32 < int(plan[2]) <= int(plan[1])


class TestCliPlanEmptyArm:
    """Treatment arm t=1 has no mass, so owsp is undefined on this instance."""

    ARGS = ["--epsilon", "0.2", "--delta", "0.1", "--beta", "0.1"]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "empty_arm.json"
        a = ConfoundedDistribution(np.array([0.5, 0.0, 0.5, 0.0]))
        write_instance(path, a, binary_conditional((0.7, 0.5, 0.4, 0.5)))
        return path

    def test_budget_prints_table_and_plan(self, path, capsys):
        budget = ["--budget", "100000", "--cost-confounded", "1", "--cost-deconfound", "20"]
        assert main(["plan", "--instance", str(path)] + self.ARGS + budget + ["--csv"]) == 0
        out = capsys.readouterr().out
        assert "m_owsp," in out and "w_owsp," in out
        assert "budget_policy,nsp,-" in out or "budget_policy,usp,-" in out

    def test_n_solves_only_defined_policies(self, path, capsys):
        assert main(["plan", "--instance", str(path)] + self.ARGS + ["--n", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "m_star_nsp(n=1000000)" in out and "m_star_usp(n=1000000)" in out
        assert "m_star_owsp" not in out

    def test_explicit_owsp_still_exits_2(self, path, capsys):
        argv = ["plan", "--instance", str(path)] + self.ARGS + ["--n", "1000", "--policy", "owsp"]
        assert main(argv) == 2
        assert "owsp undefined" in capsys.readouterr().err

    def test_owsp_without_n_exits_2(self, path, capsys):
        # without --n the policy would select nothing, so it is rejected too
        argv = ["plan", "--instance", str(path)] + self.ARGS + ["--policy", "owsp"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: plan --policy owsp requires --n\n"

    def test_simulate_owsp_exits_2(self, path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "instance_files": [str(path)], "m_grid": [50],
                                   "replications": 5, "seed": 1}))
        out = tmp_path / "e.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: owsp undefined: treatment arm t=1 has zero mass\n"
        assert not out.exists()


class TestCliGenInstance:
    def test_adversarial_file_contents(self, tmp_path):
        path = tmp_path / "adv.json"
        assert main(["gen-instance", "--adversarial", "nsp", "--out", str(path)]) == 0
        raw = json.loads(path.read_text())
        assert raw["a"] == [0.9, 0.02, 0.01, 0.07]

    def test_random_requires_seed(self, tmp_path, capsys):
        path = tmp_path / "rand.json"
        assert main(["gen-instance", "--random", "--out", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rand.json"
        assert main(["gen-instance", "--random", "--seed", "-1", "--out", str(path)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_random_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            assert main(
                ["gen-instance", "--random", "--k", "3", "--seed", "7", "--out", str(p)]
            ) == 0
        assert p1.read_text() == p2.read_text()

    A = "0.4,0.1,0.2,0.3"

    @pytest.mark.parametrize("mode, flags, ignored", [
        ("adversarial", ["--adversarial", "nsp"], ["--k", "3"]),
        ("random", ["--random", "--seed", "1"], ["--alt-out", "b.json"]),
        ("random", ["--random", "--seed", "1"], ["--gamma", "0.3"]),
        ("hardness", ["--hardness", "--a", A, "--gamma", "1e-4"], ["--seed", "3"]),
        ("lower-bound general", ["--lower-bound", "general", "--a", A, "--q00", "0.3",
                                 "--q01", "0.4", "--beta", "0.1", "--gamma", "0.01"],
         ["--k", "3"]),
        ("lower-bound policy", ["--lower-bound", "policy", "--a", A, "--beta", "0.1",
                                "--gamma", "0.01"], ["--q-floor", "0.9"]),
    ])
    def test_flag_the_mode_ignores_exits_2(self, tmp_path, capsys, monkeypatch, mode, flags,
                                           ignored):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-instance", "--out", "a.json"] + flags + ignored) == 2
        assert capsys.readouterr().err == f"error: {ignored[0]} does not apply to --{mode}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("q_floor", [None, "0.9"])
    def test_hardness_pair_files(self, tmp_path, capsys, q_floor):
        base, alt = tmp_path / "base.json", tmp_path / "alt.json"
        floor = ["--q-floor", q_floor] if q_floor else []
        code = main(
            [
                "gen-instance",
                "--hardness",
                "--a",
                "0.4,0.1,0.2,0.3",
                "--gamma",
                "1e-4",
                "--out",
                str(base),
                "--alt-out",
                str(alt),
            ] + floor
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gap = " in out
        loaded = read_instance(base)
        assert np.allclose(loaded.a.a, [0.4, 0.1, 0.2, 0.3])
        assert loaded.q.q[0, 1] == (0.9 if q_floor else 1.0 - 1e-6)
        assert read_instance(alt).q.q[1, 1] == pytest.approx(1e-4)

    @pytest.mark.parametrize("flags, pair", [
        (["--lower-bound", "general", "--q00", "0.3", "--q01", "0.4"],
         lambda a: general_lower_pair(a, 0.3, 0.4, 0.1, 0.01)),
        (["--lower-bound", "policy", "--k", "3"], lambda a: policy_lower_pair(a, 3, 0.1, 0.01)),
    ], ids=["general", "policy"])
    def test_lower_bound_pair_files(self, tmp_path, capsys, flags, pair):
        base, alt = tmp_path / "base.json", tmp_path / "alt.json"
        argv = ["gen-instance", "--a", self.A, "--beta", "0.1", "--gamma", "0.01",
                "--out", str(base), "--alt-out", str(alt)] + flags
        assert main(argv) == 0
        expected = pair(ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3])))
        params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(expected.params.items()))
        assert capsys.readouterr().out == f"gap = {expected.gap:.10g}\nparams: {params}\n"
        for path, q in ((base, expected.base_q), (alt, expected.alternate_q)):
            loaded = read_instance(path)
            assert loaded.a.a.tolist() == expected.a.a.tolist()
            assert loaded.q.q.tolist() == q.q.tolist()

    def test_non_number_in_a_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        argv = ["gen-instance", "--hardness", "--a", "0.4,x,0.2,0.3", "--gamma", "0.1",
                "--out", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --a expects four comma-separated reals, got '0.4,x,0.2,0.3'\n"
        )
        assert not path.exists()


class TestCliOutputPath:
    """An --out that cannot be written exits 2 naming it, before any sweep runs."""

    def config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"k": 2, "policies": ["nsp"], "m_grid": [4], "replications": 2, "seed": 1}
        ))
        return path

    @pytest.mark.parametrize("command, engine", [
        ("simulate", "run_infinite_experiment"),
        ("simulate-finite", "run_finite_experiment"),
        ("simulate-real", "run_empirical_experiment"),
    ])
    def test_missing_directory_exits_2_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, command, engine
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError(f"{engine} ran")

        monkeypatch.setattr(f"deconf.simulation.{engine}", no_sweep)
        data = tmp_path / "table.csv"
        data.write_text("y,t,z\n0,0,0\n0,1,1\n1,0,0\n1,1,1\n")
        out = tmp_path / "nodir" / "x.csv"
        args = [command, "--config", str(self.config(tmp_path)), "--out", str(out)]
        assert main(args + (["--data", str(data)] if command == "simulate-real" else [])) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}: cannot write (No such file or directory)\n"
        assert not out.parent.exists()

    def test_directory_as_out_exits_2(self, tmp_path, capsys):
        args = ["simulate", "--config", str(self.config(tmp_path)), "--out", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: cannot write (Is a directory)\n"

    @pytest.mark.parametrize("flags", [
        ["--adversarial", "nsp"],
        ["--random", "--seed", "3"],
        ["--hardness", "--a", "0.4,0.1,0.2,0.3", "--gamma", "1e-4"],
    ])
    def test_gen_instance_missing_directory_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "nodir" / "x.json"
        assert main(["gen-instance", "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: cannot write (No such file or directory)\n"
        )

    def test_gen_instance_missing_alt_directory_exits_2(self, tmp_path, capsys):
        base, alt = tmp_path / "base.json", tmp_path / "nodir" / "alt.json"
        flags = ["--hardness", "--a", "0.4,0.1,0.2,0.3", "--gamma", "1e-4"]
        assert main(["gen-instance", "--out", str(base), "--alt-out", str(alt)] + flags) == 2
        assert f"error: {alt}: cannot write" in capsys.readouterr().err

    def test_writers_name_the_path(self, tmp_path):
        from deconf.simulation import CurveRow, ErrorCurve

        a, q = example_instance()
        curve = ErrorCurve((CurveRow("nsp", "m", 100, 0.125, 0.05, 200, 2),))
        out = tmp_path / "nodir" / "file"
        for write in (partial(write_instance, out, a, q),
                      partial(write_joint_instance, out, joint_from_parts(a, q)),
                      partial(write_error_curve_csv, curve, out)):
            with pytest.raises(DataFormatError) as info:
                write()
            assert str(info.value) == f"{out}: cannot write (No such file or directory)"


class TestCliSimulate:
    def write_config(self, tmp_path, **overrides):
        """A config file of the defaults below; an override of None leaves its field out."""
        cfg = {
            "k": 2,
            "instances": 3,
            "policies": ["nsp", "usp", "owsp"],
            "include_baseline": True,
            "m_grid": [50, 100],
            "replications": 10,
            "seed": 5,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: v for name, v in cfg.items() if v is not None}))
        return path

    def test_workers_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(out8), "--workers", "8"]
        ) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 2, "m_grid": [10], "replications": 2}))
        out = tmp_path / "c.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path, replications=3)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "99"])
        main(["simulate", "--config", str(cfg), "--out", str(out_c), "--seed", "99"])
        assert out_a.read_bytes() != out_b.read_bytes()
        assert out_b.read_bytes() == out_c.read_bytes()

    def test_simulate_finite(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            include_baseline=False,
            m_grid=[50],
            n_grid=[50, 200],
            replications=5,
        )
        out = tmp_path / "fin.csv"
        assert main(["simulate-finite", "--config", str(cfg), "--out", str(out)]) == 0
        curve = read_error_curve_csv(out)
        assert {row.grid_kind for row in curve.rows} == {"n"}

    def test_simulate_real_full_reveal_zero_error(self, tmp_path):
        a, q = example_instance()
        cells = (joint_from_parts(a, q).p * 200).round().astype(int)
        rows = ["y,t,z"] + [f"{y},{t},{z}" for y, t, z in records_from_cells(cells)]
        data = tmp_path / "table.csv"
        data.write_text("\n".join(rows) + "\n")
        total = int(cells.sum())
        cfg = self.write_config(
            tmp_path,
            instances=None,
            include_baseline=False,
            policies=["nsp"],
            m_grid=[total],
            replications=3,
        )
        out = tmp_path / "real.csv"
        code = main(
            [
                "simulate-real",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        curve = read_error_curve_csv(out)
        assert curve.rows[0].mean_abs_error == 0.0

    def test_simulate_real_small_group_exits_4(self, tmp_path, capsys):
        # group (0,0) holds a single record; uniform allocation at m=8 wants 2
        data = tmp_path / "table.csv"
        rows = ["0,0,0"] + ["0,1,0", "1,0,1", "1,1,1"] * 5
        data.write_text("y,t,z\n" + "\n".join(rows))
        cfg = self.write_config(
            tmp_path, instances=None, include_baseline=False, policies=["usp"], m_grid=[8]
        )
        out = tmp_path / "real.csv"
        code = main(
            ["simulate-real", "--config", str(cfg), "--data", str(data), "--out", str(out)]
        )
        assert code == 4
        assert "exhaust" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_workers_exit_2(self, tmp_path, capsys, workers):
        cfg = self.write_config(tmp_path, replications=2)
        out = tmp_path / "w.csv"
        args = ["--config", str(cfg), "--out", str(out), "--workers", workers]
        assert main(["simulate"] + args) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field", [{"k": 2.5}, {"instances": 1.5}, {"replications": 2.0}, {"m_grid": [100.7]},
                  {"m_grid": [True]}, {"include_baseline": 1}]
    )
    def test_non_integer_config_values_exit_2(self, tmp_path, capsys, field):
        cfg = self.write_config(tmp_path, **field)
        out = tmp_path / "f.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        (name,) = field
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_bool_seed_in_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, seed=True)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [[], ["--seed", str(2**32 + 5)]])
    def test_seed_past_32_bits_exits_2(self, tmp_path, capsys, flag):
        cfg = self.write_config(tmp_path, seed=2**32 + 5 if not flag else 5)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + flag) == 2
        assert "2**32" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, field",
        [
            ("simulate", {"policies": ["nsp", "nsp", "usp"]}),
            ("simulate", {"m_grid": [50, 50]}),
            ("simulate-finite", {"m_grid": [50], "n_grid": [50, 200, 50]}),
        ],
    )
    def test_repeated_entries_exit_2(self, tmp_path, capsys, command, field):
        cfg = self.write_config(tmp_path, include_baseline=False, **field)
        out = tmp_path / "r.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{list(field)[-1]} repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2**63, 2**70])
    @pytest.mark.parametrize("command, name", [("simulate", "m_grid"),
                                               ("simulate-finite", "n_grid")])
    def test_grid_entries_past_int64_exit_2(self, tmp_path, capsys, command, name, value):
        finite = {"include_baseline": False, "m_grid": [50]} if name == "n_grid" else {}
        cfg = self.write_config(tmp_path, **finite, **{name: [value]})
        out = tmp_path / "big.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{name} entries must be below 2**63, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_whose_counts_miss_m_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, m_grid=[2**56], include_baseline=False)
        out = tmp_path / "miss.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"cannot allocate m={2**56} exactly" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, message",
        [pytest.param({"n_grid": [100, 200]}, "config field 'n_grid' does not apply to simulate",
                      id="field0-n_grid applies to the finite protocol only"),
         ({"policies": "nsp"}, "policies must be a list")],
    )
    def test_ignored_or_split_fields_exit_2(self, tmp_path, capsys, field, message):
        cfg = self.write_config(tmp_path, **field)
        out = tmp_path / "g.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, field",
        [
            ("simulate-real", {"instance_files": ["missing.json"]}),
            ("simulate-real", {"instances": 3}),
            ("simulate", {"dataset": "table.csv"}),
            ("simulate-finite", {"dataset": "table.csv"}),
        ],
    )
    def test_field_the_command_ignores_exits_2(self, tmp_path, capsys, command, field):
        # checked before any file the config names is read
        finite = {"include_baseline": False, "m_grid": [50], "n_grid": [50, 200]}
        fields = {"instances": None, **(finite if command == "simulate-finite" else {}), **field}
        cfg = self.write_config(tmp_path, **fields)
        data = tmp_path / "table.csv"
        data.write_text("y,t,z\n" + "0,0,0\n0,1,1\n1,0,0\n1,1,1\n" * 20)
        out = tmp_path / "i.csv"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--data", str(data)] if command == "simulate-real" else [])) == 2
        (name,) = field
        assert capsys.readouterr().err == (
            f"error: {cfg}: config field {name!r} does not apply to {command}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", [
        ("simulate", {}),
        ("simulate-finite", {"include_baseline": False, "m_grid": [50], "n_grid": [50, 200]}),
    ])
    def test_instances_next_to_instance_files_exits_2(self, tmp_path, capsys, command, fields):
        # the files set the instance count, so 7 would have run one instance
        inst = tmp_path / "usp_worst.json"
        assert main(["gen-instance", "--adversarial", "usp", "--out", str(inst)]) == 0
        capsys.readouterr()
        cfg = self.write_config(tmp_path, instances=7, instance_files=[str(inst)], **fields)
        out = tmp_path / "n.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config field 'instances' does not apply next to instance_files\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", [
        ("simulate", {}),
        ("simulate-finite", {"include_baseline": False, "m_grid": [50], "n_grid": [50, 200]}),
    ])
    def test_empty_instance_files_exits_2(self, tmp_path, capsys, command, fields):
        # an empty list is not a missing one: 4 random instances would have run
        cfg = self.write_config(tmp_path, instances=4, instance_files=[], **fields)
        out = tmp_path / "e.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: explicit instance list is empty\n"
        assert not out.exists()

    def test_simulate_real_without_data_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, instances=None)
        out = tmp_path / "d.csv"
        assert main(["simulate-real", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: simulate-real needs --data or a 'dataset' config field\n"
        )
        assert not out.exists()

    def test_data_next_to_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("y,t,z\n" + "0,0,0\n0,1,1\n1,0,0\n1,1,1\n" * 20)
        cfg = self.write_config(tmp_path, instances=None, dataset=str(tmp_path / "missing.csv"))
        out = tmp_path / "d.csv"
        args = ["simulate-real", "--config", str(cfg), "--data", str(data), "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config field 'dataset' does not apply next to --data\n"
        )
        assert not out.exists()

    def test_instance_file_k_must_match_config(self, tmp_path, capsys):
        inst = tmp_path / "k3.json"
        assert main(["gen-instance", "--random", "--k", "3", "--seed", "1",
                     "--out", str(inst)]) == 0
        cfg = self.write_config(tmp_path, instances=None, instance_files=[str(inst)],
                                replications=2)
        out = tmp_path / "k.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "k=3" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_fallback_with_workers_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "nsp_worst.json"
        assert main(["gen-instance", "--adversarial", "nsp", "--out", str(inst)]) == 0
        cfg = self.write_config(
            tmp_path,
            instances=None,
            instance_files=[str(inst)] * 2,
            policies=["nsp"],
            include_baseline=False,
            m_grid=[20],
            fallback="error",
        )
        out = tmp_path / "e.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--workers", "2"])
        assert code == 3
        assert "(y=0,t=1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("simulate", {}),
            ("simulate", {"include_baseline": False}),
            ("simulate-finite", {"include_baseline": False, "m_grid": [50], "n_grid": [50, 200]}),
        ],
    )
    def test_parts_drift_file_runs(self, tmp_path, capsys, command, fields):
        # the file of test_joint_checked_only_where_ate_builds_it: its parts
        # pass their checks and their product's total does not, so only the
        # commands that build the joint (ate) reject it
        inst = tmp_path / "drift.json"
        a, q = [0.25 + 2.25e-13] * 4, [[0.5 + 4.5e-13] * 2] * 4
        inst.write_text(json.dumps({"k": 2, "a": a, "q": q}))
        cfg = self.write_config(tmp_path, instances=None, instance_files=[str(inst)], **fields)
        out = tmp_path / "drift.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_error_curve_csv(out).rows
        labels = ["deconf-only"] * bool(fields.get("include_baseline", True))
        assert sorted({row.policy for row in rows}) == sorted(labels + list(NAMED_POLICIES))

    def test_output_sorted(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sorted.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        curve = read_error_curve_csv(out)
        keys = [(r.policy, r.grid_kind, r.grid_value) for r in curve.rows]
        assert keys == sorted(keys)


class TestCliReadErrors:
    """A file that cannot be read or decoded exits 2 with its path named."""

    COMMANDS = {
        "ate": ["ate", "--instance", "{input}"],
        "estimate": ["estimate", "--data", "{input}", "--k", "3"],
        "simulate": ["simulate", "--config", "{input}", "--out", "{out}"],
        "simulate-real": ["simulate-real", "--config", "{config}", "--data", "{input}",
                          "--out", "{out}"],
    }

    def run(self, tmp_path, command, path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"k": 3, "policies": ["nsp"], "m_grid": [4], "replications": 2, "seed": 1}
        ))
        names = {"input": path, "config": config, "out": tmp_path / "out.csv"}
        return main([arg.format(**names) for arg in self.COMMANDS[command]])

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("simulate-real", b"y,t,z\n0,1,2\n1,0,\xe9\n", "not UTF-8 text"),
            ("ate", b'{"p": [[0.25], [0.25], [0.25], [0.25]], "n": "\xe9"}', "not UTF-8 text"),
            ("simulate", b'{"seed": 1, "policies": ["\xe9"]}', "not UTF-8 text"),
            ("estimate", b"y,t,z\n0,1," + b"2" * 200_000 + b"\n", "field larger than field limit"),
        ],
        ids=["table", "instance", "config", "wide-field"],
    )
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "input"
        path.write_bytes(content)
        assert self.run(tmp_path, command, path) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "folder"
        path.mkdir()
        assert self.run(tmp_path, command, path) == 2
        assert f"error: {path}: cannot read (Is a directory)" in capsys.readouterr().err
