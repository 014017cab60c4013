"""CLI exit codes, output formats, and round trips."""

import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

import pytest

from rainbowcat import cli, constructor, group, labeling, oracle
from rainbowcat.group import GroupParams
from testkit import reference_dot, reference_json, reference_text

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_group_listing(monkeypatch):
    """Fail the test if anything lists the group's cosets or writes its
    elements."""

    def refuse(*args, **kwargs):
        raise AssertionError("listed the elements of a huge group")

    monkeypatch.setattr(group, "format_elements", refuse)
    monkeypatch.setattr(group, "cosets", refuse)


@pytest.fixture
def no_menu_search(monkeypatch):
    """Fail the test if anything enumerates a block menu."""

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a block menu")

    monkeypatch.setattr(constructor, "_component_patterns", refuse)


class TestLabel:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "label", "--p", "3", "--k", "2", "--hairs", "1,3,2", "--format", "json")
        assert code == 0
        params, shape, *labels = labeling.labeling_from_dict(json.loads(out))
        assert labeling.verify_labels(params, shape, *labels).valid

    def test_infeasible_exit_1(self, capsys):
        code, out, _ = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "0,3,19")
        assert code == 1
        assert "infeasible: E1_beta_pm2" in out

    def test_composite_p_exit_2(self, capsys):
        code, _, err = run(capsys, "label", "--p", "4", "--k", "1", "--hairs", "1,0,0")
        assert code == 2
        assert "prime" in err

    def test_bad_hairs_exit_2(self, capsys):
        code, _, _ = run(capsys, "label", "--p", "3", "--k", "2", "--hairs", "1,2")
        assert code == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "label", "--p", "3", "--k", "2", "--hairs", "1,3,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("spine:")
        assert lines[-1].startswith("missing:")

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "label", "--p", "3", "--k", "2", "--hairs", "1,3,2", "--format", "dot")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph caterpillar {"
        assert lines[-1] == "}"
        nodes = [l for l in lines if "[label=" in l and "--" not in l]
        edges = [l for l in lines if "--" in l]
        assert len(nodes) == 9
        assert len(edges) == 8

    def test_verbose_plan_on_stderr(self, capsys):
        code, _, err = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "9,4,9", "--verbose")
        assert code == 0
        assert "spine" in err

    def test_verbose_names_isomorphic_twin(self, capsys):
        code, _, err = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "0,9,13", "--verbose")
        assert code == 0
        first, plan = err.strip().splitlines()
        assert "isomorphic tree C(10, 12, 0)" in first
        assert json.loads(plan)["spine"]["triple"] == [0, 2, 0]

    def test_verbose_block_menus(self, capsys):
        # a beta_neg corner: its plan is the model [a,0,2a] with two mixed cycles
        code, _, err = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "3,5,14", "--verbose")
        assert code == 0
        plan = json.loads(err)
        assert plan["model"] == [[1, 0], [2, 0]]
        assert plan["spine"]["triple"] == [1, 1, 0]
        assert [m["triple"] for m in plan["mixed"]] == [[1, 2, 2], [1, 2, 2]]
        assert plan["uniform"] == {"x": 0, "y": 0, "z": 2}

    @pytest.mark.parametrize(
        "p, k, hairs, model",
        [
            (3, 2, "1,3,2", [[1, 0], [0, 1]]),
            (2, 4, "2,3,8", [[1, 0, 0, 0], [0, 1, 0, 0]]),
        ],
    )
    def test_verbose_plan_at_small_p(self, capsys, p, k, hairs, model):
        # the block menus of the model (e1, e2) build these labelings
        code, _, err = run(capsys, "label", "--p", str(p), "--k", str(k), "--hairs", hairs, "--verbose")
        assert code == 0
        plan = json.loads(err)
        assert plan["model"] == model
        pattern = plan["spine"]["pattern"]
        assert len(pattern) == p * p
        assert {"s1", "s2", "s3"} <= set(pattern)

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(constructor, "build", exhaust)
        code, out, err = run(capsys, "label", "--p", "2", "--k", "4", "--hairs", "2,3,8", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_order_above_limit_exit_2(self, capsys, no_group_listing):
        # Z_2^40 has order 2**40; construct refuses it before listing anything
        code, out, err = run(capsys, "label", "--p", "2", "--k", "40", "--hairs", "0,1,1099511627772")
        assert code == 2
        assert out == ""
        assert "at most 1048576" in err

    def test_huge_infeasible_exit_1(self, capsys, no_group_listing):
        code, out, _ = run(capsys, "label", "--p", "2", "--k", "40", "--hairs", "1,1,1099511627771")
        assert code == 1
        assert out.startswith("infeasible: P2_parity")


WRITER_GROUPS = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("p, k", WRITER_GROUPS, ids=[f"Z{p}^{k}" for p, k in WRITER_GROUPS])
def test_writers_match_tuple_reference(p, k):
    """The JSON, text and dot writers format indices through digit tables;
    their output equals, byte for byte, the tuple-based writers in testkit
    on every feasible shape."""
    params = GroupParams(p, k)
    for shape in oracle.all_shapes(params):
        if not constructor.feasibility(params, shape).feasible:
            continue
        lab = constructor.construct(params, shape)
        assert labeling.labeling_to_json(params, shape, lab) + "\n" == reference_json(params, shape, lab)
        assert "".join(cli._text(params, shape, lab)) == reference_text(params, shape, lab)
        assert cli._dot(params, lab) == reference_dot(params, shape, lab)


def test_writers_across_chunks(capsys, monkeypatch):
    """The JSON and text writers print a class a chunk at a time; on Z_2^17
    the z class of 131,068 labels takes two chunks of 65,536 and three of
    50,000, and either way the output equals the tuple-based writers'."""
    params = GroupParams(2, 17)
    shape = labeling.make_shape(params, (0, 1, 131068))
    lab = constructor.construct(params, shape)
    expected = {"json": reference_json(params, shape, lab), "text": reference_text(params, shape, lab)}
    for chunk in (labeling.CHUNK, 50_000):
        monkeypatch.setattr(labeling, "CHUNK", chunk)
        for fmt, text in expected.items():
            argv = ["label", "--p", "2", "--k", "17", "--hairs", "0,1,131068", "--format", fmt]
            assert run(capsys, *argv)[:2] == (0, text), (chunk, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--p", "5", "--k", "2"],
        ["label", "--p", "5", "--k", "2", "--hairs", "9,4,9", "--format", "json"],
    ],
    ids=["table", "label-json"],
)
def test_closed_stdout_exits_2(argv):
    """A reader that closed the pipe before anything was written, as `| head
    -c 10` does after ten bytes, gives exit 2 and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rainbowcat.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_z3_1_commands_agree(capsys, tmp_path):
    """Z_3^1 carries only C(0,0,0): feasible, label (checked by verify),
    oracle and table all answer that it is rainbow."""
    instance = ["--p", "3", "--k", "1", "--hairs", "0,0,0"]
    assert run(capsys, "feasible", *instance)[:2] == (0, "feasible\n")
    code, out, _ = run(capsys, "label", *instance, "--format", "json")
    assert code == 0
    f = tmp_path / "z3_1.json"
    f.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(f))
    assert (code, out) == (0, "valid missing=(0)\n")
    code, out, _ = run(capsys, "oracle", *instance)
    assert code == 0 and out.startswith("found")
    code, out, _ = run(capsys, "table", "--p", "3", "--k", "1", "--cross-check")
    assert code == 0
    assert [json.loads(line)["agree"] for line in out.splitlines()] == [True]


# Runs the command given as arguments (none: import only) in a fresh
# interpreter and prints its exit code and which watched modules it loaded.
_COLD_PROBE = """
import contextlib, io, sys
from rainbowcat import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
watched = ("dataclasses", "rainbowcat.constructor", "rainbowcat.oracle")
print(code, *[m for m in watched if m in sys.modules])
"""


def _cold(argv, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE, *argv], input=stdin, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stderr == ""
    code, *loaded = proc.stdout.split()
    return code, set(loaded)


class TestColdImports:
    """A fresh process loads only the modules its command runs."""

    def test_import_loads_no_builder(self):
        assert _cold([]) == ("None", set())

    def test_verify_loads_no_builder(self):
        params = GroupParams(5, 2)
        shape = labeling.make_shape(params, (3, 5, 14))
        payload = labeling.labeling_to_json(params, shape, constructor.construct(params, shape))
        assert _cold(["verify"], payload) == ("0", set())

    @pytest.mark.parametrize("command", ["label", "feasible"])
    def test_label_and_feasible_load_constructor_only(self, command):
        argv = [command, "--p", "5", "--k", "2", "--hairs", "3,5,14"]
        assert _cold(argv) == ("0", {"rainbowcat.constructor"})

    def test_oracle_loads_oracle(self):
        argv = ["oracle", "--p", "5", "--k", "2", "--hairs", "3,5,14"]
        assert _cold(argv) == ("0", {"rainbowcat.constructor", "rainbowcat.oracle"})


class TestFeasible:
    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", "2", "--k", "3", "--hairs", "2,1,2")
        assert code == 0
        assert out.strip() == "feasible"

    def test_e3(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", "5", "--k", "2", "--hairs", "9,1,12")
        assert code == 1
        assert "infeasible: E3_Y1" in out

    def test_p3_e2_symmetric(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", "3", "--k", "2", "--hairs", "5,0,1")
        assert code == 1
        assert "infeasible: P3_E2" in out

    def test_huge_group_closed_form(self, capsys, no_group_listing):
        code, out, _ = run(capsys, "feasible", "--p", "2", "--k", "40", "--hairs", "0,1,1099511627772")
        assert code == 0
        assert out.strip() == "feasible"


class TestOracle:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "2", "--k", "2", "--hairs", "0,1,0")
        assert code == 0
        assert out.startswith("found")

    def test_infeasible(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "3", "--k", "2", "--hairs", "0,1,5")
        assert code == 1
        assert out.startswith("infeasible")

    def test_budgeted(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--p", "5", "--k", "2", "--hairs", "9,1,12", "--node-limit", "10"
        )
        assert code == 3
        assert out.startswith("budgeted")
        assert out.startswith("budgeted nodes=10 ")

    def test_order_at_limit_searches(self, capsys):
        # Z_2^9 has order 512 = MAX_ORDER; its only canonical model spans a
        # subgroup of order 4, so the cosets decide it without whole-group
        # nodes (the 509-level descent is tests/test_oracle.py's
        # test_search_model_recursion_at_order_limit)
        code, out, _ = run(capsys, "oracle", "--p", "2", "--k", "9", "--hairs", "0,509,0", "--node-limit", "600")
        assert code == 0
        assert out.startswith("found nodes=0")

    def test_order_above_limit_exit_2(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--p", "2", "--k", "10", "--hairs", "0,1,1020", "--node-limit", "5000"
        )
        assert code == 2
        assert out == ""
        assert "at most 512" in err

    def test_z7_3_exit_2(self, capsys, no_menu_search):
        code, out, err = run(
            capsys, "oracle", "--p", "7", "--k", "3", "--hairs", "6,0,334",
            "--timeout-ms", "1000", "--node-limit", "1000",
        )
        assert code == 2
        assert out == ""
        assert "p <= 5" in err


class TestTable:
    def test_2_2(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "2", "--k", "2", "--cross-check")
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert len(rows) == 3
        assert sum(r["oracle"] == "found" for r in rows) == 1

    def test_3_2(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "3", "--k", "2", "--cross-check")
        assert code == 0
        assert len(out.strip().splitlines()) == 28

    def test_jobs(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "2", "--k", "2", "--cross-check", "--jobs", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_order_above_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "table", "--p", "2", "--k", "10")
        assert code == 2
        assert out == ""
        assert "at most 512" in err

    def test_z7_3_exit_2(self, capsys, no_menu_search):
        code, out, err = run(capsys, "table", "--p", "7", "--k", "3")
        assert code == 2
        assert out == ""
        assert "p <= 5" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, _ = run(capsys, "table", "--p", "2", "--k", "2", "--jobs", jobs)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [("64", 8, [3]), ("64", 2, [2]), ("2", 8, [2]), ("1", 8, [])]
    )
    def test_pool_size_capped(self, capsys, monkeypatch, jobs, cpus, workers):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "table", "--p", "2", "--k", "2", "--cross-check", "--jobs", jobs)
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert started == workers


class TestVerify:
    def _labeling_json(self, capsys):
        _, out, _ = run(capsys, "label", "--p", "3", "--k", "2", "--hairs", "1,3,2", "--format", "json")
        return out

    def test_roundtrip(self, capsys, tmp_path):
        payload = self._labeling_json(capsys)
        f = tmp_path / "lab.json"
        f.write_text(payload)
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 0
        assert out.startswith("valid")

    def test_stdin(self, capsys, monkeypatch):
        import io

        payload = self._labeling_json(capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "verify")
        assert code == 0

    def test_duplicate_vertex(self, capsys, tmp_path):
        data = json.loads(self._labeling_json(capsys))
        data["hairs"]["y"][0] = data["hairs"]["y"][1]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "invalid" in out

    def test_hair_counts_disagree_with_shape(self, capsys, tmp_path):
        _, out, _ = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "2,5,15", "--format", "json")
        data = json.loads(out)
        data["shape"]["h"] = [3, 5, 14]
        f = tmp_path / "miscounted.json"
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 2
        assert not out.startswith("valid")

    @pytest.mark.parametrize(
        "where, value",
        [("coord", 1.9), ("coord", True), ("coord", "1"), ("p", 5.7), ("h1", 3.2)],
    )
    def test_non_integer_numbers_exit_2(self, capsys, tmp_path, where, value):
        _, out, _ = run(capsys, "label", "--p", "5", "--k", "2", "--hairs", "3,5,14", "--format", "json")
        data = json.loads(out)
        if where == "coord":
            hair = next(e for e in data["hairs"]["z"] if 1 in e)
            hair[hair.index(1)] = value
        elif where == "p":
            data["group"]["p"] = value
        else:
            data["shape"]["h"][0] = value
        f = tmp_path / "non_integer.json"
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 2
        assert not out.startswith("valid")

    @pytest.mark.parametrize("where, value", [("x", {}), ("x", ""), ("spine", {})])
    def test_label_array_not_a_list_exit_2(self, capsys, tmp_path, where, value):
        # an empty dict or string read as an empty hair class made this
        # payload (h1 = 0) valid
        _, out, _ = run(capsys, "label", "--p", "2", "--k", "3", "--hairs", "0,1,4", "--format", "json")
        data = json.loads(out)
        if where == "spine":
            data["spine"] = dict(zip("abc", data["spine"]))
        else:
            data["hairs"][where] = value
        f = tmp_path / "not_a_list.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--input", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed labeling payload")

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2

    def test_deeply_nested_exit_2(self):
        # json.loads raises RecursionError on this nesting; it is a parse
        # error, not a crash that exits 1 ("invalid")
        proc = subprocess.run(
            [sys.executable, "-m", "rainbowcat.cli", "verify"],
            input="[" * 100_000 + "]" * 100_000, capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("parse error: ")
        assert "Traceback" not in proc.stderr

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "--input", "/nonexistent/file.json")
        assert code == 2

    def test_roundtrip_all_feasible_shapes(self, capsys, tmp_path):
        from rainbowcat import constructor, oracle
        from rainbowcat.group import GroupParams

        for p, k in ((2, 2), (2, 3), (3, 2)):
            params = GroupParams(p, k)
            for shape in oracle.all_shapes(params):
                if not constructor.feasibility(params, shape).feasible:
                    continue
                hairs = ",".join(str(v) for v in shape.h)
                code, out, _ = run(
                    capsys, "label", "--p", str(p), "--k", str(k), "--hairs", hairs, "--format", "json"
                )
                assert code == 0
                f = tmp_path / "rt.json"
                f.write_text(out)
                code, out, _ = run(capsys, "verify", "--input", str(f))
                assert code == 0
