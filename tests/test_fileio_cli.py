"""File formats, recipes, report files, and the CLI surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agroups import cli, constructions as cons, core, fileio, verifier
from agroups.verifier import scan


# -- cayley format -----------------------------------------------------------------


def test_trivial_group_round_trip(tmp_path):
    path = tmp_path / "triv.grp"
    path.write_text("1\n0\n")
    G = fileio.load_group(str(path))
    assert G.n == 1
    fileio.save_cayley(G, path)
    assert fileio.load_group(str(path)).n == 1


def test_sym3_round_trip(tmp_path, s3):
    path = tmp_path / "s3.grp"
    fileio.save_cayley(s3, path)
    again = fileio.load_group(str(path))
    assert np.array_equal(again.table, s3.table)
    fileio.save_cayley(again, tmp_path / "s3b.grp")
    assert (tmp_path / "s3.grp").read_text() == (tmp_path / "s3b.grp").read_text()


def test_saved_cayley_bytes_are_pinned(tmp_path, s3):
    path = tmp_path / "s3.grp"
    fileio.save_cayley(s3, path)
    assert path.read_bytes() == (b"6\n0 1 2 3 4 5\n1 0 3 2 5 4\n2 4 0 5 1 3\n"
                                 b"3 5 1 4 0 2\n4 2 5 0 3 1\n5 3 4 1 2 0\n")
    fileio.save_cayley(cons.cyclic(1), path)
    assert path.read_bytes() == b"1\n0\n"


def test_identity_relabelled_to_zero(tmp_path):
    # C3 written with the identity at position 2
    perm = [1, 2, 0]  # new = perm-relabel of Z3
    base = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    shuffled = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            shuffled[perm[a]][perm[b]] = perm[base[a][b]]
    path = tmp_path / "c3.grp"
    path.write_text("3\n" + "\n".join(" ".join(map(str, r)) for r in shuffled) + "\n")
    G = fileio.load_group(str(path))
    assert np.array_equal(G.table, cons.cyclic(3).table)


def test_corrupted_associativity_cites_indices(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("3\n0 1 2\n1 2 0\n2 1 0\n")
    with pytest.raises(core.InputError, match=r"violated"):
        fileio.load_group(str(path))


def test_corrupted_closure_cites_entry(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("2\n0 1\n1 9\n")
    with pytest.raises(core.InputError, match=r"closure violated at \(1,1\)"):
        fileio.load_group(str(path))


def test_shuffled_identity_relabels(tmp_path):
    path = tmp_path / "ok.grp"
    path.write_text("2\n1 0\n0 1\n")  # C2 with the identity at position 1
    assert np.array_equal(fileio.load_group(str(path)).table, cons.cyclic(2).table)


def test_no_identity_detected(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("2\n1 1\n1 1\n")
    with pytest.raises(core.InputError, match="identity"):
        fileio.load_group(str(path))


def test_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(core.InputError, match="declares"):
        fileio.load_group(str(path))


# -- perm format --------------------------------------------------------------------


def test_perm_loader_matches_symmetric(tmp_path, s3):
    path = tmp_path / "s3.perm"
    path.write_text("degree 3\n1 0 2\n1 2 0\n")
    G = fileio.load_group(str(path))
    assert np.array_equal(G.table, s3.table)


def test_perm_loader_rejects_non_permutation(tmp_path):
    path = tmp_path / "bad.perm"
    path.write_text("degree 3\n0 0 2\n")
    with pytest.raises(core.InputError, match="not a permutation"):
        fileio.load_group(str(path))


def test_perm_loader_rejects_non_integer_token(tmp_path, capsys):
    path = tmp_path / "bad.perm"
    path.write_text("degree 3\n1 a 2\n")
    with pytest.raises(core.InputError, match="'1 a 2' has a non-integer token"):
        fileio.load_group(str(path))
    assert cli.main(["info", str(path)]) == 2
    assert "'1 a 2'" in capsys.readouterr().err


def test_cli_rejects_a_cayley_entry_past_int64(tmp_path, capsys):
    path = tmp_path / "big.grp"
    path.write_text("2\n0 1\n1 99999999999999999999\n")
    with pytest.raises(core.InputError, match=r"closure violated at \(1,1\)"):
        fileio.load_group(str(path))
    assert cli.main(["info", str(path)]) == 2
    assert "99999999999999999999 not in [0,2)" in capsys.readouterr().err


def test_empty_group_files_are_named(tmp_path, capsys):
    for name in ("empty.perm", "blank.grp"):
        path = tmp_path / name
        path.write_text("" if name == "empty.perm" else "\n  \n")
        with pytest.raises(core.InputError, match=f"{name} is empty"):
            fileio.load_group(str(path))
        assert cli.main(["info", str(path)]) == 2
        assert f"{name} is empty" in capsys.readouterr().err
    with pytest.raises(core.InputError, match="empty"):
        fileio.load_perm("")


def test_perm_loader_respects_cap(tmp_path):
    old = core.max_order_cap()
    core.set_max_order_cap(10)
    try:
        path = tmp_path / "s4.perm"
        path.write_text("degree 4\n1 0 2 3\n1 2 3 0\n")
        with pytest.raises(core.InputError, match="cap"):
            fileio.load_group(str(path))
    finally:
        core.set_max_order_cap(old)


def test_cayley_loader_refuses_a_declared_order_past_the_cap():
    # the declared order alone is refused, before any entry is read
    full = "11\n" + "\n".join(" ".join(str((a + b) % 11) for b in range(11))
                              for a in range(11)) + "\n"
    old = core.max_order_cap()
    core.set_max_order_cap(10)
    try:
        for text in ("11\n", full, "11 x\n"):
            with pytest.raises(core.InputError,
                               match=r"^group order 11 exceeds the desk-scale cap 10$"):
                fileio.load_cayley(text)
    finally:
        core.set_max_order_cap(old)


def test_cayley_loader_accepts_any_whitespace_layout(s3):
    tokens = [str(s3.n), *map(str, s3.table.ravel().tolist())]
    seps = [" ", "\t", "\n", "\r\n", "\v", "\f", "  \n\t"]
    text = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    assert np.array_equal(fileio.load_cayley(text).table, s3.table)
    assert np.array_equal(fileio.load_cayley("\n +" + text.replace(" 1", " +01")).table,
                          s3.table)


_NON_INTEGER = "cayley file has a non-integer token: invalid literal for int() with base 10: "


@pytest.mark.parametrize("text,message", [
    ("2 0 1 1-0", _NON_INTEGER + "'1-0'"),
    ("2 0 1 1 -", _NON_INTEGER + "'-'"),
    ("2 0 1 +-1 0", _NON_INTEGER + "'+-1'"),
    ("2 0 x1 1 0.5", _NON_INTEGER + "'x1'"),
    (" \n\t", "empty cayley file"),
    ("+99999999999999999999 0",
     "cayley file declares n=99999999999999999999 but carries 1 entries"),
    ("2 0 1 1 -1", "closure violated at (1,1): entry -1 not in [0,2)"),
    ("2 0 1 -99999999999999999999 0",
     "closure violated at (1,0): entry -99999999999999999999 not in [0,2)"),
])
def test_cayley_loader_messages(text, message):
    with pytest.raises(core.InputError, match=f"^{re.escape(message)}$"):
        fileio.load_cayley(text)


def test_cayley_loader_reads_a_table_at_the_cap_in_bounded_memory(tmp_path):
    # the 4,000,001 tokens of a 2000 x 2000 table go into one int64 array (a
    # list of Python ints peaked at about 550 MB).  On Linux a child starts
    # with its parent's peak RSS as ru_maxrss (KiB), so the loader runs in a
    # grandchild spawned from a small intermediate process.
    path = tmp_path / "c2000.grp"
    fileio.save_cayley(cons.cyclic(2000), path)
    load = ("import resource, sys; from agroups import fileio; "
            "assert fileio.load_group(sys.argv[1]).n == 2000; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", load, str(path)],
                         capture_output=True, text=True, env=env, check=True)
    assert int(out.stdout) < 250 * 1024


# -- recipes -------------------------------------------------------------------------


@pytest.mark.parametrize("expr,order", [
    ("cyclic(7)", 7),
    ("abelian(2,3,4)", 24),
    ("dihedral(7)", 14),
    ("sym(4)", 24),
    ("alt(5)", 60),
    ("quaternion8()", 8),
    ("frobenius(7,3)", 21),
    ("dp(sym(3),cyclic(2))", 12),
    ("sd(cyclic(5),cyclic(4),1)", 20),
    ("dp(dp(cyclic(2),cyclic(2)),sym(3))", 24),
])
def test_recipe_orders(expr, order):
    assert fileio.build_recipe(expr).n == order


def test_recipe_nsd(tmp_path, a4):
    path = tmp_path / "a4.grp"
    fileio.save_cayley(a4, path)
    two = [x for x in range(12) if a4.order_of(x) == 2]
    G = fileio.build_recipe(f"nsd({path},{two[0]},{two[1]})")
    assert G.n == 12


def test_recipe_nsd_over_a_trivial_subgroup_keeps_its_label():
    # 1 |x C4/1 has C4's own bytes, so the product is C4 itself
    G = fileio.build_recipe("nsd(cyclic(4),0)")
    assert G.label == "nsd(cyclic(4),H1)"
    assert G.key() == cons.cyclic(4).key()


def test_recipe_errors():
    for expr in ("nosuch(3)", "cyclic()", "cyclic(x)", "dp(cyclic(2))",
                 "sd(cyclic(5),cyclic(4),99)", "frobenius(7)", "cyclic(3"):
        with pytest.raises(core.InputError):
            fileio.build_recipe(expr)


def test_recipe_file_loads(tmp_path):
    path = tmp_path / "g.recipe"
    path.write_text("frobenius(5,4)\n")
    assert fileio.load_group(str(path)).n == 20


# -- report files ----------------------------------------------------------------------


def test_report_file_is_canonical_json(tmp_path):
    result = scan(8, lemmas=("theorem",), seed=7)
    path = tmp_path / "r.jsonl"
    fileio.write_report_file(result.reports, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.reports)
    for line in lines:
        rec = json.loads(line)
        assert rec["status"] in ("PASS", "FAIL", "SKIP")
        assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line


def test_summary_table_shape():
    result = scan(8, lemmas=("theorem", "bingo"), seed=7)
    text = fileio.summary_table(result.reports)
    lines = text.splitlines()
    assert lines[0].split() == ["check", "PASS", "FAIL", "SKIP", "tuples", "skipped"]
    assert any(ln.startswith("theorem") for ln in lines)


# -- CLI ---------------------------------------------------------------------------------


def test_cli_info_sym3(capsys):
    assert cli.main(["info", "sym(3)"]) == 0
    out = capsys.readouterr().out
    assert "order: 6" in out
    assert "N(G) = {1, 2, 3}" in out
    assert "|G|| = 6 (in N(G): no)" in out
    assert "A-group: yes" in out
    assert "|F(G)| = 3, |F2(G)| = 6" in out


def test_cli_verify_bingo_alt4(capsys):
    assert cli.main(["verify", "--lemma", "bingo", "alt(4)"]) == 0
    out = capsys.readouterr().out
    h_lines = [ln for ln in out.splitlines() if " H = " in ln]
    assert len(h_lines) == 2
    assert all(ln.startswith("PASS") for ln in h_lines)
    assert any("{0}" in ln for ln in h_lines)
    assert any("{0,3,8,11}" in ln for ln in h_lines)


def test_cli_verify_builds_each_bingo_product_once(capsys, monkeypatch):
    # every coset-action product is built by ``_coset_action_rows``, one row
    # per subgroup; the trivial subgroup's product is G and is not built
    calls = []
    real = cons._coset_action_rows

    def building(G, members, *args):
        calls.extend(row.tobytes() for row in members)
        return real(G, members, *args)

    monkeypatch.setattr(cons, "_coset_action_rows", building)
    assert cli.main(["verify", "--lemma", "bingo", "abelian(2,2,2)"]) == 0
    h_lines = [ln for ln in capsys.readouterr().out.splitlines() if " H = " in ln]
    assert len(h_lines) == 16
    assert len(calls) == len(set(calls)) == 15


def test_cli_verify_failing_exit_code():
    assert cli.main(["verify", "--lemma", "basic", "sym(4)"]) == 0


def test_cli_verify_exits_one_on_a_fail(monkeypatch, capsys):
    def failing(G):
        return [verifier._report(G, "basic", verifier.FAIL, witness={"pair": [1, 2]})]

    monkeypatch.setitem(verifier._CHECKS, "basic", failing)
    assert cli.main(["verify", "--lemma", "basic", "sym(4)"]) == 1
    assert "witness: {'pair': [1, 2]}" in capsys.readouterr().out


def test_cli_scan_max_order_one(tmp_path, capsys):
    report = tmp_path / "scan.jsonl"
    assert cli.main(["scan", "--max-order", "1", "-o", str(report)]) == 0
    out = capsys.readouterr().out
    assert "scanned 1 groups" in out
    recs = [json.loads(l) for l in report.read_text().splitlines()]
    assert {r["status"] for r in recs} == {"PASS"}


def test_cli_scan_determinism(tmp_path):
    r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["scan", "--max-order", "30", "--seed", "7", "-o", str(r1)]) == 0
    assert cli.main(["scan", "--max-order", "30", "--seed", "7", "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_construct_and_info(tmp_path, capsys):
    out_path = tmp_path / "d7.grp"
    assert cli.main(["construct", "dihedral(7)", "-o", str(out_path)]) == 0
    assert cli.main(["info", str(out_path)]) == 0
    assert "order: 14" in capsys.readouterr().out


def test_cli_usage_errors(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify", "--lemma", "nosuch", "sym(3)"]) == 2
    cap = core.max_order_cap()
    assert cli.main(["--cap", "0", "info", "cyclic(3)"]) == 2
    monkeypatch.setenv("AGROUPS_CAP", "0")
    assert cli.main(["info", "cyclic(3)"]) == 2
    monkeypatch.delenv("AGROUPS_CAP")
    assert core.max_order_cap() == cap
    assert cli.main(["info", "nosuchfile.grp"]) == 2
    for jobs in ("0", "-1"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert cli.main(["scan", "--max-order", "4", "--jobs", jobs, "-o", str(out)]) == 2
        assert not out.exists()
    assert cli.main(["construct", "frobenius(7,4)", "-o", str(tmp_path / "x")]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan"])  # missing --max-order
    assert exc.value.code == 2


def test_cli_restores_cap():
    cap = core.max_order_cap()
    assert cli.main(["--cap", "10", "info", "cyclic(3)"]) == 0
    assert core.max_order_cap() == cap


def test_cli_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("AGROUPS_CAP", "10")
    old = core.max_order_cap()
    try:
        assert cli.main(["construct", "cyclic(50)", "-o", str(tmp_path / "x")]) == 2
    finally:
        core.set_max_order_cap(old)


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("AGROUPS_SEED", "not-a-number")
    assert cli.main(["verify", "--lemma", "ca", "alt(4)"]) == 2
    monkeypatch.setenv("AGROUPS_SEED", "11")
    assert cli.main(["verify", "--lemma", "ca", "alt(4)"]) == 0


def test_cli_explore_flag(capsys):
    assert cli.main(["verify", "--lemma", "theorem", "--explore-minimal-lemmas",
                     "frobenius(7,3)"]) == 0
    out = capsys.readouterr().out
    assert "perfect" in out and "exploratory" in out
