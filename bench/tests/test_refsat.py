"""The reference solver against brute force on small random CNFs."""

import os
import random
import subprocess

import pytest

from run import STATS_RE


def brute_force_sat(nvars, clauses) -> bool:
    return any(all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in cl) for cl in clauses)
               for bits in range(1 << nvars))


def dimacs(nvars, clauses) -> str:
    return f"p cnf {nvars} {len(clauses)}\n" + "".join(
        " ".join(map(str, cl)) + (" 0\n" if cl else "0\n") for cl in clauses)


def solve(exe, path, seed=0, stats=None):
    env = {"REFSAT_SEED": str(seed)}
    if stats:
        env["REFSAT_STATS"] = str(stats)
    return subprocess.run([str(exe), str(path)], capture_output=True, text=True, env=env)


def model_of(stdout) -> set:
    return {int(tok) for line in stdout.splitlines() if line.startswith("v")
            for tok in line[1:].split() if tok != "0"}


def random_cnf(rng):
    nvars = rng.randint(1, 12)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(rng.randint(1, 4))]
               for _ in range(rng.randint(0, 5 * nvars))]
    if rng.random() < 0.03:
        clauses.append([])
    return nvars, clauses


@pytest.mark.parametrize("block", range(4))
def test_matches_brute_force(refsat, tmp_path, block):
    rng = random.Random(block)
    path = tmp_path / "f.cnf"
    for case in range(150):
        nvars, clauses = random_cnf(rng)
        path.write_text(dimacs(nvars, clauses))
        proc = solve(refsat, path, seed=case)
        want = brute_force_sat(nvars, clauses)
        assert proc.returncode == (10 if want else 20), (nvars, clauses)
        if want:
            assert proc.stdout.startswith("s SATISFIABLE\n")
            model = model_of(proc.stdout)
            assert all(any(l in model for l in cl) for cl in clauses)
            assert {abs(l) for l in model} == set(range(1, nvars + 1))
        else:
            assert proc.stdout == "s UNSATISFIABLE\n"


def test_pigeonhole_is_refuted(refsat, tmp_path):
    holes = 6
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    clauses += [[-var(p, h), -var(q, h)] for h in range(holes)
                for p in range(holes + 1) for q in range(p + 1, holes + 1)]
    path = tmp_path / "php.cnf"
    path.write_text(dimacs((holes + 1) * holes, clauses))
    assert solve(refsat, path).returncode == 20


def test_deterministic_for_a_seed_and_stats_line(refsat, tmp_path):
    rng = random.Random(7)
    nvars = 60
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(3)] for _ in range(250)]
    path = tmp_path / "n9d4p0w0.cnf"
    path.write_text(dimacs(nvars, clauses))
    stats = tmp_path / "stats"
    runs = [solve(refsat, path, seed=s, stats=stats) for s in (3, 3, 4)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode in (10, 20)
    lines = stats.read_text().splitlines()
    assert len(lines) == 3
    parsed = [STATS_RE.match(line) for line in lines]
    assert all(m and m[1] == "n9d4p0w0" for m in parsed)
    assert parsed[0][3] == parsed[1][3]          # same conflicts for the same seed
    assert int(parsed[0][4]) > 0


def test_rejects_malformed_input(refsat, tmp_path):
    for text in ("1 2 0\n", "p cnf 2 1\n1 3 0\n", "p cnf 2 1\n1 x 0\n", "p cnf 2 1\np cnf 2 1\n1 0\n"):
        path = tmp_path / "bad.cnf"
        path.write_text(text)
        assert solve(refsat, path).returncode == 1
    assert subprocess.run([str(refsat)], capture_output=True).returncode == 1
    assert not os.path.exists(tmp_path / "missing.cnf")
    assert solve(refsat, tmp_path / "missing.cnf").returncode == 1
