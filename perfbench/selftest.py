#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one round of the analyst calls of each workload and one round of
the ``gvl-a`` study, shows that every check accepts the program's real
outputs, then feeds each check deliberately wrong outputs (a p-value
off by 1/K, a g_hat off by 1e-6, a statistic off in its fifth decimal,
a wrong decision, too many null rejections, ...) and shows that each is
rejected.  Exits non-zero if any check passes vacuously.  Takes about
five seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import checks
import run

failures = []


def expect(problems, ok, label):
    passed = not problems
    status = "ok  " if passed == ok else "FAIL"
    print(f"{status} {'accepts' if ok else 'rejects'} {label}"
          + ("" if passed else f": {problems[0]}"))
    if passed != ok:
        failures.append(label)


def mutated(out, edit):
    out = copy.deepcopy(out)
    edit(out)
    return out


def analyst_outputs(kind, workdir):
    part = run.AnalystPart(run.import_program(), kind, 1, workdir)
    part.round(0)
    return part.first


def test_grid(workdir):
    first = analyst_outputs("grid", workdir)
    gscg = [(json.loads(r), p) for (m, p), (r, *_ ) in first.items() if m == "gsc-g"]
    out, path = gscg[0]
    k = out["diagnostics"]["n_usable_windows"]
    step = 1.0 / k if out["p_value"] + 1.0 / k <= 1 else -1.0 / k
    expect(checks.check_gscg(out, path), True, "gsc-g output")
    expect(checks.check_gscg(mutated(out, lambda o: o.update(p_value=o["p_value"] + step)),
                             path), False, "gsc-g p-value off by 1/K")
    expect(checks.check_gscg(mutated(out, lambda o: o.update(statistic=o["statistic"] * (1 + 1e-6))),
                             path), False, "gsc-g T off by 1e-6 relative")
    expect(checks.check_gscg(mutated(out, lambda o: o["diagnostics"]["g_hat"].__setitem__(
        0, o["diagnostics"]["g_hat"][0] + 1e-6)), path), False, "gsc-g g_hat off by 1e-6")
    expect(checks.check_gscg(mutated(out, lambda o: o["diagnostics"].update(window=[5.0, 5.0])),
                             path), False, "gsc-g with another window")

    lz_ok = [(json.loads(r), p) for (m, p), (r, _, _, e) in first.items() if m == "lz" and e is None]
    lz_bad = [(out_, p, e) for (m, p), (_, out_, _, e) in first.items() if m == "lz" and e is not None]
    out, path = lz_ok[0]
    expect(checks.check_lz(out, path, printed=False), True, "lz JSON output")
    expect(checks.check_lz(mutated(out, lambda o: o.update(
        stage1_statistic=o["stage1_statistic"] + 1e-5)), path, printed=False), False,
        "lz stage 1 statistic off by 1e-5")
    expect(checks.check_lz(mutated(out, lambda o: o.update(stage1_pvalue=0.5)), path,
                           printed=False), False, "lz stage 1 p-value off by 0.5")
    expect(checks.check_lz(mutated(out, lambda o: o.update(reject=False)), path,
                           printed=False), False, "lz with the decision flipped")
    printed, path, error = lz_bad[0]
    expect(checks.check_lz_failure(error, printed, path), True, "lz JSON fault after stage 2")
    stat = checks.parse_lz_stdout(printed)["stage2_statistic"]
    expect(checks.check_lz_failure(error, printed.replace(f"{stat:.6f}", f"{stat + 1e-5:.6f}"),
                                   path), False, "printed lz stage 2 statistic off by 1e-5")
    expect(checks.check_lz_failure(ValueError("boom"), printed, path), False,
           "lz failing with another error")
    no_stage2 = printed.split("stage 2")[0] + "stage 2 (diagonal):   not reached\n"
    expect(checks.check_lz_failure(error, no_stage2, path), False,
           "lz JSON fault without stage 2")


def test_points(workdir):
    first = analyst_outputs("points", workdir)
    for method, check in (("gsc-u", checks.check_gscu), ("ms", checks.check_ms)):
        out, path = next((json.loads(r), p) for (m, p), (r, *_ ) in first.items() if m == method)
        expect(check(out, path), True, f"{method} output")
        expect(check(mutated(out, lambda o: o["diagnostics"]["g_hat"].__setitem__(
            1, o["diagnostics"]["g_hat"][1] + 1e-6)), path), False, f"{method} g_hat off by 1e-6")
        expect(check(mutated(out, lambda o: o.update(p_value=o["p_value"] * (1 + 1e-6) + 1e-300)),
                     path), False, f"{method} p-value off by 1e-6 relative")
    out, path = next((json.loads(r), p) for (m, p), (r, *_ ) in first.items() if m == "ms")
    expect(checks.check_ms(mutated(out, lambda o: o["diagnostics"].update(
        bandwidth=o["diagnostics"]["bandwidth"] * (1 + 1e-6))), path), False,
        "ms bandwidth off by 1e-6 relative")


def test_study():
    part = run.StudyPart(run.import_program(), "gvl-a", 1)
    part.round(0)
    cells, reps, n = part.cells, part.replicates, part.n_cells
    expect(checks.check_study(cells, reps, n), True, "gvl-a study cells")

    def edit(pred, change):
        return [change(c) if pred(c) else c for c in cells]

    is_null = lambda c: c[1] == 1.0                                  # noqa: E731
    is_alt = lambda c: c[0] == "gsc-g" and c[1] == 2.0 and c[2] == 0.0  # noqa: E731
    expect(checks.check_study(edit(lambda c: c is cells[0], lambda c: c[:3] + (reps - 1, c[4])),
                              reps, n), False, "a cell with one replicate missing")
    expect(checks.check_study(cells[:-1], reps, n), False, "a missing cell")
    expect(checks.check_study(edit(is_null, lambda c: c[:4] + (c[3],)), reps, n), False,
           "every null replicate rejected")
    expect(checks.check_study(edit(is_alt, lambda c: c[:4] + (0,)), reps, n), False,
           "no rejection at R=2, theta=0")


def main():
    workdir = run.OUT / f"selftest-{os.getpid()}"
    try:
        test_grid(workdir / "grid")
        test_points(workdir / "points")
        test_study()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print(f"{len(failures)} check(s) misbehaved: {', '.join(failures)}")
        return 1
    print("every check accepts real outputs and rejects the wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
