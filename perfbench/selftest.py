"""Self-test of the benchmark at tiny sizes; finishes in well under a minute.

    python3 perfbench/selftest.py

It checks that the lattice generator never overlaps two balls and is
deterministic per seed, that every workload runs traced and untraced and
emits exactly the metrics BENCHMARK.json names, each with its unit and a
direction, and that every correctness gate fires on a corrupted result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import run as bench

# tiny versions of the workloads: same pipeline, sizes that run in a second
TINY = {
    "fit-wide": dict(n=600, m=60, cv_per_class=20, cv_m=20, queries=128),
    "fit-tall": dict(n=4000, m=8, cv_per_class=20, cv_m=20, queries=128),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def fires(gate, *args) -> bool:
    import gates

    try:
        gate(*args)
    except gates.GateError:
        return True
    return False


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    expect(set(spec) == keys, f"BENCHMARK.json keys {sorted(spec)}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "a metric name is used twice")
    for metric in spec["end_to_end"]:
        expect(set(metric) == {"name", "unit", "better", "bound"}, f"keys of {metric}")
        expect(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        expect(metric["better"] in ("lower", "higher"), f"direction of {metric['name']}")
        expect(bool(metric["unit"]), f"unit of {metric['name']}")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["unit"] == "s" and setup["better"] == "lower", "setup_s must be seconds, lower")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s bound")


def check_lattice() -> None:
    import numpy as np

    from lattice import GAP, lattice_balls

    for seed in (0, 7):
        centers, radii, labels = lattice_balls(1500, seed)
        again = lattice_balls(1500, seed)
        expect(all(np.array_equal(a, b) for a, b in zip((centers, radii, labels), again)),
               "one seed gave two different inputs")
        diff = centers[:, None, :] - centers[None, :, :]
        gap = np.sqrt((diff**2).sum(-1)) - radii[:, None] - radii[None, :]
        np.fill_diagonal(gap, np.inf)
        expect(gap.min() >= GAP - 1e-9, f"balls overlap or touch: surface gap {gap.min()}")
        expect(int(labels.sum()) == 750, "classes are not balanced")
    other = lattice_balls(1500, 8)[0]
    expect(not np.array_equal(lattice_balls(1500, 7)[0], other), "seeds give the same balls")


def check_workloads(spec: dict, workdir) -> "bench.Run":
    from workloads import WORKLOADS, Run

    expect(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]), "workload names")
    kept = None
    for name, sizes in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], **sizes)
        for trace in (False, True):
            r = Run(w, seed=3, seconds=1.0, trace=trace, workdir=workdir)
            r.run()
            out = bench.result(r, spec, trace)
            json.dumps({"record": r.record()})
            expect(out["failed"] == 0 and out["correct"], f"{name} trace={trace}: {r.failures}")
            listed = spec["per_layer" if trace else "end_to_end"]
            expect(list(out["metrics"]) == [m["name"] for m in listed], f"{name} metric names")
            for m in listed:
                got = out["metrics"][m["name"]]
                expect(got["unit"] == m["unit"] and math.isfinite(got["value"]),
                       f"{name} {m['name']} = {got}")
            if trace:
                expect(not r.tracer.absent, f"hooks absent: {r.tracer.absent}")
                expect(out["metrics"]["nystrom.entries_touched"]["value"] == r.inputs.n * w.m,
                       f"{name}: traced entries differ from N*m")
            elif name == "fit-wide":
                kept = r
    return kept


def check_gates(r, workdir) -> None:
    import numpy as np

    import gates
    from proxkern import corrections, nystrom
    from proxkern.dataio import Kind

    model = r.model
    n, m = model.n, model.m
    expect(fires(gates.entries, n * m - 1, n, m), "entries gate missed a short fetch")
    expect(fires(gates.psd, dataclasses.replace(model, w_star=-model.w_star)),
           "psd gate missed a negated w_star")
    expect(fires(gates.psd, dataclasses.replace(model, r=None)), "psd gate missed a missing factor")
    cross = model.cross.copy()
    cross[model.landmarks] = np.eye(m)
    expect(fires(gates.indefinite, dataclasses.replace(model, cross=cross)),
           "indefinite gate missed a psd spectrum")
    clipped = corrections.fit_corrected_model(
        nystrom.RowOracle(r.inputs.row_fn, n), kind=Kind.SQUARED_DISSIMILARITY, m=m,
        mode="clip", seed=r.seed,
    )
    gates.psd(clipped)
    expect(fires(gates.indefinite, dataclasses.replace(clipped, mode=model.mode)),
           "indefinite gate missed a fit that dropped the negative directions")
    rows = np.arange(4)
    d_rows = np.stack([r.inputs.row_fn(i)[model.landmarks] for i in rows])
    gates.extension(model, rows, d_rows)
    stats = dataclasses.replace(model.stats, s=model.stats.s * (1 + 1e-6))
    expect(fires(gates.extension, dataclasses.replace(model, stats=stats), rows, d_rows),
           "extension gate missed shifted centering statistics")

    path = workdir / "gate.pcm"
    corrections.save_model(model, path)
    loaded = corrections.load_model(path)
    gates.same_model(model, loaded)
    loaded.cross.view(np.uint64)[0, 0] ^= 1
    expect(fires(gates.same_model, model, loaded), "round-trip gate missed one flipped bit")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])
    before = r.failed
    r.attempt("serve", lambda: gates.same_model(model, corrections.load_model(path)))
    expect(r.failed == before + 1 and "DataError" in r.failures[-1],
           "a truncated PCM file was not counted as a failed operation")

    first = r.cv_reports[0]
    changed = dataclasses.replace(first, accuracies=first.accuracies[::-1] * 0.5)
    expect(fires(gates.same_cv, first, changed, len(first.accuracies)), "cv gate missed a change")
    expect(not bench.result(r, json.loads((bench.ROOT / "BENCHMARK.json").read_text()), False)[
        "correct"], "a failed operation left the result marked correct")


def main() -> int:
    bench.pin_blas_threads()
    bench.import_program()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_lattice()
    workdir = bench.ROOT / ".perfbench_tmp" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = check_workloads(spec, workdir)
        check_gates(r, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
