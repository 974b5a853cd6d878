"""Time two checkouts of bestexec against each other, in one process.

Imports the package of each checkout's src/ under its own name and runs a
round of CLI argvs through each one's bestexec.cli.main, the two
interleaved: round r runs checkout a first when r is even and b first when
it is odd, so drifts in machine speed fall on both alike. Each argv is one
command line, split as a shell would; "{i}" in it becomes the round index
(a seed that moves with the round, say). Every call writes to its own
temporary directory, emptied before the call, so each call creates its
files as a fresh run would. Prints the median round time of each checkout,
the median of the per-round ratios b/a, the number of rounds in which b
was faster than a, and the interquartile range of the per-round ratios (a
ratio moved by less than that range is inside the noise):

    python tools/ab_time.py ../parent/src src \\
        --argv "simulate --strategy naive --seed {i}" \\
        --argv "simulate --strategy ar --seed {i}" --rounds 400

    python tools/ab_time.py ../parent/src src --rounds 20 \\
        --argv "montecarlo --n-sims 1000 --horizon 400 --seed {i}"

The same argvs must give the same exit codes in both checkouts, or the
timings would compare different work; the tool stops at the first
mismatch. BLAS threads are not pinned here: set OPENBLAS_NUM_THREADS=1 in
the environment to time as the benchmark does.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import shlex
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_cli(src: str, name: str):
    """The cli module of the bestexec package under src/, imported as the
    package `name`, so that two checkouts live in one process."""
    package_dir = Path(src).resolve() / "bestexec"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # an earlier load of this name, maybe of another src
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    if spec is None:
        raise SystemExit(f"ab_time: no bestexec package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _run_round(cli, argvs: list[list[str]], index: int, out_dir: Path) -> tuple[float, list[int]]:
    """Run one round of argvs on cli and return its seconds and exit codes;
    output files go to out_dir, which is emptied before every call."""
    elapsed, codes = 0.0, []
    for template in argvs:
        argv = [token.replace("{i}", str(index)) for token in template]
        argv[1:1] = ["--out-dir", str(out_dir)]
        for path in out_dir.iterdir():
            path.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed += time.perf_counter() - start
        codes.append(code)
    return elapsed, codes


def ab_time(src_a: str, src_b: str, argvs: list[list[str]], rounds: int,
            warmup: int = 3) -> dict[str, float]:
    """Median round seconds of checkouts a and b ("a_s", "b_s"), the median
    per-round ratio b/a ("ratio"), the number of rounds in which b was
    faster ("b_wins") and the interquartile range of the per-round ratios
    ("ratio_iqr", by statistics.quantiles' inclusive method; 0.0 for one
    round), over `rounds` interleaved rounds after `warmup` untimed ones."""
    clis = load_cli(src_a, "_ab_time_a"), load_cli(src_b, "_ab_time_b")
    times: tuple[list[float], list[float]] = ([], [])
    with tempfile.TemporaryDirectory() as tmp:
        dirs = Path(tmp, "a"), Path(tmp, "b")
        for d in dirs:
            d.mkdir()
        for r in range(warmup + rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            results = {}
            for k in order:
                results[k] = _run_round(clis[k], argvs, r, dirs[k])
            if results[0][1] != results[1][1]:
                raise SystemExit(f"ab_time: round {r} exit codes differ: "
                                 f"a {results[0][1]}, b {results[1][1]}")
            if r >= warmup:
                for k in (0, 1):
                    times[k].append(results[k][0])
        for d in dirs:
            shutil.rmtree(d)
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                 if len(ratios) > 1 else ratios * 3)
    return {"a_s": statistics.median(times[0]), "b_s": statistics.median(times[1]),
            "ratio": statistics.median(ratios), "b_wins": sum(r < 1.0 for r in ratios),
            "ratio_iqr": q3 - q1}


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="checkout a's src directory (the base)")
    parser.add_argument("src_b", help="checkout b's src directory (the change)")
    parser.add_argument("--argv", action="append", required=True,
                        help="one CLI call of the round; repeat for more")
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=3)
    opts = parser.parse_args(args)
    if opts.rounds < 1 or opts.warmup < 0:
        parser.error("--rounds must be >= 1 and --warmup >= 0")
    argvs = [shlex.split(line) for line in opts.argv]
    res = ab_time(opts.src_a, opts.src_b, argvs, opts.rounds, opts.warmup)
    print(f"a: {opts.src_a}: median round {res['a_s'] * 1e3:.4g} ms")
    print(f"b: {opts.src_b}: median round {res['b_s'] * 1e3:.4g} ms")
    print(f"median per-round ratio b/a: {res['ratio']:.4f} "
          f"({1.0 / res['ratio']:.3f}x the speed of a)")
    print(f"rounds in which b was faster: {res['b_wins']} of {opts.rounds}")
    print(f"interquartile range of the per-round ratio b/a: {res['ratio_iqr']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
