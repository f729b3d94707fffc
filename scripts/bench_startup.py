"""Time fresh-interpreter start-up and record the figures in BENCH_startup.json.

Each command runs ``REPEATS`` times in a fresh interpreter, the commands
taking turns, with the tough2f tree given by ``--src`` on ``PYTHONPATH``
and this process and its children kept on one CPU. Commands:

- ``python_pass``: ``python -c pass``, the interpreter alone;
- ``import_cli``: ``python -c "import tough2f.cli"``;
- ``hunt_<theorem>``: ``python -m tough2f.cli hunt`` on a graph6 file of
  the first ``CORPUS_GRAPHS`` graphs of the ``hunt-shared`` corpus for
  seed ``CORPUS_SEED`` (``bench/workloads.hunt_corpus``), for THM1i with
  t = 5/4 and THM2 with eps = 1/2.

For each command the entry holds ``<command>_s`` (median wall seconds),
``<command>_repeats_s`` (every run) and ``<command>_modules`` (the number
of modules in ``sys.modules`` when the command ends, counted in one extra
run that also loads ``runpy``, as ``python -m`` does). ``answers_sha256``
hashes each hunt's exit code and stdout, so equal digests under two labels
show the two trees agree. The provenance of
``benchkit.provenance`` and the value of ``PYTHONDONTWRITEBYTECODE`` (when
unset, a run may reuse cached bytecode) are recorded too. Results are
merged into BENCH_startup.json under ``--label``:

    python3 scripts/bench_startup.py --src ../parent/src --label parent
    python3 scripts/bench_startup.py --label change
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchkit import ROOT, parse_args, provenance, save, timed

OUT = ROOT / "BENCH_startup.json"
CORPUS_SEED = 3
CORPUS_GRAPHS = 60
HUNTS = {"THM1i": ["--t", "5/4"], "THM2": ["--eps", "1/2"]}
REPEATS = 25

# run a command's statement, then print how many modules are loaded
COUNT_MODULES = """\
import runpy, sys
try:
    {statement}
except SystemExit:
    pass
print(len(sys.modules), file=sys.stderr)
"""


def commands(corpus: Path) -> dict:
    """name -> (interpreter arguments, the same run as one statement)."""
    out = {"python_pass": (["-c", "pass"], "pass"),
           "import_cli": (["-c", "import tough2f.cli"], "import tough2f.cli")}
    for theorem, params in HUNTS.items():
        argv = ["hunt", str(corpus), "--theorem", theorem, *params]
        out[f"hunt_{theorem}"] = (
            ["-m", "tough2f.cli", *argv],
            f"sys.argv = {['tough2f.cli', *argv]!r}; "
            "runpy.run_module('tough2f.cli', run_name='__main__')")
    return out


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f import graphs
    import workloads

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    corpus = workloads.hunt_corpus(CORPUS_SEED, CORPUS_GRAPHS)
    entry = {**provenance(),
             "PYTHONDONTWRITEBYTECODE": os.environ.get(
                 "PYTHONDONTWRITEBYTECODE"),
             "corpus_seed": CORPUS_SEED, "corpus_graphs": len(corpus),
             "corpus_orders": workloads.order_mix(corpus),
             "repeats": REPEATS}

    def run(args: list):
        return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.g6"
        path.write_text("".join(graphs.encode_graph6(g) + "\n"
                                for g in corpus), encoding="ascii")
        todo = commands(path)
        runs: dict = {name: [] for name in todo}
        last: dict = {}
        for _ in range(REPEATS):
            for name, (cmd, _) in todo.items():
                _, (seconds,), last[name] = timed(lambda: run(cmd), 1)
                if last[name].returncode not in (0, 1):
                    raise RuntimeError(f"{name} failed: {last[name].stderr}")
                runs[name].append(seconds)
        for name, (_, statement) in todo.items():
            entry[f"{name}_s"] = round(statistics.median(runs[name]), 5)
            entry[f"{name}_repeats_s"] = [round(s, 5) for s in runs[name]]
            count = run(["-c", COUNT_MODULES.format(statement=statement)])
            entry[f"{name}_modules"] = int(count.stderr.split()[-1])
    answers = [(name, proc.returncode, proc.stdout)
               for name, proc in last.items() if name.startswith("hunt_")]
    entry["answers_sha256"] = hashlib.sha256(
        repr(answers).encode()).hexdigest()
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
