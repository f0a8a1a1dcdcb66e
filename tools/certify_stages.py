"""Time each stage of the benchmark's ``certify`` and ``refuse``
operations, in-process, in this tree or against a second checkout.

Usage, from anywhere::

    python tools/certify_stages.py                 # this tree alone
    python tools/certify_stages.py OTHER_CHECKOUT  # this tree against another

The operation lists are ``perfbench/run.py``'s ``op_specs(W, seed, n)``
for W = certify and refuse, seeds 1 to SEEDS and n the length of a
20-second run (``op_count``); each operation runs ``cli.main`` on
``cli_args(W, spec, ...)``, all imported and not edited.  The stages are
timed with ``time.perf_counter`` by wrapping module attributes from
outside:

- modulus: ``shadowing.estimate_shadowing_modulus``, once per arc;
- stub: ``shadowing.find_inward_neighborhood``;
- separation: ``shadowing._neighborhood_pieces`` and
  ``shadowing._min_separation_sq``;
- per-arc sampling: ``sample_certificate_soundness``;
- global sampling: ``sample_global_soundness``;
- rest: the rest of ``cli.main``, from parsing the flags to writing the
  bundle.

This tree's ``cli`` holds no sampler: ``cmd_certify`` makes one call,
``shadowing.certify_model``, which reaches every stage through
``shadowing``'s attributes.  An older checkout's ``cli`` imports the
samplers by name, so a reference in ``cli`` to a stage function is wrapped
too.  No stage calls another.  An operation's stage time is its best over
REPEAT runs, and the script prints the median over the operations of each
stage and of their sum, in milliseconds, with each stage's share.  Times
are wall times of this process on whatever machine runs it.

Per workload, it also counts how this tree's modulus calls decide their
trials, by wrapping ``shadowing._one_scale_table`` from outside: a call
whose table is built runs the one-scale integer trial, and a call whose
table is None runs the definition (``generate_pseudo_orbit``, then the
fold).  A call whose epsilon covers the domain builds no table and is
counted in neither.  The count is taken on one run of each operation.

Given the path of a second checkout, the script loads that checkout's
``src/continua`` under the package name ``continua_other`` (with
``tools/compose_shapes.py``'s loader), checks that every operation writes
the same bundle bytes and exit code in both trees, and times the two trees
in turn on each operation and repeat, the first tree alternating
(``compose_shapes.best_stages``).  It then
prints, per stage and for the sum, both medians and the median and range
over the operations of this tree's best time divided by the other's.
Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

from compose_shapes import best_stages, load_other, report_stages  # noqa: E402
from continua import cli, shadowing  # noqa: E402
from run import cli_args, op_count, op_specs  # noqa: E402

WORKLOADS, SEEDS, SECONDS, REPEAT = ("certify", "refuse"), 2, 20, 3
STAGES = {
    "modulus": ("estimate_shadowing_modulus",),
    "stub": ("find_inward_neighborhood",),
    "separation": ("_neighborhood_pieces", "_min_separation_sq"),
    "per-arc sampling": ("sample_certificate_soundness",),
    "global sampling": ("sample_global_soundness",),
}
NAMES = (*STAGES, "rest")


class Tree:
    """One tree's ``cli``, with its stage functions wrapped to add their
    seconds to ``clock``."""

    def __init__(self, cli, shadowing):
        self.cli = cli
        self.clock = dict.fromkeys(STAGES, 0.0)
        for stage, names in STAGES.items():
            for name in names:
                fn = getattr(shadowing, name)
                timed = self.timed(stage, fn)
                for module in (shadowing, cli):
                    if getattr(module, name, None) is fn:
                        setattr(module, name, timed)

    def timed(self, stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.clock[stage] += time.perf_counter() - start

        return wrapper

    def run(self, argv: list[str], bundle: Path) -> tuple[list[float], tuple[int, bytes]]:
        """(seconds per stage in NAMES order, (exit code, bundle bytes))."""
        self.clock.update(dict.fromkeys(STAGES, 0.0))
        start = time.perf_counter()
        code = self.cli.main(argv)
        total = time.perf_counter() - start
        seconds = [self.clock[stage] for stage in STAGES]
        return seconds + [total - sum(seconds)], (code, bundle.read_bytes())


def count_paths() -> collections.Counter:
    """A counter of this tree's modulus calls, by how they decide their
    trials, kept up to date by wrapping ``shadowing._one_scale_table``."""
    paths = collections.Counter()
    table = shadowing._one_scale_table

    def counted(*args):
        result = table(*args)
        paths["definition" if result is None else "one-scale"] += 1
        return result

    shadowing._one_scale_table = counted
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path,
                        help="a second checkout, timed against this tree in this process")
    args = parser.parse_args()
    trees = [Tree(cli, shadowing)]
    paths = count_paths()
    if args.other is not None:
        load_other(args.other.resolve())
        trees.append(Tree(importlib.import_module("continua_other.cli"),
                          importlib.import_module("continua_other.shadowing")))
        print(f"this tree: {ROOT}\nother:     {args.other.resolve()}")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, bundle = Path(tmp), Path(tmp) / "bundle.json"
        for workload in WORKLOADS:
            ops = [cli_args(workload, spec, run_dir, bundle)
                   for seed in range(1, SEEDS + 1)
                   for spec in op_specs(workload, seed, op_count(workload, SECONDS))]
            paths.clear()
            for i, argv in enumerate(ops):
                outputs = {tree.run(argv, bundle)[1] for tree in trees}
                if len(outputs) > 1:
                    sys.exit(f"the other tree writes another bundle on {workload} op {i}")
            print(f"{workload}: {len(ops)} ops; modulus calls: {paths['one-scale']} on the "
                  f"one-scale table, {paths['definition']} by the definition")
            print(f"{workload}: best of {REPEAT}, median ms per op")
            report_stages(NAMES, best_stages(
                len(trees), len(ops), REPEAT, lambda t, i: trees[t].run(ops[i], bundle)[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
