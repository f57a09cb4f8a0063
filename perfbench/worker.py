"""One workload process of the crosscap benchmark.

Reads a JSON spec on stdin, imports crosscap from `<root>/src`, runs the
phases the spec asks for and writes one JSON object on stdout.  Modes:

* "run": the verdict phase (cold), the warm-up, then whole blocks of the
  seeded stream of batch operations (see workloads.py) until
  `pass_seconds` of wall time have passed since the worker started and it
  has run its share of MIN_BATCH_OPS.  The
  golden checks follow, untimed, when the spec asks for them.  Every timed
  interval is reported both as wall time and at the nominal host speed of
  speed.py, whose sampler runs all through this mode.
* "trace": the verdict phase and warm-up under the tracer, then each of the
  first `trace_ops` batch operations once untraced and once traced, then
  the golden checks untraced.  Trace mode reports wall times only.

Each operation's output is checked by `checker` after its timer stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import checker
import workloads
from speed import Sampler
from tracer import Tracer, installed_wrappers

# operations a run needs for ten samples beyond p95, all processes together
MIN_BATCH_OPS = 200
MAX_FAILURE_REASONS = 5

Interval = tuple[float, float]


class Phases:
    """Runs one workload against the imported library and tallies failures."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = workloads.WORKLOADS[spec["workload"]]
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        from crosscap import cli, f2core, gmform, groupops, rewrite, words

        self.cli, self.f2core, self.gmform = cli, f2core, gmform
        self.groupops, self.rewrite, self.words = groupops, rewrite, words

    def _fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_FAILURE_REASONS:
            self.reasons.append(f"{what}: {reason}")

    # -- verdict phase -----------------------------------------------------

    def _lemma(self, argv) -> tuple[int, str, Interval]:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue(), (start, perf_counter())

    def _checked_lemma(self, argv) -> Interval | None:
        self.attempted += 1
        try:
            code, text, interval = self._lemma(argv)
        except Exception as exc:  # a traceback is a failed verdict, not a crash
            self._fail(" ".join(argv), repr(exc))
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        reason = checker.check_lemma(list(argv), code, payload)
        if reason:
            self._fail(" ".join(argv), reason)
            return None
        return interval

    def verdicts(self) -> list[Interval | None]:
        return [self._checked_lemma(argv) for argv in self.workload.verdicts]

    def goldens(self) -> None:
        """Known orders and diameters for genus 2..6 (group workload only)."""
        if self.workload.name == "group":
            for g in range(2, 7):
                self._checked_lemma(("verify-lemma", "4.8", "-g", str(g), "--workers", "1"))

    # -- warm-up -------------------------------------------------------------

    def warmup(self) -> Interval:
        """The lazy builds the batch needs, paid once per process."""
        Genus = self.f2core.Genus
        start = perf_counter()
        name = self.workload.name
        if name == "decide":
            for g in workloads.DECIDE_TABLE_GENERA:
                self.gmform.q_table(Genus(g))
        elif name == "group":
            for g in workloads.GROUP_GENERA:
                self.groupops.standard_generators(Genus(g))
        else:
            g = workloads.RSEQ_GENUS
            self.rewrite.reduce_rseq(self.rewrite.RSequence(Genus(g), 0))
        return start, perf_counter()

    # -- batch operations ----------------------------------------------------

    def run_op(self, op: dict):
        """The timed part of one operation: library calls only."""
        words, groupops, rewrite = self.words, self.groupops, self.rewrite
        genus = self.f2core.Genus(op["g"])
        kind = op["kind"]
        if kind == "decide":
            word = words.parse_word(op["word"], genus)
            verdict = words.decide_extendable(word)
            image = words.induced_matrix(word).apply(self.f2core.H1Vector(genus, op["vector"]))
            return verdict, image
        if kind == "factorize":
            target = words.induced_matrix(words.parse_word(op["word"], genus))
            gens = groupops.standard_generators(genus)
            return groupops.factorize(
                target, [m for _, m in gens], labels=[label for label, _ in gens]
            )
        if kind == "rseq":
            return rewrite.reduce_rseq(rewrite.RSequence(genus, op["bits"]))
        if kind == "alpha":
            return rewrite.reduce_alpha(genus, rewrite.AlphaTriple(*op["triple"]))
        H1Vector = self.f2core.H1Vector
        if kind == "q2":
            return groupops.reduce_q2_vector(H1Vector(genus, op["bits"]))
        return groupops.reduce_isotropic_pair(H1Vector(genus, op["a"]), H1Vector(genus, op["b"]))

    @staticmethod
    def output(op: dict, raw) -> dict:
        """Plain values of a result, in the checker's conventions."""
        kind = op["kind"]
        if kind == "decide":
            verdict, image = raw
            return {
                "matrix": list(verdict.matrix.cols),
                "extendable": verdict.extendable,
                "witness": verdict.witness.bits if verdict.witness is not None else None,
                "image": image.bits,
            }
        if kind == "factorize":
            return {"status": raw.status, "labels": list(raw.word_labels or ())}
        if kind == "rseq":
            return {
                "start": raw.start.bits,
                "end": raw.end.bits,
                "states": [s.bits for s in raw.states],
                "steps": len(raw.steps),
                "word": raw.word,
            }
        if kind == "alpha":
            return {"terminal": list(raw.terminal), "label": raw.label, "word": raw.word}
        if kind == "q2":
            return {"end": raw.end.bits, "moves": list(raw.moves), "word": raw.word}
        return {
            "branch": raw.branch,
            "tracked_pair": list(raw.tracked_pair),
            "final_pair": [v.bits for v in raw.final_pair],
            "moves": list(raw.moves),
            "word": raw.word,
        }

    def timed_op(self, index: int, op: dict) -> Interval | None:
        """Run, time and check one operation; None when it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            raw = self.run_op(op)
        except Exception as exc:  # budget exhaustion or a broken replay
            self._fail(f"op {index} ({op['kind']})", repr(exc))
            return None
        end = perf_counter()
        try:
            reason = checker.check_op(op, self.output(op, raw))
        except (AttributeError, TypeError, ValueError) as exc:
            reason = f"unreadable result: {exc!r}"
        if reason:
            self._fail(f"op {index} ({op['kind']}, g={op['g']})", reason)
            return None
        return start, end

    def batch_pass(self, started: float) -> list[Interval | None]:
        """Whole blocks of this worker's part of the stream until
        `pass_seconds` have passed since `started` and the worker has run its
        share of MIN_BATCH_OPS.  Returns the interval of each operation in
        stream order; None if it failed."""
        spec = self.spec
        stream = workloads.op_stream(self.workload.name, spec["seed"], spec["part"])
        size = workloads.block_size(self.workload.name)
        least = -(-MIN_BATCH_OPS // spec["processes"])
        intervals: list[Interval | None] = []
        stop = started + spec["pass_seconds"]
        while len(intervals) < least or perf_counter() < stop:
            for _ in range(size):
                intervals.append(self.timed_op(len(intervals), next(stream)))
        return intervals

    def paired_ops(self, ops: list[dict], tracer: Tracer) -> tuple[float, float]:
        """Run each operation once untraced and once traced, alternating which
        goes first so drift and cache warmth fall on both sides alike.
        Returns the summed untraced and traced latencies."""
        totals = [0.0, 0.0]
        for index, op in enumerate(ops):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = index
                    with tracer:
                        interval = self.timed_op(index, op)
                else:
                    interval = self.timed_op(index, op)
                if interval is not None:
                    totals[traced] += interval[1] - interval[0]
        return totals[0], totals[1]

    def tally(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": self.reasons,
        }


def _import_crosscap(root: Path) -> Interval:
    src = root / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import crosscap
    import crosscap.cli  # noqa: F401  (the CLI user pays this import too)

    end = perf_counter()
    where = Path(crosscap.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"crosscap was imported from {where}, not from {src}")
    return start, end


def _run(spec: dict) -> tuple[Phases, dict]:
    started = perf_counter()
    with Sampler() as sampler:
        imported = _import_crosscap(Path(spec["root"]))
        phases = Phases(spec)
        verdicts = phases.verdicts()
        warmup = phases.warmup()
        ops = phases.batch_pass(started)
        if spec.get("goldens"):
            phases.goldens()

    def wall(interval: Interval) -> float:
        return interval[1] - interval[0] - sampler.paused(*interval)

    def timings(intervals: list[Interval]) -> dict | None:
        """Summed wall and nominal time; None if one of them failed."""
        if None in intervals:
            return None
        return {
            "wall": sum(map(wall, intervals)),
            "nominal": sum(sampler.nominal(*i) for i in intervals),
        }

    return phases, {
        "import_s": wall(imported),
        "verdict": timings(verdicts),
        "setup": timings([imported, warmup]),
        "latencies": [None if i is None else sampler.nominal(*i) for i in ops],
        "latencies_wall": [None if i is None else wall(i) for i in ops],
        "speed_samples": len(sampler.starts),
    }


def _trace(spec: dict) -> tuple[Phases, dict]:
    _import_crosscap(Path(spec["root"]))
    phases = Phases(spec)
    ops = workloads.ops(spec["workload"], spec["seed"], phases.workload.trace_ops)
    tracer = Tracer()
    with tracer:
        tracer.op = "verdict"
        phases.verdicts()
        tracer.op = "warmup"
        phases.warmup()
    untraced, traced = phases.paired_ops(ops, tracer)
    leftover = installed_wrappers()
    if leftover:
        raise SystemExit(f"tracing wrappers left installed: {leftover}")
    phases.goldens()
    layers = tracer.layer_metrics(len(ops))
    layers["trace.ops_per_s"] = len(ops) / traced
    layers["trace.untraced_ops_per_s"] = len(ops) / untraced
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return phases, {"layers": layers, "spans": len(tracer.spans)}


def main() -> int:
    spec = json.load(sys.stdin)
    modes = {"run": _run, "trace": _trace}
    if spec["mode"] not in modes:
        raise SystemExit(f"unknown mode {spec['mode']!r}")
    phases, result = modes[spec["mode"]](spec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(phases.tally())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
