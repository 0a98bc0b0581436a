"""One timed pass of a benchmark workload, in a fresh interpreter.

Usage: child.py WORKLOAD MODE OUT_PATH TRACE_ID|- SPANS_PATH|- -- PREFCHECK_ARGS...

Imports `prefcheck` from the checkout's `src/`, runs `prefcheck.cli.main`
on the arguments with its standard output captured to OUT_PATH, and prints
one JSON line with the pass's measurements:

- `wall_s`: from the start of `import prefcheck` to the return of `main`;
- `setup_s`: from the same start to the first `AxiomEngine.verdict`
  request, plus on `fuzz` the time spent generating the instances after
  the first (`fuzz_corpus` steps), so that all of generation counts;
- `instances`: seconds per catalog entry (`run_entry`) or per fuzz
  instance (`soundness_violations`); on `scale` the one instance is the
  verdict phase, first verdict request to last verdict;
- `peak_rss_mb`: this process's `ru_maxrss`;
- `layers`: with a TRACE_ID, every layer metric of `layers.LAYER_METRICS`
  except the tracing overhead, and the spans go to SPANS_PATH.

MODE is `pass`, or `setup` for a set-up-only pass: it stops at the first
verdict request (on `fuzz` it generates every instance and checks none)
and reports `setup_s` and whether it got there (`setup_done`).
"""

import contextlib
import io
import os
import sys
import time


class SetupDone(BaseException):
    """Raised at the first verdict request of a set-up-only pass; a
    BaseException, so no handler in the package catches it."""


def main() -> int:
    workload, mode, out_path, trace_id, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("pass", "setup"):
        raise SystemExit(__doc__)
    setup_only = mode == "setup"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    clock = time.perf_counter

    t0 = clock()
    import prefcheck
    from prefcheck import axioms, catalog, cli

    if os.path.dirname(os.path.dirname(os.path.abspath(prefcheck.__file__))) != src:
        raise SystemExit(f"prefcheck imported from {prefcheck.__file__}, not {src}")

    tracer = None
    if trace_id != "-":
        from layers import Tracer

        tracer = Tracer(trace_id)
        tracer.install()  # before the hooks below, which wrap its wrappers
        tracer.open_pass_span()

    phase = []  # first verdict request, end of the latest verdict
    verdict = axioms.AxiomEngine.verdict

    def timed_verdict(self, axiom):
        if not phase:
            phase[:] = [clock(), None]
            if setup_only:
                raise SetupDone
        try:
            return verdict(self, axiom)
        finally:
            phase[1] = clock()

    axioms.AxiomEngine.verdict = timed_verdict

    instances = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                instances.append(clock() - start)
        return wrapper

    late_generation = [0.0]  # fuzz generation after the first verdict request
    corpus = cli.fuzz_corpus

    def timed_corpus(*args, **kwargs):
        steps = corpus(*args, **kwargs)
        while True:
            late, start = bool(phase), clock()
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                if late:
                    late_generation[0] += clock() - start
            yield item

    if workload == "catalog":
        catalog.run_entry = timed(catalog.run_entry)
    elif workload == "fuzz":
        cli.fuzz_corpus = timed_corpus
        cli.soundness_violations = (
            (lambda *args, **kwargs: []) if setup_only
            else timed(cli.soundness_violations))

    out, err = io.StringIO(), io.StringIO()
    error = None
    setup_done = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
            setup_done = setup_only and workload == "fuzz" and code == 0
        except SetupDone:
            code, setup_done = 0, True
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # reported as a failed pass, not a crash
            import traceback

            code, error = -1, "".join(traceback.format_exception(exc))
    t_end = clock()
    if tracer is not None:
        tracer.close_pass_span()

    import json
    import resource

    with open(out_path, "w") as handle:
        handle.write(out.getvalue())
    if phase and workload == "scale" and not setup_only:
        instances.append(phase[1] - phase[0])
    result = {
        "exit": code,
        "wall_s": t_end - t0,
        "setup_s": (phase[0] if phase else t_end) - t0 + late_generation[0],
        "setup_done": setup_done,
        "instances": instances,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stderr": (error or err.getvalue())[-2000:],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
