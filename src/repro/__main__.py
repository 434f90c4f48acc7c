"""Command-line interface: ``python -m repro <command>``.

Commands:

``compile <file>``
    Compile a Fortran subroutine/statement (``.f``, ``.f90``, or
    anything else) or a Lisp ``defstencil`` form (``.lisp``/``.lsp``)
    and print the full compilation report: the recognized stencil, its
    pictogram, per-width plans, and rejections.

``bench <pattern>``
    Run a gallery pattern on the simulated machine and print a results-
    table row (``--subgrid 256x256 --nodes 16 --iterations 100``).

``figure1``
    Print the paper's Figure 1 decomposition for ``--shape`` over
    ``--nodes``.

``gallery``
    List the built-in patterns with their pictograms.

``lint <file>...``
    Run the static front-end linter: caret-underlined diagnostics with
    ``RS###`` codes and fix-its (``--max-halo`` tunes the RS101 halo
    ceiling).  Exit status 1 if any diagnostic is an error.

``verify``
    Sweep the stencil gallery through the static plan verifier
    (dataflow + ring lifetimes) across every width and ring-sizing
    strategy.  Exit status 1 on any diagnostic.

``racecheck [path...]``
    Statically verify the lock/guard discipline of repro's own threaded
    control plane (default target: the installed ``repro`` package):
    ``# guarded-by:`` annotations, lock-acquisition order,
    condition-variable usage (RS701-RS706), caret diagnostics with
    fix-its.  ``--graph`` also prints the inferred lock-order graph the
    ``RS_LOCKDEP=1`` runtime cross-checks at run time.  Exit status 1
    on any diagnostic.

``lint``/``verify``/``racecheck`` all accept ``--json FILE`` (``-``
for stdout) to emit machine-readable diagnostics: RS code, path, span,
message, and fix-it per finding, for CI and editor consumption.

``chaos``
    Run a seeded hard-fault campaign across the gallery: every stencil
    x boundary x execution mode, on a machine with spare nodes, under
    injected node deaths, link failures, and slow nodes.  Prints the
    survival report; ``--json FILE`` additionally dumps the full
    machine-readable report (per-trial FaultStats and event streams).
    Exit status 1 unless every trial survived bit-identically and all
    recovery costs reconciled.  ``--service`` runs the service chaos
    campaign instead: seeded worker crashes, job hangs, tenant storms,
    and SIGKILL/journal-resume trials against the scheduler, asserting
    zero lost jobs, zero double runs, healthy-tenant bit-identity, and
    exact ledger reconciliation.  ``--sdc`` runs the silent-data-
    corruption campaign instead: seeded bit-flips struck into resident
    result tiles under the ABFT checksum verifier, asserting 100%
    detection, forward correction of single-cell damage with zero
    rollback and zero replay, rollback-ladder fallback for multi-cell
    damage, bit-identical outputs, and exact cycle reconciliation
    including the dedicated ``abft_cycles`` bucket.

``serve``
    Stencil-as-a-service: read a job file (``--jobs jobs.json``), carve
    the node grid into per-tenant partitions, run every job through the
    async scheduler, and print the per-tenant cycle accounting, fairness
    index, and concurrency speedup.  Every scheduled result is verified
    bit-identical against a solo run of the same job (``--no-verify``
    skips).  Exit status 1 on any job failure, identity mismatch, or
    ledger reconciliation failure.  ``--journal PATH`` records every
    submission, attempt, and completion to an append-only JSONL file: a
    killed service re-run with the same journal resumes, replaying
    completed jobs instead of re-running them.  ``--deadline``,
    ``--max-attempts``, ``--breaker-threshold``, and ``--queue-depth``
    expose the fault-containment policy.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path


def _parse_shape(text: str):
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ROWSxCOLS (e.g. 256x256), got {text!r}"
        )


def cmd_compile(args) -> int:
    from .compiler.driver import compile_defstencil, compile_fortran
    from .machine.params import MachineParams

    source = Path(args.file).read_text()
    params = MachineParams(num_nodes=args.nodes)
    if Path(args.file).suffix.lower() in (".lisp", ".lsp", ".cl"):
        compiled = compile_defstencil(source, params)
    else:
        compiled = compile_fortran(source, params)
    if args.strategy != "paper":
        from .compiler.plan import compile_pattern

        compiled = compile_pattern(
            compiled.pattern, params, strategy=args.strategy
        )
    pattern = compiled.pattern
    print(pattern.describe())
    print()
    print(pattern.pictogram())
    print()
    from .fortran.printer import emit_statement

    print("canonical form:")
    print(emit_statement(pattern, width=60))
    widths = pattern.border_widths()
    print()
    print(
        f"taps: {pattern.num_points}  useful flops/point: "
        f"{pattern.useful_flops_per_point()}  borders N/S/W/E: "
        f"{widths.as_tuple()}  corner exchange: "
        f"{'needed' if pattern.needs_corner_exchange() else 'skippable'}"
    )
    print()
    print(compiled.describe())
    return 0


def cmd_bench(args) -> int:
    from .analysis.timing import report
    from .compiler.driver import compile_stencil
    from .machine.machine import CM2
    from .machine.params import MachineParams
    from .runtime.cm_array import CMArray
    from .runtime.stencil_op import apply_stencil
    from .stencil import gallery

    builder = getattr(gallery, args.pattern, None)
    if builder is None:
        print(f"unknown pattern {args.pattern!r}; try 'gallery'", file=sys.stderr)
        return 1
    pattern = builder()
    params = MachineParams(num_nodes=args.nodes)
    machine = CM2(params)
    subgrid = args.subgrid
    gshape = (subgrid[0] * machine.grid_rows, subgrid[1] * machine.grid_cols)
    compiled = compile_stencil(pattern, params)
    x = CMArray("X", machine, gshape)
    coeffs = {
        name: CMArray(name, machine, gshape)
        for name in pattern.coefficient_names()
    }
    run = apply_stencil(compiled, x, coeffs, iterations=args.iterations)
    rep = report(run)
    print(rep.row())
    return 0


def cmd_figure1(args) -> int:
    from .machine.machine import CM2
    from .machine.params import MachineParams
    from .runtime.decomposition import Decomposition

    machine = CM2(MachineParams(num_nodes=args.nodes))
    print(Decomposition(args.shape, machine).figure1_text())
    return 0


def cmd_validate(args) -> int:
    """Cross-validate the three execution semantics on a problem grid.

    For each gallery pattern: the vectorized fast path must match the
    pure-numpy reference bit for bit, the cycle-stepped WTL3164 datapath
    must match the fast path bit for bit, and the closed-form cycle
    model must equal the stepped simulator exactly.
    """
    import numpy as np

    from .baseline.reference import reference_stencil
    from .compiler.driver import compile_stencil
    from .machine.machine import CM2
    from .machine.params import MachineParams
    from .runtime.cm_array import CMArray
    from .runtime.stencil_op import apply_stencil
    from .stencil import gallery

    params = MachineParams(num_nodes=args.nodes)
    rng = np.random.default_rng(args.seed)
    failures = 0
    for name in ("cross5", "cross9", "square9", "diamond13", "asymmetric5"):
        pattern = getattr(gallery, name)()
        machine = CM2(params)
        shape = (16, 24)
        x = rng.standard_normal(shape).astype(np.float32)
        coeffs = {
            coeff_name: rng.standard_normal(shape).astype(np.float32)
            for coeff_name in pattern.coefficient_names()
        }
        compiled = compile_stencil(pattern, params)
        X = CMArray.from_numpy("X", machine, x)
        C = {
            coeff_name: CMArray.from_numpy(coeff_name, machine, data)
            for coeff_name, data in coeffs.items()
        }
        fast = apply_stencil(compiled, X, C, "RFAST")
        exact = apply_stencil(compiled, X, C, "REXACT", exact=True)
        reference = reference_stencil(pattern, x, coeffs)
        checks = {
            "fast == reference (bitwise)": np.array_equal(
                fast.result.to_numpy(), reference
            ),
            "exact == fast (bitwise)": np.array_equal(
                exact.result.to_numpy(), fast.result.to_numpy()
            ),
            "cycle model == stepped datapath": (
                exact.compute_cycles == fast.compute_cycles
            ),
        }
        verdict = "ok" if all(checks.values()) else "FAILED"
        print(f"{name:<12} {verdict}")
        for label, passed in checks.items():
            print(f"    {'pass' if passed else 'FAIL'}  {label}")
            failures += 0 if passed else 1
    if failures:
        print(f"\n{failures} check(s) failed", file=sys.stderr)
        return 1
    print("\nall semantics agree")
    return 0


def cmd_reproduce(args) -> int:
    """Regenerate the headline paper-vs-measured numbers in one run."""
    from .analysis.sweeps import table1_sweep
    from .analysis.tables import format_comparison, format_table
    from .analysis.timing import extrapolate_mflops
    from .apps.seismic import SeismicModel, ricker_wavelet
    from .machine.machine import CM2
    from .machine.params import MachineParams

    print("Section 7 results table (16 nodes, extrapolated to 2,048):")
    print()
    reports = table1_sweep()
    print(format_table(reports))
    print()

    paper_cells = {
        ("cross5", 256): 72.8,
        ("square9", 256): 88.6,
        ("cross9", 256): 85.6,
        ("diamond13", 256): 85.9,
    }
    rows = []
    for rep in reports:
        key = (rep.stencil, rep.subgrid_rows)
        if key in paper_cells and rep.subgrid_cols == 256:
            rows.append(
                (
                    f"{rep.stencil} 256x256 (Mflops)",
                    paper_cells[key],
                    rep.measured_mflops,
                )
            )

    print("Gordon Bell seismic kernel (copy / unrolled / fused):")
    steps = 20
    gb = {}
    for label, runner, paper in (
        ("GB copy loop (Gflops)", "run_copy_loop", 13.65),
        ("GB 3x-unrolled (Gflops)", "run_unrolled_loop", 14.95),
    ):
        machine = CM2(MachineParams(num_nodes=16))
        model = SeismicModel(
            machine, (512, 1024), dt=0.001, dx=10.0, source=(128, 512)
        )
        model.set_initial_pulse(sigma=3.0)
        timing = getattr(model, runner)(steps, ricker_wavelet(steps, 0.001))
        gflops = extrapolate_mflops(timing.mflops, 16, 2048) / 1e3
        gb[label] = gflops
        rows.append((label, paper, gflops))
        print(f"  {label:<28} paper {paper:6.2f}  ours {gflops:6.2f}")
    speedup = gb["GB 3x-unrolled (Gflops)"] / gb["GB copy loop (Gflops)"]
    rows.append(("GB unrolled/copy speedup", 1.28, speedup))
    print(f"  {'unrolled / copy speedup':<28} paper   1.28  ours {speedup:6.2f}")
    print()
    print(format_comparison(rows, unit=""))
    print()
    print("Full per-cell tables and ablations: EXPERIMENTS.md and")
    print("`pytest benchmarks/ --benchmark-only -s`.")
    return 0


def cmd_gallery(args) -> int:
    from .stencil import gallery

    for name in (
        "cross5",
        "cross9",
        "square9",
        "diamond13",
        "asymmetric5",
        "border_demo",
    ):
        pattern = getattr(gallery, name)()
        print(f"--- {name} ({pattern.num_points} taps) ---")
        print(pattern.pictogram())
        print()
    return 0


def _emit_json(args, payload: dict) -> None:
    """Write a ``--json`` payload to the requested file ('-' = stdout)."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    else:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.json}")


def cmd_lint(args) -> int:
    from .fortran.errors import has_errors, render_diagnostics
    from .verify.diagnostics import diagnostic_to_dict
    from .verify.lint import DEFAULT_MAX_HALO, lint_path

    max_halo = args.max_halo if args.max_halo is not None else DEFAULT_MAX_HALO
    worst = 0
    collected = []
    for name in args.files:
        path = Path(name)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"{name}: cannot read: {exc}", file=sys.stderr)
            worst = 1
            continue
        diagnostics = lint_path(path, max_halo=max_halo)
        for diag in diagnostics:
            entry = diagnostic_to_dict(diag)
            entry.setdefault("path", name)
            if entry["path"] is None:
                entry["path"] = name
            collected.append(entry)
        if diagnostics:
            print(render_diagnostics(diagnostics, source))
            if has_errors(diagnostics):
                worst = 1
        else:
            print(f"{name}: clean")
    if args.json:
        _emit_json(
            args,
            {
                "command": "lint",
                "diagnostics": collected,
                "ok": worst == 0,
            },
        )
    return worst


def cmd_verify(args) -> int:
    from .fortran.errors import has_errors
    from .machine.params import MachineParams
    from .verify import verify_gallery
    from .verify.diagnostics import diagnostic_to_dict

    strategies = (
        ("paper", "optimal") if args.strategy == "both" else (args.strategy,)
    )
    params = MachineParams(num_nodes=args.nodes)
    results = verify_gallery(params, strategies=strategies)
    failures = 0
    collected = []
    for (pattern_name, strategy), diagnostics in sorted(results.items()):
        status = "ok" if not diagnostics else "FAILED"
        print(f"{pattern_name:<12} {strategy:<8} {status}")
        for diag in diagnostics:
            print(f"    {diag.describe()}")
            entry = diagnostic_to_dict(diag)
            entry["pattern"] = pattern_name
            entry["strategy"] = strategy
            collected.append(entry)
        if has_errors(diagnostics):
            failures += 1
    total = len(results)
    print(f"\n{total - failures}/{total} pattern/strategy combos verified")
    if args.json:
        _emit_json(
            args,
            {
                "command": "verify",
                "combos": total,
                "diagnostics": collected,
                "ok": failures == 0,
            },
        )
    return 1 if failures else 0


def cmd_racecheck(args) -> int:
    from .fortran.errors import render_diagnostics
    from .verify.concurrency import racecheck_paths
    from .verify.diagnostics import diagnostic_to_dict

    paths = args.paths
    if not paths:
        # Default target: repro's own installed source tree.
        paths = [str(Path(__file__).resolve().parent)]
    result = racecheck_paths(paths)
    flagged = 0
    for report in result.files:
        if not report.diagnostics:
            continue
        flagged += 1
        print(render_diagnostics(report.diagnostics, report.source))
    diagnostics = result.diagnostics
    if args.graph or not diagnostics:
        edge_count = sum(len(vs) for vs in result.lock_graph.values())
        print(
            f"{len(result.files)} files, {len(result.locks)} locks, "
            f"{edge_count} lock-order edges, "
            f"{len(diagnostics)} diagnostic(s)"
        )
    if args.graph:
        for u in sorted(result.lock_graph):
            for v in result.lock_graph[u]:
                print(f"  {u} -> {v}")
    if args.json:
        _emit_json(
            args,
            {
                "command": "racecheck",
                "files": len(result.files),
                "locks": list(result.locks),
                "lock_graph": {
                    u: list(vs) for u, vs in result.lock_graph.items()
                },
                "diagnostics": [
                    diagnostic_to_dict(d) for d in diagnostics
                ],
                "ok": not diagnostics,
            },
        )
    return 1 if diagnostics else 0


class SeedSpecError(argparse.ArgumentTypeError, ValueError):
    """A malformed ``--seeds`` token.

    Doubles as :class:`ValueError` so library callers of
    :func:`_parse_seeds` can catch it without importing argparse
    machinery; argparse itself renders it as a clean usage error.
    """


def _parse_seeds(text: str):
    """Seed lists: ``1,2,3`` or ranges ``1-5`` (inclusive), mixed
    (``1-3,7``).  Rejects each malformed token by name."""
    seeds = []
    for part in text.split(","):
        token = part.strip()
        try:
            if "-" in token:
                lo_text, hi_text = token.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                if lo > hi:
                    raise SeedSpecError(
                        f"bad seed range {token!r} in {text!r}: "
                        f"{lo} > {hi} (ranges are low-high, inclusive)"
                    )
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(token))
        except ValueError as error:
            if isinstance(error, SeedSpecError):
                raise
            raise SeedSpecError(
                f"bad seed token {token!r} in {text!r} (expected an "
                f"integer or an A-B range, e.g. '1-3,7')"
            ) from None
    if not seeds:
        raise SeedSpecError(f"no seeds in {text!r}")
    return tuple(seeds)


def cmd_chaos(args) -> int:
    from .analysis.chaos import (
        run_campaign,
        run_sdc_campaign,
        run_service_campaign,
    )

    if args.service and args.sdc:
        print(
            "chaos: --service and --sdc are separate campaigns; "
            "pick one",
            file=sys.stderr,
        )
        return 2
    if args.service:
        report = run_service_campaign(seeds=args.seeds)
    elif args.sdc:
        report = run_sdc_campaign(
            seeds=args.seeds,
            nodes=args.nodes,
            iterations=args.iterations,
        )
    else:
        report = run_campaign(
            seeds=args.seeds,
            nodes=args.nodes,
            iterations=args.iterations,
            spares=args.spares,
        )
    print(report.describe())
    if args.json:
        _emit_json(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import json

    from .analysis.fairness import format_tenant_table
    from .machine.params import MachineParams
    from .service import (
        JobSpecError,
        MachinePool,
        OverloadError,
        PartitionError,
        Scheduler,
        ServicePolicy,
        StencilJob,
        solo_run,
    )

    try:
        document = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.jobs}: cannot load: {exc}", file=sys.stderr)
        return 1
    if isinstance(document, dict):
        pool_spec = document.get("pool", {})
        job_specs = document.get("jobs", [])
    else:
        pool_spec, job_specs = {}, document
    nodes = args.nodes if args.nodes is not None else pool_spec.get("nodes", 16)
    spare_rows = (
        args.spare_rows
        if args.spare_rows is not None
        else pool_spec.get("spare_rows", 0)
    )
    try:
        jobs = [StencilJob.from_dict(spec) for spec in job_specs]
        if args.abft:
            jobs = [
                job if job.abft else dataclasses.replace(job, abft=True)
                for job in jobs
            ]
    except (JobSpecError, TypeError) as exc:
        print(f"{args.jobs}: bad job spec: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print(f"{args.jobs}: no jobs", file=sys.stderr)
        return 1

    params = MachineParams(num_nodes=nodes)
    try:
        pool = MachinePool(params, spare_rows=spare_rows)
    except PartitionError as exc:
        print(f"pool: {exc}", file=sys.stderr)
        return 1
    print(pool.describe())
    print(
        f"{len(jobs)} jobs from {len(set(j.tenant for j in jobs))} tenants, "
        f"policy {args.policy}, default partition "
        f"{pool.default_partition[0]}x{pool.default_partition[1]}"
    )
    print()

    try:
        service_policy = ServicePolicy(
            deadline_seconds=args.deadline,
            max_attempts=args.max_attempts,
            breaker_threshold=args.breaker_threshold,
            max_queue_depth=args.queue_depth,
        )
    except ValueError as exc:
        print(f"policy: {exc}", file=sys.stderr)
        return 1
    if args.journal:
        print(f"journal: {args.journal} (completed jobs resume, not re-run)")
        print()

    failures = 0
    with Scheduler(
        pool,
        policy=args.policy,
        service_policy=service_policy,
        journal_path=args.journal,
    ) as sched:
        handles = []
        for job in jobs:
            try:
                handles.append(sched.submit(job))
            except OverloadError as exc:
                print(f"SHED {job.label}: {exc}")
                failures += 1
            except PartitionError as exc:
                print(f"admission rejected: {exc}", file=sys.stderr)
                return 1
        results = []
        for handle in handles:
            try:
                results.append(handle.result(timeout=args.timeout))
            except Exception as exc:  # noqa: BLE001 - reported per job
                print(f"FAIL {handle.job.label} [{handle.outcome}]: {exc}")
                failures += 1

    mismatches = 0
    for result in results:
        verdict = ""
        if args.verify:
            reference = solo_run(
                result.job, params=params, shape=result.partition.shape
            )
            if result.identical_to(reference):
                verdict = "  solo-identical"
            else:
                verdict = "  SOLO MISMATCH"
                mismatches += 1
        origin = result.partition.origin
        print(
            f"  {result.job.label:<44} partition ({origin[0]},{origin[1]}) "
            f"{result.cycles:>10} cycles  q={result.queue_seconds:.3f}s"
            f"{verdict}"
        )

    accounts = sched.accounts
    reconciled = accounts.reconcile()
    print()
    print(format_tenant_table(accounts.tenant_rows()))
    print()
    print(
        f"fairness (Jain) {accounts.fairness():.3f}   "
        f"concurrency speedup {accounts.concurrency_speedup:.2f}x   "
        f"aggregate {accounts.aggregate_mflops:.1f} Mflops   "
        f"ledger {'reconciled' if reconciled else 'OUT OF BALANCE'}"
    )
    if args.json:
        payload = dict(accounts.to_dict())
        payload["verified_bit_identical"] = args.verify and mismatches == 0
        _emit_json(args, payload)
    if failures or mismatches or not reconciled:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The Connection Machine Convolution Compiler, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a stencil source file")
    p_compile.add_argument("file")
    p_compile.add_argument("--nodes", type=int, default=16)
    p_compile.add_argument(
        "--strategy",
        choices=("paper", "optimal"),
        default="paper",
        help="ring-sizing strategy: the paper's heuristic or the "
        "LCM-minimizing dynamic program",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_bench = sub.add_parser("bench", help="time a gallery pattern")
    p_bench.add_argument("pattern")
    p_bench.add_argument("--subgrid", type=_parse_shape, default=(256, 256))
    p_bench.add_argument("--nodes", type=int, default=16)
    p_bench.add_argument("--iterations", type=int, default=100)
    p_bench.set_defaults(func=cmd_bench)

    p_fig = sub.add_parser("figure1", help="print the Figure 1 decomposition")
    p_fig.add_argument("--shape", type=_parse_shape, default=(256, 256))
    p_fig.add_argument("--nodes", type=int, default=16)
    p_fig.set_defaults(func=cmd_figure1)

    p_gallery = sub.add_parser("gallery", help="list built-in patterns")
    p_gallery.set_defaults(func=cmd_gallery)

    p_reproduce = sub.add_parser(
        "reproduce", help="regenerate the headline paper-vs-measured numbers"
    )
    p_reproduce.set_defaults(func=cmd_reproduce)

    p_validate = sub.add_parser(
        "validate", help="cross-validate the execution semantics"
    )
    p_validate.add_argument("--nodes", type=int, default=4)
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.set_defaults(func=cmd_validate)

    p_lint = sub.add_parser(
        "lint", help="lint stencil Fortran with source-span diagnostics"
    )
    p_lint.add_argument("files", nargs="+")
    p_lint.add_argument(
        "--max-halo",
        type=int,
        default=None,
        help="halo-reach ceiling for RS101 (default 16)",
    )
    p_lint.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write machine-readable diagnostics ('-' for stdout)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_verify = sub.add_parser(
        "verify", help="statically verify every gallery plan"
    )
    p_verify.add_argument(
        "--strategy",
        choices=("paper", "optimal", "both"),
        default="both",
        help="ring-sizing strategies to sweep",
    )
    p_verify.add_argument("--nodes", type=int, default=16)
    p_verify.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write machine-readable diagnostics ('-' for stdout)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_race = sub.add_parser(
        "racecheck",
        help="statically verify the threaded control plane's lock "
        "discipline (RS701-RS706)",
    )
    p_race.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package)",
    )
    p_race.add_argument(
        "--graph",
        action="store_true",
        help="also print the inferred lock-order graph",
    )
    p_race.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write machine-readable diagnostics ('-' for stdout)",
    )
    p_race.set_defaults(func=cmd_racecheck)

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded hard-fault survival campaign"
    )
    p_chaos.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=(1, 2, 3, 4, 5),
        help="seeds to sweep: '1,2,3' or '1-5' (default 1-5)",
    )
    p_chaos.add_argument("--nodes", type=int, default=4)
    p_chaos.add_argument("--iterations", type=int, default=6)
    p_chaos.add_argument(
        "--spares", type=int, default=4, help="spare nodes per machine"
    )
    p_chaos.add_argument(
        "--service",
        action="store_true",
        help="run the service chaos campaign instead: worker crashes, "
        "job hangs, tenant storms, and SIGKILL/journal-resume trials "
        "against the scheduler's fault-containment invariants",
    )
    p_chaos.add_argument(
        "--sdc",
        action="store_true",
        help="run the silent-data-corruption campaign instead: seeded "
        "bit-flips in resident result tiles under the ABFT checksum "
        "verifier, asserting 100%% detection, forward correction of "
        "single-cell damage without replay, ladder fallback for "
        "multi-cell damage, and exact cycle reconciliation",
    )
    p_chaos.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the machine-readable report ('-' for stdout)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="run a multi-tenant stencil job file"
    )
    p_serve.add_argument(
        "--jobs", required=True, metavar="FILE", help="jobs.json to run"
    )
    p_serve.add_argument(
        "--nodes", type=int, default=None, help="pool size (overrides file)"
    )
    p_serve.add_argument(
        "--spare-rows",
        type=int,
        default=None,
        help="node-grid rows reserved as the service spare pool",
    )
    p_serve.add_argument(
        "--policy", choices=("first_fit", "best_fit"), default="first_fit"
    )
    p_serve.add_argument(
        "--timeout", type=float, default=600.0, help="per-job wait (seconds)"
    )
    p_serve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append-only JSONL job journal; re-running against an "
        "existing journal resumes, replaying completed jobs instead of "
        "re-running them",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="per-attempt wall-clock deadline in seconds (default 60)",
    )
    p_serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per job before a crash/hang records its typed "
        "failure (default 3)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive failures that quarantine a tenant (default 3)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        help="queue watermark for overload shedding (0 = unbounded)",
    )
    p_serve.add_argument(
        "--abft",
        action="store_true",
        help="arm the ABFT silent-corruption verifier on every job "
        "(equivalent to abft=true on each job spec): result stacks "
        "are checksum-sealed each pass and single corrupted words "
        "forward-corrected in place",
    )
    p_serve.add_argument(
        "--no-verify",
        dest="verify",
        action="store_false",
        help="skip the solo-run bit-identity check",
    )
    p_serve.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the machine-readable ledger ('-' for stdout)",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
