"""Record the reference outputs every benchmark operation is checked against.

    python3 perfbench/make_reference.py [cli] [chain] [tls]

Runs every catalog input of the workloads once on the program in this
checkout and writes perfbench/reference/{cli,chain,tls}.json.  The files in
the repository were recorded from the seed commit; regenerating them makes
the benchmark compare the program with itself, so do it only when the
benchmark itself changes its inputs.  Refuses to record an input on which
the program fails its own certificates or contract: the benchmark's
workloads contain no failing operation.
"""
from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
from common import REFERENCE_DIR


def record_cli() -> dict:
    import wl_cli

    env = wl_cli.child_env()
    ref = {}
    cases = [(argv, 0) for kind in wl_cli.CATALOG.values() for argv in kind]
    cases += [(argv, 1) for argv in wl_cli.BAD]
    for argv, expect in cases:
        op = wl_cli.make_op(argv, expect)
        rc, out, err, _ = wl_cli.spawn(argv, env)
        entry = {"rc": rc, **(wl_cli.digest(out) if rc == 0 else {})}
        errors = wl_cli.check(op, rc, out, err, entry)
        if errors:
            raise SystemExit(f"{op.key}: {errors}")
        ref[op.key] = entry
    return ref


def record_chain() -> dict:
    import wl_chain

    engine = wl_chain.Pipeline()
    ref = {}
    for ns in wl_chain.BANDS:
        for n in ns:
            for m in wl_chain.MULTIPOLES:
                op = wl_chain.make_op(n, m)
                out = engine.run(op)
                errors = wl_chain.check(op, out, out)
                if errors:
                    raise SystemExit(f"{op.key}: {errors}")
                ref[op.key] = out
    return ref


def record_tls() -> dict:
    import wl_tls

    engine = wl_tls.Integrator()
    ref = {}
    for entry in wl_tls.all_entries():
        op = wl_tls.make_op(entry)
        out = engine.run(op)
        errors = wl_tls.check(op, out, out)
        if errors:
            raise SystemExit(f"{op.key}: {errors}")
        ref[op.key] = out
    return ref


def main(parts) -> int:
    run.use_checkout_sources()
    REFERENCE_DIR.mkdir(exist_ok=True)
    recorders = {"cli": record_cli, "chain": record_chain, "tls": record_tls}
    for part in parts or recorders:
        ref = recorders[part]()
        with open(REFERENCE_DIR / f"{part}.json", "w", encoding="utf-8") as handle:
            json.dump(ref, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{part}: {len(ref)} references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
