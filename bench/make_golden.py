"""Regenerate bench/golden.json from the program in this checkout.

    python3 bench/make_golden.py

The digests are what the benchmark holds every later version's output to,
so regenerate them only for an intended output change that CHANGES.md
records (see bench/README.md).
"""

import json
import sys

import run

#: Ops with golden digests at the golden seed, per workload.
N_GOLDEN = 512


def main() -> int:
    run.use_checkout_program()
    import workloads
    from spans import plain_call

    def oneshot_in_process(inp, call):
        # the same stdout the child process must print, without 512 processes
        code, text = workloads.cli_output(inp[2])
        return workloads.Child(code, text.encode(), b"", 0)

    golden = {"readme": []}
    for argv in workloads.README_EXAMPLES:
        code, text = workloads.cli_output(argv)
        if code != 0:
            raise SystemExit(f"error: {' '.join(argv)!r} exited with {code}")
        golden["readme"].append(workloads.sha256(text.encode()))
    monitor = workloads.Monitor()
    for name, make in workloads.WORKLOADS.items():
        wl = make(workloads.GOLDEN_SEED, monitor, None)
        run_op = oneshot_in_process if name == "cli-oneshot" else wl.run
        golden[name] = []
        for i, inp in enumerate(wl.inputs[:N_GOLDEN]):
            out = run_op(inp, plain_call)
            # only outputs that pass the seed-independent checks become golden
            wl.check(i, inp, out, plain_call)
            golden[name].append(wl.digest(out))
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
