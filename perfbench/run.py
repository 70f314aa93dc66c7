#!/usr/bin/env python3
"""Build and run the dRBAC coalition benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload authz-hot --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
repository's public drbac package through a replace directive. This script
builds it with the Go build cache, temp files and binary all under
.bench_build/ in the checkout, then runs it with GOMAXPROCS set to the number
of CPUs. Every argument is passed through to the benchmark; the last line of
its standard output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys


def source_digest(root):
    """Digest of the Go sources under test, standing in for a commit id
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip() + "+src." + source_digest(root)
    except (OSError, subprocess.SubprocessError):
        pass
    return "src." + source_digest(root)


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOMAXPROCS": str(os.cpu_count() or 1),
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, timeout=850)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:] + ["--commit", commit_id(root)]
    return subprocess.run([binary] + args, cwd=root, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
