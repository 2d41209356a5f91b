#!/usr/bin/env bash
# Test-only surface report: lists the vs:: functions that the simulator
# library or the test binary defines but that no bench, example or the
# e2ebench driver (vs_e2e) keeps. Each one is reached only from tests, so
# it either gains a production caller or is a candidate for deletion.
#
# Everything is built into a temp dir at -O0 with -ffunction-sections
# -fdata-sections and linked with -Wl,--gc-sections: at -O0 no call is
# inlined away, so a function the linker keeps in a production binary has
# a production caller, and one it drops has none. Standard-library
# instantiations, lambdas, anonymous-namespace names and gtest symbols are
# left out of the report, and so is an instantiation of a vs:: template
# that production instantiates with other arguments.
#
#   scripts/test_only_surface.sh          # build, scan, print the list
#   JOBS=2 scripts/test_only_surface.sh   # build parallelism
#
# Report-only: exits 0 whatever it lists, non-zero only if the build fails.
# scripts/check.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
repo="$PWD"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

benches=()
for f in bench/*.cpp; do benches+=("$(basename "$f" .cpp)"); done
examples=()
for f in examples/*.cpp; do examples+=("$(basename "$f" .cpp)"); done

echo "== building at -O0 with --gc-sections into $tmp ==" >&2
cmake -B "$tmp/main" -S . "${flags[@]}" >/dev/null
cmake --build "$tmp/main" -j "$JOBS" --target versaslot versaslot_tests \
  "${benches[@]}" "${examples[@]}" >/dev/null
cmake -B "$tmp/e2e" -S e2ebench "${flags[@]}" >/dev/null
cmake --build "$tmp/e2e" -j "$JOBS" --target vs_e2e >/dev/null

production=("$tmp/e2e/vs_e2e")
for b in "${benches[@]}"; do production+=("$tmp/main/bench/$b"); done
for e in "${examples[@]}"; do production+=("$tmp/main/examples/$e"); done

python3 - "$tmp/main/src/libversaslot.a" "$tmp/main/tests/versaslot_tests" \
  "${production[@]}" <<'PY'
import subprocess
import sys


def defined(path):
    """Mangled -> demangled name of every function the file defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    mangled = {}
    for line in out.splitlines():
        parts = line.split()
        # Global and weak text symbols; local ones (t) are file-static.
        if len(parts) == 3 and parts[1] in ("T", "W"):
            mangled[parts[2]] = None
    names = subprocess.run(["c++filt"], input="\n".join(mangled), check=True,
                           capture_output=True, text=True).stdout.splitlines()
    return dict(zip(mangled, names))


def strip_templates(name):
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def template_key(name):
    """The instantiated template's name when `name` is a function template
    instantiation (its name ends in template arguments), else None."""
    depth = 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            head = name[:i]
            return strip_templates(head) if head.endswith(">") else None
    return None


def reported(name):
    if any(s in name for s in ("lambda", "(anonymous namespace)", "testing::",
                               "_Test::", "vs::test::")):
        return False
    head = strip_templates(name).split("(", 1)[0].split()
    if not head:
        return False
    # The function's own name is the last word, or the last two for a
    # conversion operator; anything before it is a return type.
    fn = head[-2] if len(head) > 1 and head[-2].endswith("operator") \
        else head[-1]
    return fn.startswith("vs::")


lib, tests, *prod = sys.argv[1:]
candidates = defined(lib)
candidates.update(defined(tests))
kept = {}
for binary in prod:
    kept.update(defined(binary))
# A template counts as kept when production keeps any instantiation of it.
kept_templates = {template_key(n) for n in kept.values()} - {None}
only = sorted({n for m, n in candidates.items()
               if m not in kept and reported(n)
               and template_key(n) not in kept_templates})
for n in only:
    print(n)
print(f"{len(only)} vs:: functions defined but kept by no bench, example "
      "or vs_e2e", file=sys.stderr)
PY
