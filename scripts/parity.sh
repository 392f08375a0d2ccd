#!/bin/sh
# Byte-parity check of the deterministic artifacts against a commit.
#
#   make parity REF=<commit>        (or: sh scripts/parity.sh <commit>)
#
# Checks REF out into a temporary git worktree, runs every deterministic
# artifact command there and in this working tree (each with PYTHONPATH
# at its own src/ and a fresh temporary cwd), then cmp's each pair. It
# prints one line per artifact and exits 1 if any differs, 2 on a usage
# or checkout error. The worktree is removed on exit.
set -u
ref=${1:-}
if [ -z "$ref" ]; then
    echo "usage: make parity REF=<commit>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel) || exit 2
python=${PYTHON:-python}
work=$(mktemp -d) || exit 2
cleanup() {
    git -C "$root" worktree remove --force "$work/ref" >/dev/null 2>&1
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 2' INT TERM
git -C "$root" worktree add --detach --quiet "$work/ref" "$ref" || exit 2

# One artifact per line: the file name, then the repro command writing it.
artifacts() {
    cat <<'LIST'
faults-extended.json campaign faults --preset extended --fidelity sim,loopback --out
zoo-smoke.json campaign zoo --preset smoke --fidelity sim,loopback --out
shard-loopback.json shard loopback --out
perf-smoke.json perf smoke --out
mc-depth3.jsonl mc run --max-depth 3 --out
service-smoke.json service campaign --preset smoke --out
campaign-lossy.jsonl campaign run --preset lossy --out
campaign-partition.jsonl campaign run --preset partition --out
LIST
}

# run_tree TREE OUT: write every artifact of TREE's code into OUT.
run_tree() {
    mkdir -p "$2"
    artifacts | while read -r name args; do
        # $args is split into words on purpose.
        # shellcheck disable=SC2086
        (cd "$2" && PYTHONPATH="$1/src" "$python" -m repro $args "$name") \
            >"$2/$name.log" 2>&1 || echo "  ($1: '$args' exited $?)"
    done
}

echo "parity: $(git -C "$root" rev-parse --short "$ref") vs working tree"
run_tree "$work/ref" "$work/out-ref"
run_tree "$root" "$work/out-new"
status=0
for name in $(artifacts | cut -d' ' -f1); do
    if cmp -s "$work/out-ref/$name" "$work/out-new/$name"; then
        echo "identical  $name"
    else
        echo "DIFFERS    $name"
        status=1
    fi
done
exit $status
