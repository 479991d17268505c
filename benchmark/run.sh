#!/usr/bin/env bash
# Stage, build and run the benchmark, offline.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh all [--seed <n>] [--seconds <s>] [--runs <n>] [--out <file>]
#   benchmark/run.sh compare <results-a> <results-b>
#   benchmark/run.sh manifest
#   benchmark/run.sh test
#
# The engine does not compile as committed (see compat/fixes.txt) and its
# registry dependencies do not resolve here, so this script copies
# Cargo.toml + src/ + crates/ to benchmark/target/rock-src, applies the
# compat substitutions to the copy, and builds benchmark/Cargo.toml against
# it with the stand-in crates under shims/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

stage="$here/target/rock-src"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Cargo's own caches and locks go under the target directory too, and the
# user's ~/.cargo/config.toml (registry mirrors) is not read: the build
# needs nothing from outside the checkout but the toolchain.
export CARGO_HOME="$target/cargo-home"
bin="$target/release/rock-benchmark"
engine=(Cargo.toml src crates)

for p in "${engine[@]}"; do
    if [ ! -e "$p" ]; then
        echo "benchmark/run.sh: $root/$p is missing: the benchmark builds the engine from the repository's source" >&2
        exit 2
    fi
done

# Replace every occurrence of each record's `find` text; count the records
# that still had something to replace.
apply_compat() { # <staged tree>
    local file="" find="" line content applied=0
    while IFS= read -r line || [ -n "$line" ]; do
        case "$line" in
            "file: "*) file="${line#file: }" ;;
            "find: "*) find="${line#find: }" ;;
            "with: "*)
                content="$(<"$1/$file")"
                if [[ "$content" == *"$find"* ]]; then
                    printf '%s\n' "${content//"$find"/"${line#with: }"}" >"$1/$file"
                    applied=$((applied + 1))
                fi
                ;;
        esac
    done <"$here/compat/fixes.txt"
    echo "$applied" >"$1/.compat_fixes_applied"
}

# Rebuild the staged copy when any engine source or the fix list is newer
# than it. Files whose content did not change keep their old mtime, so
# cargo recompiles only what a source edit touched.
stage_engine() {
    if [ -e "$stage/.compat_fixes_applied" ] &&
        [ -z "$(find "${engine[@]}" "$here/compat" -newer "$stage/.compat_fixes_applied" -print -quit)" ]; then
        return
    fi
    local next="$stage.next" f
    rm -rf "$next"
    mkdir -p "$next"
    cp -R "${engine[@]}" "$next/"
    apply_compat "$next"
    if [ -d "$stage" ]; then
        (cd "$next" && find . -type f) | while IFS= read -r f; do
            if cmp -s "$next/$f" "$stage/$f"; then
                touch -r "$stage/$f" "$next/$f"
            fi
        done
        rm -rf "$stage"
    fi
    mv "$next" "$stage"
    touch "$stage/.compat_fixes_applied"
}

build() { # prints build_s: staging + cargo, a few hundredths when nothing changed
    local t0 t1
    t0=$(date +%s.%N)
    stage_engine
    # The engine's own warnings would bury the results; keep them in a log.
    mkdir -p "$target"
    if ! cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin rock-benchmark \
        2>"$target/rock-benchmark-build.log"; then
        cat "$target/rock-benchmark-build.log" >&2
        exit 1
    fi
    t1=$(date +%s.%N)
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "build_s=%.3f\n", b - a }'
}

case "${1:-all}" in
    test)
        stage_engine
        exec cargo test --offline --manifest-path "$here/Cargo.toml" --workspace
        ;;
    compare | manifest)
        build >/dev/null
        exec "$bin" "$@"
        ;;
    *)
        build
        [ $# -gt 0 ] || set -- all
        exec "$bin" "$@" \
            --compat-fixes "$(<"$stage/.compat_fixes_applied")" \
            --out-dir "$target/rock-benchmark-results"
        ;;
esac
