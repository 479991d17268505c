#!/usr/bin/env bash
# Run the engine's own tests without a crates.io registry.
#
#   scripts/offline_test.sh                      # the default set below
#   scripts/offline_test.sh <cargo args...>      # e.g. check -p rock-bench --bins
#
# `cargo test` at the repository root stops at dependency resolution when
# the registry is unreachable. This script stages Cargo.toml + src/ +
# crates/ + tests/ + examples/ under a scratch directory, strips what only the registry
# can provide (proptest, criterion, the criterion [[bench]] targets),
# patches every remaining registry crate to the std-only stand-ins under
# benchmark/shims/, and runs cargo --offline there. Suites that import
# proptest, and anything that needs a real serde codec (WAL, checkpoints,
# JSON output), stay CI-only.
#
# ROCK_OFFLINE_DIR picks the scratch directory (default target/offline).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${ROCK_OFFLINE_DIR:-$root/target/offline}"
stage="$dir/src"
export CARGO_HOME="$dir/cargo-home"
export CARGO_TARGET_DIR="$dir/target"

# Restage into a fresh tree, then keep the old mtime of every file whose
# content did not change so cargo recompiles only what an edit touched.
next="$stage.next"
rm -rf "$next"
mkdir -p "$next" "$CARGO_HOME"
cp -R "$root/Cargo.toml" "$root/src" "$root/crates" "$root/tests" "$root/examples" "$next/"
find "$next" -name Cargo.toml | while IFS= read -r manifest; do
    # [[bench]] tables run to the next blank line
    awk '
        /^\[\[bench\]\]/ { skip = 1 }
        skip && /^$/ { skip = 0; next }
        skip { next }
        /^(proptest|criterion)( |\.)/ { next }
        { print }
    ' "$manifest" >"$manifest.tmp"
    mv "$manifest.tmp" "$manifest"
done
{
    echo
    echo "[patch.crates-io]"
    for shim in "$root"/benchmark/shims/*/; do
        name="$(sed -n 's/^name = "\(.*\)"/\1/p' "$shim/Cargo.toml" | head -n 1)"
        echo "$name = { path = \"${shim%/}\" }"
    done
} >>"$next/Cargo.toml"
if [ -d "$stage" ]; then
    (cd "$next" && find . -type f) | while IFS= read -r f; do
        if cmp -s "$next/$f" "$stage/$f"; then
            touch -r "$stage/$f" "$next/$f"
        fi
    done
    rm -rf "$stage"
fi
mv "$next" "$stage"

cd "$stage"
if [ $# -gt 0 ]; then
    exec cargo "$1" --offline "${@:2}"
fi
# The std-only differential suite, then the unit tests of the three crates
# whose production paths it pins — minus the ones that encode or decode
# through serde, which the stand-in codec cannot do.
cargo test --offline --release --test engine_equivalence
exec cargo test --offline --release -p rock-chase -p rock-core -p rock-discovery --lib -- \
    --skip wal::tests \
    --skip checkpoint::tests::diff_apply_round_trips \
    --skip checkpoint::tests::shape_changes_force_a_full \
    --skip fixes::tests::snapshot_round_trip_preserves_behavior \
    --skip provenance::tests::replay_witness_realizes_a_competing_write
