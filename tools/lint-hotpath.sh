#!/usr/bin/env sh
# Hot-path hygiene lint.
#
# The per-event code paths (predicate evaluation, AIS/SSC runtime, key
# extraction) must not regress to SipHash-based std collections: every map
# or set keyed on the hot path goes through `sase_core::hash` (FxHash),
# except a map keyed by bytes read from a frame, marked as such below.
# This script fails the build when a hot-path module names a std hasher
# type, and when `unsafe` appears anywhere outside the explicit allowlist.
#
# Usage: tools/lint-hotpath.sh   (run from the repository root)

set -u

fail=0

# Modules on the per-event hot path. engine.rs is here because its ingest
# loop routes and clocks every event; analyze.rs (plan-time only) is
# intentionally absent, though today it also uses FxHash throughout. The
# store codec and the wire codec are here because they run per event on
# every frame and log record; the event database's tables and typed stores
# and the built-ins that call them, because the archiving rules run once
# per emission; the cleaning layers and the config whose reader table time
# conversion probes, because they run once per RFID reading.
HOT_PATHS="
crates/sase-core/src/engine.rs
crates/sase-core/src/program.rs
crates/sase-core/src/expr.rs
crates/sase-core/src/event.rs
crates/sase-core/src/value.rs
crates/sase-core/src/pattern.rs
crates/sase-core/src/hash.rs
crates/sase-core/src/output.rs
crates/sase-core/src/runtime
crates/sase-obs/src/metrics.rs
crates/sase-obs/src/trace.rs
crates/sase-store/src/codec.rs
crates/sase-server/src/wire.rs
crates/sase-db/src/table.rs
crates/sase-db/src/database.rs
crates/sase-db/src/location.rs
crates/sase-db/src/containment.rs
crates/sase-db/src/trace.rs
crates/sase-system/src/builtins.rs
crates/sase-stream/src/pipeline.rs
crates/sase-stream/src/anomaly.rs
crates/sase-stream/src/smoothing.rs
crates/sase-stream/src/time_conversion.rs
crates/sase-stream/src/dedup.rs
crates/sase-stream/src/event_gen.rs
crates/sase-stream/src/config.rs
"

# Hasher types that silently reintroduce SipHash. Plain `HashMap<`/
# `HashSet<` are also banned: hot-path modules alias through
# `sase_core::hash::{FxHashMap, FxHashSet}` instead.
BANNED='std::collections::HashMap|std::collections::HashSet|DefaultHasher|SipHasher|RandomState|[^x]HashMap<|[^x]HashSet<|^HashMap<|^HashSet<'

for path in $HOT_PATHS; do
    [ -e "$path" ] || { echo "lint-hotpath: missing hot-path module $path" >&2; fail=1; continue; }
    # Lines naming FxBuildHasher explicitly are the aliasing site itself
    # (sase_core::hash). Lines marked `input-keyed: std hasher` are maps
    # keyed by bytes read from a frame, which keep SipHash so that crafted
    # keys cannot force collisions.
    hits=$(grep -rnE "$BANNED" "$path" --include='*.rs' 2>/dev/null \
        | grep -v 'FxBuildHasher' | grep -v 'input-keyed: std hasher' || true)
    if [ -n "$hits" ]; then
        echo "lint-hotpath: std hasher on the hot path (use sase_core::hash):" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# The rules reach the event database through its typed path; SQL is for
# ad-hoc callers (repl, examples, tests) who bring their own text. Building
# a statement with `format!` inside the database or the system crate puts
# lex + parse + plan back on a per-emission path, and splices values into
# SQL unescaped. Test modules (everything from a file's `#[cfg(test)]` on)
# may: the SQL surface is what they check.
sql_hits=$(find crates/sase-db/src crates/sase-system/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } /(execute|query)\(&format!/ { print f ":" FNR ":" $0 }' "$f"
done)
if [ -n "$sql_hits" ]; then
    echo "lint-hotpath: SQL text built per call (use Database::read/write or Database::insert):" >&2
    echo "$sql_hits" >&2
    fail=1
fi

# `unsafe` allowlist: files permitted to contain unsafe code. All product
# code is safe Rust; the only exceptions are the measuring global
# allocators two tests install (allocation count for the zero-allocation
# proof, largest allocation for the damaged-frame sweep).
ALLOW_UNSAFE="crates/sase-core/tests/zero_alloc.rs crates/sase-server/tests/codec_total.rs"

unsafe_hits=$(grep -rn 'unsafe' crates src --include='*.rs' 2>/dev/null \
    | grep -vE '^[^:]+:[0-9]+:\s*(//|//!|///)' \
    | grep -vE '(forbid|deny)\(unsafe_code\)' || true)
if [ -n "$unsafe_hits" ]; then
    filtered="$unsafe_hits"
    for allowed in $ALLOW_UNSAFE; do
        filtered=$(echo "$filtered" | grep -v "^$allowed:" || true)
    done
    if [ -n "$filtered" ]; then
        echo "lint-hotpath: unsafe outside the allowlist:" >&2
        echo "$filtered" >&2
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "lint-hotpath: FAILED" >&2
    exit 1
fi
echo "lint-hotpath: OK"
