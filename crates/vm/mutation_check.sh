#!/bin/sh
# Mutation check for the typed stream's differential tests.
#
# Copies the working tree into SCRATCH_DIR/mutant, turns the typed
# stream's integer `Add` into a float add there (exact below 2^53, wrong
# above it), and runs the VM's differential suites against the mutant.
# They must fail: if they pass, they no longer see what the typed stream
# computes. The repository itself is never modified.
#
#   crates/vm/mutation_check.sh SCRATCH_DIR
set -eu
scratch=${1:?usage: $0 SCRATCH_DIR}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
mutant="$scratch/mutant"
rm -rf "$mutant"
mkdir -p "$mutant"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    xargs -0 tar -cf -) | tar -xf - -C "$mutant"

file="$mutant/crates/vm/src/typed.rs"
from='        Add => a.wrapping_add(b),'
to='        Add => (a as f64 + b as f64) as i64,'
test "$(grep -cF "$from" "$file")" = 1 || {
    echo "mutation site not found exactly once in typed.rs" >&2
    exit 2
}
sed -i "s|^$from\$|$to|" "$file"
grep -qF "$to" "$file"

if CARGO_TARGET_DIR="$scratch/mutant-target" cargo test --release -q \
    --manifest-path "$mutant/Cargo.toml" -p lip_vm \
    --test proptest_programs --test typed_fallback >"$scratch/mutant.log" 2>&1; then
    echo "mutation SURVIVED: typed Int Add as a float add passes the tests" >&2
    exit 1
fi
grep -E 'diverged|panicked' "$scratch/mutant.log" | head -3
echo "mutation caught (log: $scratch/mutant.log)"
