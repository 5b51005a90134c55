#!/bin/sh
# Mutation check for the differential tests.
#
# For each mutation below, copies the working tree into
# SCRATCH_DIR/mutant, replaces one line of one file there, and runs the
# tests the entry names against the mutant. They must fail: if they
# pass, they no longer see what the mutated code does. The repository
# itself is never modified.
#
#   crates/vm/mutation_check.sh SCRATCH_DIR
#
# Each mutation is four lines — the `cargo test` arguments that select
# its tests, the file, the line as it is, the line as the mutant has it —
# followed by a blank line. The VM's entries run its unit tests (the
# peephole rule table's per-row check among them), the four-way corpus
# and the typed fallbacks:
#   * the typed stream's integer `Add` as a float add (exact below 2^53,
#     wrong above it);
#   * the peephole table without its hole-distinctness check (a window
#     whose elided temporary is one of the superinstruction's own
#     registers fuses, and computes something else);
#   * the `Value` stream's `FusedRedAccS` arm loading its accumulator
#     from the subscript slot;
#   * a callee frame's reset keeping the previous call's scalar slots
#     (a callee local set on one call is still bound on the next).
#   * the typed register bound admitting two registers too many (a
#     chunk of 255 or 256 registers is typed, and its scratch registers
#     alias r0 and r1 of the 256-entry file).
# The runtime's and the analysis' entries run `lip_suite`'s session
# matrix, whose rows go through `lip_suite::check`:
#   * the DO statement's own unit charged on the parallel path (the
#     loop-units comparison);
#   * the plan sending a DO with a step other than 1 past its step
#     guard (the step-2 CIV row then runs sequentially for "CIV traces
#     its variable cannot index", which its step 1 would not make true:
#     only the check's verification of the plan's claims sees it);
#   * static last values proved for a write whose address is an opaque
#     per-iteration value again (`A(K)` after `IF (..) K = K + 1`: the
#     store comparison at two chunks and more);
#   * the shared chunk driver no longer seeding CIVs from their traces
#     (a chunk past the first, parallel or speculated, restarts the
#     counter: the store comparison);
#   * the shared chunk driver no longer leaving the DO variable at its
#     last value (the store comparison, which covers a DO's variable
#     whether or not the input binds it);
#   * the CIV slice run under the caller's tracer again (its reads reach
#     the access comparison as if the loop made them);
#   * LRPD's committed attempt no longer replayed to the caller's tracer
#     (the access comparison sees none of the loop's accesses);
#   * the DO slice's traces as an observer recording each iteration's
#     scalars after the iteration instead of before it would leave them
#     (the first iteration's entry value missing, the post-loop value
#     twice: a chunk is seeded one increment late, the store comparison);
#   * LRPD's observer giving its tracer the ordinal 0 at every
#     iteration (a chunk's iterations all mark as one, so a conflict
#     inside a chunk goes unseen and a wrong speculation commits:
#     `speculation_commits_and_aborts_like_the_sequential_loop`);
#   * the simulator's per-iteration costs, read off its observer's
#     iteration starts, each given to the next iteration (the first
#     measured at 0, the last one's dropped: the per-iteration costs
#     against the interpreter's loop in
#     `concurrent_sessions_with_different_seams_are_bit_identical`).
# The exact USR test's entry runs `lip_usr`'s units golden:
#   * one `charge` dropped from the lowered evaluator (a kept prefix's
#     iterations go uncounted: `exact_corpus_units.txt` diverges).
set -eu
scratch=${1:?usage: $0 SCRATCH_DIR}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
mutant="$scratch/mutant"

vm_tests='-p lip_vm --lib --test proptest_programs --test typed_fallback'
check_tests='-p lip_suite --test session_matrix'
units_tests='-p lip_usr --test exact_differential'
mutations="$vm_tests
crates/vm/src/typed.rs
        Add => a.wrapping_add(b),
        Add => (a as f64 + b as f64) as i64,

$vm_tests
crates/vm/src/peephole.rs
            if hole.is_some_and(|h| names.contains(&h)) {
            if false {

$vm_tests
crates/vm/src/vm.rs
                        let acc = Self::slot_value(chunk, frame, *acc_slot)?;
                        let acc = Self::slot_value(chunk, frame, *idx_slot)?;

$vm_tests
crates/vm/src/vm.rs
        self.scalars.clear();
        self.scalars.truncate(csub.chunk.scalars.len());

$vm_tests
crates/vm/src/typed.rs
    if chunk.nregs + 2 > TREGS {
    if chunk.nregs > TREGS {

$check_tests
crates/runtime/src/exec.rs
    let do_unit = u64::from(!outcome.ran_in_chunks());
    let do_unit = 1;

$check_tests
crates/runtime/src/plan.rs
        (Some(s), _) if s.step != 1 => Some(Sequential(SeqReason::Step)),
        (Some(s), _) if s.step != 1 && false => Some(Sequential(SeqReason::Step)),

$check_tests
crates/analysis/src/classify.rs
        let slv_static = !addresses_mention(&s.wf, None) && prove_empty(cx, &mut f, &slv).is_true();
        let slv_static = prove_empty(cx, &mut f, &slv).is_true();

$check_tests
crates/runtime/src/exec.rs
                f.set_scalar(slot(*s), v);
                let _ = (s, v);

$check_tests
crates/runtime/src/exec.rs
            out.finals = std::iter::once((var, Value::Int(hi)))
            out.finals = std::iter::empty()

$check_tests
crates/runtime/src/civ.rs
    let tracer: Option<&dyn AccessTracer> = None;
    let tracer: Option<&dyn AccessTracer> = env.tracer();

$check_tests
crates/runtime/src/lrpd.rs
        held.iter().for_each(|(_, chunk)| chunk.replay(to));
        held.iter().for_each(|_| ());

$check_tests
crates/runtime/src/civ.rs
            seen.push(|s| f.scalar(s));
            seen.traces.iter_mut().for_each(|t| drop(t.2.remove(shape.lo.max(1) as usize - 1))); seen.push(|s| f.scalar(s)); seen.push(|s| f.scalar(s));

$check_tests
crates/runtime/src/lrpd.rs
        self.iter.store(i.wrapping_sub(self.lo), Ordering::Relaxed);
        self.iter.store(0, Ordering::Relaxed);

$check_tests
crates/runtime/src/sim.rs
            starts.0.windows(2).map(|w| w[1] - w[0]).collect()
            std::iter::once(0).chain(starts.0.windows(2).map(|w| w[1] - w[0])).take(starts.0.len() - 1).collect()

$units_tests
crates/usr/src/exact.rs
            self.charge()?;
            // self.charge()?;
"

mutated=
printf '%s\n' "$mutations" | while IFS= read -r tests && IFS= read -r file &&
    IFS= read -r from && IFS= read -r to; do
    read -r _ || true
    rm -rf "$mutant"
    mkdir -p "$mutant"
    (cd "$root" && git ls-files -z --cached --others --exclude-standard |
        xargs -0 tar -cf -) | tar -xf - -C "$mutant"
    # The copy keeps each file's time, so a file an earlier entry mutated
    # comes back older than the build of its mutant in the shared target
    # directory, and cargo would keep that build: touch it to rebuild it.
    for f in $mutated; do touch "$mutant/$f"; done
    mutated="$mutated $file"
    target="$mutant/$file"
    test "$(grep -cxF -- "$from" "$target")" = 1 || {
        echo "mutation site not found exactly once in $file: $from" >&2
        exit 2
    }
    awk -v from="$from" -v to="$to" '$0 == from { print to; next } { print }' \
        "$target" >"$target.new"
    mv "$target.new" "$target"
    grep -qxF -- "$to" "$target"
    log="$scratch/mutant-$(basename "$file" .rs).log"
    # $tests is a list of arguments: split on purpose.
    # shellcheck disable=SC2086
    if CARGO_TARGET_DIR="$scratch/mutant-target" cargo test --release -q \
        --manifest-path "$mutant/Cargo.toml" $tests >"$log" 2>&1 </dev/null; then
        echo "mutation SURVIVED in $file: the tests pass with: $to" >&2
        exit 1
    fi
    grep -q 'panicked' "$log" || {
        echo "the mutant of $file did not build (log: $log)" >&2
        exit 2
    }
    grep -E 'diverged|panicked' "$log" | head -3
    echo "mutation caught: $file (log: $log)"
done
