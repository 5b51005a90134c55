//! Fingerprints for incremental re-analysis.
//!
//! The 128-bit digest of [`lip_runtime::digest`] — the construction
//! under [`lip_runtime::store_fingerprint`], the `PredEngine`'s
//! verdict-memo key over loop-invariant inputs, not a copy of it —
//! applied one level up, to the *inputs of static analysis*, so
//! edit-and-rerun traffic only pays for what changed:
//!
//! * [`source_fingerprint`] keys the parse cache: byte-identical
//!   source skips the parser entirely (one pass over the text).
//! * [`loop_fingerprint`] keys the analysis cache: it covers exactly
//!   what [`lip_runtime::Session::analyze`] reads for one loop — the
//!   loop statement itself, the enclosing subroutine's name, parameters
//!   and declarations, and every *other* unit (callees) — but not
//!   sibling statements. Editing loop B therefore leaves loop A's
//!   fingerprint (and cached analysis) intact, while editing a
//!   declaration or a callee invalidates both.
//!
//! The hashed rendering is the AST's `Debug` form: stable within a
//! build, structural (whitespace/comment edits that parse identically
//! hash identically). Parts are length-delimited, the lanes are seeded
//! per process (a fingerprint means nothing outside the process that
//! made it, and a client cannot aim two programs at one cache slot);
//! the collision odds are argued in [`lip_runtime::digest`].

use lip_ir::{Program, Subroutine};
use lip_runtime::digest::digest_bytes;
use lip_symbolic::Sym;

fn fp128(parts: &[String]) -> u128 {
    let parts: Vec<&[u8]> = parts.iter().map(String::as_bytes).collect();
    digest_bytes(&parts)
}

/// Fingerprint of raw program text (the parse-cache key).
pub fn source_fingerprint(src: &str) -> u128 {
    digest_bytes(&[src.as_bytes()])
}

/// Structural fingerprint of a whole parsed program.
pub fn program_fingerprint(prog: &Program) -> u128 {
    let rendered: Vec<String> = prog.units.iter().map(|u| format!("{u:?}")).collect();
    fp128(&rendered)
}

/// Fingerprint of everything the analysis of one loop depends on:
/// the loop statement, its subroutine's signature and declarations,
/// and all other units. `None` when the subroutine or label does not
/// exist.
pub fn loop_fingerprint(prog: &Program, sub_name: Sym, label: &str) -> Option<u128> {
    let sub: &Subroutine = prog.units.iter().find(|u| u.name == sub_name)?;
    let target = sub.find_loop(label)?;
    let mut rendered = vec![
        label.to_owned(),
        sub.name.name(),
        format!("{:?}", sub.params),
        format!("{:?}", sub.decls),
        format!("{target:?}"),
    ];
    for other in prog.units.iter().filter(|u| u.name != sub_name) {
        rendered.push(format!("{other:?}"));
    }
    Some(fp128(&rendered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    const TWO_LOOPS: &str = "
SUBROUTINE calc(A, B, N)
  DIMENSION A(*), B(*)
  INTEGER i, N
  DO one i = 1, N
    A(i) = A(i) + 1.0
  ENDDO
  DO two i = 1, N
    B(i) = B(i) * 2.0
  ENDDO
END
";

    #[test]
    fn fingerprints_are_deterministic_and_structural() {
        let p1 = parse_program(TWO_LOOPS).expect("parses");
        let p2 = parse_program(TWO_LOOPS).expect("parses");
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        assert_eq!(
            loop_fingerprint(&p1, sym("calc"), "one"),
            loop_fingerprint(&p2, sym("calc"), "one")
        );
        assert_ne!(
            loop_fingerprint(&p1, sym("calc"), "one"),
            loop_fingerprint(&p1, sym("calc"), "two")
        );
        assert_eq!(loop_fingerprint(&p1, sym("calc"), "three"), None);
        assert_eq!(loop_fingerprint(&p1, sym("nope"), "one"), None);
        assert_eq!(source_fingerprint(TWO_LOOPS), source_fingerprint(TWO_LOOPS));
        assert_ne!(source_fingerprint(TWO_LOOPS), source_fingerprint("x"));
    }

    #[test]
    fn editing_one_loop_leaves_the_others_fingerprint_intact() {
        let before = parse_program(TWO_LOOPS).expect("parses");
        let after = parse_program(&TWO_LOOPS.replace("B(i) * 2.0", "B(i) * 3.0")).expect("parses");
        // The program changed...
        assert_ne!(program_fingerprint(&before), program_fingerprint(&after));
        // ...loop `two` must re-analyze...
        assert_ne!(
            loop_fingerprint(&before, sym("calc"), "two"),
            loop_fingerprint(&after, sym("calc"), "two")
        );
        // ...but loop `one`'s cached analysis stays valid.
        assert_eq!(
            loop_fingerprint(&before, sym("calc"), "one"),
            loop_fingerprint(&after, sym("calc"), "one")
        );
    }

    #[test]
    fn declaration_and_callee_edits_invalidate() {
        let before = parse_program(TWO_LOOPS).expect("parses");
        // A declaration edit changes what the analysis may assume.
        let decls =
            parse_program(&TWO_LOOPS.replace("DIMENSION A(*), B(*)", "DIMENSION A(*), B(8)"))
                .expect("parses");
        assert_ne!(
            loop_fingerprint(&before, sym("calc"), "one"),
            loop_fingerprint(&decls, sym("calc"), "one")
        );
        // Adding (or editing) another unit — a potential callee —
        // invalidates too.
        let with_callee = parse_program(&format!(
            "{TWO_LOOPS}\nSUBROUTINE extra(X)\n  DIMENSION X(*)\n  X(1) = 0.0\nEND\n"
        ))
        .expect("parses");
        assert_ne!(
            loop_fingerprint(&before, sym("calc"), "one"),
            loop_fingerprint(&with_callee, sym("calc"), "one")
        );
    }
}
