//! Interned program symbols.
//!
//! Symbols are cheap `Copy` handles into a process-global interner. Two
//! symbols compare equal iff they are the same entry, and ordering follows
//! the interning order (stable within a process, which is all the analysis
//! needs: deterministic canonical forms for [`crate::SymExpr`]).
//!
//! An entry is either a *name* — a string, found again by [`sym`] — or a
//! *fresh* symbol ([`Sym::fresh`]): a base symbol and the entry's own
//! index, rendered `base$index`. A fresh symbol is never looked up by
//! name, so it owns no string and no table slot; the analysis mints
//! them only for opaque unknowns (a value it cannot name), and the
//! interner only grows.
//!
//! # Binders
//!
//! Bound variables — recurrence and quantifier variables, the prefix
//! `k` of `∪_{k<i}`, a WHILE loop's iteration counter — come from a
//! fixed pool of [`Sym::binder`]s instead, rendered `@0`, `@1`, … . A
//! binder is chosen as the lowest pool symbol that occurs nowhere, free
//! or bound, in the terms it enters ([`Binders::first_free`]), so
//! renaming to it cannot capture anything, and the same sub-problem
//! built twice is the same term: equal, equally hashed and rendered
//! byte for byte alike in every process. The pool lives above every
//! interner entry — a binder sorts after every name and fresh symbol,
//! whatever the process interned before — and owns no entry at all.

use std::collections::HashMap;
use std::fmt;
use std::ops::BitOr;
use std::sync::OnceLock;

use std::sync::RwLock;

/// An interned program symbol (scalar variable, array name, loop index, …).
///
/// # Example
///
/// ```
/// use lip_symbolic::sym;
/// let a = sym("NS");
/// let b = sym("NS");
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "NS");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

/// Binders in the pool: one bit each in a [`Binders`] set.
const POOL: u32 = 64;

/// The pool's first id: the top of the id space, which the interner
/// never reaches.
const POOL_BASE: u32 = u32::MAX - (POOL - 1);

enum Entry {
    Name(Box<str>),
    /// Rendered `base$n`, `n` being this entry's index.
    Fresh(Sym),
}

struct Interner {
    entries: Vec<Entry>,
    by_name: HashMap<Box<str>, Sym>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            entries: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

impl Interner {
    fn push(&mut self, entry: Entry) -> Sym {
        let id = u32::try_from(self.entries.len())
            .ok()
            .filter(|id| *id < POOL_BASE)
            .expect("symbol interner overflow");
        self.entries.push(entry);
        Sym(id)
    }

    fn write_name(&self, s: Sym, out: &mut dyn fmt::Write) -> fmt::Result {
        if let Some(n) = s.binder_index() {
            return write!(out, "@{n}");
        }
        match &self.entries[s.0 as usize] {
            Entry::Name(name) => out.write_str(name),
            Entry::Fresh(base) => {
                self.write_name(*base, out)?;
                write!(out, "${}", s.0)
            }
        }
    }
}

/// Interns `name` and returns its symbol handle.
pub fn sym(name: &str) -> Sym {
    if let Some(&known) = interner().read().unwrap().by_name.get(name) {
        return known;
    }
    let mut guard = interner().write().unwrap();
    if let Some(&known) = guard.by_name.get(name) {
        return known;
    }
    let s = guard.push(Entry::Name(name.into()));
    guard.by_name.insert(name.into(), s);
    s
}

/// `(names, fresh symbols)` interned so far in this process: the first
/// is bounded by the program texts seen, the second by the analyses run.
pub fn interner_size() -> (usize, usize) {
    let guard = interner().read().unwrap();
    let names = guard.by_name.len();
    (names, guard.entries.len() - names)
}

impl Sym {
    /// Returns the symbol's name.
    ///
    /// This builds a string; symbols are meant to be compared and hashed,
    /// with names only materialized for diagnostics ([`fmt::Display`]
    /// writes the name without the copy).
    pub fn name(self) -> String {
        self.to_string()
    }

    /// A fresh symbol, distinct from every other one, rendered `base$n`
    /// (an opaque unknown: a value the analysis cannot name).
    pub fn fresh(base: &str) -> Sym {
        let base = sym(base);
        interner().write().unwrap().push(Entry::Fresh(base))
    }

    /// Binder `n` of the pool (see the module documentation); `n < 64`.
    pub fn binder(n: u32) -> Sym {
        assert!(n < POOL, "binder {n} is outside the pool");
        Sym(POOL_BASE + n)
    }

    /// `Some(n)` for [`Sym::binder`]`(n)`, `None` for every other symbol.
    pub fn binder_index(self) -> Option<u32> {
        self.0.checked_sub(POOL_BASE)
    }
}

/// A set of pool binders, one bit each: which binders occur in a term.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct Binders(u64);

impl Binders {
    /// `{s}` when `s` is a binder, the empty set otherwise.
    pub fn of(s: Sym) -> Binders {
        Binders(s.binder_index().map_or(0, |n| 1 << n))
    }

    /// The lowest binder not in the set: the one to bind in terms whose
    /// binders, free or bound, are `self`. Should one term ever hold the
    /// whole pool, a fresh symbol stands in (still distinct from
    /// everything, just not canonical).
    pub fn first_free(self) -> Sym {
        match (!self.0).trailing_zeros() {
            n if n < POOL => Sym::binder(n),
            _ => Sym::fresh("binder"),
        }
    }
}

impl BitOr for Binders {
    type Output = Binders;

    fn bitor(self, other: Binders) -> Binders {
        Binders(self.0 | other.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        interner().read().unwrap().write_name(*self, f)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(sym("x"), sym("x"));
        assert_ne!(sym("x"), sym("y"));
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(sym("SOLVH_do20").name(), "SOLVH_do20");
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Sym::fresh("k");
        let b = Sym::fresh("k");
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_symbols_render_their_base_and_own_no_string() {
        let (names, fresh) = interner_size();
        let a = Sym::fresh("fresh_base");
        let b = Sym::fresh("fresh_base");
        assert!(a < b, "ordered by creation");
        let (rendered_a, rendered_b) = (a.name(), b.name());
        assert!(rendered_a.starts_with("fresh_base$"), "{rendered_a}");
        assert!(rendered_b.starts_with("fresh_base$"), "{rendered_b}");
        assert_ne!(rendered_a, rendered_b);
        assert_eq!(format!("{a:?}"), format!("Sym({rendered_a})"));
        // Other tests intern concurrently: at least ours, one name only.
        let (names_after, fresh_after) = interner_size();
        assert!(fresh_after >= fresh + 2);
        assert!(names_after > names);
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(format!("{}", sym("NP")), "NP");
    }

    #[test]
    fn binders_sort_last_and_render_fixed() {
        let b = Sym::binder(3);
        assert_eq!(b.to_string(), "@3");
        assert_eq!(b.binder_index(), Some(3));
        assert_eq!(sym("x").binder_index(), None);
        // After every entry, including ones interned later.
        assert!(sym("binders_sort_last") < Sym::binder(0));
        assert!(Sym::fresh("late") < Sym::binder(0));
        assert!(Sym::binder(0) < b);
    }

    #[test]
    fn first_free_binder_skips_every_member() {
        assert_eq!(Binders::default().first_free(), Sym::binder(0));
        let used =
            Binders::of(Sym::binder(0)) | Binders::of(Sym::binder(1)) | Binders::of(sym("y"));
        assert_eq!(used.first_free(), Sym::binder(2));
        let gap = Binders::of(Sym::binder(0)) | Binders::of(Sym::binder(2));
        assert_eq!(gap.first_free(), Sym::binder(1));
        let full = (0..64).fold(Binders::default(), |b, n| b | Binders::of(Sym::binder(n)));
        assert_eq!(full.first_free().binder_index(), None);
    }
}
