//! Interned program symbols.
//!
//! Symbols are cheap `Copy` handles into a process-global interner. Two
//! symbols compare equal iff they are the same entry, and ordering follows
//! the interning order (stable within a process, which is all the analysis
//! needs: deterministic canonical forms for [`crate::SymExpr`]).
//!
//! An entry is either a *name* — a string, found again by [`sym`] — or a
//! *fresh* symbol ([`Sym::fresh`]): a base symbol, a literal suffix and
//! the entry's own index, rendered `base` `suffix` `$index`. A fresh symbol is never looked up by
//! name, so it owns no string and no table slot: an analysis mints
//! hundreds of them (bound variables, opaque unknowns), a server
//! analyses programs forever, and the interner only grows.

use std::collections::HashMap;
use std::fmt;
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

enum Entry {
    Name(Box<str>),
    /// Rendered `base`, `suffix`, `$n` — `n` being this entry's index.
    Fresh(Sym, &'static str),
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
        let id = u32::try_from(self.entries.len()).expect("symbol interner overflow");
        self.entries.push(entry);
        Sym(id)
    }

    fn write_name(&self, s: Sym, out: &mut dyn fmt::Write) -> fmt::Result {
        match &self.entries[s.0 as usize] {
            Entry::Name(name) => out.write_str(name),
            Entry::Fresh(base, suffix) => {
                self.write_name(*base, out)?;
                write!(out, "{suffix}${}", s.0)
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

    /// A fresh symbol, distinct from every other one, rendered as `base`
    /// with a suffix (used for renaming recurrence variables).
    pub fn fresh(base: &str) -> Sym {
        Sym::fresh_from(sym(base), "")
    }

    /// [`Sym::fresh`] named after a symbol — another fresh one included,
    /// which nests the numbers (`i$35k$80` for base `i$35` and suffix
    /// `k`) — without interning the name it is rendered with.
    pub fn fresh_from(base: Sym, suffix: &'static str) -> Sym {
        interner().write().unwrap().push(Entry::Fresh(base, suffix))
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
        let b = Sym::fresh_from(a, "k");
        assert!(a < b, "ordered by creation");
        let (rendered_a, rendered_b) = (a.name(), b.name());
        assert!(rendered_a.starts_with("fresh_base$"), "{rendered_a}");
        assert!(
            rendered_b.starts_with(&format!("{rendered_a}k$")),
            "{rendered_b}"
        );
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
}
