//! The verdict-memo key is a function of the *hashed view* of a store —
//! which scalars are bound and their `i64` values; which arrays are
//! bound, their offsets, lengths and cells under the `i64` projection —
//! and of nothing else: two stores get equal fingerprints exactly when
//! their views are equal. Checked over random stores and the edits that
//! a sloppy digest would miss (a swap, a suffix sliding into the next
//! array, a trailing zero against the kernel's zero padding, unbound
//! against empty, a value moving to another name), at the array
//! kernel's block boundaries, and against the two-pass SipHash
//! construction this digest replaced, kept here as the oracle: wherever
//! the old key told two stores apart the new one must, and vice versa.
//!
//! Run with optimisations too (`cargo test --release -p lip_runtime`):
//! the kernel that ships is the optimised one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use lip_ir::{ArrayBuf, ArrayView, Store, Value};
use lip_runtime::digest::BLOCK;
use lip_runtime::{store_fingerprint, InputDigests, KeyCost};
use lip_symbolic::{sym, Sym};
use proptest::collection::vec;
use proptest::prelude::*;

/// One array as a store binds it. `frac` makes the cells Real with that
/// fractional part: the `i64` view truncates it away.
#[derive(Clone, Debug)]
struct Arr {
    offset: usize,
    cells: Vec<i64>,
    frac: Option<f64>,
}

/// A store by description: three scalar and three array names, each
/// bound or not.
#[derive(Clone, Debug)]
struct Desc {
    scalars: [Option<i64>; 3],
    arrays: [Option<Arr>; 3],
}

type View = (Vec<Option<i64>>, Vec<Option<(usize, Vec<i64>)>>);

fn names() -> (Vec<Sym>, Vec<Sym>) {
    (
        ["S0", "S1", "S2"].map(sym).to_vec(),
        ["A0", "A1", "A2"].map(sym).to_vec(),
    )
}

impl Desc {
    fn store(&self) -> Store {
        let (s, a) = names();
        let mut f = Store::new();
        for (name, v) in s.iter().zip(&self.scalars) {
            if let Some(v) = v {
                f.set_int(*name, *v);
            }
        }
        for (name, arr) in a.iter().zip(&self.arrays) {
            let Some(arr) = arr else { continue };
            let buf = match arr.frac {
                None => ArrayBuf::from_i64(&arr.cells),
                Some(frac) => {
                    let reals: Vec<f64> = arr
                        .cells
                        .iter()
                        .map(|&c| c as f64 + frac.copysign(c as f64))
                        .collect();
                    ArrayBuf::from_f64(&reals)
                }
            };
            f.bind_array(
                *name,
                ArrayView {
                    buf,
                    offset: arr.offset,
                    extents: vec![arr.cells.len() as i64],
                },
            );
        }
        f
    }

    /// What the key is allowed to depend on.
    fn view(&self) -> View {
        (
            self.scalars.to_vec(),
            self.arrays
                .iter()
                .map(|a| a.as_ref().map(|a| (a.offset, a.cells.clone())))
                .collect(),
        )
    }
}

/// The parent's `store_fingerprint`: two domain-separated SipHash
/// passes, a `Value` per element.
fn oracle(frame: &Store, scalars: &[Sym], arrays: &[Sym]) -> u128 {
    let pass = |domain: u64| {
        let mut h = DefaultHasher::new();
        domain.hash(&mut h);
        for s in scalars {
            match frame.scalar(*s) {
                Some(v) => (1u8, v.as_i64()).hash(&mut h),
                None => 0u8.hash(&mut h),
            }
        }
        for a in arrays {
            match frame.array(*a) {
                Some(view) => {
                    let len = view.buf.len();
                    (1u8, view.offset, len).hash(&mut h);
                    for i in 0..len {
                        view.buf.get(i).as_i64().hash(&mut h);
                    }
                }
                None => 0u8.hash(&mut h),
            }
        }
        h.finish()
    };
    (u128::from(pass(0xBEEF_CAFE)) << 64) | u128::from(pass(0xF00D))
}

/// Equal views ⇔ equal fingerprints ⇔ equal oracle fingerprints, and the
/// one-shot form is the table's key.
fn agree(a: &Desc, b: &Desc) -> Result<(), TestCaseError> {
    let (s, arrs) = names();
    let (fa, fb) = (a.store(), b.store());
    let same = a.view() == b.view();
    let new = (
        store_fingerprint(&fa, &s, &arrs),
        store_fingerprint(&fb, &s, &arrs),
    );
    let old = (oracle(&fa, &s, &arrs), oracle(&fb, &s, &arrs));
    prop_assert_eq!(new.0 == new.1, same, "digest: {:?} vs {:?}", a, b);
    prop_assert_eq!(old.0 == old.1, same, "oracle: {:?} vs {:?}", a, b);
    // A shared table answers what the one-shot form answers, first and
    // second time, whatever else it was asked in between.
    let mut cost = KeyCost::default();
    let mut table = InputDigests::new(&fa, &mut cost);
    prop_assert_eq!(table.key(&s, &arrs), new.0);
    prop_assert_eq!(
        table.key(&s[..1], &arrs[1..]),
        store_fingerprint(&fa, &s[..1], &arrs[1..])
    );
    prop_assert_eq!(table.key(&s, &arrs), new.0);
    let bound: u64 = a
        .arrays
        .iter()
        .flatten()
        .map(|x| x.cells.len() as u64)
        .sum();
    prop_assert_eq!(cost.elems, bound, "each bound array is read once");
    Ok(())
}

/// The edits: `site` picks where, `v` what to write.
fn edit(d: &Desc, which: usize, site: usize, v: i64) -> Desc {
    let mut e = d.clone();
    let k = site % 3;
    let at = |len: usize| (len > 0).then(|| site / 3 % len.max(1));
    match which {
        // One element changed.
        0 => {
            if let Some(a) = &mut e.arrays[k] {
                if let Some(i) = at(a.cells.len()) {
                    a.cells[i] = v;
                }
            }
        }
        // Two elements swapped.
        1 => {
            if let Some(a) = &mut e.arrays[k] {
                if let Some(i) = at(a.cells.len()) {
                    let j = (i + 1 + v.unsigned_abs() as usize) % a.cells.len();
                    a.cells.swap(i, j);
                }
            }
        }
        // A suffix slides into the next array: same cells in the same
        // order, a boundary moved.
        2 => {
            let next = (k + 1) % 3;
            if let (Some(a), Some(b)) = (e.arrays[k].clone(), e.arrays[next].clone()) {
                let cut = at(a.cells.len() + 1).unwrap_or(0);
                let mut moved = a.cells[cut..].to_vec();
                moved.extend(&b.cells);
                e.arrays[k].as_mut().expect("bound").cells.truncate(cut);
                e.arrays[next].as_mut().expect("bound").cells = moved;
            }
        }
        // Length + 1 by a trailing zero (the kernel pads with zeros).
        3 => {
            if let Some(a) = &mut e.arrays[k] {
                a.cells.push(0);
            }
        }
        // Length − 1.
        4 => {
            if let Some(a) = &mut e.arrays[k] {
                a.cells.pop();
            }
        }
        // Bound but empty against unbound.
        5 => {
            e.arrays[k] = match &e.arrays[k] {
                None => Some(Arr {
                    offset: 0,
                    cells: Vec::new(),
                    frac: None,
                }),
                Some(_) => None,
            }
        }
        // Another offset.
        6 => {
            if let Some(a) = &mut e.arrays[k] {
                a.offset += 1 + v.unsigned_abs() as usize;
            }
        }
        // A scalar's value moves to the next name.
        7 => {
            let next = (k + 1) % 3;
            e.scalars.swap(k, next);
        }
        // A scalar changed, bound or unbound.
        8 => e.scalars[k] = (v != 0).then_some(v),
        // Int cells against Real cells with the same `i64` view: equal.
        _ => {
            if let Some(a) = &mut e.arrays[k] {
                a.frac = match a.frac {
                    None => Some(0.25),
                    Some(_) => None,
                };
            }
        }
    }
    e
}

fn desc(cells: [&[i64]; 3], offsets: &[usize], scalars: &[i64], bound: usize, real: usize) -> Desc {
    let mut k = 0;
    let arrays = cells.map(|cells| {
        let arr = (bound >> k & 1 == 1).then(|| Arr {
            offset: offsets[k],
            cells: cells.to_vec(),
            frac: (real >> k & 1 == 1).then_some(0.5),
        });
        k += 1;
        arr
    });
    let mut j = 3;
    let scalars = [0, 1, 2].map(|i| {
        j += 1;
        (bound >> j & 1 == 1).then(|| scalars[i])
    });
    Desc { scalars, arrays }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn fingerprints_are_equal_exactly_when_the_hashed_view_is(
        a0 in vec(-3i64..4, 0..11),
        a1 in vec(-3i64..4, 0..11),
        a2 in vec(-3i64..4, 0..11),
        offsets in vec(0usize..3, 3..4),
        scalars in vec(-2i64..3, 3..4),
        bound in 0usize..256,
        real in 0usize..8,
        which in 0usize..10,
        site in 0usize..4096,
        v in -3i64..4,
    ) {
        let d = desc([&a0, &a1, &a2], &offsets, &scalars, bound, real);
        agree(&d, &d.clone())?;
        agree(&d, &edit(&d, which, site, v))?;
    }

    /// The same edits where the array kernel changes gear: empty, one
    /// cell, one short of a block, a block, one past it, two blocks.
    #[test]
    fn block_boundaries_are_not_special(
        len in 0usize..6,
        seed in vec(-1000i64..1000, 8..9),
        which in 0usize..7,
        site in 0usize..4096,
        real in 0usize..2,
    ) {
        let len = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK][len];
        let cells: Vec<i64> = (0..len).map(|i| seed[i % 8] ^ (i as i64 * 31)).collect();
        let d = desc([&cells, &[7], &[]], &[0, 0, 0], &[1, 2, 3], 0b111_0111, real);
        // Array 0 is the one under test: edits aim at it or at its
        // boundary with array 1, at its first and last cells too.
        for site in [0, site * 3, len.saturating_sub(1) * 3] {
            agree(&d, &edit(&d, which, site, 9))?;
        }
    }
}

#[test]
fn reals_that_truncate_alike_are_one_input() {
    let (s, a) = names();
    let mut f = Store::new();
    let b = f.alloc_real(a[0], 3);
    let before = store_fingerprint(&f, &s, &a);
    b.set(1, Value::Real(0.75));
    assert_eq!(
        before,
        store_fingerprint(&f, &s, &a),
        "0.0 and 0.75 both read 0"
    );
    b.set(1, Value::Real(1.0));
    assert_ne!(before, store_fingerprint(&f, &s, &a));
}
