//! The one 128-bit digest in the tree: the verdict memo's input key
//! ([`InputDigests`], [`crate::store_fingerprint`]), the block cache's
//! structural key (`ProgramCache::body`) and `lip_serve`'s
//! source / loop fingerprints ([`digest_bytes`]) all run through one
//! streaming state, `Digest`.
//!
//! **Construction.** Two 64-bit lanes, each a chain of folded 64×64→128
//! multiplies (the wyhash / rapidhash step): a pair of words `(x, y)`
//! moves lane `a` to `fold((x ^ k0) · (y ^ a))` and lane `b` to
//! `fold((y ^ k1) · (x ^ b))`, `fold` being the product's high half
//! xored into its low half. Every word enters both lanes, each lane is
//! order-sensitive, and a stream's length or a field's size is part of
//! the stream, so boundaries cannot slide. The four lane secrets are
//! drawn once per process from [`RandomState`]: digests are compared
//! only inside the process that made them and are never persisted or
//! printed.
//!
//! **Collisions.** A colliding key replays a stale verdict — a stale
//! `Some(true)` runs a dependent loop in parallel — so the key is 128
//! bits, not 64. Along a chain lane `a` is a function of `k0` and its
//! seed only, lane `b` of `k1` and its seed, so for two given distinct
//! streams the two lane collisions are independent events; one lane of
//! `n` pairs merges two different states with probability about
//! `n · 2⁻⁶⁴` (each step is a keyed random-looking map, not a
//! permutation), which puts a pair of million-element index arrays near
//! `2⁻⁸⁸`. Where chains join — the array kernel's two chains, an array's
//! digest entering a test's key — both lanes of one feed both lanes of
//! the other in a single step, so a join only adds its own `2⁻¹²⁸`. The
//! two fixed-key SipHash passes this replaced claimed `2⁻¹²⁸` outright,
//! but their keys were public constants: a wire client could search for
//! colliding index arrays offline, and cannot against lanes it never
//! sees. Storing the inputs instead would cost what the memoized
//! evaluation costs.
//!
//! **Cost.** One pass, cells read in typed blocks of [`BLOCK`]
//! ([`lip_ir::ArrayBuf::read_i64`], no `Value` per element), about
//! 1 ns per element; the kernels are `#[inline(never)]` so the callers'
//! code layout does not depend on them.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

use lip_ir::{ArrayView, Store};
use lip_symbolic::Sym;

/// Cells per bulk read in the array kernel (a multiple of 4: cells mix
/// in pairs on two chains).
pub const BLOCK: usize = 256;

/// The per-process lane secrets: two multiplier keys, two lane seeds.
fn secrets() -> &'static [u64; 4] {
    static SECRETS: OnceLock<[u64; 4]> = OnceLock::new();
    SECRETS.get_or_init(|| {
        let seed = RandomState::new();
        std::array::from_fn(|lane| seed.hash_one(lane))
    })
}

#[inline(always)]
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A streaming 128-bit digest (see the module docs). As a [`Hasher`]
/// it takes `#[derive(Hash)]` structures; [`Hasher::finish`] is the low
/// lane, [`Digest::finish128`] the whole key.
#[derive(Clone)]
pub(crate) struct Digest {
    a: u64,
    b: u64,
    k0: u64,
    k1: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        let &[k0, k1, a, b] = secrets();
        Digest { a, b, k0, k1 }
    }
}

impl Digest {
    /// Absorbs two words, in this order.
    #[inline(always)]
    fn pair(&mut self, x: u64, y: u64) {
        self.a = fold(x ^ self.k0, y ^ self.a);
        self.b = fold(y ^ self.k1, x ^ self.b);
    }

    /// Both lanes.
    pub(crate) fn finish128(&self) -> u128 {
        (u128::from(self.b) << 64) | u128::from(self.a)
    }
}

impl Hasher for Digest {
    /// One step per eight bytes, each tagged with the bytes still to
    /// come, so consecutive writes of any sizes stay apart.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut left = bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.pair(u64::from_le_bytes(w.try_into().expect("8 bytes")), left);
            left -= 8;
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.pair(u64::from_le_bytes(w), left);
        }
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

/// The digest of byte strings, boundaries included (`["ab", "c"]` and
/// `["a", "bc"]` differ) — `lip_serve`'s fingerprints.
#[inline(never)]
pub fn digest_bytes(parts: &[&[u8]]) -> u128 {
    let mut d = Digest::default();
    for p in parts {
        d.pair(p.len() as u64, parts.len() as u64);
        d.write(p);
    }
    d.finish128()
}

/// The digest of one bound array as a compiled predicate sees it:
/// offset, length and every cell under the `i64` view.
#[inline(never)]
fn digest_array(view: &ArrayView) -> u128 {
    let len = view.buf.len();
    let mut d = Digest::default();
    d.pair(view.offset as u64, len as u64);
    // Two chains per lane, alternate pairs each: a chain's step waits
    // on its own previous multiply only, so the core overlaps them.
    let mut e = d.clone();
    let mut block = [0i64; BLOCK];
    let mut at = 0;
    while at < len {
        let n = BLOCK.min(len - at);
        view.buf.read_i64(at, &mut block[..n]);
        // Only the last block can be ragged; the length is in the
        // header, so padding it with zeros is unambiguous.
        let padded = n.next_multiple_of(4);
        block[n..padded].fill(0);
        for q in block[..padded].chunks_exact(4) {
            d.pair(q[0] as u64, q[1] as u64);
            e.pair(q[2] as u64, q[3] as u64);
        }
        at += n;
    }
    d.pair(e.a, e.b);
    d.finish128()
}

/// What keying one run's tests cost: elements digested and, when
/// `timed`, the time it took (`run.fingerprint_elems` /
/// `run.fingerprint_ns`).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyCost {
    /// Whether to read the clock at all (the observer is on).
    pub timed: bool,
    /// Array elements read.
    pub elems: u64,
    /// Nanoseconds inside [`InputDigests::key`].
    pub ns: u64,
}

/// The input digests of one test phase: every array a cascade stage, a
/// reduction cascade or the exact test reads from `frame` is digested
/// once, on first use, and a test's memo key is a combine of its
/// scalars' values and its arrays' digests. A table is only as good as
/// the frame is unchanged: one per whole-loop test phase, carried into
/// the first fission fragment's (nothing runs between them), a fresh
/// one per later fragment (fragments write between tests).
pub struct InputDigests<'a> {
    frame: &'a Store,
    cost: &'a mut KeyCost,
    arrays: Digests,
}

/// The digests a test phase computed, by array.
pub(crate) type Digests = Vec<(Sym, u128)>;

impl<'a> InputDigests<'a> {
    /// An empty table over `frame`, charging `cost`.
    pub fn new(frame: &'a Store, cost: &'a mut KeyCost) -> InputDigests<'a> {
        InputDigests::resume(frame, cost, Digests::new())
    }

    /// A table over `frame` holding `arrays`, digests of its arrays as
    /// they are now.
    pub(crate) fn resume(
        frame: &'a Store,
        cost: &'a mut KeyCost,
        arrays: Digests,
    ) -> InputDigests<'a> {
        InputDigests {
            frame,
            cost,
            arrays,
        }
    }

    /// The digests computed so far.
    pub(crate) fn into_digests(self) -> Digests {
        self.arrays
    }

    /// The store the digests are of.
    pub fn frame(&self) -> &'a Store {
        self.frame
    }

    /// The memo key over `scalars` (bound or not, and their `i64`
    /// values) and `arrays` (bound or not, and their digests): equal
    /// keys ⇒ a compiled predicate reading exactly these sees identical
    /// inputs.
    pub fn key(&mut self, scalars: &[Sym], arrays: &[Sym]) -> u128 {
        let start = self.cost.timed.then(Instant::now);
        let mut d = Digest::default();
        for s in scalars {
            match self.frame.scalar(*s) {
                Some(v) => d.pair(1, v.as_i64() as u64),
                None => d.pair(0, 0),
            }
        }
        for a in arrays {
            let x = self.array(*a);
            d.pair(x as u64, (x >> 64) as u64);
        }
        if let Some(start) = start {
            self.cost.ns += start.elapsed().as_nanos() as u64;
        }
        d.finish128()
    }

    /// `a`'s digest, computed on first use; an unbound array is 0.
    fn array(&mut self, a: Sym) -> u128 {
        if let Some((_, d)) = self.arrays.iter().find(|(s, _)| *s == a) {
            return *d;
        }
        let d = self.frame.array(a).map_or(0, |view| {
            self.cost.elems += view.buf.len() as u64;
            digest_array(view)
        });
        self.arrays.push((a, d));
        d
    }
}
