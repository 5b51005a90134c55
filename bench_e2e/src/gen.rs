//! The seeded input generator.
//!
//! Everything the program under test receives — frames, index arrays,
//! renamed sources, serve requests — is made here from `--seed`, as
//! plain data ([`FrameData`]); `adapter` turns it into the program's
//! own types. The same seed gives byte-identical inputs.
//!
//! Reals are small dyadic values `k/8`, so sums of them are exact in
//! `f64` and the order in which a parallel reduction adds them cannot
//! change a bit of the result: outputs can be compared bit for bit
//! with a sequential reference.

use crate::jsonw::J;

/// splitmix64: small, seedable, and good enough to permute indices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `tag` (FNV-1a of the tag folded into
    /// the state), so adding a program never shifts another's inputs.
    pub fn fork(&self, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.0;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next();
        r
    }

    pub fn fork_n(&self, k: u64) -> Rng {
        self.fork(&k.to_string())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A dyadic real in `[0, 8)`: `k/8`.
    fn dyadic(&mut self) -> f64 {
        self.below(64) as f64 / 8.0
    }

    fn dyadics(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.dyadic()).collect()
    }

    /// A random permutation of `1..=n` (Fisher–Yates).
    fn perm(&mut self, n: usize) -> Vec<i64> {
        let mut v: Vec<i64> = (1..=n as i64).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Data {
    Int(Vec<i64>),
    Real(Vec<f64>),
}

impl Data {
    pub fn len(&self) -> usize {
        match self {
            Data::Int(v) => v.len(),
            Data::Real(v) => v.len(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct ArrayData {
    pub name: &'static str,
    /// Declared extents of the bound view (`i64::MAX` = assumed size).
    pub extents: Vec<i64>,
    pub data: Data,
}

/// One loop invocation's input state, as plain data.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FrameData {
    /// Integer scalars (the suite kernels take no real ones).
    pub scalars: Vec<(&'static str, i64)>,
    pub arrays: Vec<ArrayData>,
    /// Bound scalars left out of the result comparison (see
    /// [`kernel_input`] on `civ_conditional`).
    pub unchecked: Vec<&'static str>,
}

impl FrameData {
    fn int(mut self, name: &'static str, v: i64) -> FrameData {
        self.scalars.push((name, v));
        self
    }

    fn array(mut self, name: &'static str, data: Data) -> FrameData {
        let extents = vec![data.len() as i64];
        self.arrays.push(ArrayData {
            name,
            extents,
            data,
        });
        self
    }

    fn reals(self, name: &'static str, v: Vec<f64>) -> FrameData {
        self.array(name, Data::Real(v))
    }

    fn ints(self, name: &'static str, v: Vec<i64>) -> FrameData {
        self.array(name, Data::Int(v))
    }

    /// Total array elements (sizes the report's `elems` column).
    pub fn elems(&self) -> usize {
        self.arrays.iter().map(|a| a.data.len()).sum()
    }

    /// The `frame` object of a serve `run` request. Zero-filled arrays
    /// travel as `{"len": n}`, the rest as `{"data": [...]}`.
    pub fn to_serve_json(&self) -> J {
        let scalars = self.scalars.iter().map(|(name, v)| (*name, J::Int(*v)));
        let arrays = self.arrays.iter().map(|a| {
            let (ty, zero, items): (&str, bool, Vec<J>) = match &a.data {
                Data::Int(v) => (
                    "int",
                    v.iter().all(|x| *x == 0),
                    v.iter().map(|x| J::Int(*x)).collect(),
                ),
                Data::Real(v) => (
                    "real",
                    v.iter().all(|x| x.to_bits() == 0),
                    v.iter().map(|x| J::Num(*x)).collect(),
                ),
            };
            let body = if zero {
                J::obj([("ty", J::str(ty)), ("len", J::count(items.len() as u64))])
            } else {
                J::obj([("ty", J::str(ty)), ("data", J::Arr(items))])
            };
            (a.name, body)
        });
        J::obj([("scalars", J::obj(scalars)), ("arrays", J::obj(arrays))])
    }
}

/// Which side of its runtime test an input is built to land on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The cascade (or speculation) succeeds: the loop runs parallel.
    Pass,
    /// The test is paid and lost.
    Fail,
}

/// Kernels with an input that makes their runtime test fail.
#[cfg(test)]
pub fn has_fail_variant(kernel: &str) -> bool {
    matches!(
        kernel,
        "hoist_indirect"
            | "solvh"
            | "monotone_windows"
            | "ext_reduction"
            | "offset_crossover"
            | "tls_feedback"
            | "index_reduction"
    )
}

/// Builds the input of suite kernel `kernel` at problem size `n`.
/// Array names and shapes follow the kernel's source; contents come
/// from `rng`.
///
/// # Panics
///
/// Panics on a kernel name the generator has no recipe for, so a
/// kernel added to the suite cannot be benchmarked on a wrong frame.
pub fn kernel_input(kernel: &str, n: usize, variant: Variant, rng: &mut Rng) -> FrameData {
    let ni = n as i64;
    let pass = variant == Variant::Pass;
    let f = FrameData::default().int("N", ni);
    match kernel {
        "stencil" => f
            .reals("UNEW", vec![0.0; n])
            .reals("U", rng.dyadics(n))
            .reals("V", rng.dyadics(n)),
        "solvh" => {
            // Sections [IB(i), IB(i)+IA(i)-1] of HE's second dimension:
            // disjoint with seeded gaps, or each overlapping the next.
            let ia: Vec<i64> = (0..n).map(|_| 1 + rng.below(2) as i64).collect();
            let mut ib = Vec::with_capacity(n);
            let mut next = 1i64;
            for (i, len) in ia.iter().enumerate() {
                if pass {
                    ib.push(next);
                    next += len + rng.below(2) as i64;
                } else {
                    ib.push(i as i64 + 1);
                    next = i as i64 + 1 + len;
                }
            }
            let mut f = f
                .int("NS", 16)
                .int("NP", 2)
                .int("SYM", 0)
                .ints("IA", ia)
                .ints("IB", ib);
            f.arrays.push(ArrayData {
                name: "HE",
                extents: vec![32, i64::MAX],
                data: Data::Real(vec![0.0; 32 * (next as usize + 2)]),
            });
            f.reals("XE", vec![0.0; 64])
        }
        "offset_crossover" => {
            // M >= N separates reads from writes; M = 1 overlaps them.
            let m = if pass { ni + rng.below(8) as i64 } else { 1 };
            f.int("M", m).reals("A", rng.dyadics(n + m as usize))
        }
        "monotone_windows" => {
            // Disjoint windows of L elements; the bases ascend, or are
            // the same bases shuffled.
            let l = 32usize;
            let mut b = Vec::with_capacity(n);
            let mut next = 1i64;
            for _ in 0..n {
                b.push(next);
                next += l as i64 + rng.below(4) as i64;
            }
            if !pass {
                let order = rng.perm(n);
                b = order.iter().map(|k| b[*k as usize - 1]).collect();
            }
            f.int("L", l as i64)
                .reals("A", vec![0.0; next as usize + l])
                .ints("B", b)
        }
        "index_reduction" => {
            // Disjoint triplets: ascending from a seeded offset (the
            // O(N) monotonicity stage proves them apart), or shuffled
            // (only the buffered merge is left).
            let off = rng.below(4) as i64;
            let order: Vec<i64> = if pass {
                (1..=ni).collect()
            } else {
                rng.perm(n)
            };
            let j = order.iter().map(|k| 3 * (k - 1) + 1 + off).collect();
            f.reals("F", rng.dyadics(3 * n + 8)).ints("J", j)
        }
        "gated_branches" => f
            .int("jbeg", 2)
            .int("js", 2)
            .int("M", ni)
            .reals("DEOD", vec![0.0; 2 * n]),
        "civ_conditional" => {
            let c = (0..n).map(|_| i64::from(rng.below(3) == 0)).collect();
            // At the seed commit a parallel run leaves the CIV scalar at
            // its entry value where the sequential loop leaves its
            // final count; the arrays agree. `civ` is therefore bound
            // but not compared, so the kernel can be measured at all —
            // drop the exemption once the executor restores it.
            let mut f = f.int("Q", 0).int("civ", 0);
            f.unchecked.push("civ");
            f.reals("X", vec![0.0; n + 1]).ints("C", c)
        }
        "civ_while" => f.int("k", 1).reals("X", rng.dyadics(n + 2)),
        "private_scratch" => f
            .int("M", 8)
            .reals("A", rng.dyadics(n))
            .reals("W", vec![0.0; 8]),
        "seq_recurrence" => f.reals("V", rng.dyadics(n + 1)),
        "hoist_indirect" => {
            // P writes 1..n; Q reads n+1..2n (disjoint) or a window
            // shifted half way into P's range (true dependences).
            let p = rng.perm(n);
            let shift = if pass { ni } else { ni / 2 };
            let q = rng.perm(n).iter().map(|k| k + shift).collect();
            f.reals("A", rng.dyadics(2 * n + 1))
                .ints("P", p)
                .ints("Q", q)
                .reals("S", vec![0.0; n + 1])
                .reals("C", rng.dyadics(n))
        }
        "tls_feedback" => {
            // Iteration i writes A(pos) and reads A(pos+1). Even
            // positions never meet; consecutive ones do.
            let w: Vec<f64> = if pass {
                rng.perm(n).iter().map(|k| (2 * k) as f64).collect()
            } else {
                (1..=n).map(|k| k as f64).collect()
            };
            f.reals("A", rng.dyadics(2 * n + 2)).reals("W", w)
        }
        "ext_reduction" => {
            // B ascends beyond the written region 1..n from a seeded
            // offset, or is a shuffle of the region itself.
            let b = if pass {
                let off = rng.below(4) as i64;
                (1..=ni).map(|k| ni + off + k).collect()
            } else {
                rng.perm(n)
            };
            f.reals("A", rng.dyadics(2 * n + 4)).ints("B", b)
        }
        "static_reduction" => f.reals("E", rng.dyadics(8)).reals("A", rng.dyadics(n)),
        "int_histogram" => {
            // Sums that leave f64's exact-integer range but stay in i64.
            let h = (0..64).map(|k| (1i64 << 62) + k).collect();
            let j = (0..n).map(|_| 1 + rng.below(64) as i64).collect();
            let w = (0..n)
                .map(|_| (1i64 << 40) + rng.below(1024) as i64)
                .collect();
            f.ints("H", h).ints("J", j).ints("W", w)
        }
        "tiny_loop" => f.reals("A", rng.dyadics(n)),
        other => panic!("no input recipe for suite kernel `{other}`"),
    }
}

/// `source` with subroutine `sub` renamed to `sub_<suffix>`: the same
/// program under a name the server has never seen.
pub fn rename_sub(source: &str, sub: &str, suffix: &str) -> (String, String) {
    let renamed = format!("{sub}_{suffix}");
    let text = source.replacen(
        &format!("SUBROUTINE {sub}("),
        &format!("SUBROUTINE {renamed}("),
        1,
    );
    (text, renamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [&str; 16] = [
        "stencil",
        "solvh",
        "offset_crossover",
        "monotone_windows",
        "index_reduction",
        "gated_branches",
        "civ_conditional",
        "civ_while",
        "private_scratch",
        "seq_recurrence",
        "hoist_indirect",
        "tls_feedback",
        "ext_reduction",
        "static_reduction",
        "int_histogram",
        "tiny_loop",
    ];

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for kernel in KERNELS {
            for variant in [Variant::Pass, Variant::Fail] {
                let make = |seed| {
                    let mut rng = Rng::new(seed).fork(kernel);
                    format!("{:?}", kernel_input(kernel, 48, variant, &mut rng))
                };
                assert_eq!(make(7), make(7), "{kernel}");
            }
        }
        let a = kernel_input(
            "stencil",
            48,
            Variant::Pass,
            &mut Rng::new(1).fork("stencil"),
        );
        let b = kernel_input(
            "stencil",
            48,
            Variant::Pass,
            &mut Rng::new(2).fork("stencil"),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn reals_are_dyadic_eighths() {
        let f = kernel_input("hoist_indirect", 64, Variant::Pass, &mut Rng::new(3));
        for a in &f.arrays {
            if let Data::Real(v) = &a.data {
                assert!(v.iter().all(|x| (x * 8.0).fract() == 0.0), "{}", a.name);
            }
        }
    }

    #[test]
    fn pass_and_fail_inputs_differ_where_the_test_looks() {
        let p = kernel_input("hoist_indirect", 32, Variant::Pass, &mut Rng::new(5));
        let q = |f: &FrameData| match &f.arrays.iter().find(|a| a.name == "Q").expect("Q").data {
            Data::Int(v) => v.clone(),
            Data::Real(_) => panic!("Q is an index array"),
        };
        assert!(q(&p).iter().all(|x| *x > 32));
        let f = kernel_input("hoist_indirect", 32, Variant::Fail, &mut Rng::new(5));
        assert!(q(&f).iter().any(|x| *x <= 32));
    }

    #[test]
    fn perm_is_a_permutation_and_forks_are_independent() {
        let mut p = Rng::new(9).perm(100);
        p.sort_unstable();
        assert_eq!(p, (1..=100).collect::<Vec<i64>>());
        assert_ne!(Rng::new(9).fork("a").next(), Rng::new(9).fork("b").next());
        assert_eq!(Rng::new(9).fork_n(4).next(), Rng::new(9).fork_n(4).next());
    }

    #[test]
    fn rename_touches_only_the_header() {
        let src = "\nSUBROUTINE calc(A, N)\n  CALL calc2(A)\nEND\n";
        let (text, name) = rename_sub(src, "calc", "c0_7");
        assert_eq!(name, "calc_c0_7");
        assert!(text.contains("SUBROUTINE calc_c0_7(A, N)"));
        assert!(text.contains("CALL calc2(A)"));
    }

    #[test]
    fn serve_frame_sends_zero_arrays_by_length() {
        let f = kernel_input("stencil", 4, Variant::Pass, &mut Rng::new(1));
        let text = f.to_serve_json().render();
        assert!(
            text.contains("\"UNEW\": {\"ty\": \"real\", \"len\": 4}"),
            "{text}"
        );
        assert!(text.contains("\"N\": 4"), "{text}");
    }
}
