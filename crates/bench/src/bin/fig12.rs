//! Regenerates Figure 12: normalized parallel timing, SPEC2000/2006,
//! 8 processors, factorization vs the XLF-style static baseline.
fn main() {
    let session = lip_bench::harness_session();
    lip_bench::print_figure(
        &session,
        "Figure 12: SPEC2000/2006 normalized parallel timing",
        lip_suite::SPEC2006,
        8,
        "XLF-style",
    );
}
