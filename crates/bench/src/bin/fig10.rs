//! Regenerates Figure 10: normalized parallel timing, PERFECT-CLUB,
//! 4 processors, factorization vs the Intel-style static baseline.
fn main() {
    let session = lip_bench::harness_session();
    lip_bench::print_figure(
        &session,
        "Figure 10: PERFECT-CLUB normalized parallel timing",
        lip_suite::PERFECT_CLUB,
        4,
        "Intel-style",
    );
}
