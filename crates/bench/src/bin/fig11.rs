//! Regenerates Figure 11: normalized parallel timing, SPEC89/92,
//! 4 processors.
fn main() {
    let session = lip_bench::harness_session();
    lip_bench::print_figure(
        &session,
        "Figure 11: SPEC89/92 normalized parallel timing",
        lip_suite::SPEC92,
        4,
        "Intel-style",
    );
}
