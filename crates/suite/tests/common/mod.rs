//! The session configurations the differential test files run their
//! rows under, and a source-level entry into `lip_suite::check`.

use lip_ir::Store;
use lip_obs::ObsLevel;
use lip_runtime::Session;
use lip_suite::check::{cold, Report};

/// Every configuration a session can differ in: `fission {on, off} ×
/// observer {off, trace} × nthreads {1, 2, 3, 7}` (one chunk, an even
/// split, uneven splits, more chunks than CPUs).
pub fn matrix() -> Vec<(bool, ObsLevel, usize)> {
    let mut m = Vec::new();
    for fission in [true, false] {
        for obs in [ObsLevel::Off, ObsLevel::Trace] {
            for nthreads in [1, 2, 3, 7] {
                m.push((fission, obs, nthreads));
            }
        }
    }
    m
}

pub fn session(fission: bool, obs: ObsLevel, nthreads: usize) -> Session {
    Session::builder()
        .fission(fission)
        .observer(obs)
        .nthreads(nthreads)
        .par_min(64) // small threshold so the parallel predicate path runs
        .build()
}

/// Checks `src`'s loop `label` (in its first subroutine) on `input`.
pub fn check_source(sess: &Session, src: &str, label: &str, input: &Store) -> Report {
    let prog = lip_ir::parse_program(src).expect("parses");
    let sub = prog.units[0].name;
    cold(sess, &prog, sub, label, input)
}
