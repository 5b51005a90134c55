//! `SessionConfig::default()` asks the host for its processor count
//! once per process and remembers the answer (every served request and
//! every `Session::builder()` builds a default configuration first);
//! what it remembers is still the host's answer.

use lip_runtime::SessionConfig;

#[test]
fn default_nthreads_is_the_available_parallelism() {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for _ in 0..3 {
        assert_eq!(SessionConfig::default().nthreads, host);
    }
    let from_another_thread = std::thread::spawn(|| SessionConfig::default().nthreads)
        .join()
        .expect("no panic");
    assert_eq!(from_another_thread, host);
}
