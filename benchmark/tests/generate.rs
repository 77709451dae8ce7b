//! Each generation sample starts cold: two fresh children generating the
//! same log do exactly the same search work.

use pi2_benchmark::generate::{round_logs, spawn};
use std::path::Path;

#[test]
fn two_samples_of_one_log_do_identical_work() {
    let exe = Path::new(env!("CARGO_BIN_EXE_pi2-benchmark"));
    let filter = round_logs()
        .iter()
        .position(|l| l.name == "filter")
        .expect("the Filter log is in every round");
    let a = spawn(exe, filter, false).expect("first sample");
    let b = spawn(exe, filter, true).expect("second sample");
    assert!(a.iterations > 0 && a.states > 0, "{a:?}");
    assert_eq!(a.iterations, b.iterations, "search.iterations");
    assert_eq!(a.states, b.states, "search.states_evaluated");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost");
    assert!(a.valid && b.valid);
}
