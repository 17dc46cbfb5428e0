//! With one seed, every count a run makes repeats exactly: generated
//! tokens, resident and saved bytes, DRAM-front hits, controller hits and
//! chunk reads and writes. A second seed gives a different trace that
//! still passes every correctness check. Run with
//! `cargo test --release --manifest-path hcbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;

use hcbench::common::{Budget, RunOpts};

fn counts(workload: &str, seed: u64, ops: usize, tag: &str) -> BTreeMap<&'static str, u64> {
    let opts = RunOpts {
        seed,
        budget: Budget::Ops(ops),
        trace: false,
        run_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}")),
    };
    let report = hcbench::run(workload, &opts).expect("workload runs");
    assert!(
        report.correct(),
        "{workload} seed {seed}: {:?}",
        report.check_failures
    );
    assert_eq!(report.failed, 0);
    report.counts
}

fn check(workload: &str, ops: usize) {
    let a = counts(workload, 1, ops, "a");
    let b = counts(workload, 1, ops, "b");
    assert_eq!(a, b, "{workload}: same seed, different counts");
    let c = counts(workload, 2, ops, "c");
    assert_ne!(
        a["generated_hash"], c["generated_hash"],
        "{workload}: another seed replayed the same trace"
    );
    assert!(a["generated_tokens"] > 0 && a["chunk_reads"] > 0);
}

#[test]
fn chat_counts_repeat() {
    check("chat", 24);
}

#[test]
fn long_context_counts_repeat() {
    check("long_context", 24);
}

#[test]
fn restore_burst_counts_repeat() {
    check("restore_burst", 2);
}
