//! Golden result digests: every benchmark × scheduler point of a small job
//! must reproduce the `result_fnv64` committed in `golden_digests.txt`.
//!
//! The differential gates (flat vs fast paths, flat vs interned, 1 vs N
//! sweep threads) compare two in-tree paths with each other, so a change
//! that moves *both* sides — the coherence directory, storage layout,
//! population — passes them silently. This table anchors the results
//! themselves. A change that moves a digest on purpose regenerates the
//! table (the failure message prints the full replacement) and says why.

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_workloads::Benchmark;

/// The committed table: `benchmark scheduler result_fnv64` per line.
const GOLDEN: &str = include_str!("golden_digests.txt");

/// Transactions per benchmark: a debug build runs the whole grid in a few
/// seconds.
const N_XCTS: usize = 100;

/// The `result_fnv64` of every serialized point, in grid order.
fn point_digests(result_json: &str) -> Vec<String> {
    let doc = JsonValue::parse(result_json).expect("result parses");
    let points = doc.get("points").expect("points").as_arr("points").unwrap();
    points
        .iter()
        .map(|p| {
            let digest = p.get("result_fnv64").expect("result_fnv64");
            digest.as_str("result_fnv64").unwrap().to_owned()
        })
        .collect()
}

#[test]
fn small_job_digests_match_the_committed_table() {
    let mut spec = JobSpec::new(Benchmark::ALL.to_vec(), N_XCTS);
    spec.small = true;
    spec.threads = 2;
    let result = run_job(&spec, &TracePool::unbounded(), &|_| {}).expect("job runs");

    let actual: Vec<String> = result
        .points
        .iter()
        .zip(point_digests(&result.to_json()))
        .map(|(p, digest)| format!("{} {} {digest}", p.benchmark.id(), p.scheduler.id()))
        .collect();
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        actual.len(),
        Benchmark::ALL.len() * spec.schedulers.len(),
        "one point per benchmark × scheduler"
    );
    assert!(
        actual == expected,
        "result digests moved; if that is intended, replace the table \
         with:\n{}",
        actual.join("\n")
    );
}
