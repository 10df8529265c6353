//! What a trace pool's snapshots cost: for every benchmark at both
//! scales, the time to populate it, the time to clone the populated
//! engine and runner, and the engine's resident bytes.
//!
//! A trace pool populates each benchmark once and clones the result on
//! every miss, so the clone is what each miss pays and the bytes are
//! what the pool keeps resident between misses. Times are the median of
//! `REPS` runs.
//!
//! Run with: `cargo run --release --example snapshot_cost`

use std::time::{Duration, Instant};

use addict::workloads::Benchmark;

const REPS: usize = 5;

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

fn main() {
    println!(
        "{:<8} {:<7} {:>12} {:>12} {:>14}",
        "bench", "scale", "populate_ms", "clone_ms", "snapshot_bytes"
    );
    for bench in Benchmark::ALL {
        for small in [true, false] {
            let populate = || {
                if small {
                    bench.setup_small()
                } else {
                    bench.setup()
                }
            };
            let mut populates = Vec::new();
            let mut snapshot = None;
            for _ in 0..REPS {
                let t = Instant::now();
                let populated = populate();
                populates.push(t.elapsed());
                snapshot = Some(populated);
            }
            let (engine, runner) = snapshot.expect("REPS > 0");
            let clones = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    let copy = (engine.clone(), runner.clone_box());
                    let elapsed = t.elapsed();
                    drop(copy);
                    elapsed
                })
                .collect();
            println!(
                "{:<8} {:<7} {:>12.3} {:>12.3} {:>14}",
                bench.id(),
                if small { "small" } else { "default" },
                median(populates).as_secs_f64() * 1e3,
                median(clones).as_secs_f64() * 1e3,
                engine.resident_bytes()
            );
        }
    }
}
