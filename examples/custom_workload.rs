//! Bring your own workload: define a custom schema and transaction mix
//! directly against the storage engine, trace it, and see what ADDICT's
//! profiling makes of it.
//!
//! The scenario is a small message-queue-style application: producers
//! append messages (insert into an indexed table), consumers pop the
//! oldest (scan + delete) and bump a per-topic counter (probe + update) —
//! a mix deliberately unlike the TPC benchmarks.
//!
//! This example drives the engine inline for a quick experiment. To make a
//! mix a registry benchmark (and so inherit the sweep, trace-pool and
//! determinism machinery), write it as a `WorkloadRunner` module the way
//! `crates/addict-workloads/src/tatp.rs` does: create the tables, populate
//! them untraced, and draw every random value before `begin`.
//!
//! Run with: `cargo run --release --example custom_workload`

use addict::core::find_migration_points_interned;
use addict::core::replay::ReplayConfig;
use addict::core::sched::{run_scheduler, SchedulerKind};
use addict::storage::{Engine, EngineConfig};
use addict::trace::{InternedSet, XctTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRODUCE: XctTypeId = XctTypeId(0);
const CONSUME: XctTypeId = XctTypeId(1);
const TYPE_NAMES: [&str; 2] = ["Produce", "Consume"];

fn main() {
    let mut e = Engine::new(EngineConfig::default());

    // Schema: messages (pk = sequence number), topics (pk = topic id).
    let messages = e.create_table("messages");
    let messages_pk = e
        .create_index(messages, "messages_pk")
        .expect("table exists");
    let topics = e.create_table("topics");
    let topics_pk = e.create_index(topics, "topics_pk").expect("table exists");

    // Populate topics (untraced).
    e.set_tracing(false);
    let x = e.begin(PRODUCE);
    for t in 0..16u64 {
        e.insert_tuple(x, topics, &[(topics_pk, t)], &[0u8; 64])
            .expect("populate");
    }
    e.commit(x).expect("populate commit");
    e.set_tracing(true);

    // The mix: 60% produce, 40% consume.
    let mut rng = StdRng::seed_from_u64(11);
    let mut next_seq = 0u64;
    let mut oldest = 0u64;
    for _ in 0..400 {
        if rng.gen_bool(0.6) || next_seq == oldest {
            let x = e.begin(PRODUCE);
            let payload = vec![rng.gen::<u8>(); 180];
            e.insert_tuple(x, messages, &[(messages_pk, next_seq)], &payload)
                .expect("produce");
            // Bump the topic's message counter.
            let t = next_seq % 16;
            let rid = e
                .index_probe_rid(x, topics_pk, t)
                .expect("probe")
                .expect("exists");
            let mut row = e.peek(topics, rid).expect("row");
            row[0] = row[0].wrapping_add(1);
            e.update_tuple(x, topics, rid, &row).expect("update");
            e.commit(x).expect("commit");
            next_seq += 1;
        } else {
            let x = e.begin(CONSUME);
            // Pop the oldest pending message.
            let batch = e
                .index_scan(x, messages_pk, oldest, true, oldest + 8, true)
                .expect("scan");
            if let Some((seq, _)) = batch.first() {
                let seq = *seq;
                e.delete_tuple(x, messages, &[(messages_pk, seq)])
                    .expect("consume");
                oldest = seq + 1;
            }
            e.commit(x).expect("commit");
        }
    }

    // The recorder interned every trace into one slice pool as it ran.
    let (xcts, pool) = e.take_traces();
    println!("traced {} custom transactions", xcts.len());

    // Profile on the first half, evaluate on the second.
    let mid = xcts.len() / 2;
    let profile = InternedSet {
        pool: &pool,
        xcts: &xcts[..mid],
    };
    let eval = InternedSet {
        pool: &pool,
        xcts: &xcts[mid..],
    };
    let cfg = ReplayConfig::paper_default();
    let map = find_migration_points_interned(profile, cfg.sim.l1i);
    for ty in map.xct_types() {
        println!("\n{} migration plan:", TYPE_NAMES[usize::from(ty.0)]);
        for op in map.ops_of(ty) {
            println!(
                "  {:<7} invoked {:>4}x, {} migration point(s)",
                op.name(),
                map.frequency(ty, op),
                map.points(ty, op).map_or(0, Vec::len)
            );
        }
    }

    let base = run_scheduler(SchedulerKind::Baseline, &eval, Some(&map), &cfg);
    let addict = run_scheduler(SchedulerKind::Addict, &eval, Some(&map), &cfg);
    println!(
        "\nBaseline: {:.2e} cycles, {:.1} L1-I mpki | ADDICT: {:.2e} cycles, {:.1} L1-I mpki",
        base.total_cycles,
        base.stats.l1i_mpki(),
        addict.total_cycles,
        addict.stats.l1i_mpki()
    );
    println!(
        "ADDICT on your workload: {:.0}% fewer instruction misses, {:.0}% {} execution",
        100.0 * (1.0 - addict.stats.l1i_mpki() / base.stats.l1i_mpki()),
        100.0 * (1.0 - addict.total_cycles / base.total_cycles).abs(),
        if addict.total_cycles < base.total_cycles {
            "faster"
        } else {
            "slower"
        }
    );
}
