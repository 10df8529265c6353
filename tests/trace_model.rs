//! Cross-crate integration tests of the trace model: engine-produced
//! traces respect the code map, the address-space layout, and the
//! Section 2 characterization invariants.

use addict::analysis::{overlap_histogram, OverlapScope};
use addict::trace::{layout, CodeMap, TraceEvent};
use addict::workloads::{collect_traces, Benchmark};

#[test]
fn traces_stay_inside_the_declared_address_spaces() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let trace = collect_traces(&mut engine, workload.as_mut(), 40, 3);
    let map = CodeMap::global();
    for xct in &trace.xcts {
        for ev in &xct.events {
            match ev {
                TraceEvent::Instr {
                    block, n_blocks, ..
                } => {
                    // Every instruction block belongs to a registered
                    // routine, and runs never cross region boundaries.
                    let first = map.routine_of(*block).expect("instr outside code map");
                    let last = map
                        .routine_of(addict::sim::BlockAddr(block.0 + u64::from(*n_blocks) - 1))
                        .expect("run end outside code map");
                    assert_eq!(first, last, "run crosses routine boundary");
                }
                TraceEvent::Data { block, .. } => {
                    assert!(
                        layout::is_page(*block) || layout::is_service(*block),
                        "data block {block} outside data regions"
                    );
                    assert!(!layout::is_code(*block), "data access hit code space");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn instruction_overlap_dwarfs_data_overlap() {
    // The paper's core observation (Section 2.2): same-type transactions
    // share most instructions and almost no data.
    let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
    let trace = collect_traces(&mut engine, workload.as_mut(), 60, 4);
    let (instr, data) = overlap_histogram(&trace, OverlapScope::Mix).expect("instances");
    let instr_common = instr.common_share(0.9);
    let data_common = data.common_share(0.9);
    assert!(
        instr_common > 0.5,
        "instruction overlap too low: {:.1}%",
        instr_common * 100.0
    );
    assert!(
        data_common < 0.10,
        "data overlap too high: {:.1}% (paper: at most 6%)",
        data_common * 100.0
    );
    assert!(instr_common > 5.0 * data_common);
}

#[test]
fn transaction_footprint_exceeds_l1i() {
    // The premise of the whole paper: one transaction's instruction
    // footprint does not fit a 32 KB (512-block) L1-I.
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let trace = collect_traces(&mut engine, workload.as_mut(), 20, 5);
    let big = trace
        .xcts
        .iter()
        .filter(|x| {
            let fp = addict::trace::Footprint::of_events(&x.events);
            fp.instr.len() > 512
        })
        .count();
    assert!(
        big * 2 >= trace.xcts.len(),
        "most transactions should overflow the L1-I ({big}/{})",
        trace.xcts.len()
    );
}

#[test]
fn total_code_footprint_matches_shore_mt() {
    let kb = CodeMap::global().total_blocks() * 64 / 1024;
    assert!((128..=256).contains(&kb), "code footprint {kb} KB");
}

#[test]
fn engine_state_survives_the_full_mix() {
    // Run every TPC-C transaction type repeatedly and verify the engine's
    // structural invariants via its own accessors.
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let trace = collect_traces(&mut engine, workload.as_mut(), 120, 6);
    assert_eq!(trace.xcts.len(), 120);
    // No locks leak across committed transactions.
    assert_eq!(engine.locks().n_locked(), 0, "locks leaked");
    // The log advanced and was flushed by commits.
    assert!(engine.log().durable_lsn() > 0);
    assert!(engine.log().next_lsn() > 121);
}
