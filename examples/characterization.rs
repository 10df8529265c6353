//! Memory characterization of a workload, as in Section 2 of the paper:
//! instruction vs data footprint overlap (Figure 2) and within-instance
//! reuse (Figure 3) for TPC-B.
//!
//! Run with: `cargo run --release --example characterization`

use addict::analysis::reuse::ReuseProfile;
use addict::analysis::{overlap_histogram, reuse_profile, OverlapScope};
use addict::trace::OpKind;
use addict::workloads::tpcb::ACCOUNT_UPDATE;
use addict::workloads::{collect_traces, Benchmark};

fn main() {
    let (mut engine, mut workload) = Benchmark::TpcB.setup();
    let trace = collect_traces(&mut engine, workload.as_mut(), 500, 7);
    println!("traced {} AccountUpdate transactions\n", trace.xcts.len());

    // --- Figure 2 style overlap ---------------------------------------
    let (instr, data) = overlap_histogram(&trace, OverlapScope::Mix).expect("instances");
    println!("whole-mix footprint overlap across instances:");
    println!(
        "  instructions: {:>6} blocks, {:>5.1}% common to >=90% of instances",
        instr.footprint_blocks,
        instr.common_share(0.9) * 100.0
    );
    println!(
        "  data:         {:>6} blocks, {:>5.1}% common to >=90% of instances",
        data.footprint_blocks,
        data.common_share(0.9) * 100.0
    );
    println!("  (the paper's asymmetry: instructions overlap heavily, data barely)\n");

    for op in [OpKind::Probe, OpKind::Update, OpKind::Insert] {
        if let Some((i, _)) = overlap_histogram(&trace, OverlapScope::Op(op)) {
            println!(
                "  {:<7} op: {:>5.1}% of its {} blocks common to >=90% of {} instances",
                op.name(),
                i.common_share(0.9) * 100.0,
                i.footprint_blocks,
                i.instances
            );
        }
    }

    // --- Figure 3 style reuse ------------------------------------------
    let p = reuse_profile(&trace, ACCOUNT_UPDATE, None).expect("instances");
    let (common, rest) = ReuseProfile::common_vs_rest(&p.instr);
    println!(
        "\nwithin-instance instruction reuse: blocks present in ALL instances are\n\
         touched {common:.1}x per transaction vs {rest:.1}x for the rest"
    );
    println!("(common code is also the hottest code - why pinning actions to cores pays)");
}
