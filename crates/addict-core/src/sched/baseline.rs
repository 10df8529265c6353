//! Baseline: traditional transaction scheduling. Each transaction starts
//! and finishes on one core; no batching, no migration (Section 4.1).

use addict_sim::Machine;
use addict_trace::InternedSet;

use crate::replay::{run_des, Policy, ReplayConfig, ReplayResult};

struct NoMovement;

// Thread-safety audit: each parallel-sweep worker constructs its own
// policy, so policies must be safe to create and drive off the main thread.
const _: () = {
    const fn audit<T: Send + Sync>() {}
    audit::<NoMovement>();
};

impl Policy for NoMovement {
    // Never reacts to any event: trivially safe for segment execution,
    // and whole runs (misses included) can execute inside the machine.
    fn segment_granular(&self) -> bool {
        true
    }

    fn observes_misses(&self) -> bool {
        false
    }

    // ...and whole data runs execute run-granularly for the same reason.
    fn data_run_granular(&self) -> bool {
        true
    }
}

/// Replay under traditional scheduling.
pub fn run(traces: &InternedSet<'_>, cfg: &ReplayConfig) -> ReplayResult {
    let mut machine = Machine::new(&cfg.sim);
    let n_cores = cfg.sim.n_cores;
    let order: Vec<usize> = (0..traces.len()).collect();
    run_des(
        &mut machine,
        traces,
        &order,
        |i, _| i % n_cores,
        &mut NoMovement,
        "Baseline",
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::interned;
    use addict_sim::{BlockAddr, SimConfig};
    use addict_trace::{TraceEvent, XctTrace, XctTypeId};

    fn trace(blocks: u16) -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(0),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(0),
                },
                TraceEvent::Instr {
                    block: BlockAddr(0x1000),
                    n_blocks: blocks,
                    ipb: 10,
                },
                TraceEvent::XctEnd,
            ],
        }
    }

    #[test]
    fn no_migrations_or_switches() {
        let traces: Vec<XctTrace> = (0..32).map(|_| trace(100)).collect();
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(4),
            ..Default::default()
        };
        let r = run(&interned(&traces).as_set(), &cfg);
        assert_eq!(r.stats.migrations_in(), 0);
        assert_eq!(r.stats.context_switches(), 0);
        assert_eq!(r.scheduler, "Baseline");
        assert_eq!(r.n_xcts, 32);
    }

    #[test]
    fn work_spreads_across_cores() {
        let traces: Vec<XctTrace> = (0..16).map(|_| trace(50)).collect();
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(4),
            ..Default::default()
        };
        let r = run(&interned(&traces).as_set(), &cfg);
        for c in 0..4 {
            assert!(r.stats.cores[c].instructions > 0, "core {c} idle");
        }
        // Same code on every core: each core's first pass misses, later
        // traces on the same core hit.
        assert!(r.stats.l1i_mpki() < 100.0);
    }
}
