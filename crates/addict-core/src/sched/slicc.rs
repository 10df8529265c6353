//! SLICC (Atta et al., MICRO 2012): hardware-heuristic computation
//! spreading. A thread executes on a core until its L1-I has absorbed a
//! stratum of new code (a run of misses), then migrates — preferring a
//! core whose L1-I already holds the code it is touching, else an idle
//! core whose cache it can fill next. Over time the batch's combined
//! instruction footprint self-assembles across the cores' L1-Is and
//! threads chase it around ("instruction cache collectives").
//!
//! SLICC is software-oblivious: it cannot know operation boundaries, so it
//! migrates more often than ADDICT and sometimes mid-action (the paper's
//! motivation for software guidance).

use addict_sim::Machine;
use addict_trace::event::FlatEvent;
use addict_trace::InternedSet;

use crate::replay::{
    batch_order, run_des_admitted, Action, Admission, Cluster, Policy, ReplayConfig, ReplayResult,
};

struct SliccPolicy {
    fill_threshold: u64,
    misses_since_arrival: Vec<u64>,
    n_cores: usize,
}

// Thread-safety audit: parallel-sweep workers drive policies off the main
// thread.
const _: () = {
    const fn audit<T: Send + Sync>() {}
    audit::<SliccPolicy>();
};

// `post` only acts on instruction *misses*, which the segment engine
// always reports, so the segment contract holds.
impl Policy for SliccPolicy {
    fn post(
        &mut self,
        tid: usize,
        ev: FlatEvent,
        core: usize,
        missed: bool,
        machine: &Machine,
        cluster: &Cluster,
        now: f64,
    ) -> Action {
        let FlatEvent::Instr { block, .. } = ev else {
            return Action::Continue;
        };
        if !missed {
            return Action::Continue;
        }
        self.misses_since_arrival[tid] += 1;
        if self.misses_since_arrival[tid] < self.fill_threshold {
            return Action::Continue;
        }
        // This core's L1-I is full of this thread's recent code; move on.
        // Preference 1: a core that already holds the block we just
        // fetched (a peer installed this stratum there).
        let mut dest = None;
        for c in 0..self.n_cores {
            if c != core && machine.l1i_contains(addict_sim::CoreId(c), block) {
                dest = Some(c);
                if cluster.is_idle(c, now) {
                    break; // idle holder: best case
                }
            }
        }
        // Preference 2: an idle core to fill with the next stratum.
        if dest.is_none() {
            dest = (0..self.n_cores).find(|&c| c != core && cluster.is_idle(c, now));
        }
        // Preference 3: the least-loaded other core.
        let dest = dest.unwrap_or_else(|| {
            let others: Vec<usize> = (0..self.n_cores).filter(|&c| c != core).collect();
            cluster.earliest_of(&others)
        });
        Action::MigrateTo(dest)
    }

    fn on_moved(&mut self, tid: usize, _to_core: usize) {
        self.misses_since_arrival[tid] = 0;
    }

    // SLICC chases *instruction* cache collectives: `post` ignores data
    // events entirely and `pre` is the default no-op, so data runs execute
    // run-granularly.
    fn data_run_granular(&self) -> bool {
        true
    }
}

/// Replay under SLICC.
pub fn run(traces: &InternedSet<'_>, cfg: &ReplayConfig) -> ReplayResult {
    let mut machine = Machine::new(&cfg.sim);
    let n_cores = cfg.sim.n_cores;
    let batches = batch_order(traces, cfg.batch_size);

    // Batch members spread over the cores.
    let mut order = Vec::with_capacity(traces.len());
    let mut placement = vec![0usize; traces.len()];
    let mut batch_of = Vec::with_capacity(traces.len());
    let mut type_run = 0usize;
    let mut prev_type = None;
    for batch in &batches {
        let ty = traces.xct_type(batch[0]);
        if prev_type.is_some_and(|p| p != ty) {
            type_run += 1;
        }
        prev_type = Some(ty);
        for (j, &tid) in batch.iter().enumerate() {
            placement[order.len()] = j % n_cores;
            batch_of.push(type_run);
            order.push(tid);
        }
    }

    let mut policy = SliccPolicy {
        fill_threshold: cfg.slicc_fill_threshold,
        misses_since_arrival: vec![0; traces.len()],
        n_cores,
    };
    run_des_admitted(
        &mut machine,
        traces,
        &order,
        |dispatch_idx, _| placement[dispatch_idx],
        &mut policy,
        "SLICC",
        cfg,
        Admission::BatchSerial {
            inflight: cfg.batch_size,
            batch_of,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::interned;
    use addict_sim::{BlockAddr, SimConfig};
    use addict_trace::{TraceEvent, XctTrace, XctTypeId};

    /// A trace spanning multiple L1-I-sized strata of shared code.
    fn big_trace() -> XctTrace {
        let mut events = vec![TraceEvent::XctBegin {
            xct_type: XctTypeId(0),
        }];
        for chunk in 0..4 {
            events.push(TraceEvent::Instr {
                block: BlockAddr(0x2000 + chunk * 300),
                n_blocks: 300,
                ipb: 10,
            });
        }
        events.push(TraceEvent::XctEnd);
        XctTrace {
            xct_type: XctTypeId(0),
            events,
        }
    }

    fn cfg(cores: usize) -> ReplayConfig {
        ReplayConfig {
            sim: SimConfig::paper_default().with_cores(cores),
            ..Default::default()
        }
        .with_batch_size(4)
    }

    #[test]
    fn threads_migrate_across_cores() {
        let traces: Vec<XctTrace> = (0..4).map(|_| big_trace()).collect();
        let r = run(&interned(&traces).as_set(), &cfg(4));
        assert!(r.stats.migrations_in() > 0, "SLICC must migrate");
        assert_eq!(r.stats.context_switches(), 0);
        // Several cores end up executing instructions.
        let busy = (0..4)
            .filter(|&c| r.stats.cores[c].instructions > 0)
            .count();
        assert!(busy >= 2, "computation should spread, busy={busy}");
    }

    #[test]
    fn misses_drop_versus_baseline() {
        let traces: Vec<XctTrace> = (0..8).map(|_| big_trace()).collect();
        let w = interned(&traces);
        let slicc = run(&w.as_set(), &cfg(4));
        let base = crate::sched::baseline::run(&w.as_set(), &cfg(4));
        assert!(
            slicc.stats.l1i_misses() < base.stats.l1i_misses(),
            "SLICC {} vs baseline {}",
            slicc.stats.l1i_misses(),
            base.stats.l1i_misses()
        );
    }

    #[test]
    fn data_locality_suffers() {
        // Threads leave their data behind when they migrate (Section 4.3).
        let mut traces = Vec::new();
        for i in 0..8u64 {
            let mut events = vec![TraceEvent::XctBegin {
                xct_type: XctTypeId(0),
            }];
            for chunk in 0..4u64 {
                events.push(TraceEvent::Instr {
                    block: BlockAddr(0x2000 + chunk * 300),
                    n_blocks: 300,
                    ipb: 10,
                });
                // Private data re-touched around the instruction strata.
                for d in 0..16u64 {
                    events.push(TraceEvent::Data {
                        block: BlockAddr(0x100_0000 + i * 64 + d),
                        write: false,
                    });
                }
            }
            events.push(TraceEvent::XctEnd);
            traces.push(XctTrace {
                xct_type: XctTypeId(0),
                events,
            });
        }
        let w = interned(&traces);
        let slicc = run(&w.as_set(), &cfg(4));
        let base = crate::sched::baseline::run(&w.as_set(), &cfg(4));
        assert!(
            slicc.stats.l1d_misses() > base.stats.l1d_misses(),
            "migration should hurt L1-D: {} vs {}",
            slicc.stats.l1d_misses(),
            base.stats.l1d_misses()
        );
    }
}
