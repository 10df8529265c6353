//! STREX (Atta et al., ISCA 2013): same-type transactions are batched and
//! time-multiplexed on a *single* core. A thread runs until it has taken a
//! burst of L1-I misses — the sign it is entering a code stratum not yet
//! cached — then yields so the batch peers re-execute the cached stratum
//! before it is evicted. The lead thread pays the misses; followers hit.
//!
//! Effects reproduced from the paper: modest L1-I miss reduction (the
//! stratification is approximate), the largest latency blow-up of all
//! mechanisms (a transaction shares its core with `batch-1` peers), the
//! highest context-switch rate (Figure 9), and increased LLC pressure
//! from running `batch x cores` transactions concurrently.

use addict_sim::Machine;
use addict_trace::event::FlatEvent;
use addict_trace::InternedSet;

use crate::replay::{batch_order, run_des, Action, Cluster, Policy, ReplayConfig, ReplayResult};

struct StrexPolicy {
    threshold: u64,
    misses_since_resume: Vec<u64>,
}

// Thread-safety audit: parallel-sweep workers drive policies off the main
// thread.
const _: () = {
    const fn audit<T: Send + Sync>() {}
    audit::<StrexPolicy>();
};

impl Policy for StrexPolicy {
    fn post(
        &mut self,
        tid: usize,
        ev: FlatEvent,
        core: usize,
        missed: bool,
        _machine: &Machine,
        cluster: &Cluster,
        _now: f64,
    ) -> Action {
        if !matches!(ev, FlatEvent::Instr { .. }) || !missed {
            return Action::Continue;
        }
        self.misses_since_resume[tid] += 1;
        if self.misses_since_resume[tid] >= self.threshold && !cluster.queues[core].is_empty() {
            // A batch peer is waiting: hand over the stratum.
            return Action::Yield;
        }
        Action::Continue
    }

    fn on_moved(&mut self, tid: usize, _to_core: usize) {
        self.misses_since_resume[tid] = 0;
    }

    // `post` only acts on instruction *misses*, which the segment engine
    // always reports: safe for segment execution.
    fn segment_granular(&self) -> bool {
        true
    }

    // Data events never reach the miss counter (`post` filters them out
    // before looking at `missed`) and `pre` is the default no-op: safe for
    // run-granular data execution.
    fn data_run_granular(&self) -> bool {
        true
    }
}

/// Replay under STREX.
pub fn run(traces: &InternedSet<'_>, cfg: &ReplayConfig) -> ReplayResult {
    let mut machine = Machine::new(&cfg.sim);
    let n_cores = cfg.sim.n_cores;
    let batches = batch_order(traces, cfg.batch_size);

    // Whole batches go to one core; batches pack onto the least-loaded
    // core (by planned instructions) so unequal batch sizes balance.
    let mut order = Vec::with_capacity(traces.len());
    let mut placement = vec![0usize; traces.len()];
    let mut core_work = vec![0u64; n_cores];
    for batch in &batches {
        let work: u64 = batch.iter().map(|&tid| traces.instructions_of(tid)).sum();
        let core = (0..n_cores)
            .min_by_key(|&c| core_work[c])
            .expect("cores > 0");
        core_work[core] += work;
        for &tid in batch {
            placement[order.len()] = core;
            order.push(tid);
        }
    }

    let mut policy = StrexPolicy {
        threshold: cfg.strex_miss_threshold,
        misses_since_resume: vec![0; traces.len()],
    };
    run_des(
        &mut machine,
        traces,
        &order,
        |dispatch_idx, _| placement[dispatch_idx],
        &mut policy,
        "STREX",
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::interned;
    use addict_sim::{BlockAddr, SimConfig};
    use addict_trace::{TraceEvent, XctTrace, XctTypeId};

    /// A trace whose footprint exceeds one L1-I (512 blocks at 32 KB).
    fn big_trace() -> XctTrace {
        let mut events = vec![TraceEvent::XctBegin {
            xct_type: XctTypeId(0),
        }];
        for chunk in 0..3 {
            events.push(TraceEvent::Instr {
                block: BlockAddr(0x1000 + chunk * 400),
                n_blocks: 400,
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
    fn batch_shares_one_core_with_switches() {
        let traces: Vec<XctTrace> = (0..4).map(|_| big_trace()).collect();
        let r = run(&interned(&traces).as_set(), &cfg(4));
        assert!(
            r.stats.context_switches() > 0,
            "stratified execution must switch"
        );
        assert_eq!(r.stats.migrations_in(), 0, "STREX never changes cores");
        // All the work happened on one core.
        let busy: Vec<usize> = (0..4)
            .filter(|&c| r.stats.cores[c].instructions > 0)
            .collect();
        assert_eq!(busy, vec![0]);
    }

    #[test]
    fn followers_reuse_leader_strata() {
        let traces: Vec<XctTrace> = (0..4).map(|_| big_trace()).collect();
        let w = interned(&traces);
        let strex = run(&w.as_set(), &cfg(4));
        let base = crate::sched::baseline::run(&w.as_set(), &cfg(4));
        // Baseline puts each 1200-block transaction on its own cold core:
        // everyone misses everything. STREX lets followers reuse.
        assert!(
            strex.stats.l1i_misses() < base.stats.l1i_misses(),
            "STREX {} vs baseline {}",
            strex.stats.l1i_misses(),
            base.stats.l1i_misses()
        );
    }

    #[test]
    fn latency_stretches_with_batch() {
        let traces: Vec<XctTrace> = (0..4).map(|_| big_trace()).collect();
        let w = interned(&traces);
        let strex = run(&w.as_set(), &cfg(4));
        let base = crate::sched::baseline::run(&w.as_set(), &cfg(4));
        assert!(
            strex.avg_latency_cycles > 2.0 * base.avg_latency_cycles,
            "time multiplexing must stretch latency: {} vs {}",
            strex.avg_latency_cycles,
            base.avg_latency_cycles
        );
    }
}
