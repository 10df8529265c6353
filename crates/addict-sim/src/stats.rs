//! Event counters collected while a [`crate::Machine`] executes, and the
//! MPKI arithmetic (misses per 1000 instructions) used throughout the
//! paper's evaluation (Figures 5, 7, 9).

use serde::{Deserialize, Serialize};

/// Counters for a single core.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Dynamic instructions executed on this core.
    pub instructions: u64,
    /// L1-I block lookups.
    pub l1i_accesses: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
    /// L1-D lookups.
    pub l1d_accesses: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// Private-L2 lookups (deep hierarchy only).
    pub l2p_accesses: u64,
    /// Private-L2 misses (deep hierarchy only).
    pub l2p_misses: u64,
    /// Shared-LLC lookups attributed to this core.
    pub llc_accesses: u64,
    /// Shared-LLC misses attributed to this core (these go to memory).
    pub llc_misses: u64,
    /// Main-memory accesses (demand).
    pub mem_accesses: u64,
    /// Threads migrated *onto* this core.
    pub migrations_in: u64,
    /// Same-core context switches (STREX-style time multiplexing).
    pub context_switches: u64,
    /// Cycles spent on migration / context-switch overhead.
    pub overhead_cycles: f64,
    /// Base execution cycles (instructions x base CPI).
    pub base_cycles: f64,
    /// Cycles stalled on instruction fetch misses.
    pub instr_stall_cycles: f64,
    /// Cycles charged for data accesses (after OoO hiding).
    pub data_stall_cycles: f64,
    /// L1-D lines invalidated here by remote writes.
    pub invalidations_received: u64,
    /// Dirty blocks supplied to another core (cache-to-cache transfers).
    pub c2c_supplied: u64,
    /// Dirty L1-D evictions written back.
    pub writebacks: u64,
    /// Interconnect hops traversed by this core's LLC traffic (round trips).
    pub noc_hops: u64,
}

/// Whole-machine statistics: per-core counters plus aggregation helpers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineStats {
    /// One entry per core.
    pub cores: Vec<CoreStats>,
}

// Thread-safety audit: sweep results carrying these cross thread
// boundaries back to the collecting thread.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<CoreStats>();
    shared::<MachineStats>();
};

macro_rules! sum_field {
    ($name:ident) => {
        /// Sum of the per-core field of the same name.
        pub fn $name(&self) -> u64 {
            self.cores.iter().map(|c| c.$name).sum()
        }
    };
}

impl MachineStats {
    /// Zeroed stats for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        MachineStats {
            cores: vec![CoreStats::default(); n_cores],
        }
    }

    sum_field!(instructions);
    sum_field!(l1i_accesses);
    sum_field!(l1i_misses);
    sum_field!(l1d_accesses);
    sum_field!(l1d_misses);
    sum_field!(l2p_accesses);
    sum_field!(l2p_misses);
    sum_field!(llc_accesses);
    sum_field!(llc_misses);
    sum_field!(mem_accesses);
    sum_field!(migrations_in);
    sum_field!(context_switches);
    sum_field!(invalidations_received);
    sum_field!(c2c_supplied);
    sum_field!(writebacks);
    sum_field!(noc_hops);

    /// Data accesses executed. Defined as the L1-D lookup count: **every**
    /// data event performs exactly one L1-D lookup, on the per-block path
    /// (one `access_data` per event) and on the run-granular path alike
    /// (fast-lane hits and coherent-path accesses each count once) — the
    /// single-source guarantee that keeps `l1d_mpki` honest. Tested against
    /// the traces' own `Data`-event count per workload in
    /// `addict-core/tests/segment_equivalence.rs`.
    pub fn data_accesses(&self) -> u64 {
        self.l1d_accesses()
    }

    /// Total migration / context-switch overhead cycles across cores.
    pub fn overhead_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.overhead_cycles).sum()
    }

    /// Total base execution cycles across cores.
    pub fn base_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.base_cycles).sum()
    }

    /// Total instruction-fetch stall cycles across cores.
    pub fn instr_stall_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.instr_stall_cycles).sum()
    }

    /// Total data-access stall cycles across cores.
    pub fn data_stall_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.data_stall_cycles).sum()
    }

    /// Busy-cycle breakdown shares `(base, instr stall, data stall,
    /// overhead)`, summing to 1 for a non-empty run — the Figure 9
    /// right-hand bars, with the paper's "Rest" split into its parts.
    pub fn cycle_breakdown(&self) -> (f64, f64, f64, f64) {
        let base = self.base_cycles();
        let instr = self.instr_stall_cycles();
        let data = self.data_stall_cycles();
        let ovh = self.overhead_cycles();
        let total = base + instr + data + ovh;
        if total == 0.0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (base / total, instr / total, data / total, ovh / total)
        }
    }

    /// Misses per 1000 instructions, defined as 0 for a zero-instruction
    /// run (empty trace sets and 0-xct replays are legitimate sweep
    /// points; figures must print `0.00`, never `NaN`).
    fn mpki(misses: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// L1 instruction misses per 1000 instructions.
    pub fn l1i_mpki(&self) -> f64 {
        Self::mpki(self.l1i_misses(), self.instructions())
    }

    /// L1 data misses per 1000 instructions.
    pub fn l1d_mpki(&self) -> f64 {
        Self::mpki(self.l1d_misses(), self.instructions())
    }

    /// Shared-LLC (the paper's "L2" on the shallow hierarchy) misses per
    /// 1000 instructions.
    pub fn llc_mpki(&self) -> f64 {
        Self::mpki(self.llc_misses(), self.instructions())
    }

    /// Private-L2 misses per 1000 instructions (deep hierarchy).
    pub fn l2p_mpki(&self) -> f64 {
        Self::mpki(self.l2p_misses(), self.instructions())
    }

    /// Migrations + context switches per 1000 instructions (Figure 9, left).
    pub fn switches_per_ki(&self) -> f64 {
        Self::mpki(
            self.migrations_in() + self.context_switches(),
            self.instructions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_construction() {
        let s = MachineStats::new(4);
        assert_eq!(s.cores.len(), 4);
        assert_eq!(s.instructions(), 0);
        assert_eq!(s.l1i_mpki(), 0.0);
    }

    #[test]
    fn aggregation_sums_cores() {
        let mut s = MachineStats::new(2);
        s.cores[0].instructions = 1000;
        s.cores[1].instructions = 3000;
        s.cores[0].l1i_misses = 10;
        s.cores[1].l1i_misses = 30;
        assert_eq!(s.instructions(), 4000);
        assert_eq!(s.l1i_misses(), 40);
        assert!((s.l1i_mpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_guards_division_by_zero() {
        // Every ratio helper must report a clean 0.0 (not NaN) for a
        // zero-instruction run, even with non-zero event counters.
        let mut s = MachineStats::new(1);
        s.cores[0].l1d_misses = 5;
        s.cores[0].l1i_misses = 3;
        s.cores[0].llc_misses = 2;
        s.cores[0].l2p_misses = 1;
        s.cores[0].migrations_in = 4;
        s.cores[0].context_switches = 2;
        assert_eq!(s.instructions(), 0);
        for v in [
            s.l1i_mpki(),
            s.l1d_mpki(),
            s.llc_mpki(),
            s.l2p_mpki(),
            s.switches_per_ki(),
        ] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
        assert_eq!(s.cycle_breakdown(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn switches_counts_both_kinds() {
        let mut s = MachineStats::new(2);
        s.cores[0].instructions = 2000;
        s.cores[0].migrations_in = 3;
        s.cores[1].context_switches = 1;
        assert!((s.switches_per_ki() - 2.0).abs() < 1e-12);
    }
}
