//! # addict-workloads
//!
//! The benchmarks the reproduction characterizes and evaluates on: the
//! paper's three TPC OLTP mixes (Section 4.1) plus two mixes probing where
//! ADDICT's instruction-chasing wins degrade.
//!
//! The paper trio:
//!
//! * **TPC-B** ([`tpcb`]) — a single transaction type, `AccountUpdate`,
//!   which probes/updates account, teller, and branch rows and inserts into
//!   the index-less History table (the source of the `allocate page`
//!   variety Section 2.2.1 discusses).
//! * **TPC-C** ([`tpcc`]) — the five-transaction mix at the standard
//!   45/43/4/4/4 ratios; `NewOrder` inserts into indexed tables (the
//!   `create index entry` path), `Payment` inserts into the index-less
//!   History table, `Delivery` exercises `delete tuple`.
//! * **TPC-E** ([`tpce`]) — a simplified ten-type mix, ~77% read-only,
//!   with `TradeStatus` the most frequent type at 19%, matching the mix
//!   skew the paper attributes TPC-E's lower whole-mix overlap to.
//!
//! The degradation probes:
//!
//! * **TATP** ([`tatp`]) — seven short telecom transactions, ~80% read:
//!   the short-transaction regime where the per-transaction wrapper
//!   dominates the instruction stream.
//! * **YCSB-A / YCSB-B** ([`ycsb`]) — one-operation key-value transactions
//!   with Zipfian keys: total instruction overlap, skewed data overlap.
//!
//! Every benchmark is plain code behind one trait, [`WorkloadRunner`], the
//! way the paper's TPC workloads run as code on Shore-MT: a module creates
//! its tables through one small private helper (a table plus its primary
//! index), populates them untraced, and runs each transaction by drawing
//! its random values and then calling the engine's traced operations.
//! Every workload's traces are anchored to committed golden digests
//! (`addict-bench/tests/golden_digests.rs`) at both test and default
//! scale.
//!
//! Scale factors are configurable; the defaults populate databases large
//! enough that two transactions rarely touch the same record/leaf blocks
//! (the property that drives the paper's ≤6% data overlap) while keeping
//! population fast. Transaction streams are deterministic given a seed.

pub mod rows;
mod table;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;
pub mod tpce;
pub mod ycsb;

use addict_storage::{Engine, StorageResult};
use addict_trace::{InternedTrace, SlicePool, WorkloadTrace, XctTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A benchmark that can execute one transaction from its mix.
///
/// A runner is plain data, so a populated `(Engine, runner)` pair can be
/// copied ([`WorkloadRunner::clone_box`], `Engine::clone`) and shared
/// across threads: a trace cache populates each benchmark once and hands
/// every generation its own copy.
pub trait WorkloadRunner: Send + Sync {
    /// Benchmark name ("TPC-B", "TATP", "YCSB-A", ...).
    fn name(&self) -> &'static str;

    /// Names of the transaction types, indexed by [`XctTypeId`].
    fn xct_type_names(&self) -> Vec<String>;

    /// Execute one transaction drawn from the benchmark mix. Returns the
    /// type executed.
    fn run_one(&mut self, engine: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId>;

    /// A copy of this runner in its current state. Running the same
    /// transactions on copies of one `(Engine, runner)` pair produces the
    /// same traces.
    fn clone_box(&self) -> Box<dyn WorkloadRunner>;
}

/// The benchmark registry: the paper's TPC trio plus the TATP and YCSB
/// mixes. Every consumer — figure binaries, sweep grids, parallel
/// generation, Algorithm 1 profiling — speaks this enum, so adding an
/// entry here threads a workload through the whole harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// TPC-B: one `AccountUpdate` type, [`tpcb::TpcB`].
    TpcB,
    /// TPC-C, [`tpcc::TpcC`].
    TpcC,
    /// TPC-E, [`tpce::TpcE`].
    TpcE,
    /// TATP: seven short telecom transactions, ~80% read, [`tatp::Tatp`].
    Tatp,
    /// YCSB-A style: 50/50 Zipfian read/update, [`ycsb::Ycsb`].
    YcsbA,
    /// YCSB-B style: 95/5 Zipfian read/update, [`ycsb::Ycsb`].
    YcsbB,
}

impl Benchmark {
    /// Every registered benchmark: the paper trio first (the order its
    /// figures list them), then TATP and YCSB.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::TpcB,
        Benchmark::TpcC,
        Benchmark::TpcE,
        Benchmark::Tatp,
        Benchmark::YcsbA,
        Benchmark::YcsbB,
    ];

    /// Display name (round-trips through [`FromStr`](std::str::FromStr)).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::TpcB => "TPC-B",
            Benchmark::TpcC => "TPC-C",
            Benchmark::TpcE => "TPC-E",
            Benchmark::Tatp => "TATP",
            Benchmark::YcsbA => "YCSB-A",
            Benchmark::YcsbB => "YCSB-B",
        }
    }

    /// Canonical lowercase token for serialized forms — job specs,
    /// `--benchmarks` lists, trace-pool cache keys. Round-trips through
    /// [`FromStr`](std::str::FromStr) (which also accepts the dashed
    /// display names).
    pub fn id(self) -> &'static str {
        match self {
            Benchmark::TpcB => "tpcb",
            Benchmark::TpcC => "tpcc",
            Benchmark::TpcE => "tpce",
            Benchmark::Tatp => "tatp",
            Benchmark::YcsbA => "ycsba",
            Benchmark::YcsbB => "ycsbb",
        }
    }

    /// Build and populate the benchmark at its default (paper-shaped)
    /// scale, returning the engine and a runner.
    pub fn setup(self) -> (Engine, Box<dyn WorkloadRunner>) {
        self.build(false)
    }

    /// Build at a reduced scale for fast tests.
    pub fn setup_small(self) -> (Engine, Box<dyn WorkloadRunner>) {
        self.build(true)
    }

    fn build(self, small: bool) -> (Engine, Box<dyn WorkloadRunner>) {
        // Population has released every lock it took; the lock tables'
        // capacity goes with them.
        fn boxed<W: WorkloadRunner + 'static>(
            (mut e, w): (Engine, W),
        ) -> (Engine, Box<dyn WorkloadRunner>) {
            e.shrink_to_fit();
            (e, Box::new(w))
        }
        match self {
            Benchmark::TpcB if small => boxed(tpcb::TpcB::setup(2, 4, 100)),
            Benchmark::TpcB => boxed(tpcb::TpcB::setup(16, 10, 8_000)),
            Benchmark::TpcC if small => boxed(tpcc::TpcC::setup(tpcc::TpcCConfig::small())),
            Benchmark::TpcC => boxed(tpcc::TpcC::setup(tpcc::TpcCConfig::default())),
            Benchmark::TpcE if small => boxed(tpce::TpcE::setup(tpce::TpcEConfig::small())),
            Benchmark::TpcE => boxed(tpce::TpcE::setup(tpce::TpcEConfig::default())),
            Benchmark::Tatp if small => boxed(tatp::Tatp::setup(tatp::SUBSCRIBERS_SMALL)),
            Benchmark::Tatp => boxed(tatp::Tatp::setup(tatp::SUBSCRIBERS)),
            Benchmark::YcsbA | Benchmark::YcsbB => {
                let mix = if self == Benchmark::YcsbA {
                    ycsb::YcsbMix::A
                } else {
                    ycsb::YcsbMix::B
                };
                let rows = if small { ycsb::ROWS_SMALL } else { ycsb::ROWS };
                boxed(ycsb::Ycsb::setup(mix, rows))
            }
        }
    }
}

impl std::str::FromStr for Benchmark {
    type Err = String;

    /// Case-insensitive parse of a benchmark name; dashes are optional
    /// (`TPC-B`, `tpcb`, and `tpc-b` all resolve).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        Benchmark::ALL
            .iter()
            .copied()
            .find(|b| {
                b.name()
                    .chars()
                    .filter(|c| *c != '-')
                    .collect::<String>()
                    .to_ascii_lowercase()
                    == canon
            })
            .ok_or_else(|| {
                let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                format!(
                    "unknown benchmark {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

// Thread-safety audit: sweep grids carry `Benchmark` tags across worker
// threads, and a trace cache shares one populated `Engine` and runner
// between the threads that copy them (each generation still runs on one
// thread, on its own copy).
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<Benchmark>();
    shared::<Engine>();
    shared::<Box<dyn WorkloadRunner>>();
};

/// Run `n` transactions of the mix and collect their traces.
///
/// The engine's recorder must be enabled (it is after `setup`). The run is
/// deterministic in `seed`.
pub fn collect_traces(
    engine: &mut Engine,
    workload: &mut dyn WorkloadRunner,
    n: usize,
    seed: u64,
) -> WorkloadTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        workload
            .run_one(engine, &mut rng)
            .unwrap_or_else(|e| panic!("transaction {i} of {} failed: {e}", workload.name()));
    }
    WorkloadTrace {
        name: workload.name().to_owned(),
        xct_type_names: workload.xct_type_names(),
        xcts: engine.take_traces(),
    }
}

/// Run `n` transactions of the mix and intern their traces into `pool`
/// **as they complete**: run `chunk` transactions, drain their flat traces
/// from the recorder, intern them, repeat. The uncompressed trace set
/// never materializes — peak flat-trace memory is bounded by one chunk
/// plus the deduplicated pool, however large `n` grows. Larger chunks
/// amortize the recorder drain; `chunk == 0` means "drain once at the
/// end" (the unbounded batch shape, for comparison runs).
///
/// Bit-identical to `collect_traces` followed by
/// [`InternedTrace::intern`] over each trace (same traces, same order,
/// same pool layout), and **independent of `chunk`** (asserted by
/// `addict-bench`'s `trace_determinism` test). Deterministic in `seed`.
/// Several collections (profile + eval) may intern into one shared pool.
pub fn collect_traces_interned_chunked(
    engine: &mut Engine,
    workload: &mut dyn WorkloadRunner,
    n: usize,
    seed: u64,
    pool: &mut SlicePool,
    chunk: usize,
) -> Vec<InternedTrace> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xcts = Vec::with_capacity(n);
    let mut pending = 0usize;
    for i in 0..n {
        workload
            .run_one(engine, &mut rng)
            .unwrap_or_else(|e| panic!("transaction {i} of {} failed: {e}", workload.name()));
        pending += 1;
        if pending == chunk {
            for trace in engine.take_traces() {
                xcts.push(InternedTrace::intern(&trace, pool));
            }
            pending = 0;
        }
    }
    if pending > 0 {
        for trace in engine.take_traces() {
            xcts.push(InternedTrace::intern(&trace, pool));
        }
    }
    xcts
}

/// Draw a transaction type from a cumulative-percentage mix table.
pub(crate) fn pick_mix(rng: &mut StdRng, cumulative: &[(u32, XctTypeId)]) -> XctTypeId {
    use rand::Rng;
    let p = rng.gen_range(0..100u32);
    for &(threshold, ty) in cumulative {
        if p < threshold {
            return ty;
        }
    }
    cumulative.last().expect("mix table non-empty").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names() {
        assert_eq!(Benchmark::TpcB.name(), "TPC-B");
        assert_eq!(Benchmark::Tatp.name(), "TATP");
        assert_eq!(Benchmark::YcsbA.name(), "YCSB-A");
        assert_eq!(Benchmark::ALL.len(), 6);
    }

    #[test]
    fn benchmark_ids_round_trip() {
        // The serialized-form contract: every canonical id parses back to
        // its variant, and ids are distinct lowercase tokens.
        for b in Benchmark::ALL {
            assert_eq!(b.id().parse::<Benchmark>().unwrap(), b);
            assert_eq!(b.id(), b.id().to_ascii_lowercase());
        }
        let mut ids: Vec<&str> = Benchmark::ALL.iter().map(|b| b.id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), Benchmark::ALL.len());
    }

    #[test]
    fn benchmark_name_parse_round_trips() {
        // The --benchmarks flag contract: every display name parses back
        // to its variant, case-insensitively, with or without dashes.
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
            assert_eq!(b.name().to_lowercase().parse::<Benchmark>().unwrap(), b);
            assert_eq!(
                b.name().replace('-', "").parse::<Benchmark>().unwrap(),
                b,
                "dashless form of {} must parse",
                b.name()
            );
        }
        assert_eq!("tatp".parse::<Benchmark>().unwrap(), Benchmark::Tatp);
        assert_eq!("ycsb-b".parse::<Benchmark>().unwrap(), Benchmark::YcsbB);
        let err = "tpcd".parse::<Benchmark>().unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
        assert!(
            err.contains("TPC-B"),
            "error should list valid names: {err}"
        );
    }

    #[test]
    fn pick_mix_respects_thresholds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = [
            (45u32, XctTypeId(0)),
            (88, XctTypeId(1)),
            (100, XctTypeId(2)),
        ];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[pick_mix(&mut rng, &mix).0 as usize] += 1;
        }
        // Roughly 45 / 43 / 12.
        assert!((4000..5000).contains(&counts[0]), "{counts:?}");
        assert!((3800..4800).contains(&counts[1]), "{counts:?}");
        assert!((800..1600).contains(&counts[2]), "{counts:?}");
    }
}
