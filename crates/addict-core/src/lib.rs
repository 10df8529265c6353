//! # addict-core
//!
//! ADDICT itself — the paper's contribution — plus the three comparator
//! scheduling mechanisms, all running over the `addict-sim` machine on
//! traces produced by `addict-storage`/`addict-workloads`.
//!
//! * [`algorithm1`] — **Step 1**: find per-(transaction type, operation)
//!   *migration points* by tracking where an L1-I-sized window overflows
//!   (Algorithm 1 of the paper), and measure their stability (Figure 4).
//! * [`plan`] — **Step 2, lines 1–14**: assign cores to transaction
//!   entries, operation entries, and migration points, including the
//!   Section 3.2.3 load balancing (dropping points of infrequent
//!   operations when cores are scarce; frequency-proportional replication
//!   when cores are plentiful).
//! * [`replay`] — the trace-replay substrate: a discrete-event cluster
//!   where threads occupy cores, queue, migrate, and execute their traced
//!   events against the simulated memory hierarchy.
//! * [`sched`] — the four mechanisms of Section 4.1: Baseline (one core
//!   per transaction, start to finish), STREX (time-multiplexing a batch
//!   on one core), SLICC (hardware-heuristic computation spreading), and
//!   ADDICT (software-guided migration at the planned points).

pub mod algorithm1;
pub mod plan;
pub mod replay;
pub mod sched;

pub use algorithm1::{find_migration_points_interned, MigrationMap};
pub use plan::{AssignmentPlan, PlanConfig};
pub use replay::{ReplayConfig, ReplayResult};
pub use sched::{run_scheduler, SchedulerKind};
