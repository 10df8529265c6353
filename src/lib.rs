//! # addict
//!
//! Facade crate for the Rust reproduction of *ADDICT: Advanced Instruction
//! Chasing for Transactions* (Tözün, Atta, Ailamaki, Moshovos — VLDB 2014).
//!
//! ADDICT is a transaction-scheduling mechanism that treats a transaction
//! not as one monolithic task but as a chain of *actions* of the database
//! operations it executes, each action sized to fit an L1 instruction
//! cache. It profiles a workload to find per-operation *migration points*
//! (Algorithm 1) and then migrates transactions across cores at those
//! points (Algorithm 2), so that each core's L1-I stays resident with one
//! cache-sized chunk of code reused by every transaction in a batch.
//!
//! This workspace re-implements the paper's full experimental stack:
//!
//! * [`storage`] — a Shore-MT-like storage manager (B+-trees, buffer pool,
//!   lock manager, WAL) whose execution is instrumented block-by-block,
//! * [`trace`] — the Pin-substitute trace model and recorder,
//! * [`workloads`] — TPC-B/C/E transaction generators plus a declarative
//!   workload-spec subsystem (TATP and YCSB-style mixes ship built in),
//! * [`sim`] — a multicore cache/timing/power simulator (Zesto/McPAT
//!   substitute),
//! * [`core`] — ADDICT itself plus the Baseline/STREX/SLICC comparators,
//! * [`analysis`] — the Section 2 memory-characterization analyses.
//!
//! See `examples/quickstart.rs` for an end-to-end tour; the `addict-bench`
//! binaries regenerate the paper's tables and figures.

pub use addict_analysis as analysis;
pub use addict_core as core;
pub use addict_sim as sim;
pub use addict_storage as storage;
pub use addict_trace as trace;
pub use addict_workloads as workloads;
