//! # addict-storage
//!
//! A Shore-MT-like single-node OLTP storage manager, built from scratch as
//! the substrate for the ADDICT reproduction (Tözün et al., VLDB 2014).
//!
//! The paper runs TPC workloads on Shore-MT and traces the storage-manager
//! routines every transaction funnels through. This crate provides the same
//! component stack:
//!
//! * [`page`] — 8 KB slotted pages holding real record bytes,
//! * [`heap`] — heap files with a free-space map and page allocation,
//! * [`bufferpool`] — a pin-counting buffer pool with clock eviction,
//! * [`btree`] — B+-trees with splits, merges, and root SMOs,
//! * [`lock`] — a 2PL lock manager (S/X/IS/IX modes, upgrade, waits-for
//!   deadlock detection),
//! * [`wal`] — a write-ahead log with monotone LSNs,
//! * [`engine`] — the transaction manager exposing the paper's five
//!   database operations (index probe, index scan, update tuple, insert
//!   tuple, delete tuple).
//!
//! Every routine is instrumented with the `addict-trace` recorder: as a
//! transaction executes, the engine emits the instruction-block walk of
//! each routine it enters (per the calibrated
//! [`addict_trace::codemap::CodeMap`]) and a data-block access for every
//! page, lock bucket, log slot, and buffer-pool frame it actually touches.
//! Traces are therefore shaped by the engine's real control flow — index
//! descents per level, page allocations only when heaps fill, structural
//! modifications only when nodes split.
//!
//! The engine is single-threaded by design (`&mut self` operations): the
//! paper's methodology replays collected traces on a simulated multicore,
//! so concurrency lives in the replay scheduler, not in trace collection.
//! The lock manager still implements real conflict semantics for multiple
//! in-flight transactions interleaved on one thread.

pub mod btree;
pub mod bufferpool;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod heap;
pub mod lock;
pub mod page;
pub mod rid;
pub mod wal;

pub use catalog::{IndexId, TableId};

/// Approximate heap bytes of a hash table: its capacity at the in-table
/// slot size, plus one control byte per slot.
pub(crate) fn table_bytes<K, V, S>(m: &std::collections::HashMap<K, V, S>) -> usize {
    m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// Approximate heap bytes of a vector's buffer.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}
pub use engine::{Engine, EngineConfig, XctId};
pub use error::{StorageError, StorageResult};
pub use rid::Rid;
