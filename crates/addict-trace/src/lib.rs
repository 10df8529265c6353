//! # addict-trace
//!
//! The Pin substitute: a block-granularity execution-trace model for the
//! ADDICT reproduction.
//!
//! The paper collects x86 instruction/data traces of Shore-MT with Pin and
//! replays them on a timing simulator. We cannot trace native instruction
//! addresses portably, so this crate supplies a substitute:
//!
//! * a [`codemap`] assigns every storage-manager routine a stable synthetic
//!   code region (a range of 64-byte instruction blocks) whose size is
//!   calibrated to the footprint ratios of Figure 1 and Shore-MT's overall
//!   128–256 KB instruction footprint;
//! * a [`recorder`] is threaded through the *real* storage engine
//!   (`addict-storage`): as the engine executes a transaction, every routine
//!   it enters emits its block walk, and every page/structure it touches
//!   emits data-block events. Code-path variety (index-vs-no-index inserts,
//!   page allocations, structural modifications) therefore emerges from the
//!   engine's actual control flow, exactly the property ADDICT exploits;
//! * [`event`] defines the portable trace format with transaction and
//!   operation entry/exit markers — the "indicators" Algorithm 1 takes as
//!   input;
//! * [`footprint`] computes the per-instance instruction/data footprints
//!   the Section 2 characterization is built on;
//! * [`intern`] stores traces in a deduplicated, arena-backed form —
//!   repeated event slices interned once into a shared [`SlicePool`] —
//!   so the replay working set scales with *distinct code paths*, not
//!   trace count;
//! * [`set`] defines [`TraceSet`], the replay-facing cursor abstraction
//!   both the flat and the interned layouts implement.

pub mod codemap;
pub mod event;
pub mod footprint;
pub mod intern;
pub mod layout;
pub mod recorder;
pub mod set;

pub use codemap::{CodeMap, Routine};
pub use event::{OpKind, TraceEvent, WorkloadTrace, XctTrace, XctTypeId};
pub use footprint::Footprint;
pub use intern::{
    InternFootprint, InternedSet, InternedTrace, InternedWorkload, SlicePool, SliceRef,
};
pub use recorder::TraceRecorder;
pub use set::{DataRun, Fetched, TraceSet};
