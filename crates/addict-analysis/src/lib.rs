//! # addict-analysis
//!
//! The Section 2 memory-characterization analyses of the ADDICT paper,
//! computed over the interned traces of `addict-workloads`
//! (`collect_traces_interned`), each decoded slice by slice:
//!
//! * [`footprint`] — the per-instance instruction/data footprints and
//!   access counts the analyses below are built on;
//! * [`overlap`] — instruction/data footprint overlap across instances of
//!   a workload mix, a transaction type, or a database operation
//!   (Figure 2's pie charts);
//! * [`reuse`] — average per-block access counts within one instance,
//!   ordered by cross-instance commonality (Figure 3);
//! * [`flow`] — measured inclusive-footprint percentages along the
//!   Figure 1 call-flow edges of the four database operations;
//! * [`sources`] — the Section 2.2.2 breakdown of *which* structures the
//!   commonly accessed data blocks belong to (metadata, lock table,
//!   buffer pool, log, pages).

pub mod flow;
pub mod footprint;
pub mod overlap;
pub mod reuse;
pub mod sources;

pub use flow::{op_flow, FlowEdge};
pub use footprint::Footprint;
pub use overlap::{overlap_histogram, OverlapHistogram, OverlapScope};
pub use reuse::{reuse_profile, ReusePoint};
pub use sources::{data_sources, DataRegion, RegionStats};
