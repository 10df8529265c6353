//! The replay-facing value types of
//! [`InternedSet`](crate::intern::InternedSet)'s cursor: what one fetch
//! reports ([`Fetched`]) and the reusable buffer a data run is gathered
//! into ([`DataRun`]).
//!
//! The contract is *fetch-once-per-step*: `InternedSet::fetch` reads the
//! trace exactly once and returns everything the engine needs — the flat
//! event to execute **and** the run geometry required to advance past it —
//! so the hot loop never re-reads the trace to step the cursor.

use addict_sim::{BlockAddr, DataAccess};

use crate::event::FlatEvent;

/// A reusable buffer holding one coalesced run of consecutive data
/// accesses — the lazily-computed *data-run view* of a trace.
///
/// Traces store `Data` events exactly as before (the interned `SlicePool`
/// is untouched); a `DataRun` materializes only at replay time, when
/// [`InternedSet::gather_data_run`](crate::intern::InternedSet::gather_data_run)
/// collects the consecutive `Data` events at the cursor so the machine
/// can execute them run-granularly. The engine
/// keeps one `DataRun` for the whole replay: the backing `Vec` grows to
/// the longest run once and is reused, keeping the hot loop
/// allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct DataRun {
    accesses: Vec<DataAccess>,
}

impl DataRun {
    /// An empty run buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the previous run's contents (capacity is kept).
    pub fn clear(&mut self) {
        self.accesses.clear();
    }

    /// Append one access (the gather fills the buffer through this).
    pub fn push(&mut self, access: DataAccess) {
        self.accesses.push(access);
    }

    /// The gathered accesses, in trace order.
    pub fn accesses(&self) -> &[DataAccess] {
        &self.accesses
    }

    /// Number of gathered accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Everything the replay engine learns from one trace fetch.
///
/// Instruction runs are reported segment-granularly: `Run` describes the
/// *remainder* of the run at the cursor, so the segment engine can execute
/// it whole, and the per-block path can synthesize the single
/// [`FlatEvent::Instr`] at its head without a second lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The cursor stands inside an instruction run: next block to fetch,
    /// blocks remaining in the run (including this one), and instructions
    /// charged per block.
    Run {
        /// Next instruction block.
        block: BlockAddr,
        /// Blocks left in the run, this one included (always ≥ 1).
        rem: u16,
        /// Dynamic instructions per block visit.
        ipb: u16,
    },
    /// A marker or data event.
    Event(FlatEvent),
    /// The trace is exhausted.
    End,
}

/// Issue a best-effort cache prefetch for the line holding `p`. A no-op
/// on non-x86_64 targets; never a correctness concern anywhere (the
/// instruction has no architectural effect).
#[inline(always)]
pub(crate) fn prefetch_ptr<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure hint — valid for any address,
    // including dangling ones — and SSE is baseline on x86_64.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpKind, TraceEvent, XctTrace, XctTypeId};
    use crate::intern::{InternCursor, InternedSet, InternedTrace, SlicePool};

    fn sample() -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(7),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(7),
                },
                TraceEvent::OpBegin { op: OpKind::Probe },
                TraceEvent::Instr {
                    block: BlockAddr(0x40),
                    n_blocks: 3,
                    ipb: 5,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9000),
                    write: true,
                },
                TraceEvent::OpEnd { op: OpKind::Probe },
                TraceEvent::XctEnd,
            ],
        }
    }

    #[test]
    fn fetch_reports_run_remainders() {
        let mut pool = SlicePool::new();
        let xcts = [InternedTrace::intern(&sample(), &mut pool)];
        let set = InternedSet {
            pool: &pool,
            xcts: &xcts,
        };
        let mut cur = InternCursor::default();
        // Skip XctBegin and OpBegin.
        for _ in 0..2 {
            let Fetched::Event(ev) = set.fetch(0, cur) else {
                panic!("expected marker")
            };
            set.advance_event(0, &mut cur, ev);
        }
        assert_eq!(
            set.fetch(0, cur),
            Fetched::Run {
                block: BlockAddr(0x40),
                rem: 3,
                ipb: 5
            }
        );
        set.advance_run(0, &mut cur, 3, 2);
        assert_eq!(
            set.fetch(0, cur),
            Fetched::Run {
                block: BlockAddr(0x42),
                rem: 1,
                ipb: 5
            }
        );
        set.advance_run(0, &mut cur, 1, 1);
        assert!(matches!(
            set.fetch(0, cur),
            Fetched::Event(FlatEvent::Data { .. })
        ));
    }

    #[test]
    fn flat_walk_matches_event_flatten() {
        let trace = sample();
        let mut pool = SlicePool::new();
        let xcts = [InternedTrace::intern(&trace, &mut pool)];
        let set = InternedSet {
            pool: &pool,
            xcts: &xcts,
        };
        let via_flatten: Vec<FlatEvent> = trace.flat_events().collect();
        assert_eq!(set.flat_events(0), via_flatten);
    }

    /// Gather/advance agree with walking the same events one at a time
    /// via `fetch`/`advance_event`.
    #[test]
    fn gather_data_run_matches_per_event_walk() {
        let trace = XctTrace {
            xct_type: XctTypeId(1),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(1),
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9000),
                    write: false,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9001),
                    write: true,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9000),
                    write: false,
                },
                TraceEvent::Instr {
                    block: BlockAddr(0x40),
                    n_blocks: 2,
                    ipb: 5,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9002),
                    write: true,
                },
                TraceEvent::XctEnd,
            ],
        };
        let mut pool = SlicePool::new();
        let xcts = [InternedTrace::intern(&trace, &mut pool)];
        let set = InternedSet {
            pool: &pool,
            xcts: &xcts,
        };
        let mut cur = InternCursor::default();
        let mut run = DataRun::new();
        // At XctBegin: no data run.
        assert_eq!(set.gather_data_run(0, cur, &mut run), 0);
        let Fetched::Event(ev) = set.fetch(0, cur) else {
            panic!("marker expected")
        };
        set.advance_event(0, &mut cur, ev);
        // At the first Data: a 3-access run, gathered without advancing.
        assert_eq!(set.gather_data_run(0, cur, &mut run), 3);
        assert_eq!(
            run.accesses(),
            &[
                DataAccess {
                    block: BlockAddr(0x9000),
                    write: false
                },
                DataAccess {
                    block: BlockAddr(0x9001),
                    write: true
                },
                DataAccess {
                    block: BlockAddr(0x9000),
                    write: false
                },
            ]
        );
        // Partial consumption lands mid-run: the remainder re-gathers.
        let mut partial = cur;
        set.advance_data_run(0, &mut partial, 2);
        assert_eq!(set.gather_data_run(0, partial, &mut run), 1);
        // Full consumption lands exactly on the instruction run.
        set.advance_data_run(0, &mut cur, 3);
        assert!(matches!(set.fetch(0, cur), Fetched::Run { .. }));
        // Mid-instruction-run cursors gather nothing.
        set.advance_run(0, &mut cur, 2, 1);
        assert_eq!(set.gather_data_run(0, cur, &mut run), 0);
        assert!(run.is_empty());
    }

    #[test]
    fn exhausted_cursor_fetches_end() {
        let mut pool = SlicePool::new();
        let xcts = [InternedTrace::intern(
            &XctTrace {
                xct_type: XctTypeId(0),
                events: vec![],
            },
            &mut pool,
        )];
        let set = InternedSet {
            pool: &pool,
            xcts: &xcts,
        };
        assert_eq!(set.fetch(0, InternCursor::default()), Fetched::End);
    }
}
