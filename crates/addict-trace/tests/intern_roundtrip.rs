//! Interning must be lossless: `intern → flatten` reproduces the original
//! event sequence bit-for-bit for *arbitrary* traces — op-bracketed or
//! not, empty or data-heavy, shared pool or private — and the interned
//! cursor ([`InternedSet`]) walks the exact flat-event stream
//! ([`XctTrace::flat_events`]) of the original. The observational-equivalence obligation of the
//! refactor: the compact form may change memory layout, never meaning.

use addict_sim::BlockAddr;
use addict_trace::{
    InternedSet, InternedTrace, InternedWorkload, OpKind, SlicePool, TraceEvent, WorkloadTrace,
    XctTrace, XctTypeId,
};
use proptest::prelude::*;

/// Arbitrary traces: 0–7 operations of varying kind, instruction runs of
/// varying origin/length, data bursts with per-trace addresses, optional
/// wrapper instructions between ops, sometimes no markers at all.
fn arb_trace() -> impl Strategy<Value = XctTrace> {
    let op = prop_oneof![
        Just(OpKind::Probe),
        Just(OpKind::Scan),
        Just(OpKind::Update),
        Just(OpKind::Insert),
        Just(OpKind::Delete),
    ];
    (
        0u16..4,
        prop::collection::vec((op, 0u16..60, 0u64..5, 0u8..5, 0u64..1000, 0u16..3), 0..8),
    )
        .prop_map(|(ty, ops)| {
            let mut events = vec![TraceEvent::XctBegin {
                xct_type: XctTypeId(ty),
            }];
            for (kind, blocks, base_sel, data, data_base, wrapper) in ops {
                if wrapper > 0 {
                    // Wrapper code between operations.
                    events.push(TraceEvent::Instr {
                        block: BlockAddr(0x8000 + base_sel * 0x11),
                        n_blocks: wrapper,
                        ipb: 9,
                    });
                }
                events.push(TraceEvent::OpBegin { op: kind });
                if blocks > 0 {
                    events.push(TraceEvent::Instr {
                        block: BlockAddr(0x1000 + base_sel * 0x77),
                        n_blocks: blocks,
                        ipb: 7,
                    });
                }
                for d in 0..u64::from(data) {
                    events.push(TraceEvent::Data {
                        block: BlockAddr(0x50_000 + data_base * 64 + d),
                        write: d % 2 == 0,
                    });
                }
                events.push(TraceEvent::OpEnd { op: kind });
            }
            events.push(TraceEvent::XctEnd);
            XctTrace {
                xct_type: XctTypeId(ty),
                events,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// intern → flatten is the identity on the event sequence, through a
    /// pool shared by the whole batch.
    #[test]
    fn intern_flatten_roundtrips(traces in prop::collection::vec(arb_trace(), 0..12)) {
        let mut pool = SlicePool::new();
        let interned: Vec<InternedTrace> = traces
            .iter()
            .map(|t| InternedTrace::intern(t, &mut pool))
            .collect();
        for (it, t) in interned.iter().zip(&traces) {
            let back = it.flatten(&pool);
            prop_assert_eq!(back.xct_type, t.xct_type);
            prop_assert_eq!(&back.events, &t.events);
            prop_assert_eq!(it.instructions(), t.instructions());
            prop_assert_eq!(it.data_accesses(), t.data_accesses());
        }
    }

    /// The interned cursor yields the identical flat-event stream.
    #[test]
    fn interned_cursor_walks_flat_stream(traces in prop::collection::vec(arb_trace(), 1..8)) {
        let mut pool = SlicePool::new();
        let interned: Vec<InternedTrace> = traces
            .iter()
            .map(|t| InternedTrace::intern(t, &mut pool))
            .collect();
        let set = InternedSet { pool: &pool, xcts: &interned };
        for (i, t) in traces.iter().enumerate() {
            prop_assert_eq!(
                set.flat_events(i),
                t.flat_events().collect::<Vec<_>>(),
                "trace {} diverged", i
            );
        }
    }

    /// The delta-varint address encoding round-trips adversarial
    /// streams: arbitrary `u64` addresses (non-monotone, negative and
    /// >32-bit deltas, region-boundary values) with occasional immediate
    /// duplicates (a region's first touch re-touched, delta 0). Both
    /// decode paths — `flatten` and the cursor walk — must reproduce
    /// every address bit-identically.
    #[test]
    fn extreme_addresses_roundtrip(
        addrs in prop::collection::vec(
            (
                prop_oneof![
                    any::<u64>(),
                    Just(0u64),
                    Just(u64::MAX),
                    Just(i64::MAX as u64),
                    Just(i64::MAX as u64 + 1),
                    (0u32..64).prop_map(|s| 1u64 << s),
                    (0u32..64).prop_map(|s| (1u64 << s).wrapping_sub(1)),
                ],
                any::<bool>(),
            ),
            0..40,
        )
    ) {
        let mut events = vec![TraceEvent::XctBegin { xct_type: XctTypeId(0) }];
        events.push(TraceEvent::OpBegin { op: OpKind::Update });
        for (i, &(a, dup)) in addrs.iter().enumerate() {
            events.push(TraceEvent::Data { block: BlockAddr(a), write: i % 2 == 0 });
            if dup {
                events.push(TraceEvent::Data { block: BlockAddr(a), write: i % 2 != 0 });
            }
            // Split across op bodies so the stream also crosses slice
            // boundaries mid-decode.
            if i % 5 == 4 {
                events.push(TraceEvent::OpEnd { op: OpKind::Update });
                events.push(TraceEvent::OpBegin { op: OpKind::Update });
            }
        }
        events.push(TraceEvent::OpEnd { op: OpKind::Update });
        events.push(TraceEvent::XctEnd);
        let trace = XctTrace { xct_type: XctTypeId(0), events };

        let mut pool = SlicePool::new();
        let interned = InternedTrace::intern(&trace, &mut pool);
        prop_assert_eq!(&interned.flatten(&pool).events, &trace.events);
        let traces = [interned];
        let set = InternedSet { pool: &pool, xcts: &traces };
        prop_assert_eq!(set.flat_events(0), trace.flat_events().collect::<Vec<_>>());
    }

    /// Interning never grows the arena beyond the flat form, and repeats
    /// of one trace shape cost no pool events at all.
    #[test]
    fn pool_never_exceeds_flat(trace in arb_trace(), copies in 1usize..6) {
        let mut pool = SlicePool::new();
        let first = InternedTrace::intern(&trace, &mut pool);
        let after_first = pool.n_events();
        prop_assert!(after_first <= trace.events.len());
        for _ in 1..copies {
            let again = InternedTrace::intern(&trace, &mut pool);
            prop_assert_eq!(&again.slice_refs(), &first.slice_refs());
        }
        prop_assert_eq!(pool.n_events(), after_first, "duplicates grew the pool");
    }
}

/// Same control flow with different data addresses shares every slice —
/// the workload property the arena exploits (TPC traces repeat per-type
/// event shapes while data addresses vary per instance).
#[test]
fn data_addresses_do_not_break_sharing() {
    let shape = |data_base: u64| {
        // One op body shaped like a real probe/update: several routine
        // walks around a couple of data touches.
        let mut events = vec![
            TraceEvent::XctBegin {
                xct_type: XctTypeId(0),
            },
            TraceEvent::OpBegin { op: OpKind::Update },
        ];
        for w in 0..6u64 {
            events.push(TraceEvent::Instr {
                block: BlockAddr(0x1000 + w * 0x40),
                n_blocks: 12,
                ipb: 8,
            });
        }
        events.push(TraceEvent::Data {
            block: BlockAddr(data_base),
            write: false,
        });
        events.push(TraceEvent::Data {
            block: BlockAddr(data_base + 1),
            write: true,
        });
        events.push(TraceEvent::OpEnd { op: OpKind::Update });
        events.push(TraceEvent::XctEnd);
        XctTrace {
            xct_type: XctTypeId(0),
            events,
        }
    };
    let w = WorkloadTrace {
        name: "synthetic".into(),
        xct_type_names: vec!["u".into()],
        xcts: (0..64).map(|i| shape(0x90_000 + i * 128)).collect(),
    };
    let iw = InternedWorkload::from_flat(&w);
    let fp = iw.footprint();
    // 64 same-shape traces: the pool holds one copy of the three slices.
    assert_eq!(fp.dedup_ratio(), 64.0, "{fp:?}");
    assert!(
        fp.reduction() > 2.0,
        "same-shape traces must compress well beyond 2x: {fp:?}"
    );
    // And the round trip still yields each trace's own data addresses.
    let back = iw.flatten();
    for (a, b) in back.xcts.iter().zip(&w.xcts) {
        assert_eq!(a.events, b.events);
    }
}
