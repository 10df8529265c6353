//! The interned trace form against the flat recording format it is built
//! from: streamed interning equals interning after collection, Algorithm 1
//! over interned traces equals a flat reference scan, and the per-trace
//! metadata the schedulers consume agrees. Replay itself runs the
//! interned form only; `segment_equivalence.rs` pins its fast paths
//! against the per-block path and `addict-trace`'s
//! `tests/intern_roundtrip.rs` pins the interned cursor against the flat
//! event stream.

use std::collections::HashMap;
use std::mem::size_of;

use addict_core::algorithm1::{find_migration_points_interned, MigrationMap, Sequence};
use addict_core::replay::ReplayConfig;
use addict_sim::{BlockAddr, CacheGeometry, SetAssocCache};
use addict_trace::event::FlatEvent;
use addict_trace::{InternedWorkload, OpKind, TraceEvent, WorkloadTrace, XctTrace, XctTypeId};
use addict_workloads::{collect_traces_interned, Benchmark};
use proptest::prelude::*;

fn small_eval(bench: Benchmark, n: usize) -> (WorkloadTrace, WorkloadTrace) {
    let (mut engine, mut workload) = bench.setup_small();
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), n, 1).flatten();
    let eval = collect_traces_interned(&mut engine, workload.as_mut(), n, 2).flatten();
    (profile, eval)
}

fn interned(traces: &[XctTrace]) -> InternedWorkload {
    InternedWorkload::from_flat(&WorkloadTrace {
        name: String::new(),
        xct_type_names: Vec::new(),
        xcts: traces.to_vec(),
    })
}

/// Algorithm 1 scanned one flat trace at a time, block by block, with one
/// L1-I per trace: the reference for the library's scan over unique
/// interned slices.
mod flat {
    use super::*;

    /// Lines 1–16 over one trace: each operation instance's eviction
    /// sequence and instruction count, plus the instructions outside any
    /// operation.
    pub fn scan_trace(trace: &XctTrace, l1i: CacheGeometry) -> (Vec<(OpKind, Sequence, u64)>, u64) {
        let mut cache = SetAssocCache::new(l1i);
        let mut out = Vec::new();
        let mut wrapper = 0u64;
        let mut current: Option<(OpKind, Sequence, u64)> = None;
        for event in trace.flat_events() {
            match event {
                FlatEvent::XctBegin(_) | FlatEvent::XctEnd => cache.flush(),
                FlatEvent::OpBegin(op) => {
                    cache.flush();
                    current = Some((op, Vec::new(), 0));
                }
                FlatEvent::OpEnd(_) => {
                    cache.flush();
                    out.push(current.take().expect("OpEnd without OpBegin"));
                }
                FlatEvent::Instr { block, n_instr } => {
                    match current.as_mut() {
                        Some((_, _, instr)) => *instr += u64::from(n_instr),
                        None => wrapper += u64::from(n_instr),
                    }
                    if cache.access(block).evicted.is_some() {
                        cache.flush();
                        cache.access(block);
                        if let Some((_, seq, _)) = current.as_mut() {
                            seq.push(block);
                        }
                    }
                }
                FlatEvent::Data { .. } => {}
            }
        }
        (out, wrapper)
    }

    /// The tallies of [`MigrationMap`], built trace by trace.
    #[derive(Default)]
    pub struct Map {
        pub chosen: HashMap<(XctTypeId, OpKind), Sequence>,
        pub counts: HashMap<(XctTypeId, OpKind), HashMap<Sequence, u64>>,
        pub op_frequency: HashMap<(XctTypeId, OpKind), u64>,
        pub type_frequency: HashMap<XctTypeId, u64>,
        pub op_instructions: HashMap<(XctTypeId, OpKind), u64>,
        pub wrapper_instructions: HashMap<XctTypeId, u64>,
    }

    pub fn find_migration_points(traces: &[XctTrace], l1i: CacheGeometry) -> Map {
        let mut map = Map::default();
        for trace in traces {
            let xct = trace.xct_type;
            *map.type_frequency.entry(xct).or_insert(0) += 1;
            let (instances, wrapper) = scan_trace(trace, l1i);
            *map.wrapper_instructions.entry(xct).or_insert(0) += wrapper;
            for (op, seq, instr) in instances {
                *map.op_frequency.entry((xct, op)).or_insert(0) += 1;
                *map.op_instructions.entry((xct, op)).or_insert(0) += instr;
                *map.counts
                    .entry((xct, op))
                    .or_default()
                    .entry(seq)
                    .or_insert(0) += 1;
            }
        }
        for (key, seqs) in &map.counts {
            let best = seqs
                .iter()
                .max_by(|(sa, ca), (sb, cb)| ca.cmp(cb).then_with(|| sb.cmp(sa)))
                .map(|(s, _)| s.clone())
                .expect("non-empty candidate set");
            map.chosen.insert(*key, best);
        }
        map
    }

    impl Map {
        pub fn stability(
            &self,
            traces: &[XctTrace],
            l1i: CacheGeometry,
            xct: XctTypeId,
            op: OpKind,
        ) -> Option<f64> {
            let chosen = self.chosen.get(&(xct, op))?;
            let mut matched = 0u64;
            let mut total = 0u64;
            for trace in traces.iter().filter(|t| t.xct_type == xct) {
                for (kind, seq, _) in scan_trace(trace, l1i).0 {
                    if kind == op {
                        total += 1;
                        matched += u64::from(&seq == chosen);
                    }
                }
            }
            (total > 0).then(|| matched as f64 / total as f64)
        }

        /// [`MigrationMap::resident_bytes`]'s formula over these tables.
        pub fn resident_bytes(&self) -> usize {
            fn table<K, V>(m: &HashMap<K, V>) -> usize {
                m.capacity() * (size_of::<(K, V)>() + 1)
            }
            let seq = |s: &Sequence| s.capacity() * size_of::<BlockAddr>();
            let counts: usize = self
                .counts
                .values()
                .map(|c| table(c) + c.keys().map(seq).sum::<usize>())
                .sum();
            size_of::<MigrationMap>()
                + table(&self.chosen)
                + self.chosen.values().map(seq).sum::<usize>()
                + table(&self.counts)
                + counts
                + table(&self.op_frequency)
                + table(&self.type_frequency)
                + table(&self.op_instructions)
                + table(&self.wrapper_instructions)
        }
    }
}

const OPS: [OpKind; 5] = [
    OpKind::Probe,
    OpKind::Scan,
    OpKind::Update,
    OpKind::Insert,
    OpKind::Delete,
];

/// Algorithm 1 over `profile` interned agrees with the flat reference on
/// every [`MigrationMap`] accessor, and on stability over `eval`. The map
/// is no larger than the flat one.
fn assert_matches_flat(profile: &[XctTrace], eval: &[XctTrace], l1i: CacheGeometry, what: &str) {
    let want = flat::find_migration_points(profile, l1i);
    let map = find_migration_points_interned(interned(profile).as_set(), l1i);
    let eval_set = interned(eval);
    let ops_of = |ty| {
        let mut ops: Vec<OpKind> = want
            .chosen
            .keys()
            .filter(|k| k.0 == ty)
            .map(|k| k.1)
            .collect();
        ops.sort_unstable();
        ops
    };
    let mut types: Vec<XctTypeId> = want.type_frequency.keys().copied().collect();
    types.sort_unstable();
    let profiled: Vec<XctTypeId> = types
        .iter()
        .copied()
        .filter(|&ty| !ops_of(ty).is_empty())
        .collect();
    assert_eq!(map.xct_types(), profiled, "{what}: xct_types");
    // One id past the last seen type was never profiled.
    types.push(XctTypeId(types.last().map_or(0, |t| t.0 + 1)));
    for ty in types {
        let got = (
            map.type_frequency(ty),
            map.wrapper_instructions(ty),
            map.ops_of(ty),
        );
        let at = |m: &HashMap<XctTypeId, u64>| m.get(&ty).copied().unwrap_or(0);
        let expected = (
            at(&want.type_frequency),
            at(&want.wrapper_instructions),
            ops_of(ty),
        );
        assert_eq!(
            got, expected,
            "{what}: type_frequency, wrapper_instructions, ops_of {ty:?}"
        );
        for op in OPS {
            let key = (ty, op);
            let at = |m: &HashMap<(XctTypeId, OpKind), u64>| m.get(&key).copied().unwrap_or(0);
            let got = (
                map.points(ty, op),
                map.candidates(ty, op),
                map.frequency(ty, op),
                map.op_instructions(ty, op),
                map.stability(eval_set.as_set(), l1i, ty, op),
            );
            let expected = (
                want.chosen.get(&key),
                want.counts.get(&key),
                at(&want.op_frequency),
                at(&want.op_instructions),
                want.stability(eval, l1i, ty, op),
            );
            assert_eq!(got, expected, "{what}: {key:?}");
        }
    }
    assert!(
        map.resident_bytes() <= want.resident_bytes(),
        "{what}: resident_bytes rose from {} to {}",
        want.resident_bytes(),
        map.resident_bytes()
    );
}

/// Interning while recording (the recorder cuts and interns each slice
/// as it closes, so the flat set never exists) produces the identical
/// interned form — same traces, same order, same pool layout — as
/// interning the flattened traces afterwards.
#[test]
fn collect_interned_matches_collect_then_intern() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let recorded = collect_traces_interned(&mut engine, workload.as_mut(), 24, 7);
    let pool = &recorded.pool;

    let (mut engine2, mut workload2) = Benchmark::TpcC.setup_small();
    let flat = collect_traces_interned(&mut engine2, workload2.as_mut(), 24, 7).flatten();
    let batch = InternedWorkload::from_flat(&flat);

    assert_eq!(recorded.xcts.len(), batch.xcts.len());
    for (a, b) in recorded.xcts.iter().zip(&batch.xcts) {
        assert_eq!(a, b, "recorder interning diverged from batch interning");
    }
    assert_eq!(pool.n_events(), batch.pool.n_events());
    assert_eq!(pool.unique_slices(), batch.pool.unique_slices());
    assert_eq!(pool.slices_interned(), batch.pool.slices_interned());
}

/// Algorithm 1 over interned profiling traces matches the flat reference
/// on every benchmark: the same migration points, candidates,
/// frequencies, instruction tallies and stability.
#[test]
fn interned_profiling_finds_identical_migration_points() {
    let l1i = ReplayConfig::paper_default().sim.l1i;
    for bench in Benchmark::ALL {
        let (profile, eval) = small_eval(bench, 48);
        assert_matches_flat(&profile.xcts, &eval.xcts, l1i, bench.name());
    }
}

/// Random well-formed traces: paired, non-nested operations whose bodies
/// (instruction runs and data accesses) come from a small palette, so
/// slices repeat and their scans are reused, with instructions between
/// operations.
fn arb_profile() -> impl Strategy<Value = Vec<XctTrace>> {
    let instr =
        (0u64..96, 1u16..24, 1u16..12).prop_map(|(block, n_blocks, ipb)| TraceEvent::Instr {
            block: BlockAddr(0x1000 + block),
            n_blocks,
            ipb,
        });
    let data = (0u64..64, any::<bool>()).prop_map(|(block, write)| TraceEvent::Data {
        block: BlockAddr(block),
        write,
    });
    let body = prop::collection::vec(prop_oneof![3 => instr, 1 => data], 0..5);
    // Per operation: its kind, its body and the wrapper blocks before it.
    let calls = prop::collection::vec((0..OPS.len(), 0usize..4, 0u16..10), 0..6);
    let traces = prop::collection::vec((0u16..3, calls, 0u16..10), 1..12);
    (prop::collection::vec(body, 1..5), traces).prop_map(|(palette, traces)| {
        let wrapper = |n_blocks| {
            (n_blocks > 0).then_some(TraceEvent::Instr {
                block: BlockAddr(0x800),
                n_blocks,
                ipb: 3,
            })
        };
        traces
            .into_iter()
            .map(|(ty, calls, tail)| {
                let xct_type = XctTypeId(ty);
                let mut events = vec![TraceEvent::XctBegin { xct_type }];
                for (op, body, before) in calls {
                    events.extend(wrapper(before));
                    events.push(TraceEvent::OpBegin { op: OPS[op] });
                    events.extend_from_slice(&palette[body % palette.len()]);
                    events.push(TraceEvent::OpEnd { op: OPS[op] });
                }
                events.extend(wrapper(tail));
                events.push(TraceEvent::XctEnd);
                XctTrace { xct_type, events }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The interned scan agrees with the flat reference on random traces,
    /// with an L1-I of 16 blocks so that evictions happen.
    #[test]
    fn interned_profiling_matches_flat_on_random_traces(
        profile in arb_profile(),
        eval in arb_profile(),
    ) {
        assert_matches_flat(&profile, &eval, CacheGeometry::new(16 * 64, 2), "random");
    }
}

/// The trace metadata the schedulers consume (type ids for batching,
/// instruction counts for STREX's load balancer) agrees across layouts.
#[test]
fn interned_metadata_matches_flat() {
    let (_, eval) = small_eval(Benchmark::TpcE, 24);
    let interned = InternedWorkload::from_flat(&eval);
    let iset = interned.as_set();
    assert_eq!(iset.len(), eval.xcts.len());
    for i in 0..eval.xcts.len() {
        assert_eq!(iset.xct_type(i), eval.xcts[i].xct_type);
        assert_eq!(iset.instructions_of(i), eval.xcts[i].instructions());
    }
}
