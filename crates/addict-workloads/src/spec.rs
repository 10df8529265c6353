//! Declarative workload specifications: benchmarks as data.
//!
//! The paper's whole argument rests on workload *shape* — how much
//! instruction stream transactions share and how little data they share
//! (Sections 2.2, 4.1). A handwritten module can only ask that question
//! of one mix; this module turns a benchmark into a value:
//!
//! * [`WorkloadSpec`] — tables (row counts, row shapes, key layout) plus
//!   transaction types (typed step sequences over those tables) plus a
//!   cumulative mix table;
//! * [`SpecRunner`] — an interpreter that populates a fresh
//!   [`Engine`](addict_storage::Engine) from the spec and executes the mix
//!   through the exact same five traced operations the handwritten
//!   benchmarks use. Runs are deterministic in the seed, so every
//!   downstream guarantee (parallel generation, interned replay,
//!   thread-count-independent sweeps) holds for spec-driven workloads
//!   for free.
//!
//! The interpreter is *faithful*: [`tpcb_spec`] is the only TPC-B. It
//! replaced a handwritten generator after reproducing its traces
//! **bit-for-bit** — same population order (page/B+-tree layout), same
//! per-transaction RNG draws, same engine-call sequence. The golden trace
//! digests in `addict-bench/tests/golden_digests.rs`, taken from that
//! generator, keep it so at small, odd and default scale.
//!
//! Besides TPC-B, two spec-only mixes ship as registry entries
//! ([`Benchmark`](crate::Benchmark)):
//!
//! * [`tatp_spec`] — the TATP telecom mix: seven transaction types,
//!   ~80% read, transactions far *shorter* than TPC-C's (1–3 operations).
//!   Short transactions are where ADDICT's instruction-chasing margin
//!   thins: the per-transaction wrapper (begin/commit, logging, lock
//!   release) is a large fraction of the instruction stream, and batches
//!   cross migration points sooner.
//! * [`ycsb_spec`] — YCSB-A/B-style key-value loops: one table, one
//!   operation per transaction, Zipfian-skewed keys. The degenerate
//!   instruction footprint (every transaction walks the same probe or
//!   probe+update path) gives *total* instruction overlap — the opposite
//!   extreme from TPC-E's ten-type mix — while the Zipfian hot set breaks
//!   the paper's ≤6% data-overlap property.

use addict_storage::{Engine, EngineConfig, IndexId, StorageResult, TableId, XctId};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::{encode_row, get_field_i64, set_field_i64};
use crate::{pick_mix, WorkloadRunner};

/// How a key rank is drawn from a key space of `n` ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// `rng.gen_range(0..n)` — every rank equally likely.
    Uniform,
    /// Zipfian-skewed ranks (Gray et al.'s quick generator): rank 0 is
    /// the hottest. `theta` is the skew (YCSB's default is 0.99).
    Zipfian {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
}

/// Initial value of one row field at population time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldInit {
    /// The row's key.
    Key,
    /// A constant.
    Const(u64),
}

/// One table: row count (via the population group structure), row shape,
/// and key layout.
///
/// Population inserts `per_group` rows per group `g` (the spec's
/// [`WorkloadSpec::groups`] outer dimension), at keys
/// `g * stride + i * step` for `i in 0..per_group`. Dense single-parent
/// tables use `stride == per_group, step == 1`; child tables partitioned
/// under a parent key space leave gaps (TATP's call-forwarding rows live
/// at `(subscriber*4 + facility) * 8 + slot`). The group-major insert
/// order is part of the contract: it fixes the global page-allocation and
/// B+-tree layout, which is what lets a spec reproduce a handwritten
/// benchmark bit-for-bit.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (also names the primary index, as `{name}_pk`).
    pub name: &'static str,
    /// Row width in bytes.
    pub row_bytes: usize,
    /// Whether the table has a primary index. Index-less tables (TPC-B's
    /// History) take the heap-only insert path the paper analyzes in
    /// Section 2.2.1.
    pub indexed: bool,
    /// Rows inserted per population group.
    pub per_group: u64,
    /// Key stride between groups.
    pub stride: u64,
    /// Key step between the rows of one group.
    pub step: u64,
    /// Leading row fields at population (the rest is deterministic
    /// filler, as in [`encode_row`]).
    pub init: Vec<FieldInit>,
}

impl TableSpec {
    /// Total populated rows.
    pub fn rows(&self, groups: u64) -> u64 {
        groups * self.per_group
    }

    /// Key of populated rank `r` (rank = group-major insert order).
    pub fn key_of_rank(&self, r: u64) -> u64 {
        if self.per_group <= 1 {
            r * self.stride
        } else {
            (r / self.per_group) * self.stride + (r % self.per_group) * self.step
        }
    }
}

/// One per-transaction value, drawn (or derived) before any step runs.
///
/// Draw order is the declaration order — the RNG contract that makes a
/// spec transaction reproduce a handwritten one exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarSpec {
    /// A populated key of `table`: a rank drawn under `dist`, mapped
    /// through the table's key layout.
    Key {
        /// Table index in [`WorkloadSpec::tables`].
        table: usize,
        /// Rank distribution.
        dist: KeyDist,
    },
    /// A key derived from an earlier var (a partition parent):
    /// `vars[parent] * stride + draw(0..per) * step`. TPC-B's teller
    /// (`branch * tellers_per_branch + offset`) and TATP's per-subscriber
    /// facilities are this shape.
    ChildKey {
        /// Var index of the parent key.
        parent: usize,
        /// Offsets per parent.
        per: u64,
        /// Multiplier applied to the parent key.
        stride: u64,
        /// Multiplier applied to the drawn offset.
        step: u64,
        /// Offset distribution.
        dist: KeyDist,
    },
    /// A signed delta: `rng.gen_range(lo..=hi)`, stored bit-cast
    /// (`as u64`) so inserts can embed it exactly like the handwritten
    /// benchmarks do.
    DeltaI64 {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `vars[of] * mul + add` — consumes no randomness (scan starts,
    /// key-space projections).
    Derived {
        /// Var index this is derived from.
        of: usize,
        /// Multiplier.
        mul: u64,
        /// Addend.
        add: u64,
    },
}

/// One row field of an insert step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldRef {
    /// A per-transaction var (index into [`XctSpec::vars`]).
    Var(usize),
    /// A constant.
    Const(u64),
}

/// One typed step of a transaction, interpreted against the engine's five
/// traced operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StepSpec {
    /// `index probe`: point-read the row at key `vars[key]`.
    ProbeByKey {
        /// Table index.
        table: usize,
        /// Var index of the key.
        key: usize,
    },
    /// `index scan`: read keys `[vars[start], vars[start] + span - 1]`.
    RangeScan {
        /// Table index.
        table: usize,
        /// Var index of the first key.
        start: usize,
        /// Inclusive key span.
        span: u64,
    },
    /// Probe the row by key, add `vars[delta]` (as i64) to `field`, write
    /// it back — the probe/update pair every TPC transaction is built
    /// from. A missing key skips the update (never panics).
    UpdateRow {
        /// Table index.
        table: usize,
        /// Var index of the key.
        key: usize,
        /// Var index of the signed delta.
        delta: usize,
        /// Row field to adjust.
        field: usize,
    },
    /// `insert tuple` + `create index entry`: insert `row` at key
    /// `vars[key]`. An already-present key skips the step (checked
    /// untraced), so churn mixes run forever without key bookkeeping.
    InsertIndexed {
        /// Table index (must be indexed).
        table: usize,
        /// Var index of the key.
        key: usize,
        /// Leading row fields.
        row: Vec<FieldRef>,
    },
    /// `insert tuple` into an index-less table (TPC-B History: the
    /// `allocate page` variety, no `create index entry`).
    InsertHeap {
        /// Table index (must be index-less).
        table: usize,
        /// Leading row fields.
        row: Vec<FieldRef>,
    },
    /// `delete tuple` at key `vars[key]`; a missing key skips the step
    /// (checked untraced).
    DeleteRow {
        /// Table index.
        table: usize,
        /// Var index of the key.
        key: usize,
    },
}

/// One transaction type: vars drawn in order, then steps run in order.
#[derive(Debug, Clone)]
pub struct XctSpec {
    /// Type name (the [`WorkloadRunner::xct_type_names`] entry).
    pub name: &'static str,
    /// Per-transaction values, drawn before the transaction begins.
    pub vars: Vec<VarSpec>,
    /// The step sequence.
    pub steps: Vec<StepSpec>,
}

/// A complete declarative workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Population groups (the outer population dimension: branches,
    /// subscribers, rows).
    pub groups: u64,
    /// The tables, populated group-major in declaration order.
    pub tables: Vec<TableSpec>,
    /// Transaction types, indexed by [`XctTypeId`].
    pub xcts: Vec<XctSpec>,
    /// Cumulative mix percentages over `xcts`. A single-type spec skips
    /// the mix draw entirely, so the per-transaction RNG stream starts at
    /// the first var (TPC-B's golden trace digests depend on this).
    pub mix: Vec<(u32, XctTypeId)>,
}

impl WorkloadSpec {
    /// Validate internal references (table/var indexes, mix coverage).
    /// Called by [`SpecRunner::setup`]; panics on a malformed spec — a
    /// spec is code-shaped data, and a bad index is a bug, not input.
    fn validate(&self) {
        assert!(!self.tables.is_empty(), "{}: no tables", self.name);
        assert!(!self.xcts.is_empty(), "{}: no transaction types", self.name);
        assert_eq!(
            self.mix.len(),
            self.xcts.len(),
            "{}: mix rows != transaction types",
            self.name
        );
        assert_eq!(
            self.mix.last().map(|&(c, _)| c),
            Some(100),
            "{}: cumulative mix must end at 100",
            self.name
        );
        for x in &self.xcts {
            for (vi, v) in x.vars.iter().enumerate() {
                match *v {
                    VarSpec::Key { table, .. } => {
                        assert!(
                            table < self.tables.len(),
                            "{}/{}: bad table",
                            self.name,
                            x.name
                        );
                        assert!(
                            self.tables[table].rows(self.groups) > 0,
                            "{}/{}: key var over empty table {}",
                            self.name,
                            x.name,
                            self.tables[table].name
                        );
                    }
                    VarSpec::ChildKey { parent, per, .. } => {
                        assert!(
                            parent < vi,
                            "{}/{}: child var before parent",
                            self.name,
                            x.name
                        );
                        assert!(per > 0, "{}/{}: empty child range", self.name, x.name);
                    }
                    VarSpec::DeltaI64 { lo, hi } => {
                        assert!(lo <= hi, "{}/{}: empty delta range", self.name, x.name);
                    }
                    VarSpec::Derived { of, .. } => {
                        assert!(
                            of < vi,
                            "{}/{}: derived var before source",
                            self.name,
                            x.name
                        );
                    }
                }
            }
            for s in &x.steps {
                let tbl = |t: usize| -> &TableSpec {
                    assert!(
                        t < self.tables.len(),
                        "{}/{}: bad step table",
                        self.name,
                        x.name
                    );
                    &self.tables[t]
                };
                let var = |v: usize| {
                    assert!(v < x.vars.len(), "{}/{}: bad step var", self.name, x.name);
                };
                match *s {
                    StepSpec::ProbeByKey { table, key } => {
                        tbl(table);
                        var(key);
                    }
                    StepSpec::RangeScan { table, start, span } => {
                        tbl(table);
                        var(start);
                        assert!(span > 0, "{}/{}: zero-span range scan", self.name, x.name);
                    }
                    StepSpec::UpdateRow {
                        table, key, delta, ..
                    } => {
                        tbl(table);
                        var(key);
                        var(delta);
                    }
                    StepSpec::InsertIndexed {
                        table,
                        key,
                        ref row,
                    } => {
                        assert!(
                            tbl(table).indexed,
                            "{}/{}: InsertIndexed into index-less table",
                            self.name,
                            x.name
                        );
                        var(key);
                        self.validate_row(x, table, row);
                    }
                    StepSpec::InsertHeap { table, ref row } => {
                        assert!(
                            !tbl(table).indexed,
                            "{}/{}: InsertHeap into indexed table",
                            self.name,
                            x.name
                        );
                        self.validate_row(x, table, row);
                    }
                    StepSpec::DeleteRow { table, key } => {
                        tbl(table);
                        var(key);
                    }
                }
            }
        }
    }

    fn validate_row(&self, x: &XctSpec, table: usize, row: &[FieldRef]) {
        assert!(
            row.len() * 8 <= self.tables[table].row_bytes,
            "{}/{}: row fields exceed width of {}",
            self.name,
            x.name,
            self.tables[table].name
        );
        for f in row {
            if let FieldRef::Var(v) = f {
                assert!(*v < x.vars.len(), "{}/{}: bad row var", self.name, x.name);
            }
        }
    }
}

/// Precomputed Zipfian sampler state (Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases"): one `f64` draw per sample,
/// deterministic in the RNG stream.
#[derive(Debug, Clone)]
struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipfian over empty key space");
        assert!(
            (0.0..1.0).contains(&theta),
            "zipfian theta must be in [0, 1)"
        );
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One rank sampler, resolved from a [`KeyDist`] at setup.
#[derive(Debug, Clone)]
enum Sampler {
    Uniform(u64),
    Zipf(Zipf),
}

impl Sampler {
    fn new(n: u64, dist: KeyDist) -> Sampler {
        match dist {
            KeyDist::Uniform => Sampler::Uniform(n),
            KeyDist::Zipfian { theta } => Sampler::Zipf(Zipf::new(n, theta)),
        }
    }

    /// A rank in `0..n`. The uniform arm is a bare `gen_range(0..n)` —
    /// the identical RNG call the handwritten benchmarks make.
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            Sampler::Uniform(n) => rng.gen_range(0..*n),
            Sampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// Table handles of one populated spec table.
#[derive(Debug, Clone, Copy)]
struct TableHandles {
    table: TableId,
    pk: Option<IndexId>,
}

/// The spec interpreter: populates an engine from a [`WorkloadSpec`] and
/// runs its mix as a [`WorkloadRunner`]. Deterministic in the seed.
#[derive(Debug)]
pub struct SpecRunner {
    spec: WorkloadSpec,
    handles: Vec<TableHandles>,
    /// Per-(xct, var) samplers (None for vars that consume no draw or use
    /// `gen_range` directly).
    samplers: Vec<Vec<Option<Sampler>>>,
}

impl SpecRunner {
    /// Create tables and indexes in declaration order, populate
    /// group-major (untraced), and return the engine with tracing on —
    /// the same contract as the handwritten `setup` functions.
    pub fn setup(spec: WorkloadSpec) -> (Engine, SpecRunner) {
        spec.validate();
        let mut e = Engine::new(EngineConfig::default());
        let handles: Vec<TableHandles> = spec
            .tables
            .iter()
            .map(|t| {
                let table = e.create_table(t.name);
                let pk = t.indexed.then(|| {
                    e.create_index(table, &format!("{}_pk", t.name))
                        .expect("table just created")
                });
                TableHandles { table, pk }
            })
            .collect();

        let samplers = spec
            .xcts
            .iter()
            .map(|x| {
                x.vars
                    .iter()
                    .map(|v| match *v {
                        VarSpec::Key { table, dist } => {
                            Some(Sampler::new(spec.tables[table].rows(spec.groups), dist))
                        }
                        VarSpec::ChildKey { per, dist, .. } => Some(Sampler::new(per, dist)),
                        VarSpec::DeltaI64 { .. } | VarSpec::Derived { .. } => None,
                    })
                    .collect()
            })
            .collect();

        let runner = SpecRunner {
            spec,
            handles,
            samplers,
        };
        runner.populate(&mut e);
        (e, runner)
    }

    /// The populated spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn populate(&self, e: &mut Engine) {
        e.set_tracing(false);
        let x = e.begin(XctTypeId(0));
        for g in 0..self.spec.groups {
            for (t, h) in self.spec.tables.iter().zip(&self.handles) {
                for i in 0..t.per_group {
                    let key = g * t.stride + i * t.step;
                    let fields: Vec<u64> = t
                        .init
                        .iter()
                        .map(|f| match f {
                            FieldInit::Key => key,
                            FieldInit::Const(c) => *c,
                        })
                        .collect();
                    let index_keys: Vec<(IndexId, u64)> =
                        h.pk.map(|pk| vec![(pk, key)]).unwrap_or_default();
                    e.insert_tuple(x, h.table, &index_keys, &encode_row(t.row_bytes, &fields))
                        .unwrap_or_else(|err| {
                            panic!("{}: populate {} key {key}: {err}", self.spec.name, t.name)
                        });
                }
            }
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
    }

    fn draw_vars(&self, rng: &mut StdRng, ty: usize) -> Vec<u64> {
        let x = &self.spec.xcts[ty];
        let mut vars: Vec<u64> = Vec::with_capacity(x.vars.len());
        for (vi, v) in x.vars.iter().enumerate() {
            let val = match *v {
                VarSpec::Key { table, .. } => {
                    let rank = self.samplers[ty][vi]
                        .as_ref()
                        .expect("key var has a sampler")
                        .sample(rng);
                    self.spec.tables[table].key_of_rank(rank)
                }
                VarSpec::ChildKey {
                    parent,
                    stride,
                    step,
                    ..
                } => {
                    let off = self.samplers[ty][vi]
                        .as_ref()
                        .expect("child var has a sampler")
                        .sample(rng);
                    vars[parent] * stride + off * step
                }
                VarSpec::DeltaI64 { lo, hi } => rng.gen_range(lo..=hi) as u64,
                VarSpec::Derived { of, mul, add } => vars[of] * mul + add,
            };
            vars.push(val);
        }
        vars
    }

    fn pk(&self, table: usize) -> IndexId {
        self.handles[table]
            .pk
            .unwrap_or_else(|| panic!("{}: keyed step on index-less table", self.spec.name))
    }

    fn encode(&self, table: usize, row: &[FieldRef], vars: &[u64]) -> Vec<u8> {
        let fields: Vec<u64> = row
            .iter()
            .map(|f| match f {
                FieldRef::Var(v) => vars[*v],
                FieldRef::Const(c) => *c,
            })
            .collect();
        encode_row(self.spec.tables[table].row_bytes, &fields)
    }

    fn run_step(
        &self,
        e: &mut Engine,
        x: XctId,
        step: &StepSpec,
        vars: &[u64],
    ) -> StorageResult<()> {
        match *step {
            StepSpec::ProbeByKey { table, key } => {
                e.index_probe(x, self.pk(table), vars[key])?;
            }
            StepSpec::RangeScan { table, start, span } => {
                let lo = vars[start];
                e.index_scan(x, self.pk(table), lo, true, lo + span - 1, true)?;
            }
            StepSpec::UpdateRow {
                table,
                key,
                delta,
                field,
            } => {
                let Some(rid) = e.index_probe_rid(x, self.pk(table), vars[key])? else {
                    return Ok(());
                };
                let t = self.handles[table].table;
                let mut row = e.peek(t, rid)?;
                let value = get_field_i64(&row, field) + vars[delta] as i64;
                set_field_i64(&mut row, field, value);
                e.update_tuple(x, t, rid, &row)?;
            }
            StepSpec::InsertIndexed {
                table,
                key,
                ref row,
            } => {
                let pk = self.pk(table);
                // Untraced existence check: a keyed insert colliding with a
                // live row is a no-op, keeping churn mixes (TATP's
                // insert/delete call-forwarding pair) runnable forever.
                if e.peek_index(pk, vars[key])?.is_some() {
                    return Ok(());
                }
                let bytes = self.encode(table, row, vars);
                e.insert_tuple(x, self.handles[table].table, &[(pk, vars[key])], &bytes)?;
            }
            StepSpec::InsertHeap { table, ref row } => {
                let bytes = self.encode(table, row, vars);
                e.insert_tuple(x, self.handles[table].table, &[], &bytes)?;
            }
            StepSpec::DeleteRow { table, key } => {
                let pk = self.pk(table);
                if e.peek_index(pk, vars[key])?.is_none() {
                    return Ok(());
                }
                e.delete_tuple(x, self.handles[table].table, &[(pk, vars[key])])?;
            }
        }
        Ok(())
    }

    /// Execute one transaction of type `ty` (vars drawn before `begin`,
    /// exactly like the handwritten transaction functions).
    fn run_xct(&self, e: &mut Engine, rng: &mut StdRng, ty: XctTypeId) -> StorageResult<()> {
        let vars = self.draw_vars(rng, ty.0 as usize);
        let x = e.begin(ty);
        for step in &self.spec.xcts[ty.0 as usize].steps {
            self.run_step(e, x, step, &vars)?;
        }
        e.commit(x)
    }
}

impl WorkloadRunner for SpecRunner {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn xct_type_names(&self) -> Vec<String> {
        self.spec.xcts.iter().map(|x| x.name.to_owned()).collect()
    }

    fn run_one(&mut self, engine: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        // A single-type spec skips the mix draw: TPC-B's RNG stream (and
        // so its golden trace digests) never spends randomness on its
        // trivial mix.
        let ty = if self.spec.xcts.len() == 1 {
            XctTypeId(0)
        } else {
            pick_mix(rng, &self.spec.mix)
        };
        self.run_xct(engine, rng, ty)?;
        Ok(ty)
    }
}

// ----------------------------------------------------------------------
// Built-in specs
// ----------------------------------------------------------------------

/// The `AccountUpdate` transaction type id — TPC-B's only type.
pub const ACCOUNT_UPDATE: XctTypeId = XctTypeId(0);

/// TPC-B: Branch, Teller (`tellers_per_branch` per branch), Account
/// (`accounts_per_branch` per branch) and the index-less History table.
/// `AccountUpdate` adjusts an account, its teller and its branch balance,
/// then appends a History row — the flow Section 2.2.1 of the paper
/// analyzes (History's lack of an index is what makes TPC-B's insert
/// footprint deviate only on the rare `allocate page` path).
pub fn tpcb_spec(branches: u64, tellers_per_branch: u64, accounts_per_branch: u64) -> WorkloadSpec {
    use FieldInit::{Const, Key};
    let dense = |name, per_group, init: Vec<FieldInit>| TableSpec {
        name,
        row_bytes: 100,
        indexed: true,
        per_group,
        stride: per_group,
        step: 1,
        init,
    };
    WorkloadSpec {
        name: "TPC-B",
        groups: branches,
        tables: vec![
            dense("branch", 1, vec![Key, Const(0)]),
            dense("teller", tellers_per_branch, vec![Key, Const(0)]),
            dense("account", accounts_per_branch, vec![Key, Const(1_000)]),
            TableSpec {
                name: "history",
                row_bytes: 50,
                indexed: false,
                per_group: 0,
                stride: 0,
                step: 0,
                init: vec![],
            },
        ],
        xcts: vec![XctSpec {
            name: "AccountUpdate",
            // Draw order: branch, teller offset, account offset, delta.
            vars: vec![
                VarSpec::Key {
                    table: 0,
                    dist: KeyDist::Uniform,
                },
                VarSpec::ChildKey {
                    parent: 0,
                    per: tellers_per_branch,
                    stride: tellers_per_branch,
                    step: 1,
                    dist: KeyDist::Uniform,
                },
                VarSpec::ChildKey {
                    parent: 0,
                    per: accounts_per_branch,
                    stride: accounts_per_branch,
                    step: 1,
                    dist: KeyDist::Uniform,
                },
                VarSpec::DeltaI64 {
                    lo: -99_999,
                    hi: 99_999,
                },
            ],
            steps: vec![
                StepSpec::UpdateRow {
                    table: 2,
                    key: 2,
                    delta: 3,
                    field: 1,
                },
                StepSpec::UpdateRow {
                    table: 1,
                    key: 1,
                    delta: 3,
                    field: 1,
                },
                StepSpec::UpdateRow {
                    table: 0,
                    key: 0,
                    delta: 3,
                    field: 1,
                },
                StepSpec::InsertHeap {
                    table: 3,
                    row: vec![
                        FieldRef::Var(2),
                        FieldRef::Var(1),
                        FieldRef::Var(0),
                        FieldRef::Var(3),
                    ],
                },
            ],
        }],
        mix: vec![(100, ACCOUNT_UPDATE)],
    }
}

/// TATP: the telecom benchmark — seven short transaction types over four
/// tables, ~80% read (35% GetSubscriberData + 10% GetNewDestination +
/// 35% GetAccessData).
///
/// Per subscriber: 4 access-info rows (`sub*4 + type`), 4
/// special-facility rows (same key shape), and one call-forwarding row at
/// slot 0 of each facility (`facility_key * 8 + slot`, slots 0–3).
/// InsertCallForwarding and DeleteCallForwarding churn the remaining
/// slots against each other at 2% of the mix apiece.
///
/// The paper-relevant property: transactions are 1–3 operations long
/// (vs TPC-C's 10–50), so the begin/commit/log/lock wrapper dominates the
/// instruction stream — the short-transaction regime where
/// instruction-chasing margins thin.
pub fn tatp_spec(subscribers: u64) -> WorkloadSpec {
    use FieldInit::{Const, Key};
    use KeyDist::Uniform;
    let sub_key = VarSpec::Key {
        table: 0,
        dist: Uniform,
    };
    // facility key = subscriber * 4 + type, types 0..4.
    let facility_of = |parent| VarSpec::ChildKey {
        parent,
        per: 4,
        stride: 4,
        step: 1,
        dist: Uniform,
    };
    // call-forwarding key = facility key * 8 + slot, slots 0..4.
    let slot_of = |parent| VarSpec::ChildKey {
        parent,
        per: 4,
        stride: 8,
        step: 1,
        dist: Uniform,
    };
    WorkloadSpec {
        name: "TATP",
        groups: subscribers,
        tables: vec![
            TableSpec {
                name: "subscriber",
                row_bytes: 100,
                indexed: true,
                per_group: 1,
                stride: 1,
                step: 1,
                init: vec![Key, Const(0)],
            },
            TableSpec {
                name: "access_info",
                row_bytes: 80,
                indexed: true,
                per_group: 4,
                stride: 4,
                step: 1,
                init: vec![Key, Const(0)],
            },
            TableSpec {
                name: "special_facility",
                row_bytes: 60,
                indexed: true,
                per_group: 4,
                stride: 4,
                step: 1,
                init: vec![Key, Const(0)],
            },
            TableSpec {
                name: "call_forwarding",
                row_bytes: 60,
                indexed: true,
                per_group: 4,
                stride: 32,
                step: 8,
                init: vec![Key, Const(0)],
            },
        ],
        xcts: vec![
            XctSpec {
                name: "GetSubscriberData",
                vars: vec![sub_key],
                steps: vec![StepSpec::ProbeByKey { table: 0, key: 0 }],
            },
            XctSpec {
                name: "GetNewDestination",
                vars: vec![
                    sub_key,
                    facility_of(0),
                    VarSpec::Derived {
                        of: 1,
                        mul: 8,
                        add: 0,
                    },
                ],
                steps: vec![
                    StepSpec::ProbeByKey { table: 2, key: 1 },
                    StepSpec::RangeScan {
                        table: 3,
                        start: 2,
                        span: 4,
                    },
                ],
            },
            XctSpec {
                name: "GetAccessData",
                vars: vec![sub_key, facility_of(0)],
                steps: vec![StepSpec::ProbeByKey { table: 1, key: 1 }],
            },
            XctSpec {
                name: "UpdateSubscriberData",
                vars: vec![
                    sub_key,
                    facility_of(0),
                    VarSpec::DeltaI64 { lo: -50, hi: 50 },
                ],
                steps: vec![
                    StepSpec::UpdateRow {
                        table: 0,
                        key: 0,
                        delta: 2,
                        field: 1,
                    },
                    StepSpec::UpdateRow {
                        table: 2,
                        key: 1,
                        delta: 2,
                        field: 1,
                    },
                ],
            },
            XctSpec {
                name: "UpdateLocation",
                vars: vec![sub_key, VarSpec::DeltaI64 { lo: 1, hi: 1 << 16 }],
                steps: vec![StepSpec::UpdateRow {
                    table: 0,
                    key: 0,
                    delta: 1,
                    field: 1,
                }],
            },
            XctSpec {
                name: "InsertCallForwarding",
                vars: vec![sub_key, facility_of(0), slot_of(1)],
                steps: vec![
                    StepSpec::ProbeByKey { table: 2, key: 1 },
                    StepSpec::InsertIndexed {
                        table: 3,
                        key: 2,
                        row: vec![FieldRef::Var(2), FieldRef::Var(0)],
                    },
                ],
            },
            XctSpec {
                name: "DeleteCallForwarding",
                vars: vec![sub_key, facility_of(0), slot_of(1)],
                steps: vec![
                    StepSpec::ProbeByKey { table: 2, key: 1 },
                    StepSpec::DeleteRow { table: 3, key: 2 },
                ],
            },
        ],
        mix: vec![
            (35, XctTypeId(0)),
            (45, XctTypeId(1)),
            (80, XctTypeId(2)),
            (82, XctTypeId(3)),
            (96, XctTypeId(4)),
            (98, XctTypeId(5)),
            (100, XctTypeId(6)),
        ],
    }
}

/// The two YCSB-style mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// YCSB-A: 50% read / 50% read-modify-write.
    A,
    /// YCSB-B: 95% read / 5% read-modify-write.
    B,
}

/// YCSB-A/B-style key-value loops: one table, one operation per
/// transaction, Zipfian keys at YCSB's default skew (theta 0.99).
///
/// The paper-relevant properties: instruction overlap is *total* (every
/// transaction of a type walks the identical probe or probe+update path —
/// the opposite extreme from TPC-E's ten-type mix), and the Zipfian hot
/// set concentrates data accesses, breaking the TPC mixes' ≤6%
/// data-overlap property from the other side.
pub fn ycsb_spec(mix: YcsbMix, rows: u64) -> WorkloadSpec {
    use FieldInit::{Const, Key};
    let zipf = VarSpec::Key {
        table: 0,
        dist: KeyDist::Zipfian { theta: 0.99 },
    };
    let (name, read_pct) = match mix {
        YcsbMix::A => ("YCSB-A", 50),
        YcsbMix::B => ("YCSB-B", 95),
    };
    WorkloadSpec {
        name,
        groups: rows,
        tables: vec![TableSpec {
            name: "usertable",
            row_bytes: 200,
            indexed: true,
            per_group: 1,
            stride: 1,
            step: 1,
            init: vec![Key, Const(0)],
        }],
        xcts: vec![
            XctSpec {
                name: "Read",
                vars: vec![zipf],
                steps: vec![StepSpec::ProbeByKey { table: 0, key: 0 }],
            },
            XctSpec {
                name: "Update",
                vars: vec![
                    zipf,
                    VarSpec::DeltaI64 {
                        lo: -1_000,
                        hi: 1_000,
                    },
                ],
                steps: vec![StepSpec::UpdateRow {
                    table: 0,
                    key: 0,
                    delta: 1,
                    field: 1,
                }],
            },
        ],
        mix: vec![(read_pct, XctTypeId(0)), (100, XctTypeId(1))],
    }
}

/// Default (figure-binary) scales. Sized like the TPC defaults: large
/// enough that uniform-key transactions rarely share record/leaf blocks,
/// small enough that population stays a setup cost, not the experiment.
pub const TATP_SUBSCRIBERS: u64 = 10_000;
/// Default YCSB table size.
pub const YCSB_ROWS: u64 = 40_000;
/// Test-scale knobs (`setup_small`).
pub const TATP_SUBSCRIBERS_SMALL: u64 = 64;
/// Test-scale YCSB table size.
pub const YCSB_ROWS_SMALL: u64 = 400;

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{CodeMap, OpKind, Routine, TraceEvent};
    use rand::SeedableRng;

    #[test]
    fn key_of_rank_matches_population_layout() {
        let spec = tatp_spec(8);
        // call_forwarding: per_group 4, stride 32, step 8 — rank r maps to
        // (sub*4 + facility) * 8.
        let cf = &spec.tables[3];
        assert_eq!(cf.key_of_rank(0), 0);
        assert_eq!(cf.key_of_rank(1), 8);
        assert_eq!(cf.key_of_rank(4), 32);
        assert_eq!(cf.key_of_rank(5), 40);
        // Dense tables are the identity.
        let sub = &spec.tables[0];
        assert_eq!(sub.key_of_rank(7), 7);
    }

    #[test]
    fn zipf_ranks_are_in_range_and_skewed() {
        let z = Zipf::new(1_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1_000);
            counts[r as usize] += 1;
        }
        // Rank 0 is the hottest and far above the uniform expectation (20).
        assert!(counts[0] > 2_000, "rank 0 drawn {} times", counts[0]);
        assert!(counts[0] > counts[10]);
        assert!(
            counts[10] >= counts[500],
            "{} vs {}",
            counts[10],
            counts[500]
        );
    }

    #[test]
    fn zipf_tiny_spaces() {
        let mut rng = StdRng::seed_from_u64(3);
        let z1 = Zipf::new(1, 0.99);
        for _ in 0..50 {
            assert_eq!(z1.sample(&mut rng), 0);
        }
        let z2 = Zipf::new(2, 0.99);
        let mut seen = [false; 2];
        for _ in 0..200 {
            seen[z2.sample(&mut rng) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    /// TPC-B at the `setup_small` scale.
    fn small_tpcb() -> (Engine, SpecRunner) {
        SpecRunner::setup(tpcb_spec(2, 4, 100))
    }

    #[test]
    fn tpcb_setup_populates_all_tables() {
        let (e, w) = small_tpcb();
        let c = e.catalog();
        let rows = |i: usize| c.table(w.handles[i].table).unwrap().heap.n_records() as u64;
        assert_eq!([rows(0), rows(1), rows(2), rows(3)], [2, 8, 200, 0]);
    }

    #[test]
    fn tpcb_account_update_moves_money_and_appends_history() {
        let (mut e, mut w) = small_tpcb();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(w.run_one(&mut e, &mut rng).unwrap(), ACCOUNT_UPDATE);
        }
        let history = w.handles[3].table;
        assert_eq!(e.catalog().table(history).unwrap().heap.n_records(), 20);
        let traces = e.take_traces();
        assert_eq!(traces.len(), 20);
        // Every AccountUpdate: 3 probes, 3 updates, 1 insert.
        for t in &traces {
            let (mut probes, mut updates, mut inserts) = (0, 0, 0);
            for (op, _) in t.op_slices() {
                match op {
                    OpKind::Probe => probes += 1,
                    OpKind::Update => updates += 1,
                    OpKind::Insert => inserts += 1,
                    other => panic!("unexpected {other:?} in AccountUpdate"),
                }
            }
            assert_eq!((probes, updates, inserts), (3, 3, 1));
        }
    }

    #[test]
    fn tpcb_balances_stay_consistent() {
        let (mut e, mut w) = small_tpcb();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        // Sum of branch balances equals sum of teller balances equals the
        // net delta applied to accounts (minus the initial endowment).
        let sum = |table: usize, initial: i64| -> i64 {
            e.catalog()
                .table(w.handles[table].table)
                .unwrap()
                .heap
                .iter()
                .map(|(_, r)| get_field_i64(r, 1) - initial)
                .sum()
        };
        let branches = sum(0, 0);
        assert_eq!(branches, sum(1, 0));
        assert_eq!(branches, sum(2, 1_000));
    }

    #[test]
    fn tpcb_deterministic_given_seed() {
        let run = |seed: u64| {
            let (mut e, mut w) = small_tpcb();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                w.run_one(&mut e, &mut rng).unwrap();
            }
            e.take_traces()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "same seed must give identical traces");
        }
        // A different seed touches different accounts: the data-block
        // streams diverge even though the op structure is identical.
        let c = run(43);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.events != y.events),
            "different seeds should produce different data accesses"
        );
    }

    #[test]
    fn tpcb_history_insert_never_touches_index_code() {
        let (mut e, mut w) = small_tpcb();
        let mut rng = StdRng::seed_from_u64(5);
        w.run_one(&mut e, &mut rng).unwrap();
        let map = CodeMap::global();
        // Inside the insert op span, no CreateIndexEntry blocks.
        for t in &e.take_traces() {
            for (op, range) in t.op_slices() {
                if op != OpKind::Insert {
                    continue;
                }
                for ev in &t.events[range] {
                    if let TraceEvent::Instr { block, .. } = ev {
                        assert_ne!(
                            map.routine_of(*block),
                            Some(Routine::CreateIndexEntry),
                            "index-less History insert ran create_index_entry"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tatp_setup_populates_all_tables() {
        let (e, w) = SpecRunner::setup(tatp_spec(16));
        let c = e.catalog();
        let rows = |i: usize| c.table(w.handles[i].table).unwrap().heap.n_records() as u64;
        assert_eq!(rows(0), 16);
        assert_eq!(rows(1), 64);
        assert_eq!(rows(2), 64);
        assert_eq!(rows(3), 64);
        assert_eq!(
            w.xct_type_names(),
            [
                "GetSubscriberData",
                "GetNewDestination",
                "GetAccessData",
                "UpdateSubscriberData",
                "UpdateLocation",
                "InsertCallForwarding",
                "DeleteCallForwarding"
            ]
        );
    }

    #[test]
    fn tatp_mix_runs_clean_and_is_mostly_reads() {
        let (mut e, mut w) = SpecRunner::setup(tatp_spec(TATP_SUBSCRIBERS_SMALL));
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 7];
        for _ in 0..1_000 {
            let ty = w.run_one(&mut e, &mut rng).unwrap();
            counts[ty.0 as usize] += 1;
        }
        assert_eq!(e.take_traces().len(), 1_000);
        // Read-only types 0/1/2 are ~80% of the mix.
        let reads = counts[0] + counts[1] + counts[2];
        assert!(
            (720..880).contains(&reads),
            "read count {reads}: {counts:?}"
        );
        // The churn pair actually fired.
        assert!(counts[5] > 0 && counts[6] > 0, "{counts:?}");
    }

    #[test]
    fn tatp_call_forwarding_churn_survives() {
        // Run long enough that inserts collide with live rows and deletes
        // hit missing rows: both must be clean no-ops.
        let (mut e, mut w) = SpecRunner::setup(tatp_spec(4));
        let cf_table = w.handles[3].table;
        let before = e.catalog().table(cf_table).unwrap().heap.n_records();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..600 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        let after = e.catalog().table(cf_table).unwrap().heap.n_records();
        // 4 subscribers x 16 slots bounds the live set.
        assert!(after <= 64, "{after} call-forwarding rows");
        assert_ne!(before, after, "churn never changed the table");
    }

    #[test]
    fn ycsb_transactions_are_single_op() {
        // (The Zipfian hot-key concentration property is asserted against
        // real data-block access counts in tests/spec_equivalence.rs.)
        let (mut e, mut w) = SpecRunner::setup(ycsb_spec(YcsbMix::A, YCSB_ROWS_SMALL));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        let traces = e.take_traces();
        assert_eq!(traces.len(), 300);
        // One logical operation per transaction (an update is the
        // probe+update pair).
        for t in &traces {
            let n_ops = t.op_slices().len();
            assert!(n_ops <= 2, "YCSB transaction ran {n_ops} ops");
        }
    }

    #[test]
    fn ycsb_b_is_read_heavy() {
        let (mut e, mut w) = SpecRunner::setup(ycsb_spec(YcsbMix::B, YCSB_ROWS_SMALL));
        let mut rng = StdRng::seed_from_u64(2);
        let mut updates = 0;
        for _ in 0..400 {
            if w.run_one(&mut e, &mut rng).unwrap() == XctTypeId(1) {
                updates += 1;
            }
        }
        assert!((5..50).contains(&updates), "{updates} updates of 400");
    }

    #[test]
    fn spec_runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let (mut e, mut w) = SpecRunner::setup(tatp_spec(TATP_SUBSCRIBERS_SMALL));
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                w.run_one(&mut e, &mut rng).unwrap();
            }
            e.take_traces()
        };
        let (a, b, c) = (run(9), run(9), run(10));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "same seed diverged");
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.events != y.events),
            "different seeds should differ"
        );
    }

    #[test]
    #[should_panic(expected = "mix must end at 100")]
    fn malformed_mix_rejected() {
        let mut spec = ycsb_spec(YcsbMix::A, 10);
        spec.mix = vec![(50, XctTypeId(0)), (90, XctTypeId(1))];
        let _ = SpecRunner::setup(spec);
    }

    #[test]
    #[should_panic(expected = "zero-span range scan")]
    fn zero_span_scan_rejected() {
        // span 0 would underflow `lo + span - 1` at run time and scan the
        // whole table; validate() must refuse it up front.
        let mut spec = tatp_spec(4);
        spec.xcts[1].steps[1] = StepSpec::RangeScan {
            table: 3,
            start: 2,
            span: 0,
        };
        let _ = SpecRunner::setup(spec);
    }

    #[test]
    #[should_panic(expected = "bad step table")]
    fn out_of_range_step_table_named_in_diagnostic() {
        let mut spec = ycsb_spec(YcsbMix::A, 10);
        spec.xcts[0].steps[0] = StepSpec::ProbeByKey { table: 9, key: 0 };
        let _ = SpecRunner::setup(spec);
    }
}
