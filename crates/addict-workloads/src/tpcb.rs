//! TPC-B: Branch, Teller and Account tables plus the index-less History
//! table, and one transaction type.
//!
//! `AccountUpdate` adjusts an account, its teller and its branch balance,
//! then appends a History row: the flow Section 2.2.1 of the paper
//! analyzes. History's lack of an index is what makes TPC-B's insert
//! footprint deviate only on the rare `allocate page` path.

use addict_storage::{Engine, EngineConfig, StorageResult, TableId};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::encode_row;
use crate::table::Table;
use crate::WorkloadRunner;

/// The `AccountUpdate` transaction type id — TPC-B's only type.
pub const ACCOUNT_UPDATE: XctTypeId = XctTypeId(0);

const ROW: usize = 100;
const BALANCE: usize = 1;
const HISTORY_ROW: usize = 50;

/// Table handles and scale.
#[derive(Debug, Clone)]
pub struct TpcB {
    branches: u64,
    tellers: u64,
    accounts: u64,
    branch: Table,
    teller: Table,
    account: Table,
    history: TableId,
}

impl TpcB {
    /// Create the schema and populate (untraced) `branches` branches with
    /// `tellers` tellers and `accounts` accounts each. Teller and account
    /// keys are dense: branch `b` owns `b * tellers..(b + 1) * tellers`.
    pub fn setup(branches: u64, tellers: u64, accounts: u64) -> (Engine, TpcB) {
        let mut e = Engine::new(EngineConfig::default());
        let w = TpcB {
            branches,
            tellers,
            accounts,
            branch: Table::create(&mut e, "branch"),
            teller: Table::create(&mut e, "teller"),
            account: Table::create(&mut e, "account"),
            history: e.create_table("history"),
        };
        e.set_tracing(false);
        let x = e.begin(ACCOUNT_UPDATE);
        for b in 0..branches {
            w.branch.populate(&mut e, x, b, &encode_row(ROW, &[b, 0]));
            for t in b * tellers..(b + 1) * tellers {
                w.teller.populate(&mut e, x, t, &encode_row(ROW, &[t, 0]));
            }
            for a in b * accounts..(b + 1) * accounts {
                w.account
                    .populate(&mut e, x, a, &encode_row(ROW, &[a, 1_000]));
            }
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
        (e, w)
    }
}

impl WorkloadRunner for TpcB {
    fn clone_box(&self) -> Box<dyn WorkloadRunner> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn xct_type_names(&self) -> Vec<String> {
        vec!["AccountUpdate".to_owned()]
    }

    /// One `AccountUpdate`. A single-type mix draws no type: the RNG
    /// stream starts at the branch.
    fn run_one(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        let b = rng.gen_range(0..self.branches);
        let t = b * self.tellers + rng.gen_range(0..self.tellers);
        let a = b * self.accounts + rng.gen_range(0..self.accounts);
        let delta = rng.gen_range(-99_999..=99_999i64);

        let x = e.begin(ACCOUNT_UPDATE);
        self.account.add_to_field(e, x, a, BALANCE, delta)?;
        self.teller.add_to_field(e, x, t, BALANCE, delta)?;
        self.branch.add_to_field(e, x, b, BALANCE, delta)?;
        e.insert_tuple(
            x,
            self.history,
            &[],
            &encode_row(HISTORY_ROW, &[a, t, b, delta as u64]),
        )?;
        e.commit(x)?;
        Ok(ACCOUNT_UPDATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::get_field_i64;
    use addict_trace::{CodeMap, OpKind, Routine, TraceEvent};
    use rand::SeedableRng;

    /// TPC-B at the `setup_small` scale.
    fn small() -> (Engine, TpcB) {
        TpcB::setup(2, 4, 100)
    }

    fn rows(e: &Engine, table: TableId) -> usize {
        e.catalog().table(table).unwrap().heap.n_records()
    }

    #[test]
    fn setup_populates_all_tables() {
        let (e, w) = small();
        assert_eq!(
            [
                rows(&e, w.branch.id),
                rows(&e, w.teller.id),
                rows(&e, w.account.id),
                rows(&e, w.history)
            ],
            [2, 8, 200, 0]
        );
    }

    #[test]
    fn account_update_moves_money_and_appends_history() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(w.run_one(&mut e, &mut rng).unwrap(), ACCOUNT_UPDATE);
        }
        assert_eq!(rows(&e, w.history), 20);
        let traces = crate::take_flat(&mut e);
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
    fn balances_stay_consistent() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        // Sum of branch balances equals sum of teller balances equals the
        // net delta applied to accounts (minus the initial endowment).
        let sum = |table: TableId, initial: i64| -> i64 {
            e.catalog()
                .table(table)
                .unwrap()
                .heap
                .iter()
                .map(|(_, r)| get_field_i64(r, BALANCE) - initial)
                .sum()
        };
        let branches = sum(w.branch.id, 0);
        assert_eq!(branches, sum(w.teller.id, 0));
        assert_eq!(branches, sum(w.account.id, 1_000));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let (mut e, mut w) = small();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                w.run_one(&mut e, &mut rng).unwrap();
            }
            crate::take_flat(&mut e)
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
    fn history_insert_never_touches_index_code() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(5);
        w.run_one(&mut e, &mut rng).unwrap();
        let map = CodeMap::global();
        // Inside the insert op span, no CreateIndexEntry blocks.
        for t in &crate::take_flat(&mut e) {
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
}
