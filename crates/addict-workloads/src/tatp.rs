//! TATP: the telecom benchmark — seven short transaction types over four
//! tables, ~80% read (35% GetSubscriberData + 10% GetNewDestination +
//! 35% GetAccessData).
//!
//! Per subscriber `s`: 4 access-info rows and 4 special-facility rows at
//! facility keys `s*4 + type`, and one call-forwarding row at slot 0 of
//! each facility (`facility * 8 + slot`, slots 0–3). InsertCallForwarding
//! and DeleteCallForwarding churn the remaining slots against each other
//! at 2% of the mix apiece.
//!
//! The paper-relevant property: transactions are 1–3 operations long (vs
//! TPC-C's 10–50), so the begin/commit/log/lock wrapper dominates the
//! instruction stream — the short-transaction regime where
//! instruction-chasing margins thin.
//!
//! This module is the template for a new benchmark: create `Table`s,
//! populate them untraced, draw every random value before `begin`, and
//! run the operations through the engine.

use addict_storage::{Engine, EngineConfig, StorageResult};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::encode_row;
use crate::table::Table;
use crate::{pick_mix, WorkloadRunner};

/// Default (figure-binary) scale: large enough that uniform-key
/// transactions rarely share record/leaf blocks, small enough that
/// population stays a setup cost, not the experiment.
pub const SUBSCRIBERS: u64 = 10_000;
/// Test scale (`setup_small`).
pub const SUBSCRIBERS_SMALL: u64 = 64;

const GET_SUBSCRIBER_DATA: XctTypeId = XctTypeId(0);
const GET_NEW_DESTINATION: XctTypeId = XctTypeId(1);
const GET_ACCESS_DATA: XctTypeId = XctTypeId(2);
const UPDATE_SUBSCRIBER_DATA: XctTypeId = XctTypeId(3);
const UPDATE_LOCATION: XctTypeId = XctTypeId(4);
const INSERT_CALL_FORWARDING: XctTypeId = XctTypeId(5);
const DELETE_CALL_FORWARDING: XctTypeId = XctTypeId(6);

const MIX: [(u32, XctTypeId); 7] = [
    (35, GET_SUBSCRIBER_DATA),
    (45, GET_NEW_DESTINATION),
    (80, GET_ACCESS_DATA),
    (82, UPDATE_SUBSCRIBER_DATA),
    (96, UPDATE_LOCATION),
    (98, INSERT_CALL_FORWARDING),
    (100, DELETE_CALL_FORWARDING),
];

const SUBSCRIBER_ROW: usize = 100;
const ACCESS_INFO_ROW: usize = 80;
const FACILITY_ROW: usize = 60;
const CALL_FORWARDING_ROW: usize = 60;
/// The i64 field every update adjusts.
const DATA: usize = 1;

/// Table handles and scale.
#[derive(Debug, Clone)]
pub struct Tatp {
    subscribers: u64,
    subscriber: Table,
    access_info: Table,
    special_facility: Table,
    call_forwarding: Table,
}

impl Tatp {
    /// Create the schema and populate (untraced) `subscribers` subscribers.
    pub fn setup(subscribers: u64) -> (Engine, Tatp) {
        let mut e = Engine::new(EngineConfig::default());
        let w = Tatp {
            subscribers,
            subscriber: Table::create(&mut e, "subscriber"),
            access_info: Table::create(&mut e, "access_info"),
            special_facility: Table::create(&mut e, "special_facility"),
            call_forwarding: Table::create(&mut e, "call_forwarding"),
        };
        e.set_tracing(false);
        let x = e.begin(GET_SUBSCRIBER_DATA);
        for s in 0..subscribers {
            w.subscriber
                .populate(&mut e, x, s, &encode_row(SUBSCRIBER_ROW, &[s, 0]));
            // Per subscriber, one table at a time in creation order: the
            // insert order fixes every page id the traces record.
            let facilities = [
                (w.access_info, ACCESS_INFO_ROW, 1),
                (w.special_facility, FACILITY_ROW, 1),
                (w.call_forwarding, CALL_FORWARDING_ROW, 8),
            ];
            for (table, width, stride) in facilities {
                for f in s * 4..s * 4 + 4 {
                    let key = f * stride;
                    table.populate(&mut e, x, key, &encode_row(width, &[key, 0]));
                }
            }
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
        (e, w)
    }

    /// A subscriber key and one of its four facility keys, drawn in that
    /// order.
    fn subscriber_and_facility(&self, rng: &mut StdRng) -> (u64, u64) {
        let s = rng.gen_range(0..self.subscribers);
        (s, s * 4 + rng.gen_range(0..4u64))
    }
}

impl WorkloadRunner for Tatp {
    fn clone_box(&self) -> Box<dyn WorkloadRunner> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "TATP"
    }

    fn xct_type_names(&self) -> Vec<String> {
        [
            "GetSubscriberData",
            "GetNewDestination",
            "GetAccessData",
            "UpdateSubscriberData",
            "UpdateLocation",
            "InsertCallForwarding",
            "DeleteCallForwarding",
        ]
        .map(str::to_owned)
        .to_vec()
    }

    /// Every random value is drawn before `begin`.
    fn run_one(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        let ty = pick_mix(rng, &MIX);
        match ty {
            GET_SUBSCRIBER_DATA => {
                let s = rng.gen_range(0..self.subscribers);
                let x = e.begin(ty);
                e.index_probe(x, self.subscriber.pk, s)?;
                e.commit(x)
            }
            GET_NEW_DESTINATION => {
                let (_, f) = self.subscriber_and_facility(rng);
                let x = e.begin(ty);
                e.index_probe(x, self.special_facility.pk, f)?;
                e.index_scan(x, self.call_forwarding.pk, f * 8, true, f * 8 + 3, true)?;
                e.commit(x)
            }
            GET_ACCESS_DATA => {
                let (_, f) = self.subscriber_and_facility(rng);
                let x = e.begin(ty);
                e.index_probe(x, self.access_info.pk, f)?;
                e.commit(x)
            }
            UPDATE_SUBSCRIBER_DATA => {
                let (s, f) = self.subscriber_and_facility(rng);
                let delta = rng.gen_range(-50..=50i64);
                let x = e.begin(ty);
                self.subscriber.add_to_field(e, x, s, DATA, delta)?;
                self.special_facility.add_to_field(e, x, f, DATA, delta)?;
                e.commit(x)
            }
            UPDATE_LOCATION => {
                let s = rng.gen_range(0..self.subscribers);
                let delta = rng.gen_range(1..=1i64 << 16);
                let x = e.begin(ty);
                self.subscriber.add_to_field(e, x, s, DATA, delta)?;
                e.commit(x)
            }
            _ => {
                let (s, f) = self.subscriber_and_facility(rng);
                let cf = f * 8 + rng.gen_range(0..4u64);
                let x = e.begin(ty);
                e.index_probe(x, self.special_facility.pk, f)?;
                // Untraced existence check: inserting a live slot or
                // deleting a free one is a no-op, so the churn pair runs
                // forever without key bookkeeping.
                let live = e.peek_index(self.call_forwarding.pk, cf)?.is_some();
                let keys = [(self.call_forwarding.pk, cf)];
                if ty == INSERT_CALL_FORWARDING && !live {
                    let row = encode_row(CALL_FORWARDING_ROW, &[cf, s]);
                    e.insert_tuple(x, self.call_forwarding.id, &keys, &row)?;
                } else if ty == DELETE_CALL_FORWARDING && live {
                    e.delete_tuple(x, self.call_forwarding.id, &keys)?;
                }
                e.commit(x)
            }
        }?;
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rows(e: &Engine, t: Table) -> usize {
        e.catalog().table(t.id).unwrap().heap.n_records()
    }

    #[test]
    fn setup_populates_all_tables() {
        let (e, w) = Tatp::setup(16);
        assert_eq!(rows(&e, w.subscriber), 16);
        assert_eq!(rows(&e, w.access_info), 64);
        assert_eq!(rows(&e, w.special_facility), 64);
        assert_eq!(rows(&e, w.call_forwarding), 64);
        // Call-forwarding rows sit at slot 0 of each facility:
        // `(s*4 + f) * 8`, so ranks 0, 1, 4, 5 are keys 0, 8, 32, 40.
        for (key, present) in [(0, true), (8, true), (32, true), (40, true), (1, false)] {
            let found = e.peek_index(w.call_forwarding.pk, key).unwrap().is_some();
            assert_eq!(found, present, "call_forwarding key {key}");
        }
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
    fn mix_runs_clean_and_is_mostly_reads() {
        let (mut e, mut w) = Tatp::setup(SUBSCRIBERS_SMALL);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 7];
        for _ in 0..1_000 {
            let ty = w.run_one(&mut e, &mut rng).unwrap();
            counts[ty.0 as usize] += 1;
        }
        assert_eq!(crate::take_flat(&mut e).len(), 1_000);
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
    fn call_forwarding_churn_survives() {
        // Run long enough that inserts collide with live rows and deletes
        // hit missing rows: both must be clean no-ops.
        let (mut e, mut w) = Tatp::setup(4);
        let before = rows(&e, w.call_forwarding);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..600 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        let after = rows(&e, w.call_forwarding);
        // 4 subscribers x 16 slots bounds the live set.
        assert!(after <= 64, "{after} call-forwarding rows");
        assert_ne!(before, after, "churn never changed the table");
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let (mut e, mut w) = Tatp::setup(SUBSCRIBERS_SMALL);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                w.run_one(&mut e, &mut rng).unwrap();
            }
            crate::take_flat(&mut e)
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
}
