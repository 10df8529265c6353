//! YCSB-A/B-style key-value loops: one table, one operation per
//! transaction, Zipfian keys at YCSB's default skew (theta 0.99).
//!
//! The paper-relevant properties: instruction overlap is *total* (every
//! transaction of a type walks the identical probe or probe+update path —
//! the opposite extreme from TPC-E's ten-type mix), and the Zipfian hot
//! set concentrates data accesses, breaking the TPC mixes' ≤6%
//! data-overlap property from the other side.

use addict_storage::{Engine, EngineConfig, StorageResult};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::encode_row;
use crate::table::Table;
use crate::{pick_mix, WorkloadRunner};

/// Default (figure-binary) table size.
pub const ROWS: u64 = 40_000;
/// Test-scale table size (`setup_small`).
pub const ROWS_SMALL: u64 = 400;

const READ: XctTypeId = XctTypeId(0);
const UPDATE: XctTypeId = XctTypeId(1);

const ROW: usize = 200;
const FIELD: usize = 1;

/// The two YCSB-style mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// YCSB-A: 50% read / 50% read-modify-write.
    A,
    /// YCSB-B: 95% read / 5% read-modify-write.
    B,
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

/// Table handle, key sampler and mix.
#[derive(Debug, Clone)]
pub struct Ycsb {
    name: &'static str,
    usertable: Table,
    keys: Zipf,
    mix: [(u32, XctTypeId); 2],
}

impl Ycsb {
    /// Create the table and populate (untraced) `rows` rows at keys
    /// `0..rows`; key 0 is the hottest.
    pub fn setup(mix: YcsbMix, rows: u64) -> (Engine, Ycsb) {
        let (name, read_pct) = match mix {
            YcsbMix::A => ("YCSB-A", 50),
            YcsbMix::B => ("YCSB-B", 95),
        };
        let mut e = Engine::new(EngineConfig::default());
        let w = Ycsb {
            name,
            usertable: Table::create(&mut e, "usertable"),
            keys: Zipf::new(rows, 0.99),
            mix: [(read_pct, READ), (100, UPDATE)],
        };
        e.set_tracing(false);
        let x = e.begin(READ);
        for k in 0..rows {
            w.usertable
                .populate(&mut e, x, k, &encode_row(ROW, &[k, 0]));
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
        (e, w)
    }
}

impl WorkloadRunner for Ycsb {
    fn clone_box(&self) -> Box<dyn WorkloadRunner> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn xct_type_names(&self) -> Vec<String> {
        vec!["Read".to_owned(), "Update".to_owned()]
    }

    fn run_one(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        let ty = pick_mix(rng, &self.mix);
        let key = self.keys.sample(rng);
        if ty == READ {
            let x = e.begin(ty);
            e.index_probe(x, self.usertable.pk, key)?;
            e.commit(x)?;
        } else {
            let delta = rng.gen_range(-1_000..=1_000i64);
            let x = e.begin(ty);
            self.usertable.add_to_field(e, x, key, FIELD, delta)?;
            e.commit(x)?;
        }
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    #[test]
    fn transactions_are_single_op() {
        // (The Zipfian hot-key concentration property is asserted against
        // real data-block access counts in tests/workload_properties.rs.)
        let (mut e, mut w) = Ycsb::setup(YcsbMix::A, ROWS_SMALL);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            w.run_one(&mut e, &mut rng).unwrap();
        }
        let traces = crate::take_flat(&mut e);
        assert_eq!(traces.len(), 300);
        // One logical operation per transaction (an update is the
        // probe+update pair).
        for t in &traces {
            let n_ops = t.op_slices().len();
            assert!(n_ops <= 2, "YCSB transaction ran {n_ops} ops");
        }
    }

    #[test]
    fn b_is_read_heavy() {
        let (mut e, mut w) = Ycsb::setup(YcsbMix::B, ROWS_SMALL);
        let mut rng = StdRng::seed_from_u64(2);
        let mut updates = 0;
        for _ in 0..400 {
            if w.run_one(&mut e, &mut rng).unwrap() == UPDATE {
                updates += 1;
            }
        }
        assert!((5..50).contains(&updates), "{updates} updates of 400");
    }
}
