//! The three traffic mixes and the job specs each one sends.
//!
//! Every spec is generated from the workload seed alone; the server only
//! ever sees the generated spec. Seed 0 reproduces the job specs exactly
//! as README.md lists them (evaluation seed 2, the job layer's default),
//! and is the one seed with committed expected digests.

use addict_bench::{JobSpec, PROFILE_SEED};

/// One benchmark workload: a traffic mix sent through `addict-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// One client; every job misses the trace pool for both its ranges.
    ColdPaper,
    /// One client; every job replays traces generated during setup.
    WarmReplay,
    /// Two clients; tiny jobs over a few pre-generated evaluation seeds.
    SmallJobs,
}

/// The seed that has committed expected digests.
pub const DEFAULT_SEED: u64 = 0;

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdPaper,
        Workload::WarmReplay,
        Workload::SmallJobs,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold-paper",
            Workload::WarmReplay => "warm-replay",
            Workload::SmallJobs => "small-jobs",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients sending jobs concurrently.
    pub fn clients(self) -> usize {
        match self {
            Workload::SmallJobs => 2,
            Workload::ColdPaper | Workload::WarmReplay => 1,
        }
    }

    /// True when every job needs a fresh server: the trace pool keys the
    /// profile range by a fixed seed, so only an empty pool makes both of
    /// a job's ranges miss.
    pub fn fresh_server_per_job(self) -> bool {
        self == Workload::ColdPaper
    }

    /// The evaluation seeds of this workload's specs for workload seed
    /// `seed`, or `None` when the seed is too large to map. Never
    /// [`PROFILE_SEED`]: an evaluation range equal to the profile range
    /// would turn one of a cold job's two misses into a hit.
    pub fn eval_seeds(self, seed: u64) -> Option<Vec<u64>> {
        let n = self.seeds_per_run();
        let base = seed.checked_mul(n)?.checked_add(2)?;
        let seeds: Vec<u64> = (0..n).map(|i| base.checked_add(i)).collect::<Option<_>>()?;
        debug_assert!(!seeds.contains(&PROFILE_SEED));
        Some(seeds)
    }

    /// Distinct evaluation seeds a run's jobs rotate through. Replay work
    /// differs from one evaluation range to the next, so a run that
    /// rotates through several reports a median that moves less with the
    /// workload seed.
    fn seeds_per_run(self) -> u64 {
        match self {
            Workload::ColdPaper => 2,
            Workload::WarmReplay => 4,
            Workload::SmallJobs => 16,
        }
    }

    /// The JSON body of each distinct job this workload sends.
    pub fn spec_bodies(self, seed: u64) -> Option<Vec<String>> {
        let base = match self {
            Workload::ColdPaper => r#""benchmarks":["tpcc","tpce"],"n_xcts":400,"threads":2"#,
            Workload::WarmReplay => r#""benchmarks":["tpcc","ycsba"],"n_xcts":400,"threads":2"#,
            Workload::SmallJobs => {
                r#""benchmarks":["ycsbb"],"small":true,"n_xcts":20,"schedulers":["baseline","addict"]"#
            }
        };
        Some(
            self.eval_seeds(seed)?
                .into_iter()
                .map(|s| format!("{{{base},\"seed\":{s}}}"))
                .collect(),
        )
    }

    /// The jobs that prime a fresh server during set-up: one per
    /// evaluation seed, generating the same trace ranges as the timed
    /// jobs. Warm-replay primes with ADDICT alone, which generates the
    /// same ranges at a fifth of the replay cost.
    pub fn priming_bodies(self, seed: u64) -> Option<Vec<String>> {
        Some(match self {
            Workload::ColdPaper => Vec::new(),
            Workload::WarmReplay => self
                .spec_bodies(seed)?
                .into_iter()
                .map(|b| b.replacen('{', r#"{"schedulers":["addict"],"#, 1))
                .collect(),
            Workload::SmallJobs => self.spec_bodies(seed)?,
        })
    }

    /// The parsed twin of [`Workload::spec_bodies`], for in-process runs.
    pub fn specs(self, seed: u64) -> Option<Vec<(String, JobSpec)>> {
        Some(
            self.spec_bodies(seed)?
                .into_iter()
                .map(|body| {
                    let spec = JobSpec::from_json(&body).expect("benchmark specs are valid");
                    (body, spec)
                })
                .collect(),
        )
    }

    /// Trace-pool misses one job of `spec` must cause: two ranges
    /// (profile and evaluation) per benchmark on a cold pool, none on a
    /// warm one.
    pub fn misses_per_job(self, spec: &JobSpec) -> u64 {
        if self.fresh_server_per_job() {
            2 * spec.benchmarks.len() as u64
        } else {
            0
        }
    }

    /// Trace-pool hits one job of `spec` must cause.
    pub fn hits_per_job(self, spec: &JobSpec) -> u64 {
        2 * spec.benchmarks.len() as u64 - self.misses_per_job(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_documented_specs() {
        let cold = Workload::ColdPaper.spec_bodies(DEFAULT_SEED).unwrap();
        assert_eq!(
            cold,
            vec![
                r#"{"benchmarks":["tpcc","tpce"],"n_xcts":400,"threads":2,"seed":2}"#,
                r#"{"benchmarks":["tpcc","tpce"],"n_xcts":400,"threads":2,"seed":3}"#,
            ]
        );
        let small = Workload::SmallJobs.specs(DEFAULT_SEED).unwrap();
        let seeds: Vec<u64> = small.iter().map(|(_, s)| s.seed).collect();
        assert_eq!(seeds, (2..18).collect::<Vec<u64>>());
        assert!(small.iter().all(|(_, s)| s.small && s.n_xcts == 20));
    }

    #[test]
    fn seeds_never_collide_with_the_profile_range_or_overflow() {
        for w in Workload::ALL {
            for seed in [0, 1, 7, 1 << 40] {
                let seeds = w.eval_seeds(seed).unwrap();
                assert!(!seeds.contains(&PROFILE_SEED), "{} seed {seed}", w.name());
            }
            assert!(w.eval_seeds(u64::MAX).is_none());
        }
        // Different workload seeds give disjoint small-jobs seed sets.
        let a = Workload::SmallJobs.eval_seeds(1).unwrap();
        let b = Workload::SmallJobs.eval_seeds(2).unwrap();
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("cold"), None);
    }
}
