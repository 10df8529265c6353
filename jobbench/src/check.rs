//! Output checks: the streamed reply's shape, byte identity with the
//! in-process job, and the committed expected digests.

use std::collections::BTreeMap;

use addict_bench::jsontext::JsonValue;
use addict_bench::JobSpec;
use addict_core::sched::SchedulerKind;
use addict_workloads::Benchmark;

use crate::workload::Workload;

/// The committed expected `result_fnv64` of every point of every
/// workload's default-seed specs. Regenerate with `--write-expected`.
pub const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// `(workload, evaluation seed, benchmark id, scheduler id)`.
type PointKey = (String, u64, String, String);

/// Expected point digests, parsed from [`EXPECTED_DIGESTS`]'s format.
#[derive(Debug, Default)]
pub struct Expected {
    digests: BTreeMap<PointKey, String>,
}

impl Expected {
    /// Parse `workload eval_seed benchmark scheduler digest` lines;
    /// `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut digests = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, bench, sched, digest] = f[..] else {
                return Err(format!("line {}: expected five fields: {line:?}", no + 1));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("line {}: bad seed {seed:?}", no + 1))?;
            let key = (workload.into(), seed, bench.into(), sched.into());
            if digests.insert(key, digest.to_owned()).is_some() {
                return Err(format!("line {}: duplicate point", no + 1));
            }
        }
        Ok(Expected { digests })
    }

    /// The expected-digest lines for `result_json`, the result of one of
    /// `workload`'s specs (the `--write-expected` output).
    pub fn lines_for(workload: Workload, spec: &JobSpec, result_json: &str) -> Vec<String> {
        match point_digests(result_json) {
            Ok(points) => points
                .into_iter()
                .map(|(bench, sched, digest)| {
                    format!("{} {} {bench} {sched} {digest}", workload.name(), spec.seed)
                })
                .collect(),
            Err(e) => panic!("in-process result does not parse: {e}"),
        }
    }

    /// Every way `result_json` disagrees with the expected digests of
    /// `workload`'s spec `spec`: a changed digest, a missing or an extra
    /// point. Empty when the result matches.
    pub fn mismatches(&self, workload: Workload, spec: &JobSpec, result_json: &str) -> Vec<String> {
        let points = match point_digests(result_json) {
            Ok(p) => p,
            Err(e) => return vec![e],
        };
        let mut problems = Vec::new();
        let mut seen = 0;
        for (bench, sched, digest) in points {
            let key = (workload.name().to_owned(), spec.seed, bench, sched);
            match self.digests.get(&key) {
                Some(want) if *want == digest => seen += 1,
                Some(want) => problems.push(format!(
                    "{} seed {} {} {}: result_fnv64 {digest}, expected {want}",
                    key.0, key.1, key.2, key.3
                )),
                None => problems.push(format!(
                    "{} seed {} {} {}: no expected digest",
                    key.0, key.1, key.2, key.3
                )),
            }
        }
        let expected = self
            .digests
            .keys()
            .filter(|k| k.0 == workload.name() && k.1 == spec.seed)
            .count();
        if problems.is_empty() && seen != expected {
            problems.push(format!(
                "{} seed {}: {seen} points, expected {expected}",
                workload.name(),
                spec.seed
            ));
        }
        problems
    }
}

/// `(benchmark id, scheduler id, result_fnv64)` of every point.
fn point_digests(result_json: &str) -> Result<Vec<(String, String, String)>, String> {
    points(result_json)?
        .iter()
        .map(|p| {
            let bench: Benchmark = str_field(p, "workload")?.parse()?;
            let sched: SchedulerKind = str_field(p, "scheduler")?.parse()?;
            Ok((
                bench.id().to_owned(),
                sched.id().to_owned(),
                str_field(p, "result_fnv64")?.to_owned(),
            ))
        })
        .collect()
}

fn points(result_json: &str) -> Result<Vec<JsonValue>, String> {
    let doc = JsonValue::parse(result_json)?;
    Ok(doc
        .get("points")
        .ok_or("result has no \"points\"")?
        .as_arr("points")?
        .to_vec())
}

fn str_field<'a>(p: &'a JsonValue, name: &str) -> Result<&'a str, String> {
    p.get(name)
        .ok_or_else(|| format!("point has no {name:?}"))?
        .as_str(name)
}

fn num_field(p: &JsonValue, name: &str) -> Result<f64, String> {
    p.get(name)
        .ok_or_else(|| format!("point has no {name:?}"))?
        .as_f64(name)
}

/// Simulated figures one result carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Block events replayed, summed over the points.
    pub events: f64,
    /// Summed ADDICT `total_cycles`.
    pub addict_cycles: f64,
    /// Summed Baseline `total_cycles`.
    pub baseline_cycles: f64,
}

/// Sum events and the ADDICT and Baseline cycles over `result_json`'s points.
pub fn sim_totals(result_json: &str) -> Result<SimTotals, String> {
    let mut t = SimTotals::default();
    for p in points(result_json)? {
        t.events += num_field(&p, "events")?;
        let cycles = num_field(&p, "total_cycles")?;
        match str_field(&p, "scheduler")?.parse()? {
            SchedulerKind::Addict => t.addict_cycles += cycles,
            SchedulerKind::Baseline => t.baseline_cycles += cycles,
            _ => {}
        }
    }
    Ok(t)
}

/// Split a `?wait=1` reply body into its result document: `#` progress
/// lines, a blank line, then the result. A `# error:` trailer, or a
/// stream that ends before the blank line, is a failed job.
pub fn result_of_stream(body: &str) -> Result<&str, String> {
    let mut rest = body;
    loop {
        let (line, tail) = rest
            .split_once('\n')
            .ok_or("stream ended before the result")?;
        if let Some(msg) = line.strip_prefix("# error:") {
            return Err(format!("error trailer:{msg}"));
        }
        if line.is_empty() {
            return Ok(tail);
        }
        if !line.starts_with('#') {
            return Err(format!("unexpected stream line {line:?}"));
        }
        rest = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::DEFAULT_SEED;
    use addict_bench::{run_job, TracePool};

    #[test]
    fn committed_digests_cover_every_default_point() {
        let expected = Expected::parse(EXPECTED_DIGESTS).unwrap();
        for w in Workload::ALL {
            for (_, spec) in w.specs(DEFAULT_SEED).unwrap() {
                let n = expected
                    .digests
                    .keys()
                    .filter(|k| k.0 == w.name() && k.1 == spec.seed)
                    .count();
                assert_eq!(
                    n,
                    spec.grid_shape().len(),
                    "{} seed {}",
                    w.name(),
                    spec.seed
                );
            }
        }
    }

    /// The small-jobs specs are cheap enough to run here: their in-process
    /// results match the committed digests, and a tampered digest is
    /// reported as a failure.
    #[test]
    fn tampered_expected_digest_is_a_failure() {
        let expected = Expected::parse(EXPECTED_DIGESTS).unwrap();
        let pool = TracePool::unbounded();
        let quiet = |_: &str| {};
        for (_, spec) in Workload::SmallJobs.specs(DEFAULT_SEED).unwrap() {
            let json = run_job(&spec, &pool, &quiet).unwrap().to_json();
            assert_eq!(
                expected.mismatches(Workload::SmallJobs, &spec, &json),
                Vec::<String>::new()
            );

            let line = Expected::lines_for(Workload::SmallJobs, &spec, &json).remove(0);
            let (head, digest) = line.rsplit_once(' ').unwrap();
            let flipped = if digest.starts_with('0') { '1' } else { '0' };
            let tampered_line = format!("{head} {flipped}{}", &digest[1..]);
            let tampered_text = EXPECTED_DIGESTS.replacen(&line, &tampered_line, 1);
            assert_ne!(tampered_text, EXPECTED_DIGESTS, "line {line:?} not found");
            let tampered = Expected::parse(&tampered_text).unwrap();
            let problems = tampered.mismatches(Workload::SmallJobs, &spec, &json);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("expected"), "{problems:?}");

            // A point the file does not know is a failure too.
            let other_seed = JobSpec {
                seed: spec.seed + 1000,
                ..spec.clone()
            };
            assert!(!expected
                .mismatches(Workload::SmallJobs, &other_seed, &json)
                .is_empty());
        }
    }

    #[test]
    fn stream_parsing_finds_the_result_or_the_failure() {
        assert_eq!(
            result_of_stream("# a\n# b\n\n{\"x\":1}\n"),
            Ok("{\"x\":1}\n")
        );
        assert_eq!(result_of_stream("\n{}"), Ok("{}"));
        assert!(result_of_stream("# a\n# error: job panicked\n")
            .unwrap_err()
            .contains("job panicked"));
        assert!(result_of_stream("# a\n").is_err());
        assert!(result_of_stream("garbage\n\n{}").is_err());
    }

    #[test]
    fn malformed_expected_files_are_rejected() {
        assert!(Expected::parse("cold-paper 2 tpcc baseline").is_err());
        assert!(Expected::parse("cold-paper x tpcc baseline 00").is_err());
        assert!(Expected::parse("a 2 b c d\na 2 b c d").is_err());
        assert!(Expected::parse("# only a comment\n\n").is_ok());
    }
}
