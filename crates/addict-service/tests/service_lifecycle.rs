//! Lifecycle state-machine coverage over a live server:
//! `queued → running → {done, cancelled, deadline_exceeded, failed}`,
//! double-cancel idempotence, deadline enforcement in-queue and mid-run,
//! result-store eviction bounds, and graceful shutdown with result
//! persistence.
//!
//! Races are made deterministic with the server's fault plan: the stall
//! gate parks a job at a known progress line, the test acts, then
//! releases — no sleeps standing in for synchronization.

use std::time::Duration;

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_service::{
    cancel_job, get, job_result, job_status, poll_job, shutdown, submit, submit_detached, Server,
    ServerConfig, ServerHandle,
};

const JOB: &str = r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true}"#;

fn spawn(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

fn state_of(addr: std::net::SocketAddr, id: u64) -> String {
    let body = job_status(addr, id).expect("status");
    JsonValue::parse(body.trim())
        .expect("status is valid JSON")
        .get("state")
        .expect("state field")
        .as_str("state")
        .expect("state is a string")
        .to_owned()
}

/// Poll until the job reaches a terminal state; return it.
fn wait_terminal(addr: std::net::SocketAddr, id: u64) -> String {
    for _ in 0..200 {
        let state = state_of(addr, id);
        if !matches!(state.as_str(), "queued" | "running") {
            return state;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never reached a terminal state");
}

fn stat(addr: std::net::SocketAddr, section: &str, key: &str) -> u64 {
    let body = get(addr, "/stats").expect("GET /stats");
    JsonValue::parse(body.trim())
        .expect("stats is valid JSON")
        .get(section)
        .unwrap_or_else(|| panic!("{section} section"))
        .get(key)
        .unwrap_or_else(|| panic!("{section}.{key}"))
        .as_u64(key)
        .unwrap()
}

/// Pins must drop promptly once a job finalizes; the release happens on
/// the executor thread a moment after the state flips, so poll briefly.
fn assert_unpinned(addr: std::net::SocketAddr) {
    for _ in 0..100 {
        if stat(addr, "cache", "pinned_entries") == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("trace-pool pins leaked");
}

#[test]
fn cancel_mid_run_is_cooperative_and_idempotent() {
    let (addr, handle, _join) = spawn(ServerConfig {
        job_workers: 1,
        ..ServerConfig::default()
    });

    // Park the job at its first progress line, provably mid-run.
    handle.faults().stall_after_progress(1);
    let id = submit_detached(addr, JOB).expect("submit");
    assert!(
        handle.faults().wait_until_stalled(Duration::from_secs(20)),
        "job never reached its first progress line"
    );
    assert_eq!(state_of(addr, id), "running");

    // Cancel fires the token; the job is still parked (running).
    let ack = cancel_job(addr, id).expect("cancel");
    assert!(ack.contains("\"state\":\"running\""), "{ack}");
    // Double-cancel is a no-op, not an error.
    let again = cancel_job(addr, id).expect("double cancel");
    assert!(again.contains("\"state\":\"running\""), "{again}");

    // Released, the job observes the token at the next sweep point.
    handle.faults().release_stall();
    assert_eq!(wait_terminal(addr, id), "cancelled");
    // Cancel-after-terminal stays idempotent and reports the final state.
    let after = cancel_job(addr, id).expect("cancel after terminal");
    assert!(after.contains("\"state\":\"cancelled\""), "{after}");
    // No result to fetch — a structured 409, and the pins are gone.
    let err = job_result(addr, id).expect_err("no result for a cancelled job");
    assert_eq!(err.status, Some(409));
    assert_unpinned(addr);
    assert_eq!(stat(addr, "lifecycle", "cancelled"), 1);

    // The server is fully healthy: the same spec runs to completion and
    // matches the batch path byte-for-byte.
    let reference = {
        let spec = JobSpec::from_json(JOB).unwrap();
        run_job(&spec, &TracePool::unbounded(), &|_: &str| {})
            .unwrap()
            .to_json()
    };
    let rerun = submit_detached(addr, JOB).expect("resubmit");
    let polled = poll_job(addr, rerun, |_| {}).expect("poll resubmission");
    assert_eq!(polled, reference, "post-cancel run lost byte identity");
}

#[test]
fn cancel_queued_job_never_runs() {
    // One executor, parked on a first job: the second job sits queued.
    let (addr, handle, _join) = spawn(ServerConfig {
        job_workers: 1,
        ..ServerConfig::default()
    });
    handle.faults().stall_after_progress(1);
    let runner = submit_detached(addr, JOB).expect("submit runner");
    assert!(handle.faults().wait_until_stalled(Duration::from_secs(20)));
    let queued = submit_detached(addr, JOB).expect("submit queued");
    assert_eq!(state_of(addr, queued), "queued");

    // Cancelling a queued job finalizes it immediately.
    let ack = cancel_job(addr, queued).expect("cancel queued");
    assert!(ack.contains("\"state\":\"cancelled\""), "{ack}");
    handle.faults().release_stall();
    assert_eq!(wait_terminal(addr, runner), "done");
    // The cancelled job never executed: no progress lines at all.
    let body = job_status(addr, queued).expect("status");
    let doc = JsonValue::parse(body.trim()).unwrap();
    assert_eq!(
        doc.get("progress")
            .unwrap()
            .as_arr("progress")
            .unwrap()
            .len(),
        0
    );
    assert_eq!(
        doc.get("state").unwrap().as_str("state").unwrap(),
        "cancelled"
    );
}

/// A spec with duplicated list entries is one job's worth of work, not
/// N: it admits, reserves, executes, and serializes exactly like its
/// deduped form instead of replaying repeated grid points — so a sloppy
/// client cannot inflate the admission reservation (or the sweep length)
/// by listing the same benchmark three times.
#[test]
fn duplicated_spec_entries_admit_and_run_deduped() {
    let (addr, _handle, _join) = spawn(ServerConfig::default());
    let dup = r#"{"benchmarks": ["tpcb", "tpcb", "tpcb"], "schedulers": ["baseline", "addict", "baseline"], "n_xcts": 12, "small": true}"#;
    let once = r#"{"benchmarks": ["tpcb"], "schedulers": ["baseline", "addict"], "n_xcts": 12, "small": true}"#;
    let mut dup_progress = Vec::new();
    let dup_result = submit(addr, dup, |line| dup_progress.push(line.to_owned()))
        .expect("duplicated spec admits");
    let once_result = submit(addr, once, |_| {}).expect("deduped spec admits");
    assert_eq!(
        dup_result, once_result,
        "duplicate list entries changed the result"
    );
    // The grid is 1 benchmark × 2 schedulers: one trace-fetch progress
    // line plus one per point — not the 3 × 3 grid the raw lists imply.
    assert_eq!(dup_progress.len(), 1 + 2, "{dup_progress:?}");
}

#[test]
fn deadlines_fire_in_queue_and_mid_run() {
    let (addr, handle, _join) = spawn(ServerConfig {
        job_workers: 1,
        ..ServerConfig::default()
    });

    // In-queue expiry: the executor is parked on a stalled job, so the
    // deadlined job waits in queue past its whole budget and must
    // finalize as deadline_exceeded without running at all.
    handle.faults().stall_after_progress(1);
    let runner = submit_detached(addr, JOB).expect("submit runner");
    assert!(handle.faults().wait_until_stalled(Duration::from_secs(20)));
    let doomed = submit_detached(
        addr,
        r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true, "deadline_ms": 10}"#,
    )
    .expect("submit doomed");
    std::thread::sleep(Duration::from_millis(30)); // let the 10 ms budget lapse
    handle.faults().release_stall();
    assert_eq!(wait_terminal(addr, runner), "done");
    assert_eq!(wait_terminal(addr, doomed), "deadline_exceeded");
    let body = job_status(addr, doomed).expect("status");
    let doc = JsonValue::parse(body.trim()).unwrap();
    assert_eq!(
        doc.get("progress")
            .unwrap()
            .as_arr("progress")
            .unwrap()
            .len(),
        0,
        "an in-queue expiry must never start executing"
    );
    let err = job_result(addr, doomed).expect_err("no result");
    assert_eq!(err.status, Some(504));

    // Mid-run expiry: park the job past its first progress line, let the
    // budget lapse while parked, release — the next sweep-point check
    // stops it.
    handle.faults().stall_after_progress(1);
    let midway = submit_detached(
        addr,
        // Warm traces (the runner generated them), so the deadline is
        // comfortably larger than the fetch phase yet still expires
        // while parked.
        r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true, "deadline_ms": 400}"#,
    )
    .expect("submit midway");
    assert!(handle.faults().wait_until_stalled(Duration::from_secs(20)));
    std::thread::sleep(Duration::from_millis(500));
    handle.faults().release_stall();
    assert_eq!(wait_terminal(addr, midway), "deadline_exceeded");
    assert_unpinned(addr);
    assert_eq!(stat(addr, "lifecycle", "deadline_exceeded"), 2);
}

#[test]
fn result_store_evicts_lru_but_never_the_newest() {
    // A result store too small for two results: completing a second
    // distinct job evicts the first (LRU), which then answers 410.
    let (addr, _handle, _join) = spawn(ServerConfig {
        result_budget: 100,
        ..ServerConfig::default()
    });
    let first = submit_detached(addr, JOB).expect("first");
    let first_bytes = poll_job(addr, first, |_| {}).expect("first result");
    assert!(
        first_bytes.len() > 100,
        "job result should exceed the tiny budget"
    );

    let second = submit_detached(
        addr,
        r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true, "seed": 99}"#,
    )
    .expect("second");
    let second_bytes = poll_job(addr, second, |_| {}).expect("second result");
    assert_ne!(first_bytes, second_bytes);

    // The newest result always survives its own completion; the old one
    // is gone with a structured 410.
    assert_eq!(
        job_result(addr, second).expect("newest survives"),
        second_bytes
    );
    let err = job_result(addr, first).expect_err("evicted");
    assert_eq!(err.status, Some(410));
    assert!(err.message.contains("result_evicted"), "{}", err.message);
    assert!(stat(addr, "results", "evictions") >= 1);

    // Identical jobs deduplicate instead of storing twice.
    let third = submit_detached(
        addr,
        r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true, "seed": 99}"#,
    )
    .expect("third");
    assert_eq!(
        poll_job(addr, third, |_| {}).expect("third result"),
        second_bytes
    );
    assert_eq!(stat(addr, "results", "dedups"), 1);
    assert_eq!(stat(addr, "results", "stored"), 1);
}

#[test]
fn shutdown_drains_persists_and_refuses_new_work() {
    let dump = std::env::temp_dir().join(format!("addict-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump);
    let (addr, handle, join) = spawn(ServerConfig {
        job_workers: 1,
        dump_dir: Some(dump.clone()),
        ..ServerConfig::default()
    });

    // A job is provably mid-run when the drain begins.
    handle.faults().stall_after_progress(1);
    let id = submit_detached(addr, JOB).expect("submit");
    assert!(handle.faults().wait_until_stalled(Duration::from_secs(20)));

    let ack = shutdown(addr).expect("POST /shutdown");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    // Draining: liveness stays up, new work is structurally refused.
    assert_eq!(
        get(addr, "/healthz").expect("healthz while draining"),
        "ok\n"
    );
    let err = submit_detached(addr, JOB).expect_err("admission while draining");
    assert!(
        err.contains("503") && err.contains("shutting_down"),
        "{err}"
    );

    // The running job completes the drain, and serve() returns.
    handle.faults().release_stall();
    join.join()
        .expect("serve thread")
        .expect("serve returns cleanly");

    // The completed result was persisted, byte-identical to the batch
    // path.
    let persisted =
        std::fs::read_to_string(dump.join(format!("job_{id}.json"))).expect("dumped result");
    let spec = JobSpec::from_json(JOB).unwrap();
    let reference = run_job(&spec, &TracePool::unbounded(), &|_: &str| {})
        .unwrap()
        .to_json();
    assert_eq!(persisted, reference, "persisted result lost byte identity");
    let _ = std::fs::remove_dir_all(&dump);
}

#[test]
fn restart_recovers_dumped_results() {
    let dump = std::env::temp_dir().join(format!("addict-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump);
    let config = ServerConfig {
        job_workers: 1,
        dump_dir: Some(dump.clone()),
        ..ServerConfig::default()
    };

    // First life: run a job to completion, drain, persist.
    let (addr, _handle, join) = spawn(config.clone());
    let id = submit_detached(addr, JOB).expect("submit");
    let bytes = poll_job(addr, id, |_| {}).expect("result");
    shutdown(addr).expect("POST /shutdown");
    join.join().expect("serve thread").expect("serve returns");
    // A result an older build dumped still names the retired `chunk`
    // spec field: its spec no longer parses, so recovery skips it.
    let stale = id + 1000;
    let old = bytes.replacen("\"small\":", "\"chunk\":64,\"small\":", 1);
    assert_ne!(old, bytes, "the dumped spec names `small`");
    std::fs::write(dump.join(format!("job_{stale}.json")), old).expect("write stale dump");

    // Second life, same dump dir: the result is pollable at its old id
    // before any new work runs, and the listing/status agree it's done.
    let (addr, _handle, join) = spawn(config);
    assert!(
        job_result(addr, stale).is_err(),
        "a dump whose spec names \"chunk\" must be skipped"
    );
    assert_eq!(
        job_result(addr, id).expect("recovered result"),
        bytes,
        "recovery must serve the persisted bytes verbatim"
    );
    assert_eq!(state_of(addr, id), "done");
    assert!(
        get(addr, "/jobs")
            .expect("GET /jobs")
            .contains(&format!("\"id\":{id}")),
        "recovered job missing from the listing"
    );

    // New admissions never collide with recovered ids, and a rerun of
    // the same spec dedups onto the recovered bytes — byte identity
    // survives the restart.
    let fresh = submit_detached(addr, JOB).expect("fresh submit");
    assert!(fresh > id, "fresh id {fresh} collides with recovered {id}");
    assert_eq!(poll_job(addr, fresh, |_| {}).expect("fresh result"), bytes);
    assert_eq!(stat(addr, "results", "dedups"), 1);

    shutdown(addr).expect("second shutdown");
    join.join().expect("serve thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dump);
}
