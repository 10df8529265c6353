//! Chaos suite: every injected fault — stalled sockets, worker panics,
//! forced generation failures, mid-stream disconnects, overload — must
//! leave the server alive (`/healthz` answers), at full worker strength
//! (the next job completes), and semantically intact (identical jobs
//! keep returning byte-identical results with warm-cache hit counts, no
//! leaked trace-pool pins).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_service::http::{read_response_meta, Response};
use addict_service::{get, poll_job, submit, submit_detached, Server, ServerConfig, ServerHandle};

const JOB: &str = r#"{"benchmarks": ["tpcb"], "n_xcts": 12, "small": true}"#;

fn spawn(config: ServerConfig) -> (std::net::SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn raw_post(addr: std::net::SocketAddr, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    read_response_meta(&mut BufReader::new(stream)).expect("response parses")
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

fn assert_alive(addr: std::net::SocketAddr) {
    assert_eq!(get(addr, "/healthz").expect("healthz"), "ok\n");
}

fn assert_unpinned(addr: std::net::SocketAddr) {
    for _ in 0..100 {
        if stat(addr, "cache", "pinned_entries") == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("trace-pool pins leaked");
}

fn batch_reference(job: &str) -> String {
    let spec = JobSpec::from_json(job).expect("job parses");
    run_job(&spec, &TracePool::unbounded(), &|_: &str| {})
        .expect("batch run")
        .to_json()
}

#[test]
fn stalled_socket_times_out_without_pinning_the_worker() {
    // ONE connection worker and a tight read deadline: if the slow-loris
    // connection pinned it, the follow-up healthz would hang forever.
    let (addr, _handle) = spawn(ServerConfig {
        workers: 1,
        io_timeout_ms: 200,
        ..ServerConfig::default()
    });

    let mut slow = TcpStream::connect(addr).expect("connect");
    // A request line and then... nothing. The body never comes.
    write!(slow, "POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n").expect("partial send");
    slow.flush().expect("flush");
    let resp = read_response_meta(&mut BufReader::new(slow.try_clone().expect("clone")))
        .expect("server answers the stalled client");
    assert_eq!(resp.status, 408, "{resp:?}");
    assert!(resp.body.contains("timeout"), "{resp:?}");

    // The single worker is free again: real traffic flows.
    assert_alive(addr);
    let result = submit(addr, JOB, |_| {}).expect("job after slow-loris");
    assert_eq!(result, batch_reference(JOB));
}

#[test]
fn worker_panic_is_contained_and_the_executor_survives() {
    // ONE executor: if the panic killed it, the follow-up job would
    // never leave the queue.
    let (addr, handle) = spawn(ServerConfig {
        job_workers: 1,
        ..ServerConfig::default()
    });

    handle.faults().panic_next_jobs(1);
    let err = submit(addr, JOB, |_| {}).expect_err("panicking job");
    assert!(
        err.contains("500") && err.contains("job_failed") && err.contains("injected worker panic"),
        "{err}"
    );
    assert_eq!(stat(addr, "lifecycle", "failed"), 1);
    assert_alive(addr);
    assert_unpinned(addr);

    // The same executor thread now runs the same spec to a clean,
    // byte-identical completion.
    let result = submit(addr, JOB, |_| {}).expect("job after panic");
    assert_eq!(result, batch_reference(JOB));
    assert_eq!(stat(addr, "lifecycle", "done"), 1);
}

#[test]
fn generation_fault_clears_the_pending_slot_and_recovers() {
    let (addr, handle) = spawn(ServerConfig {
        job_workers: 1,
        ..ServerConfig::default()
    });

    // The first trace generation dies mid-flight (engine population
    // failure). The pool's pending-slot guard must clear the slot, the
    // executor must contain the panic, and the job must fail
    // structurally.
    handle.fail_next_generations(1);
    let err = submit(addr, JOB, |_| {}).expect_err("generation fault");
    assert!(
        err.contains("500") && err.contains("injected generation fault"),
        "{err}"
    );
    assert_alive(addr);
    assert_unpinned(addr);

    // The retry generates cleanly — no wedged pending slot, counters
    // show one aborted miss plus the two real generations.
    let result = submit(addr, JOB, |_| {}).expect("retry after generation fault");
    assert_eq!(result, batch_reference(JOB));
    assert_eq!(stat(addr, "cache", "misses"), 3);
    assert_eq!(stat(addr, "cache", "generations"), 2);
    assert_eq!(stat(addr, "lifecycle", "failed"), 1);
    assert_eq!(stat(addr, "lifecycle", "done"), 1);
}

#[test]
fn mid_stream_disconnect_leaves_the_job_running_to_completion() {
    let (addr, _handle) = spawn(ServerConfig::default());

    // Stream a job but hang up after the first progress line — the
    // aborting-client fault.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs?wait=1 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{JOB}",
        JOB.len()
    )
    .expect("send");
    let mut reader = BufReader::new(stream);
    let mut saw_progress = false;
    for _ in 0..64 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        if line.starts_with("# ") {
            saw_progress = true;
            break;
        }
    }
    assert!(saw_progress, "never saw a progress line before aborting");
    drop(reader); // the disconnect

    // The job survives its client: the registry finishes it, and any
    // later client can poll the full result by id.
    let listing = get(addr, "/jobs").expect("GET /jobs");
    let doc = JsonValue::parse(listing.trim()).expect("listing is valid JSON");
    let jobs = doc.get("jobs").unwrap().as_arr("jobs").unwrap();
    assert_eq!(jobs.len(), 1, "{listing}");
    let id = jobs[0].get("id").unwrap().as_u64("id").unwrap();
    let polled = poll_job(addr, id, |_| {}).expect("poll the abandoned job");
    assert_eq!(polled, batch_reference(JOB));

    // And the traces it generated stay warm for the next client.
    let streamed = submit(addr, JOB, |_| {}).expect("warm resubmission");
    assert_eq!(streamed, polled);
    assert_eq!(stat(addr, "cache", "hits"), 2);
    assert_eq!(stat(addr, "cache", "generations"), 2);
    // Both ranges traced clones of one populated engine, still resident.
    assert_eq!(stat(addr, "cache", "populations"), 1);
    assert!(stat(addr, "cache", "snapshot_bytes") > 0);
    assert_alive(addr);
    assert_unpinned(addr);
}

#[test]
fn byte_overload_rejects_before_generation_even_under_concurrency() {
    // A budget that fits one cold TPC-B n=50 job (two trace ranges at
    // ~24 KiB each) but not two: of N concurrent distinct-seed
    // submissions, exactly one is admitted and the rest answer a
    // structured 503 + Retry-After *before* any generation starts.
    let (addr, _handle) = spawn(ServerConfig {
        job_workers: 1,
        cache_budget: 60_000,
        ..ServerConfig::default()
    });

    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    let job = format!(
                        r#"{{"benchmarks": ["tpcb"], "n_xcts": 50, "small": true, "seed": {}}}"#,
                        100 + i
                    );
                    raw_post(addr, "/jobs", &job)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let admitted: Vec<&Response> = responses.iter().filter(|r| r.status == 202).collect();
    let rejected: Vec<&Response> = responses.iter().filter(|r| r.status == 503).collect();
    assert_eq!(
        (admitted.len(), rejected.len()),
        (1, 3),
        "admission must be deterministic under concurrency: {responses:?}"
    );
    for r in &rejected {
        assert_eq!(r.retry_after, Some(5), "{r:?}");
        assert!(r.body.contains("over_capacity"), "{r:?}");
    }

    // The admitted job completes; the rejected ones never generated —
    // exactly one job's worth of trace ranges exist.
    let id = JsonValue::parse(admitted[0].body.trim())
        .unwrap()
        .get("id")
        .unwrap()
        .as_u64("id")
        .unwrap();
    poll_job(addr, id, |_| {}).expect("admitted job completes");
    assert_eq!(stat(addr, "cache", "generations"), 2);
    // The populated TPC-B engine (about 50 KB) does not fit beside a
    // trace range, so it is evicted first and each miss populates anew.
    assert_eq!(stat(addr, "cache", "populations"), 2);
    assert_eq!(stat(addr, "cache", "snapshot_bytes"), 0);
    assert_eq!(stat(addr, "lifecycle", "done"), 1);
    assert_alive(addr);
}

/// A transaction count whose trace estimate overflows `usize`
/// (⌈2^64 / 302⌉, TPC-B's per-transaction slope) must saturate and be
/// rejected, not wrap to a few kilobytes and be admitted into a
/// generation that asks for exabytes.
#[test]
fn huge_n_xcts_is_over_budget_not_wrapped() {
    let (addr, _handle) = spawn(ServerConfig::default());
    let job = r#"{"benchmarks": ["tpcb"], "n_xcts": 61081934018905801}"#;
    let r = raw_post(addr, "/jobs", job);
    assert_eq!(r.status, 503, "{r:?}");
    assert!(r.body.contains("over_capacity"), "{r:?}");
    assert_eq!(stat(addr, "cache", "generations"), 0);
    assert_alive(addr);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One executor parked mid-job, a one-slot queue: the first extra
    // submission queues, the second bounces with 429 + Retry-After.
    let (addr, handle) = spawn(ServerConfig {
        job_workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    });
    handle.faults().stall_after_progress(1);
    let runner = submit_detached(addr, JOB).expect("runner");
    assert!(handle.faults().wait_until_stalled(Duration::from_secs(20)));
    let queued = submit_detached(addr, JOB).expect("queued");

    let bounced = raw_post(addr, "/jobs", JOB);
    assert_eq!(bounced.status, 429, "{bounced:?}");
    assert_eq!(bounced.retry_after, Some(1), "{bounced:?}");
    assert!(bounced.body.contains("queue_full"), "{bounced:?}");

    // Liveness endpoints answer while the queue is full.
    assert_alive(addr);
    handle.faults().release_stall();
    let first = poll_job(addr, runner, |_| {}).expect("runner completes");
    let second = poll_job(addr, queued, |_| {}).expect("queued completes");
    assert_eq!(first, second, "queueing must not change the bytes");
    assert_eq!(first, batch_reference(JOB));
}
