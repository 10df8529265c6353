//! End-to-end service gate: a real server on an ephemeral port, real TCP
//! round trips, and the contracts that make the service trustworthy:
//!
//! 1. **Byte identity** — the same job submitted twice, and executed
//!    once more through the in-process batch path, serializes to the
//!    same bytes all three times. The server adds transport, never
//!    semantics.
//! 2. **Cache effectiveness** — the second submission regenerates
//!    nothing: the `/stats` generation counter is unchanged and both
//!    trace fetches count as hits.
//! 3. **Strict admission** — invalid specs (zero transactions, zero
//!    threads, an empty benchmark list) answer 400 with a structured
//!    error naming the offending field, and never touch the counters.
//! 4. **Detach equivalence** — a job submitted detached, with the client
//!    gone the whole time it runs, polls back byte-identical to the
//!    synchronous streamed path.

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_service::{
    get, job_result, job_status, poll_job, submit, submit_detached, Server, ServerConfig,
};

/// Bind on port 0, serve on a background thread, return the address.
fn spawn_server() -> std::net::SocketAddr {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            job_workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || server.serve());
    addr
}

/// The smoke job: small-scale TPC-B under every scheduler — big enough
/// to exercise profiling, Algorithm 1, and every scheduler (speculative
/// HTMX included); small enough for a debug-build CI run.
const SMOKE_JOB: &str = r#"{"benchmarks": ["tpcb"], "n_xcts": 24, "threads": 2, "small": true}"#;

/// `(hits, misses, generations, alg1_runs)` from one `/stats` snapshot.
fn cache_counters(addr: std::net::SocketAddr) -> (u64, u64, u64, u64) {
    let body = get(addr, "/stats").expect("GET /stats");
    let doc = JsonValue::parse(body.trim()).expect("stats is valid JSON");
    let cache = doc.get("cache").expect("cache section");
    let n = |k: &str| cache.get(k).expect(k).as_u64(k).unwrap();
    (n("hits"), n("misses"), n("generations"), n("alg1_runs"))
}

#[test]
fn server_jobs_are_byte_identical_and_cached() {
    let addr = spawn_server();

    let body = get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(body, "ok\n");

    // Cold: both trace ranges (profile + eval) generate.
    let mut progress_cold = Vec::new();
    let first = submit(addr, SMOKE_JOB, |line| progress_cold.push(line.to_owned()))
        .expect("first submission");
    let (hits, misses, generations, alg1_runs) = cache_counters(addr);
    assert_eq!(misses, 2, "profile + eval ranges generate once each");
    assert_eq!(generations, 2);
    assert_eq!(hits, 0);
    assert_eq!(alg1_runs, 1, "one profile range, one migration map");
    assert!(
        progress_cold.iter().any(|l| l.contains("generated")),
        "cold run must report generation: {progress_cold:?}"
    );
    // Progress streamed one line per trace fetch + one per grid point.
    assert_eq!(progress_cold.len(), 1 + 5, "{progress_cold:?}");

    // Warm: byte-identical result, zero regeneration, pure cache hits.
    let mut progress_warm = Vec::new();
    let second = submit(addr, SMOKE_JOB, |line| progress_warm.push(line.to_owned()))
        .expect("second submission");
    assert_eq!(
        first, second,
        "same spec must serialize byte-identical across submissions"
    );
    let (hits, misses, generations, alg1_runs) = cache_counters(addr);
    assert_eq!(generations, 2, "warm run regenerated traces");
    assert_eq!(alg1_runs, 1, "warm run re-ran Algorithm 1");
    assert_eq!(misses, 2);
    assert_eq!(hits, 2, "warm run must hit for profile and eval");
    assert!(
        progress_warm.iter().any(|l| l.contains("cache hit")),
        "warm run must report hits: {progress_warm:?}"
    );

    // The batch path — same spec, same executor, no server — produces
    // the same bytes: the service adds transport, never semantics.
    let spec = JobSpec::from_json(SMOKE_JOB).expect("smoke job parses");
    let pool = TracePool::unbounded();
    let batch = run_job(&spec, &pool, &|_: &str| {}).expect("batch run");
    assert_eq!(
        first,
        batch.to_json(),
        "server and batch executions must serialize byte-identical"
    );

    // And the jobs counter saw both submissions.
    let stats = get(addr, "/stats").expect("GET /stats");
    let doc = JsonValue::parse(stats.trim()).unwrap();
    assert_eq!(doc.get("jobs").unwrap().as_u64("jobs").unwrap(), 2);
}

#[test]
fn detached_job_survives_disconnect_and_polls_byte_identical() {
    let addr = spawn_server();

    // The synchronous reference: stream the job to completion.
    let streamed = submit(addr, SMOKE_JOB, |_| {}).expect("streamed submission");

    // Detach: POST /jobs answers immediately with an id; the submitting
    // connection closes right there — the rest of the job's life happens
    // with no client attached (the simulated disconnect).
    let id = submit_detached(addr, SMOKE_JOB).expect("detached submission");

    // A later client (same process here, any process in general)
    // follows the job by id and fetches the stored result.
    let mut progress = Vec::new();
    let polled = poll_job(addr, id, |line| progress.push(line.to_owned())).expect("poll to done");
    assert_eq!(
        streamed, polled,
        "detached+polled result must be byte-identical to the streamed path"
    );
    // Polling again after done re-serves the exact same bytes.
    assert_eq!(polled, job_result(addr, id).expect("re-poll"));
    // The detached run was warm: progress reported cache hits, and the
    // status body agrees the job is done with a result digest.
    assert!(
        progress.iter().any(|l| l.contains("cache hit")),
        "{progress:?}"
    );
    let status = job_status(addr, id).expect("status");
    let doc = JsonValue::parse(status.trim()).expect("status is valid JSON");
    assert_eq!(doc.get("state").unwrap().as_str("state").unwrap(), "done");
    assert!(doc.get("result_fnv64").unwrap().as_str("digest").is_ok());

    // And the listing knows the job.
    let listing = get(addr, "/jobs").expect("GET /jobs");
    assert!(listing.contains("\"state\":\"done\""), "{listing}");
}

#[test]
fn invalid_specs_answer_structured_400s() {
    let addr = spawn_server();
    for (job, field) in [
        // Zero transactions.
        (r#"{"benchmarks": ["tpcb"], "n_xcts": 0}"#, "n_xcts"),
        // Zero worker threads.
        (
            r#"{"benchmarks": ["tpcb"], "n_xcts": 8, "threads": 0}"#,
            "threads",
        ),
        // Empty benchmark list.
        (r#"{"benchmarks": [], "n_xcts": 8}"#, "benchmarks"),
        // Unknown benchmark name.
        (r#"{"benchmarks": ["tpcz"], "n_xcts": 8}"#, "benchmarks"),
        // Unknown field (strict parsing: typos never default silently).
        (
            r#"{"benchmarks": ["tpcb"], "n_xcts": 8, "xcts": 9}"#,
            "spec",
        ),
        // Not JSON at all.
        ("queue me a job", "spec"),
    ] {
        // The raw wire answer carries the structured body.
        let resp = raw_post(addr, "/jobs", job);
        assert_eq!(resp.status, 400, "{job}");
        let doc = JsonValue::parse(resp.body.trim())
            .unwrap_or_else(|e| panic!("{job}: {e} in {:?}", resp.body));
        let error = doc.get("error").expect("error object");
        assert_eq!(
            error.get("code").unwrap().as_str("code").unwrap(),
            "invalid_spec",
            "{job}"
        );
        assert_eq!(
            error.get("field").unwrap().as_str("field").unwrap(),
            field,
            "{job}"
        );
        // The client surfaces the same diagnosis.
        let err = submit(addr, job, |_| {}).expect_err(job);
        assert!(
            err.contains("400") && err.contains("invalid_spec"),
            "{job} gave {err}"
        );
    }
    // Rejected jobs never touch the trace cache or the jobs counter.
    let (hits, misses, generations, _) = cache_counters(addr);
    assert_eq!((hits, misses, generations), (0, 0, 0));
    let stats = get(addr, "/stats").expect("GET /stats");
    let doc = JsonValue::parse(stats.trim()).unwrap();
    assert_eq!(doc.get("jobs").unwrap().as_u64("jobs").unwrap(), 0);

    // Unknown routes and ids are structured 404s.
    let err = get(addr, "/nope").expect_err("404 route");
    assert!(err.contains("404"), "{err}");
    let err = job_status(addr, 999).expect_err("404 job");
    assert!(err.contains("404"), "{err}");
}

/// One raw POST, returning the parsed response (status + Retry-After +
/// body) — for asserting on wire-level details the client API abstracts.
fn raw_post(addr: std::net::SocketAddr, path: &str, body: &str) -> addict_service::http::Response {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    addict_service::http::read_response_meta(&mut std::io::BufReader::new(stream))
        .expect("response parses")
}
