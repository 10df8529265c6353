//! Client side of the service protocol: submit a job (streamed or
//! detached), poll, cancel, retry with backoff, render the result table.
//! `addict-cli` is a thin shell over this.

use std::io::{BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use addict_bench::jsontext::JsonValue;
use addict_bench::{summary_rows, SummaryRow};

use crate::http::{read_response_meta, write_request, Response};
use crate::jobs::JobId;

/// A failed service interaction, carrying what the retry policy needs:
/// the HTTP status (when one arrived) and any `Retry-After` hint.
#[derive(Debug, Clone)]
pub struct ServiceError {
    /// Status code, or `None` for a transport failure (connect/read).
    pub status: Option<u16>,
    /// The server's `Retry-After` seconds, when sent (429/503).
    pub retry_after: Option<u64>,
    /// Human-readable diagnosis.
    pub message: String,
}

impl ServiceError {
    fn transport(message: String) -> Self {
        ServiceError {
            status: None,
            retry_after: None,
            message,
        }
    }

    /// Whether a retry can help: transport failures, timeouts (408),
    /// overload (429), and server-side errors (5xx). A `400`/`404`/`409`
    /// will fail identically on every attempt.
    pub fn retryable(&self) -> bool {
        match self.status {
            None => true,
            Some(s) => s == 408 || s == 429 || (500..=599).contains(&s),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.status {
            Some(s) => write!(f, "server answered {s}: {}", self.message.trim()),
            None => f.write_str(self.message.trim()),
        }
    }
}

/// One request/response exchange (non-streaming endpoints).
fn request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ServiceError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServiceError::transport(format!("connect: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ServiceError::transport(format!("clone: {e}")))?;
    write_request(&mut writer, method, path, body.unwrap_or(""))
        .map_err(|e| ServiceError::transport(format!("send: {e}")))?;
    read_response_meta(&mut BufReader::new(stream)).map_err(ServiceError::transport)
}

/// Turn a non-200 response into a [`ServiceError`] (extracting the
/// structured `message` when the body carries one).
fn status_error(resp: Response) -> ServiceError {
    let message = JsonValue::parse(resp.body.trim())
        .ok()
        .and_then(|doc| {
            let err = doc.get("error")?;
            let code = err.get("code")?.as_str("code").ok()?.to_owned();
            let msg = err.get("message")?.as_str("message").ok()?.to_owned();
            Some(format!("{code}: {msg}"))
        })
        .unwrap_or_else(|| resp.body.trim().to_owned());
    ServiceError {
        status: Some(resp.status),
        retry_after: resp.retry_after,
        message,
    }
}

/// POST `spec_json` to `/jobs?wait=1` and return the result JSON.
/// Progress lines (the `#`-prefixed stream before the result) are handed
/// to `on_progress` as they arrive.
pub fn submit<A: ToSocketAddrs>(
    addr: A,
    spec_json: &str,
    mut on_progress: impl FnMut(&str),
) -> Result<String, String> {
    submit_once(addr, spec_json, &mut on_progress).map_err(|e| e.to_string())
}

fn submit_once<A: ToSocketAddrs>(
    addr: A,
    spec_json: &str,
    on_progress: &mut dyn FnMut(&str),
) -> Result<String, ServiceError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServiceError::transport(format!("connect: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ServiceError::transport(format!("clone: {e}")))?;
    write_request(&mut writer, "POST", "/jobs?wait=1", spec_json)
        .map_err(|e| ServiceError::transport(format!("send: {e}")))?;

    let mut reader = BufReader::new(stream);
    // Status line + headers. The server defers the 200 until the job
    // does real work, so a pre-start failure arrives as a proper status.
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| ServiceError::transport(format!("read status: {e}")))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServiceError::transport(format!("malformed status line {line:?}")))?;
    let mut retry_after = None;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| ServiceError::transport(format!("read header: {e}")))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    if status != 200 {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(status_error(Response {
            status,
            retry_after,
            body,
        }));
    }
    // Progress lines until the blank separator, then the result document.
    let mut last_progress = String::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| ServiceError::transport(format!("read progress: {e}")))?;
        if n == 0 {
            // The stream ended without a result: the job died mid-run
            // (its `# error:` trailer is the diagnosis). The 200 already
            // went out, so surface it as a non-retryable error — the
            // job's fate is known, a blind resubmit may not be wanted.
            let context = if last_progress.is_empty() {
                String::new()
            } else {
                format!(" (last: {last_progress})")
            };
            return Err(ServiceError {
                status: Some(200),
                retry_after: None,
                message: format!("connection closed before the result{context}"),
            });
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let line = line.strip_prefix("# ").unwrap_or(line);
        last_progress = line.to_owned();
        on_progress(line);
    }
    let mut result = String::new();
    reader
        .read_to_string(&mut result)
        .map_err(|e| ServiceError::transport(format!("read result: {e}")))?;
    Ok(result)
}

/// Backoff before retry `attempt` (0-based): the server's `Retry-After`
/// when present (floored at 1 s — a server emitting `Retry-After: 0`
/// must not turn the client into a zero-delay reconnect spin against an
/// already-overloaded server), else exponential from `base_ms` with
/// deterministic jitter derived from `salt` (no RNG dependency; distinct
/// salts decorrelate a client fleet). Capped at 30 s.
pub fn backoff_ms(attempt: u32, base_ms: u64, retry_after_s: Option<u64>, salt: u64) -> u64 {
    if let Some(s) = retry_after_s {
        return s.max(1).saturating_mul(1000).min(30_000);
    }
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(10));
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for b in attempt.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    exp.saturating_add(h % base).min(30_000)
}

/// [`submit`] with up to `retries` retries on retryable failures
/// (connect errors, 408/429/5xx), honoring `Retry-After` and backing
/// off exponentially with jitter otherwise. `on_retry` observes each
/// `(attempt, delay_ms, error)` before the sleep.
pub fn submit_with_retry<A: ToSocketAddrs + Clone>(
    addr: A,
    spec_json: &str,
    retries: u32,
    base_ms: u64,
    mut on_progress: impl FnMut(&str),
    mut on_retry: impl FnMut(u32, u64, &str),
) -> Result<String, String> {
    let salt = u64::from(std::process::id());
    let mut attempt = 0u32;
    loop {
        match submit_once(addr.clone(), spec_json, &mut on_progress) {
            Ok(result) => return Ok(result),
            Err(e) if attempt < retries && e.retryable() => {
                let delay = backoff_ms(attempt, base_ms, e.retry_after, salt);
                on_retry(attempt + 1, delay, &e.to_string());
                std::thread::sleep(Duration::from_millis(delay));
                attempt += 1;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// POST `spec_json` to `/jobs` (detached): returns the job id
/// immediately; the job runs server-side regardless of what this client
/// does next.
pub fn submit_detached<A: ToSocketAddrs>(addr: A, spec_json: &str) -> Result<JobId, String> {
    let resp = request(addr, "POST", "/jobs", Some(spec_json)).map_err(|e| e.to_string())?;
    if resp.status != 202 {
        return Err(status_error(resp).to_string());
    }
    JsonValue::parse(resp.body.trim())
        .ok()
        .and_then(|doc| doc.get("id")?.as_u64("id").ok())
        .ok_or_else(|| format!("malformed submission reply: {}", resp.body.trim()))
}

/// GET `/jobs/<id>`: the raw status JSON.
pub fn job_status<A: ToSocketAddrs>(addr: A, id: JobId) -> Result<String, String> {
    get(addr, &format!("/jobs/{id}"))
}

/// GET `/jobs/<id>/result`: the stored result bytes (errors carry the
/// structured status — `409` not ready, `410` evicted, ...).
pub fn job_result<A: ToSocketAddrs>(addr: A, id: JobId) -> Result<String, ServiceError> {
    let resp = request(addr, "GET", &format!("/jobs/{id}/result"), None)?;
    if resp.status != 200 {
        return Err(status_error(resp));
    }
    Ok(resp.body)
}

/// Follow a detached job to completion: poll `/jobs/<id>`, emit progress
/// lines as they appear, and return the stored result once done. Errors
/// on terminal non-done states (carrying the server's diagnostic).
pub fn poll_job<A: ToSocketAddrs + Clone>(
    addr: A,
    id: JobId,
    mut on_progress: impl FnMut(&str),
) -> Result<String, String> {
    let mut seen = 0usize;
    loop {
        let status = job_status(addr.clone(), id)?;
        let doc =
            JsonValue::parse(status.trim()).map_err(|e| format!("malformed status body: {e}"))?;
        let state = doc
            .get("state")
            .and_then(|v| v.as_str("state").ok().map(str::to_owned))
            .ok_or("status body is missing \"state\"")?;
        if let Some(progress) = doc.get("progress").and_then(|v| v.as_arr("progress").ok()) {
            for line in progress.iter().skip(seen) {
                if let Ok(text) = line.as_str("progress line") {
                    on_progress(text);
                }
            }
            seen = seen.max(progress.len());
        }
        match state.as_str() {
            "done" => return job_result(addr, id).map_err(|e| e.to_string()),
            "queued" | "running" => {
                std::thread::sleep(Duration::from_millis(150));
            }
            terminal => {
                let detail = doc
                    .get("error")
                    .and_then(|v| v.as_str("error").ok().map(str::to_owned))
                    .unwrap_or_else(|| terminal.to_owned());
                return Err(format!("job {id} {terminal}: {detail}"));
            }
        }
    }
}

/// DELETE `/jobs/<id>`: request cancellation. Returns the server's
/// `{"id":...,"state":...}` acknowledgment.
pub fn cancel_job<A: ToSocketAddrs>(addr: A, id: JobId) -> Result<String, String> {
    let resp = request(addr, "DELETE", &format!("/jobs/{id}"), None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(status_error(resp).to_string());
    }
    Ok(resp.body)
}

/// POST `/shutdown`: ask the server to drain and exit.
pub fn shutdown<A: ToSocketAddrs>(addr: A) -> Result<String, String> {
    let resp = request(addr, "POST", "/shutdown", None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(status_error(resp).to_string());
    }
    Ok(resp.body)
}

/// GET an endpoint (`/stats`, `/healthz`, `/jobs/<id>`) and return its
/// body.
pub fn get<A: ToSocketAddrs>(addr: A, path: &str) -> Result<String, String> {
    let resp = request(addr, "GET", path, None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(status_error(resp).to_string());
    }
    Ok(resp.body)
}

/// Render a serialized [`JobResult`](addict_bench::JobResult) as the
/// summary table `addict-cli` prints.
pub fn render_table(result_json: &str) -> Result<String, String> {
    let rows = summary_rows(result_json).map_err(|e| e.message)?;
    Ok(format_rows(&rows))
}

fn format_rows(rows: &[SummaryRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<9} {:>6} {:>10} {:>14} {:>10} {:>12}",
        "workload", "scheduler", "batch", "events", "total_cycles", "l1i_mpki", "switches/ki"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:<9} {:>6} {:>10} {:>14.0} {:>10.2} {:>12.3}",
            r.workload,
            r.scheduler,
            r.batch_size
                .map_or_else(|| "-".to_owned(), |b| b.to_string()),
            r.events,
            r.total_cycles,
            r.l1i_mpki,
            r.switches_per_ki,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_one_row_per_point() {
        let doc = r#"{
  "spec": {"benchmarks":["tpcb"],"schedulers":["baseline"],"n_xcts":2,"threads":1,"batch_sizes":[],"small":true,"seed":2,"deadline_ms":0},
  "points": [
    { "workload": "TPC-B", "scheduler": "Baseline", "batch_size": null, "n_xcts": 2, "events": 100, "instructions": 900, "total_cycles": 1234.5, "avg_latency_cycles": 10.0, "l1i_mpki": 7.25, "l1d_mpki": 1.0, "llc_mpki": 0.5, "switches_per_ki": 0.125, "overhead_fraction": 0, "result_fnv64": "00000000deadbeef" },
    { "workload": "TPC-B", "scheduler": "ADDICT", "batch_size": 8, "n_xcts": 2, "events": 100, "instructions": 900, "total_cycles": 900.0, "avg_latency_cycles": 9.0, "l1i_mpki": 3.5, "l1d_mpki": 1.0, "llc_mpki": 0.5, "switches_per_ki": 0.25, "overhead_fraction": 0.01, "result_fnv64": "00000000deadbeef" }
  ]
}"#;
        let table = render_table(doc).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "{table}");
        assert!(lines[0].contains("total_cycles"));
        assert!(lines[1].contains("Baseline") && lines[1].contains('-'));
        assert!(lines[2].contains("ADDICT") && lines[2].contains('8'));
        assert!(render_table("{}").is_err());
    }

    #[test]
    fn backoff_honors_retry_after_and_grows_with_jitter() {
        // Retry-After wins verbatim (seconds → ms), capped.
        assert_eq!(backoff_ms(0, 100, Some(5), 7), 5000);
        assert_eq!(backoff_ms(3, 100, Some(90), 7), 30_000);
        // Exponential without the hint: each attempt at least doubles
        // the base, jitter stays under one base.
        for attempt in 0..6 {
            let d = backoff_ms(attempt, 100, None, 7);
            let floor = 100 << attempt;
            assert!(d >= floor && d < floor + 100, "attempt {attempt}: {d}");
        }
        // Deterministic per (attempt, salt); different salts decorrelate.
        assert_eq!(backoff_ms(2, 100, None, 7), backoff_ms(2, 100, None, 7));
        let spread: std::collections::HashSet<u64> = (0..16)
            .map(|salt| backoff_ms(0, 1000, None, salt))
            .collect();
        assert!(spread.len() > 8, "jitter collapsed: {spread:?}");
        // Capped at 30 s even for huge attempts.
        assert_eq!(backoff_ms(31, 10_000, None, 7), 30_000);
    }

    /// A server-sent `Retry-After: 0` must not become a zero-millisecond
    /// reconnect spin: the client floors the hint at one second.
    #[test]
    fn retry_after_zero_floors_at_one_second() {
        assert_eq!(backoff_ms(0, 100, Some(0), 7), 1000);
        for attempt in 0..4 {
            assert!(
                backoff_ms(attempt, 1, Some(0), attempt.into()) >= 1000,
                "attempt {attempt} spun"
            );
        }
        // Non-zero hints are still honored verbatim.
        assert_eq!(backoff_ms(0, 100, Some(1), 7), 1000);
        assert_eq!(backoff_ms(0, 100, Some(2), 7), 2000);
    }

    #[test]
    fn retryability_follows_the_status_class() {
        let e = |status: Option<u16>| ServiceError {
            status,
            retry_after: None,
            message: String::new(),
        };
        assert!(e(None).retryable()); // transport
        for s in [408, 429, 500, 503, 504] {
            assert!(e(Some(s)).retryable(), "{s}");
        }
        for s in [200, 400, 404, 409, 410] {
            assert!(!e(Some(s)).retryable(), "{s}");
        }
    }
}
