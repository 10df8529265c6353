//! A minimal HTTP/1.1 client that times what a caller of `addict-serve`
//! waits for: the first response byte and the last.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Seconds from connecting to the first response byte.
    pub first_byte_s: f64,
    /// Seconds from connecting to the last response byte.
    pub total_s: f64,
    /// Response body.
    pub body: String,
}

/// Send `method path` with an optional JSON body and read the whole reply.
/// `timeout` bounds every socket read and write; a reply that stalls
/// longer is an error.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Reply, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: addict\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send {method} {path}: {e}"))?;

    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut first_byte_s = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {method} {path}: {e}"))?;
        if n == 0 {
            break;
        }
        first_byte_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
        buf.extend_from_slice(&chunk[..n]);
        if content_complete(&buf) {
            break;
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    let text = String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_owned())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("reply has no header end: {text:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    Ok(Reply {
        status,
        first_byte_s: first_byte_s.unwrap_or(total_s),
        total_s,
        body: body.to_owned(),
    })
}

/// True once `buf` holds a header with `Content-Length` and that many
/// body bytes. Streamed replies carry no length; the server's close ends them.
fn content_complete(buf: &[u8]) -> bool {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let head = String::from_utf8_lossy(&buf[..end]);
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .is_some_and(|len| buf.len() >= end + 4 + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_length_ends_a_reply_and_streams_do_not() {
        assert!(!content_complete(b"HTTP/1.1 200 OK\r\nContent-Len"));
        assert!(!content_complete(
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n{}"
        ));
        assert!(content_complete(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}"
        ));
        assert!(!content_complete(
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n# point 1/2\n"
        ));
    }
}
