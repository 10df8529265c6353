//! `addict-serve` as a child process.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::request;

/// How long a drained server may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// A running `addict-serve`, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Held open for the child's lifetime: its exit message would fail
    /// (and panic `println!`) on a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The bound `host:port`.
    pub addr: String,
}

impl ServerProc {
    /// Start `bin` on an ephemeral loopback port and wait until it
    /// reports its bound address.
    pub fn start(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server banner: {e}"))?;
            if n == 0 {
                return Err("addict-serve exited before listening".to_owned());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                return Ok(server);
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// Drain the server with `POST /shutdown` and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = request(
            &self.addr,
            "POST",
            "/shutdown",
            None,
            Duration::from_secs(10),
        )?;
        if reply.status != 200 {
            return Err(format!("shutdown answered {}", reply.status));
        }
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("addict-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("addict-serve did not exit after draining".to_owned()),
                Err(e) => return Err(format!("waiting for addict-serve: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
