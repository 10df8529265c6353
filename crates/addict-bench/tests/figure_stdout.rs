//! Golden stdout of `fig4`, `fig8` and `ablation`: no result digest
//! covers Figure 4's stability metric, the deep hierarchy, per-core
//! power, or the ablation's plan and config variants, so these pin the
//! printed figures byte for byte. The files under `tests/figure_stdout/`
//! are the output of
//!
//! ```text
//! fig4 20
//! fig8 --smoke --benchmarks tatp,ycsba
//! ablation --smoke --benchmarks tatp
//! ```
//!
//! A deliberate change to a figure regenerates its file with the same
//! command.

use std::process::Command;

fn assert_stdout(name: &str, bin: &str, args: &[&str], expected: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} {args:?} failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "{name} {args:?} stdout moved from tests/figure_stdout"
    );
}

#[test]
fn fig4_stdout_matches_golden() {
    assert_stdout(
        "fig4",
        env!("CARGO_BIN_EXE_fig4"),
        &["20"],
        include_str!("figure_stdout/fig4_20.txt"),
    );
}

#[test]
fn fig8_smoke_stdout_matches_golden() {
    assert_stdout(
        "fig8",
        env!("CARGO_BIN_EXE_fig8"),
        &["--smoke", "--benchmarks", "tatp,ycsba"],
        include_str!("figure_stdout/fig8_smoke_tatp_ycsba.txt"),
    );
}

#[test]
fn ablation_smoke_stdout_matches_golden() {
    assert_stdout(
        "ablation",
        env!("CARGO_BIN_EXE_ablation"),
        &["--smoke", "--benchmarks", "tatp"],
        include_str!("figure_stdout/ablation_smoke_tatp.txt"),
    );
}
