//! Every figure binary parses its command line strictly: a mistyped trace
//! count (`6O0`, letter O) lands in the output-path positional, which no
//! figure writes, so it must exit 2 instead of running at the default
//! trace count.

use std::process::Command;

#[test]
fn figures_reject_a_non_numeric_positional() {
    let bins = [
        ("fig1", env!("CARGO_BIN_EXE_fig1")),
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ];
    for (name, path) in bins {
        let out = Command::new(path)
            .arg("6O0")
            .output()
            .unwrap_or_else(|e| panic!("spawning {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} 6O0 must be a usage error; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
