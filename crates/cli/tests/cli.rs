//! The `fchain` binary's exit status and error line for bad arguments.

use std::process::Command;

#[test]
fn bad_app_fault_pairs_exit_1_with_an_error_line() {
    let undefined = "error: fault \"diskhog\" is not defined for hadoop (see `fchain list`)\n";
    let unknown = "error: unknown fault \"nope\" (see `fchain list`)\n";
    for (args, expected) in [
        (
            ["diagnose", "--app", "hadoop", "--fault", "diskhog"],
            undefined,
        ),
        (["obs", "--app", "hadoop", "--fault", "diskhog"], undefined),
        (["diagnose", "--app", "hadoop", "--fault", "nope"], unknown),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fchain"))
            .args(args)
            .output()
            .expect("fchain runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(expected), "{args:?}: {stderr}");
    }
}
