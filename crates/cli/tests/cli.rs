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
        let (code, _, stderr) = fchain(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(expected), "{args:?}: {stderr}");
    }
}

/// Runs `fchain` with `args` and returns (exit code, stdout, stderr).
fn fchain(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fchain"))
        .args(args)
        .output()
        .expect("fchain runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_lookback_exits_1_on_every_subcommand() {
    for command in ["diagnose", "compare", "degraded", "fleet", "obs"] {
        for lookback in ["5", "100000000"] {
            let (code, _, stderr) = fchain(&[
                command,
                "--app",
                "rubis",
                "--fault",
                "cpuhog",
                "--lookback",
                lookback,
            ]);
            let expected = format!("error: --lookback {lookback} is outside [10, 86400] ticks\n");
            assert_eq!(code, Some(1), "{command} --lookback {lookback}: {stderr}");
            assert!(
                stderr.starts_with(&expected),
                "{command} --lookback {lookback}: {stderr}"
            );
        }
    }
}

/// The `key` field of a JSON object.
fn field<'a>(object: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    let fields = object.as_map().expect("a JSON object");
    let (_, value) = fields
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .unwrap_or_else(|| panic!("no {key} in {object:?}"));
    value
}

/// The `pinpointed` and `removed_by_validation` fields of a JSON report.
fn answer(json: &str) -> Vec<serde_json::Value> {
    let report: serde_json::Value = serde_json::from_str(json).expect("JSON report");
    ["pinpointed", "removed_by_validation"]
        .iter()
        .map(|&key| field(&report, key).clone())
        .collect()
}

/// `fchain obs` analyzes at the `--lookback` it prints, over daemons that
/// retain the whole case, so it answers what `fchain diagnose --validate`
/// answers. The W = 500 disk hog needs the long window: at W = 100 the
/// same run pinpoints another component.
#[test]
fn obs_honors_lookback_and_matches_diagnose() {
    let case = ["--app", "hadoop", "--fault", "conc_diskhog", "--seed", "3"];
    let run = |command: &str, lookback: &str, extra: &[&str]| {
        let mut args = vec![command, "--lookback", lookback, "--json"];
        args.extend_from_slice(&case);
        args.extend_from_slice(extra);
        let (code, stdout, stderr) = fchain(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        answer(&stdout)
    };
    let diagnosed = run("diagnose", "500", &["--validate"]);
    assert_eq!(run("obs", "500", &[]), diagnosed);
    assert_ne!(run("obs", "100", &[]), diagnosed);
}

/// `fchain degraded` runs its daemons and master at `--lookback`: at
/// W=500 the Hadoop disk hog reaches CUSUM and finds the faulty map on
/// one of three runs, while at W=100 the streaming screen rejects every
/// metric and recall is 0.
#[test]
fn degraded_honors_lookback() {
    let run = |lookback: u64| {
        let obs = std::env::temp_dir().join(format!(
            "fchain-cli-degraded-{}-{lookback}.json",
            std::process::id()
        ));
        let w = lookback.to_string();
        let args = [
            "degraded",
            "--app",
            "hadoop",
            "--fault",
            "conc_diskhog",
            "--runs",
            "3",
            "--rates",
            "0",
            "--lookback",
            &w,
            "--json",
            "--obs-json",
            obs.to_str().expect("utf-8 temp path"),
        ];
        let (code, stdout, stderr) = fchain(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        let sweep: serde_json::Value = serde_json::from_str(&stdout).expect("JSON sweep");
        assert_eq!(
            field(field(&sweep, "case"), "lookback"),
            &serde_json::Value::U64(lookback)
        );
        let point = &field(&sweep, "sweep").as_seq().expect("sweep points")[0];
        let tp = field(point, "tp").clone();
        let snapshot = std::fs::read_to_string(&obs).expect("obs snapshot written");
        let _ = std::fs::remove_file(&obs);
        let snapshot: serde_json::Value = serde_json::from_str(&snapshot).expect("JSON snapshot");
        let counters = field(&snapshot, "counters").clone();
        let candidates = counters
            .as_seq()
            .expect("counter list")
            .iter()
            .find(|c| field(c, "counter").as_str() == Some("change_point_candidates"))
            .map(|c| field(c, "value").clone())
            .expect("change_point_candidates counter");
        (counters, candidates, tp)
    };
    let (w100, candidates100, tp100) = run(100);
    let (w500, candidates500, tp500) = run(500);
    assert_ne!(w500, w100, "W=500 must analyze differently from W=100");
    assert_eq!(candidates100, serde_json::Value::U64(0));
    assert_ne!(candidates500, serde_json::Value::U64(0));
    assert_eq!(tp100, serde_json::Value::U64(0));
    assert_eq!(tp500, serde_json::Value::U64(1));
}
