//! `fchain` — simulate faulty cloud applications, diagnose them with
//! FChain, and compare black-box localization schemes.
//!
//! ```text
//! fchain run      --app rubis --fault cpuhog --seed 42 [--duration 3600] [--json]
//! fchain diagnose --app rubis --fault memleak --seed 7 [--lookback 100] [--validate]
//!                 [--transport uds] [--hosts 2] [--json]
//! fchain compare  --app systems --fault conc_memleak [--runs 30] [--lookback 100]
//! fchain degraded --app rubis --fault cpuhog [--rates 0,0.25,0.5] [--hosts 4] [--json]
//! fchain fleet    [--tenants 1,4,8] [--hosts 2] [--ensemble] [--attribute] [--json]
//! fchain surge    --app rubis [--seed 1] [--runs 10]
//! fchain obs      [--app rubis] [--fault cpuhog] [--seed 900] [--hosts 2] [--json]
//! fchain chaos    [--seed 42] [--scenarios 70] [--scenario K] [--minimize] [--json]
//! fchain list
//! ```

// The vendored `json!` macro's default expansion depth is too shallow
// for the nested chaos replay objects (same as fchain-eval).
#![recursion_limit = "256"]

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
fchain — black-box online fault localization (FChain, ICDCS 2013 reproduction)

USAGE:
    fchain <COMMAND> [FLAGS]

COMMANDS:
    run       simulate one faulty application run and summarize it
    diagnose  simulate a run and let FChain pinpoint the faulty component(s)
    compare   score FChain against the baseline schemes over a campaign
    degraded  sweep the slave-loss rate and report accuracy/coverage degradation
    fleet     drain concurrent SLO violations from many tenants through one master
    surge     demonstrate external-factor (workload change) detection
    obs       run one instrumented diagnosis and print the pipeline snapshot
    chaos     sweep seeded generative fault scenarios and report readiness
    list      print the available applications, faults and schemes

COMMON FLAGS:
    --app <rubis|hadoop|systems>    application model
    --fault <NAME>                  fault to inject (see `fchain list`)
    --seed <N>                      run seed (default 42)
    --duration <TICKS>              run length (default 3600)
    --lookback <W>                  look-back window (default per fault)
    --engine <batch|streaming>      analysis engine (default streaming; both
                                    produce bit-identical reports)
    --transport <in-process|uds|tcp>
                                    master↔slave transport (default in-process).
                                    `diagnose` spawns one `fchaind` daemon per
                                    --hosts, streams the case to it over the
                                    socket, diagnoses through the wire protocol,
                                    and tears the daemons down; `fleet` drains
                                    the whole sweep over real sockets. Socket
                                    reports are bit-identical to an in-process
                                    master deployment.
    --runs <N>                      campaign size (default 30)
    --validate                      also run online pinpointing validation
    --replay-csv <PATH>             replay a recorded `tick,intensity` workload
    --obs-json <PATH>               dump the observability snapshot (stage timings,
                                    counters) accumulated by the command to a file
    --json                          machine-readable output

DEGRADED-MODE FLAGS (fchain degraded):
    --rates <R1,R2,...>             slave-loss rates to sweep (default 0,0.25,0.5,0.75)
    --hosts <N>                     slave daemons to spread components over (default 4)
    --slave-deadline-ms <MS>        per-slave response deadline, 0 = wait forever (default 0)
    --slave-retries <N>             retry budget for transient slave errors (default 2)
    --slave-backoff-ms <MS>         base backoff between retries (default 1)
    --out <PATH>                    write the JSON sweep to a file

FLEET FLAGS (fchain fleet):
    --tenants <N1,N2,...>           tenant counts to sweep (default 1,4,8)
    --hosts <N>                     daemons in the shared pool (default 2)
    --rpc-delay-ms <MS>             simulated slave RPC latency (default 100)
    --stalled <N>                   tenants whose extra slave stalls (default 0)
    --stall-ms <MS>                 stall duration for those slaves (default 0)
    --slave-deadline-ms <MS>        per-slave response deadline (default 2000)
    --ensemble                      enable the ensemble pinpointing stage
    --attribute                     diff every tenant's fleet report against a
                                    solo re-run and classify each divergence
    --out <PATH>                    write the JSON sweep to a file

CHAOS FLAGS (fchain chaos):
    --seed <N>                      campaign seed; every scenario derives from it
                                    (default 42)
    --scenarios <N>                 scenarios to sweep (default 70; families cycle)
    --scenario <K>                  replay exactly one scenario instead of sweeping
    --minimize                      with --scenario: shrink a failing scenario to a
                                    locally-minimal failing core
    --out <PATH>                    write chaos_readiness.json to a file
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("run") => commands::run(&args),
        Some("diagnose") => commands::diagnose(&args),
        Some("compare") => commands::compare(&args),
        Some("degraded") => commands::degraded(&args),
        Some("fleet") => commands::fleet(&args),
        Some("surge") => commands::surge(&args),
        Some("obs") => commands::obs(&args),
        Some("chaos") => commands::chaos(&args),
        Some("list") => commands::list(),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\nrun `fchain help` for usage");
            ExitCode::FAILURE
        }
    }
}
