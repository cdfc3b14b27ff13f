//! `fchaind` — the FChain slave daemon as a real OS process.
//!
//! One `fchaind` per host is exactly the paper's deployment: the daemon
//! ingests metric samples continuously and answers the master's
//! violation-time collect requests over the wire protocol
//! ([`fchain::wire`]), on either a Unix-domain socket or TCP.
//!
//! ```text
//! fchaind --uds /tmp/fchain.sock
//! fchaind --tcp 127.0.0.1:0 --deadline-ms 2000
//! fchaind --tcp 0.0.0.0:7431 --config fchain.json --lookback 500
//! ```
//!
//! On startup the daemon prints exactly one line, `listening <addr>`,
//! with the *actual* bound address (bind TCP port 0 to let the kernel
//! pick) — a spawning master parses that line to learn where to dial.
//! The process exits when a client sends a shutdown frame.

use fchain::core::slave::SlaveDaemon;
use fchain::core::FChainConfig;
use fchain::wire::{WireAddr, WireServer};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
fchaind — FChain slave daemon

USAGE:
    fchaind --uds <path> [OPTIONS]
    fchaind --tcp <host:port> [OPTIONS]

OPTIONS:
    --uds <path>         listen on a Unix-domain socket at <path>
    --tcp <host:port>    listen on a TCP socket (port 0 picks a free port)
    --config <file>      FChainConfig as JSON (default: built-in defaults)
    --lookback <ticks>   override the configured look-back window
    --deadline-ms <ms>   per-connection read/write deadline (0 = none;
                         default 0)
    --help               print this help
";

struct DaemonArgs {
    addr: WireAddr,
    config: FChainConfig,
    deadline: Option<Duration>,
}

fn parse_args(argv: &[String]) -> Result<DaemonArgs, String> {
    let mut uds: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut lookback: Option<u64> = None;
    let mut deadline_ms: u64 = 0;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--uds" => uds = Some(PathBuf::from(value("--uds")?)),
            "--tcp" => tcp = Some(value("--tcp")?),
            "--config" => config_path = Some(PathBuf::from(value("--config")?)),
            "--lookback" => {
                lookback = Some(
                    value("--lookback")?
                        .parse()
                        .map_err(|e| format!("--lookback: {e}"))?,
                )
            }
            "--deadline-ms" => {
                deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let addr = match (uds, tcp) {
        (Some(path), None) => WireAddr::Uds(path),
        (None, Some(spec)) => WireAddr::Tcp(spec),
        (Some(_), Some(_)) => return Err("pass either --uds or --tcp, not both".to_string()),
        (None, None) => return Err("one of --uds or --tcp is required".to_string()),
    };

    let mut config = match config_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?
        }
        None => FChainConfig::default(),
    };
    if let Some(w) = lookback {
        config.lookback = w;
    }
    config.validate()?;

    Ok(DaemonArgs {
        addr,
        config,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("fchaind: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let daemon = Arc::new(SlaveDaemon::new(args.config));
    let server = match WireServer::serve(&args.addr, daemon, args.deadline) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fchaind: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    // The one line a spawning master parses; flush so it arrives even
    // through a pipe.
    println!("listening {}", server.addr());
    let _ = std::io::stdout().flush();

    server.wait();
    ExitCode::SUCCESS
}
