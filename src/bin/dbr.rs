//! `dbr` — de Bruijn network routing toolbox.
//!
//! See `dbr help` for usage; the command logic lives in
//! [`debruijn_suite::cli`] so it can be unit-tested.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match debruijn_suite::cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", debruijn_suite::cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match debruijn_suite::cli::run(&cmd) {
        Ok(output) => match debruijn_suite::cli::write_stdout(&output) {
            // A reader that stops early (`dbr … | head`) is not an error.
            Ok(()) => ExitCode::SUCCESS,
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
