//! The `asynoc` command-line binary.

use std::io::{self, Write};
use std::process::ExitCode;

use asynoc_cli::commands::CliError;

// Count heap traffic so `--profile` reports a live `allocations` figure
// (library users of `asynoc-cli` who keep the system allocator simply
// read 0 there).
#[global_allocator]
static GLOBAL: asynoc::probe::CountingAlloc = asynoc::probe::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A reader that has gone away (`asynoc … 2>&1 | head -3`) must not
    // turn a diagnostic into a panic, so stderr is written, not `eprintln!`ed.
    let mut stderr = io::stderr();
    let command = match asynoc_cli::parse(&args) {
        Ok(command) => command,
        Err(err) => {
            let _ = writeln!(stderr, "error: {err}");
            if let Some(usage) = args.first().and_then(|word| asynoc_cli::args::usage(word)) {
                let _ = write!(stderr, "\n{usage}");
            }
            let _ = writeln!(stderr, "\nsee `asynoc help`");
            return ExitCode::from(2);
        }
    };
    let mut stdout = io::stdout().lock();
    match asynoc_cli::execute(&command, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        // `asynoc info | head -1`: the reader took what it wanted.
        Err(CliError::Io(err)) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            let _ = writeln!(stderr, "error: {err}");
            ExitCode::FAILURE
        }
    }
}
