//! The `asynoc` command-line binary.

use std::process::ExitCode;

// Count heap traffic so `--profile` reports a live `allocations` figure
// (library users of `asynoc-cli` who keep the system allocator simply
// read 0 there).
#[global_allocator]
static GLOBAL: asynoc::probe::CountingAlloc = asynoc::probe::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match asynoc_cli::parse(&args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("error: {err}");
            if let Some(usage) = args.first().and_then(|word| asynoc_cli::args::usage(word)) {
                eprint!("\n{usage}");
            }
            eprintln!("\nsee `asynoc help`");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    match asynoc_cli::execute(&command, &mut lock) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
