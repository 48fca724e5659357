//! Command-line entry point for regenerating every table and figure of the paper.
//!
//! ```text
//! experiments list                      # show the catalogue
//! experiments all [--scale small]      # run everything
//! experiments fig39 [--scale medium]   # run one experiment
//! experiments table1 fig40 --csv       # run several, emit CSV instead of tables
//! experiments --verify-store <dir>     # operator check: recompute store CRCs
//! ```

use ksp_bench::experiments::{catalogue, run};
use ksp_bench::Scale;

fn print_usage() {
    eprintln!(
        "usage: experiments <list|all|ID...> [--scale tiny|small|medium] [--csv]\n       experiments --verify-store <dir>"
    );
    eprintln!("known experiment ids:");
    for (id, description) in catalogue() {
        eprintln!("  {id:<10} {description}");
    }
}

/// Operator integrity check: recompute every CRC in a store directory and
/// report torn or corrupt files. Exits non-zero when the store cannot recover.
fn verify_store(dir: &str) -> ! {
    match ksp_store::Store::verify(std::path::Path::new(dir)) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.recoverable { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("verify failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let mut scale = Scale::Small;
    let mut csv = false;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().unwrap_or_default();
                match Scale::parse(&value) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{value}' (expected tiny, small or medium)");
                        std::process::exit(2);
                    }
                }
            }
            "--csv" => csv = true,
            "--verify-store" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--verify-store needs a store directory");
                    std::process::exit(2);
                };
                verify_store(&dir);
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    if ids.iter().any(|i| i == "list") {
        for (id, description) in catalogue() {
            println!("{id:<10} {description}");
        }
        return;
    }
    if ids.iter().any(|i| i == "all") {
        ids = catalogue().into_iter().map(|(id, _)| id.to_string()).collect();
    }
    if ids.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    println!("# KSP-DG experiment harness (scale: {scale})");
    let started = std::time::Instant::now();
    for id in &ids {
        match run(id, scale) {
            Some(tables) => {
                for table in tables {
                    if csv {
                        println!("{}", table.to_csv());
                    } else {
                        table.print();
                    }
                }
            }
            None => {
                eprintln!("unknown experiment id '{id}' (use 'list' to see the catalogue)");
                std::process::exit(2);
            }
        }
    }
    println!("# completed {} experiment(s) in {:.1}s", ids.len(), started.elapsed().as_secs_f64());
}
