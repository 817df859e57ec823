//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <grid-cold|serve-mix>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then
//! informational notes, then — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! correctness check failed (after printing the result) or when the run
//! could not complete (without printing one), and 2 on a bad command line.

use std::path::Path;

use perfbench::{run, tracer, RunArgs};

fn main() {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {}: {error}", args.workload.name());
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!(
                "spans-{}-seed{}.tsv",
                args.workload.name(),
                args.seed
            ));
        match tracer::write_tsv(&outcome.spans, &path) {
            Ok(()) => outcome.notes.push(format!(
                "{} spans written to {}",
                outcome.spans.len(),
                path.display()
            )),
            Err(error) => eprintln!("perfbench: cannot write {}: {error}", path.display()),
        }
    }
    for line in outcome.render_text(args.trace) {
        println!("{line}");
    }
    match outcome.render_json(args.trace) {
        Ok(json) => println!("{json}"),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
    if !outcome.correct() {
        std::process::exit(1);
    }
}
