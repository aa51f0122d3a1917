//! One benchmark repetition in a fresh process, so peak RSS belongs to that
//! repetition alone. `run.py` builds this binary, starts it once per repetition and
//! aggregates the JSON line it prints.
//!
//! ```text
//! perfbench run   --workload <name> --seed <n>   # untraced: setup, run and reference-kernel time
//! perfbench setup --workload <name> --seed <n>   # construction only: setup and reference-kernel time
//! perfbench trace --workload <name> --seed <n>   # traced: per-layer spans and counts
//! ```

mod reference;
mod traced;
mod workloads;

use workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench <run|setup|trace> --workload <name> --seed <n>";
    let mode = args.first().map(String::as_str);
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").as_deref().and_then(Workload::parse);
    let seed = value("--seed").and_then(|s| s.parse::<u64>().ok());
    let (Some(workload), Some(seed)) = (workload, seed) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let line = match mode {
        Some("run") => workloads::run_once(workload, seed),
        Some("setup") => workloads::setup_once(workload, seed),
        Some("trace") => traced::trace_once(workload, seed),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
