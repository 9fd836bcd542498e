//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload once against a warm `rh-serve` child and prints,
//! as its last line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. Lines before it carry the environment block and sample
//! counts. Exits 1 on any oracle divergence (after printing the result
//! with `"correct": false`) or harness failure, 2 on bad arguments.

use rh_perfbench::{env_json, result_json, run, Config, Workload};

fn usage(reason: &str) -> ! {
    eprintln!("perfbench: {reason}");
    eprintln!(
        "usage: perfbench --workload oltp_t1|deleg_t2_s2|history_restart --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse() -> Config {
    let mut cfg = Config {
        workload: Workload::OltpT1,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_oracle: false,
        scratch_root: rh_perfbench::run::default_scratch_root(),
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                cfg.workload = Workload::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value}")));
                named = true;
            }
            "--seed" => {
                cfg.seed = value.parse().unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => cfg.seconds = s,
                _ => usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => usage("--trace takes 0 or 1"),
            },
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !named {
        usage("--workload is required");
    }
    cfg
}

fn main() {
    let cfg = parse();
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    println!("workload {} seed {} trace {}", cfg.workload.name(), cfg.seed, cfg.trace);
    println!("env {}", env_json(out.fsync_floor_us));
    for note in &out.notes {
        println!("note {note}");
    }
    for d in &out.divergences {
        println!("DIVERGENCE {d}");
    }
    println!("{}", result_json(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}
