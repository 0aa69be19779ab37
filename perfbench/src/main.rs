//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

fn main() {
    let args = match gesall_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <cold-hc|rerun-ug|tenants-2> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = gesall_perfbench::run(&args);
    println!("{}", outcome.to_json());
}
