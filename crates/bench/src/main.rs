//! `aequus-bench` — the one executable over the experiment registry. See
//! [`aequus_bench::cli`] for the command line.

use aequus_bench::{cli, exp};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::run(exp::EXPERIMENTS, exp::CHECK_PLAN, true, &argv));
}
