//! Render every experiment table, one per paper claim (E1–E14).
//!
//! Usage:
//!   cargo run --release -p pitract-bench --bin tables          # all
//!   cargo run --release -p pitract-bench --bin tables e7 e11   # selected

use pitract_bench::all_experiments;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    println!("Π-tractability experiment harness — one table per paper claim\n");
    for (id, run) in all_experiments() {
        if !filter.is_empty() && !filter.iter().any(|f| f == id) {
            continue;
        }
        let table = run();
        println!("{}", table.render());
    }
}
