//! Regenerates Figure 3: the fanout network architectures — (a) fully
//! non-speculative, (b) hybrid, (c) almost fully speculative for 8×8, and
//! (d) the hybrid 16×16 — as ASCII diagrams with speculative levels marked.
//!
//! Usage: `cargo run -p asynoc-bench --bin fig3_architectures`

use asynoc::{Architecture, MotSize, SpecMap};

fn render(title: &str, map: &SpecMap) {
    println!("{title}");
    let size = map.size();
    for level in 0..size.levels() {
        let speculative = map.level_kinds()[level as usize].is_speculative();
        let marker = if speculative { "S" } else { "n" };
        let width = size.nodes_at_level(level);
        let spacing = size.n() * 4 / width;
        print!(
            "  level {level} [{}]: ",
            if speculative { "SPEC " } else { "nonsp" }
        );
        for _ in 0..width {
            print!("{marker:^spacing$}");
        }
        println!();
    }
    println!(
        "  -> {} speculative / {} non-speculative nodes per tree, {} address bits\n",
        map.speculative_nodes(),
        map.non_speculative_nodes(),
        map.address_bits()
    );
}

fn main() {
    let size8 = MotSize::new(8).expect("8 is valid");
    let size16 = MotSize::new(16).expect("16 is valid");

    println!("Figure 3: fanout network architectures (S = speculative, n = non-speculative)\n");
    render(
        "(a) 8x8 non-speculative",
        &SpecMap::preset(Architecture::OptNonSpeculative, size8),
    );
    render(
        "(b) 8x8 hybrid (local speculation)",
        &SpecMap::preset(Architecture::OptHybridSpeculative, size8),
    );
    render(
        "(c) 8x8 almost fully speculative",
        &SpecMap::preset(Architecture::OptAllSpeculative, size8),
    );
    render(
        "(d) 16x16 hybrid (one of a family of possibilities)",
        &SpecMap::preset(Architecture::OptHybridSpeculative, size16),
    );
}
