//! Untraced benchmark binary: system allocator, no counters.

fn main() {
    std::process::exit(oblivion_perfbench::main());
}
