//! Traced benchmark binary: the same program with a counting allocator.

use oblivion_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    oblivion_perfbench::alloc::mark_installed();
    std::process::exit(oblivion_perfbench::main());
}
