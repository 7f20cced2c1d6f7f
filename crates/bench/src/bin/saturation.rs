//! Saturation sweep binary: open-loop latency under offered load, threaded
//! runtime and simulator (see `scenarios::saturation`).

fn main() {
    std::process::exit(zeus_bench::cli::run_single("saturation"));
}
