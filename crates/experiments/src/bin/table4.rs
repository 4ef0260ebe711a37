//! Regenerates the paper's Table IV (analytic; no simulation needed).
use experiments::{figures, Settings};

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    figures::table4().emit(&settings.results_dir);
}
