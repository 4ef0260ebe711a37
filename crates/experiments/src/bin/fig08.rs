//! Regenerates the paper's fig08.
use experiments::{figure_main, figures, Settings};

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    figure_main("fig08", settings, figures::fig08);
}
