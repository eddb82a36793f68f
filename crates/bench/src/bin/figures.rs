//! Regenerates every figure of `bench::FIGURES` into `results/`, relative
//! to the working directory: `<name>.txt` holds the figure's banner and
//! text, `<name>.json` its rows. The figures are independent, so they run
//! on as many threads as the host offers; each prints its wall time.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use bench::FIGURES;

fn main() {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("results/ is creatable");
    let next = AtomicUsize::new(0);
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(fig) = FIGURES.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let start = Instant::now();
                    fig.write(dir).expect("results/ is writable");
                    println!("{:<28} {:>6.2} s", fig.name, start.elapsed().as_secs_f64());
                }
            });
        }
    });
}
