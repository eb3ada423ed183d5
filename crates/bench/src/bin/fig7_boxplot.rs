//! Figure 7: box plot of the relative % improvements of the six case
//! studies (two seeds per sweep point for a fuller distribution).
//!
//! Shapes to check against the paper: Black-Scholes far ahead with the
//! widest spread, Sort slightly negative, everything else clustered in
//! the teens-to-twenties.

use mr_bench::appcfg::AppId;
use mr_bench::chart::{box_plot, table};
use mr_bench::stats::{improvement_pct, BoxStats};
use mr_core::Engine;

fn main() {
    println!("== Figure 7: distribution of % improvements per application ==\n");
    let mut boxes = Vec::new();
    let mut rows = Vec::new();
    let mut all_improvements = Vec::new();
    for app in AppId::ALL {
        let mut improvements = Vec::new();
        for seed in [42u64, 1337] {
            for x in app.sweep() {
                let b = app.run(x, Engine::Barrier, seed);
                let p = app.run(x, Engine::barrierless(), seed);
                improvements.push(improvement_pct(b.secs, p.secs));
            }
        }
        all_improvements.extend(improvements.iter().copied());
        let stats = BoxStats::from_values(&mut improvements);
        rows.push(vec![
            app.label().to_string(),
            format!("{:+.1}", stats.min),
            format!("{:+.1}", stats.q1),
            format!("{:+.1}", stats.median),
            format!("{:+.1}", stats.q3),
            format!("{:+.1}", stats.max),
        ]);
        boxes.push((app.label(), stats));
    }
    print!(
        "{}",
        table(&["app", "min%", "q1%", "median%", "q3%", "max%"], &rows)
    );
    println!();
    print!("{}", box_plot("% improvement by application", &boxes, 64));
    let avg = all_improvements.iter().sum::<f64>() / all_improvements.len() as f64;
    let max = all_improvements.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\noverall: average improvement {avg:+.1}% (paper: 25%), best case {max:+.1}% (paper: 87%)"
    );
}
