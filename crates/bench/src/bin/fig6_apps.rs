//! Figure 6 (a–f): job completion times of the six case studies, with and
//! without the barrier, swept over input size (or mapper count).
//!
//! Usage: `fig6_apps [sort|wordcount|knn|lastfm|ga|bs]...` (default: all).

use mr_bench::appcfg::AppId;
use mr_bench::chart::{line_chart, table};
use mr_bench::stats::improvement_pct;
use mr_core::Engine;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let apps: Vec<AppId> = if args.is_empty() {
        AppId::ALL.to_vec()
    } else {
        args.iter()
            .map(|a| match a.as_str() {
                "sort" => AppId::Sort,
                "wordcount" | "wc" => AppId::WordCount,
                "knn" => AppId::Knn,
                "lastfm" | "pp" => AppId::LastFm,
                "ga" => AppId::Ga,
                "bs" => AppId::Bs,
                other => panic!("unknown app {other}"),
            })
            .collect()
    };

    println!("== Figure 6: job completion times, with vs without barrier ==\n");
    for app in apps {
        let mut with_barrier = Vec::new();
        let mut without = Vec::new();
        let mut rows = Vec::new();
        for x in app.sweep() {
            let b = app.run(x, Engine::Barrier, 42);
            let p = app.run(x, Engine::barrierless(), 42);
            with_barrier.push((x, b.secs));
            without.push((x, p.secs));
            rows.push(vec![
                format!("{x:.0}"),
                format!("{:.1}", b.secs),
                format!("{:.1}", p.secs),
                format!("{:+.1}%", improvement_pct(b.secs, p.secs)),
                format!("{:.1}", p.mapper_slack),
            ]);
        }
        println!(
            "--- Figure 6 ({}) : {} ---",
            app.label(),
            match app {
                AppId::Sort => "Sort",
                AppId::WordCount => "WordCount",
                AppId::Knn => "k-Nearest Neighbors",
                AppId::LastFm => "Last.fm Post Processing",
                AppId::Ga => "Genetic Algorithms",
                AppId::Bs => "Black-Scholes",
            }
        );
        print!(
            "{}",
            table(
                &[
                    app.x_label(),
                    "barrier (s)",
                    "barrier-less (s)",
                    "improvement",
                    "mapper slack (s)"
                ],
                &rows
            )
        );
        println!();
        print!(
            "{}",
            line_chart(
                &format!("Figure 6 {} — time (s) vs {}", app.label(), app.x_label()),
                app.x_label(),
                "time (s)",
                &[("with barrier", with_barrier), ("without barrier", without)],
                64,
                16,
            )
        );
        println!();
    }
}
