//! `fig_snapshot_accuracy` — estimate error vs. fraction of job complete.
//!
//! The paper's headline capability, plotted: with the stage barrier
//! broken, reducers hold usable per-key partial states long before the
//! job finishes, so periodic snapshots yield a smoothly converging
//! estimate of the final answer — while the classic barrier engine has
//! *nothing* to show until its reducers finish sorting and grouping
//! after the last map. Three applications (WordCount, Last.fm unique
//! listens, kNN), both engines, time-driven snapshots on the simulated
//! paper testbed; each app scores its own estimates via
//! `Application::snapshot_error` (relative count error for the counting
//! apps, wrong-neighbour fraction for kNN).
//!
//! Run: `cargo run --release -p mr-bench --bin fig_snapshot_accuracy`

use mr_bench::appcfg::{run_knn, run_lastfm, run_wordcount};
use mr_bench::chart::line_chart;
use mr_cluster::SimReport;
use mr_core::{Application, CombinerPolicy, Engine, JobOutput, SnapshotPolicy};

/// `(fraction of job complete, estimate error)` points.
type Curve = Vec<(f64, f64)>;

/// Observer's-eye error curve: at each snapshot publication, combine the
/// *latest* snapshot of every reducer into one global estimate and score
/// it against the final output. Returns `(fraction complete, error)`.
fn error_curve<A: Application>(app: &A, out: &JobOutput<A>, completion_secs: f64) -> Curve {
    let mut truth: Vec<(A::OutKey, A::OutValue)> = out
        .partitions
        .iter()
        .flat_map(|p| p.iter().cloned())
        .collect();
    truth.sort_by(|a, b| a.0.cmp(&b.0));
    let events = out.snapshots_by_time();
    let mut latest: Vec<Option<usize>> = vec![None; out.partitions.len()];
    let mut curve: Curve = Vec::new();
    let mut i = 0;
    // One point per distinct publication instant (a tick delivers one
    // snapshot per reducer; score the estimate after all of them).
    while i < events.len() {
        let at = events[i].at_secs;
        while i < events.len() && events[i].at_secs == at {
            latest[events[i].reducer] = Some(i);
            i += 1;
        }
        let mut estimate: Vec<(A::OutKey, A::OutValue)> = latest
            .iter()
            .flatten()
            .flat_map(|&j| events[j].estimate.iter().cloned())
            .collect();
        estimate.sort_by(|a, b| a.0.cmp(&b.0));
        curve.push((
            (at / completion_secs).min(1.0),
            app.snapshot_error(&estimate, &truth),
        ));
    }
    curve
}

/// One app panel: score both engines' snapshot streams and assert the
/// paper-shaped result.
fn panel<A: Application>(
    title: &str,
    app: &A,
    barrier: SimReport<A>,
    barrierless: SimReport<A>,
) -> (Curve, Curve) {
    assert!(barrier.outcome.is_completed(), "{title}: barrier died");
    assert!(
        barrierless.outcome.is_completed(),
        "{title}: barrier-less died"
    );

    // Byte-exact final output under both engines, snapshots on.
    let canon = |o: &JobOutput<A>| {
        let mut all: Vec<(A::OutKey, A::OutValue)> = o
            .partitions
            .iter()
            .flat_map(|p| p.iter().cloned())
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    };
    let bar_out = barrier.output.as_ref().expect("completed");
    let less_out = barrierless.output.as_ref().expect("completed");
    let bar_final = canon(bar_out);
    let less_final = canon(less_out);
    // Byte-exactness without an Eq bound: equal record counts plus zero
    // error in *both* directions (a one-sided check would let an
    // estimate with spurious extra records pass for error metrics that
    // only walk truth keys, like kNN's).
    assert_eq!(
        bar_final.len(),
        less_final.len(),
        "{title}: engines disagree on output size"
    );
    assert_eq!(
        app.snapshot_error(&less_final, &bar_final),
        0.0,
        "{title}: engines disagree on final output"
    );
    assert_eq!(
        app.snapshot_error(&bar_final, &less_final),
        0.0,
        "{title}: engines disagree on final output (reverse)"
    );

    let bar_curve = error_curve(app, bar_out, barrier.completion_secs());
    let less_curve = error_curve(app, less_out, barrierless.completion_secs());

    // The paper-shaped claims, asserted:
    // 1. the barrier engine publishes nothing useful before its last map
    //    finished — every non-empty snapshot is post-barrier;
    let bar_maps_done = barrier.last_map_done.as_secs_f64();
    for snap in bar_out.snapshots.iter().flatten() {
        if !snap.estimate.is_empty() {
            assert!(
                snap.at_secs >= bar_maps_done,
                "{title}: barrier engine estimated before the barrier"
            );
        }
    }
    // 2. the barrier-less engine already holds a usable estimate while
    //    maps are still running;
    let less_maps_done = barrierless.last_map_done.as_secs_f64();
    let early_usable = less_out
        .snapshots
        .iter()
        .flatten()
        .any(|s| s.at_secs < less_maps_done && !s.estimate.is_empty());
    assert!(
        early_usable,
        "{title}: no usable barrier-less estimate before maps completed"
    );
    // 3. the estimate converges: the last point is exact.
    assert_eq!(
        less_curve.last().expect("snapshots exist").1,
        0.0,
        "{title}: barrier-less estimate never converged"
    );

    (bar_curve, less_curve)
}

fn print_panel(title: &str, bar: &[(f64, f64)], less: &[(f64, f64)]) {
    let to_pct = |curve: &[(f64, f64)]| -> Vec<(f64, f64)> {
        curve.iter().map(|&(x, e)| (x, e * 100.0)).collect()
    };
    print!(
        "{}",
        line_chart(
            title,
            "fraction of job complete",
            "error %",
            &[
                ("with barrier", to_pct(bar)),
                ("without barrier", to_pct(less)),
            ],
            72,
            18,
        )
    );
    let mid = |curve: &[(f64, f64)]| {
        curve
            .iter()
            .filter(|(x, _)| *x <= 0.5)
            .map(|(_, e)| e)
            .next_back()
            .copied()
    };
    println!(
        "  error at half-way: barrier {}, barrier-less {}\n",
        mid(bar).map_or("n/a".to_string(), |e| format!("{:.0}%", e * 100.0)),
        mid(less).map_or("n/a".to_string(), |e| format!("{:.0}%", e * 100.0)),
    );
}

fn main() {
    let barrierless = Engine::barrierless();
    let tick = SnapshotPolicy::EverySecs { secs: 10.0 };
    println!("== fig_snapshot_accuracy: estimate error vs fraction of job complete ==");
    println!("   (4 GB input, 20 reducers, snapshots every 10 simulated seconds)\n");

    let wc = mr_apps::WordCount;
    let (bar, less) = panel(
        "WordCount",
        &wc,
        run_wordcount(4.0, 20, Engine::Barrier, 7, CombinerPolicy::Disabled, tick),
        run_wordcount(
            4.0,
            20,
            barrierless.clone(),
            7,
            CombinerPolicy::Disabled,
            tick,
        ),
    );
    print_panel("WordCount (relative count error x100)", &bar, &less);

    let pp = mr_apps::UniqueListens;
    let (bar, less) = panel(
        "Last.fm",
        &pp,
        run_lastfm(4.0, 20, Engine::Barrier, 7, tick),
        run_lastfm(4.0, 20, barrierless.clone(), 7, tick),
    );
    print_panel(
        "Last.fm unique listens (relative count error x100)",
        &bar,
        &less,
    );

    let (knn_app, knn_bar) = run_knn(4.0, 20, Engine::Barrier, 7, tick);
    let (_, knn_less) = run_knn(4.0, 20, barrierless, 7, tick);
    let (bar, less) = panel("kNN", &knn_app, knn_bar, knn_less);
    print_panel("kNN (wrong-neighbour fraction x100)", &bar, &less);

    println!(
        "All panels: byte-exact final output under both engines; the barrier\n\
         engine's first useful snapshot appears only after the map stage, while\n\
         the barrier-less estimate converges during it."
    );
}
