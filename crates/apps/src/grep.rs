//! Distributed Grep — the Identity class (§4.1).
//!
//! The Map function emits a line when it matches the pattern; the Reduce
//! function "is merely used to write the final output". No sorting is
//! required and no partial results are kept, so the original and
//! barrier-less versions are *the same program* — which is why the paper
//! omits Identity from its experiments.

use mr_core::{Application, Emit, IdentityWriter};

/// Substring-match distributed grep.
#[derive(Debug, Clone)]
pub struct Grep {
    /// Lines containing this substring are emitted.
    pub pattern: String,
}

impl Grep {
    /// A grep for `pattern`.
    pub fn new(pattern: impl Into<String>) -> Self {
        Grep {
            pattern: pattern.into(),
        }
    }
}

impl Application for Grep {
    type InKey = u64;
    type InValue = String;
    type MapKey = u64;
    type MapValue = String;
    type OutKey = u64;
    type OutValue = String;
    type State = ();
    type Shared = ();

    fn map(&self, key: &u64, line: &String, out: &mut dyn Emit<u64, String>) {
        if line.contains(&self.pattern) {
            out.emit_ref(key, line);
        }
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &u64,
        values: Vec<String>,
        _shared: &mut (),
        out: &mut dyn Emit<u64, String>,
    ) {
        for line in values {
            out.emit(*key, line);
        }
    }

    /// Identity keeps nothing: results are written immediately (Table 1).
    fn uses_keyed_state(&self) -> bool {
        false
    }

    fn init(&self, _key: &u64) {}

    fn absorb(
        &self,
        key: &u64,
        _state: &mut (),
        line: String,
        _shared: &mut (),
        out: &mut dyn Emit<u64, String>,
    ) {
        // Write-through: the output is final the moment the record arrives.
        out.emit(*key, line);
    }

    fn merge(&self, _key: &u64, _a: (), _b: ()) {}

    fn finalize(&self, _key: u64, _state: (), _shared: &mut (), _out: &mut dyn Emit<u64, String>) {}

    fn name(&self) -> &'static str {
        "grep"
    }

    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
        w.write_str(&self.pattern);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::local::LocalRunner;
    use mr_core::{Engine, JobConfig};

    fn splits() -> Vec<Vec<(u64, String)>> {
        vec![
            vec![
                (0, "error: disk on fire".to_string()),
                (1, "all is well".to_string()),
            ],
            vec![
                (2, "warning then error again".to_string()),
                (3, "nothing to see".to_string()),
            ],
        ]
    }

    #[test]
    fn both_engines_grep_identically() {
        let app = Grep::new("error");
        let barrier = LocalRunner::new(2)
            .run(&app, splits(), &JobConfig::new(2))
            .unwrap()
            .into_sorted_output();
        let pipelined = LocalRunner::new(2)
            .run(
                &app,
                splits(),
                &JobConfig::new(2).engine(Engine::barrierless()),
            )
            .unwrap()
            .into_sorted_output();
        assert_eq!(barrier, pipelined);
        assert_eq!(barrier.len(), 2);
        assert!(barrier.iter().all(|(_, l)| l.contains("error")));
    }

    #[test]
    fn no_partial_results_are_kept() {
        let app = Grep::new("error");
        let out = LocalRunner::new(1)
            .run(
                &app,
                splits(),
                &JobConfig::new(1).engine(Engine::barrierless()),
            )
            .unwrap();
        assert_eq!(out.reports[0].store.peak_entries, 0);
    }

    #[test]
    fn no_match_means_no_output() {
        let app = Grep::new("absent-needle");
        let out = LocalRunner::new(1)
            .run(&app, splits(), &JobConfig::new(1))
            .unwrap();
        assert_eq!(out.record_count(), 0);
    }
}
