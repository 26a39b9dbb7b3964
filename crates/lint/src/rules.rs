//! The determinism & safety rule set and its per-file scoping.
//!
//! Every rule is a short token-sequence pattern plus a *scope predicate*
//! deciding which files it applies to. The scopes encode the workspace's
//! determinism contract:
//!
//! | id | slug                | applies to                                   |
//! |----|---------------------|----------------------------------------------|
//! | D1 | no-hash-collections | non-test code of the simulation crates        |
//! | D2 | no-wall-clock       | everything except `bench`/`exec` and tests    |
//! | D3 | no-thread-create    | everything except `exec` and tests            |
//! | D4 | no-panic-hot-path   | hot-path modules of the simulation crates     |
//! | D5 | no-unsafe           | everywhere, including tests                   |
//! | S1 | malformed-suppression | everywhere (a pragma without a reason)      |
//! | S2 | unused-suppression  | everywhere (a pragma that matched nothing)    |
//!
//! `S1`/`S2` police the suppression mechanism itself and can never be
//! suppressed.

/// The crate directories whose non-test code must stay deterministic
/// (rule D1): iteration over a hash map anywhere on the simulation path
/// would make reports depend on the hasher's random state.
pub const SIM_CRATES: &[&str] = &["nand", "core", "ssd", "workloads"];

/// Crate directories allowed to read wall clocks and the environment
/// (rule D2): the bench harness times real executions and `aero-exec`
/// sizes its worker pool from `AERO_THREADS`/`available_parallelism`.
pub const CLOCK_CRATES: &[&str] = &["bench", "exec"];

/// The only crate directory allowed to create threads (rule D3).
pub const THREAD_CRATE: &str = "exec";

/// File names of the library hot-path modules where panicking shortcuts
/// (`unwrap`/`expect`/`panic!`/`todo!`/...) are denied (rule D4).
pub const HOT_PATH_FILES: &[&str] = &["session.rs", "ftl.rs", "ssd.rs", "chip.rs", "host.rs"];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// D1 — `HashMap`/`HashSet` in simulation-crate non-test code.
    HashCollections,
    /// D2 — wall-clock or environment reads outside `bench`/`exec`.
    WallClock,
    /// D3 — thread creation outside `aero-exec`.
    ThreadCreate,
    /// D4 — `unwrap`/`expect`/`panic!`-family in hot-path modules.
    PanicHotPath,
    /// D5 — `unsafe` anywhere in first-party code.
    UnsafeCode,
    /// S1 — a suppression pragma that is malformed (unknown rule, missing
    /// or empty reason).
    MalformedSuppression,
    /// S2 — a suppression pragma that matched no finding.
    UnusedSuppression,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::HashCollections,
    Rule::WallClock,
    Rule::ThreadCreate,
    Rule::PanicHotPath,
    Rule::UnsafeCode,
    Rule::MalformedSuppression,
    Rule::UnusedSuppression,
];

impl Rule {
    /// The short id used in reports and suppression pragmas (`D1`...).
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashCollections => "D1",
            Rule::WallClock => "D2",
            Rule::ThreadCreate => "D3",
            Rule::PanicHotPath => "D4",
            Rule::UnsafeCode => "D5",
            Rule::MalformedSuppression => "S1",
            Rule::UnusedSuppression => "S2",
        }
    }

    /// The human-readable slug, also accepted in suppression pragmas.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashCollections => "no-hash-collections",
            Rule::WallClock => "no-wall-clock",
            Rule::ThreadCreate => "no-thread-create",
            Rule::PanicHotPath => "no-panic-hot-path",
            Rule::UnsafeCode => "no-unsafe",
            Rule::MalformedSuppression => "malformed-suppression",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }

    /// One-line description shown by `--list-rules` and in JSON reports.
    pub fn description(self) -> &'static str {
        match self {
            Rule::HashCollections => {
                "HashMap/HashSet in simulation-path code: iteration order depends on the \
                 hasher's random state; use BTreeMap/BTreeSet"
            }
            Rule::WallClock => {
                "wall-clock or environment read (Instant, SystemTime, env::var, \
                 available_parallelism) outside bench/exec: results would depend on the host"
            }
            Rule::ThreadCreate => {
                "thread creation outside aero-exec: all parallelism must go through the \
                 deterministic worker pool"
            }
            Rule::PanicHotPath => {
                "unwrap/expect/panic!/todo!/unimplemented!/unreachable! in a library hot-path \
                 module: return an error or suppress with the invariant that makes it safe"
            }
            Rule::UnsafeCode => "unsafe code in a first-party crate (all forbid unsafe_code)",
            Rule::MalformedSuppression => {
                "suppression pragma with an unknown rule or without a reason: every \
                 `aero-lint: allow(<rule>, <reason>)` must name a rule and justify it"
            }
            Rule::UnusedSuppression => {
                "suppression pragma that matched no finding on its target line: delete it or \
                 move it next to the code it excuses"
            }
        }
    }

    /// True if an `aero-lint: allow(...)` pragma may suppress this rule.
    /// The suppression-police rules (S1/S2) are never suppressible.
    pub fn suppressible(self) -> bool {
        !matches!(self, Rule::MalformedSuppression | Rule::UnusedSuppression)
    }

    /// Resolves a rule named in a suppression pragma, accepting the short
    /// id (case-insensitive) or the slug.
    pub fn parse(name: &str) -> Option<Rule> {
        let name = name.trim();
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(name) || r.slug() == name)
    }
}

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The crate directory name (`nand`, `ssd`, ... or `aero` for the
    /// umbrella's `src/`, `tests/`, `examples/`).
    pub crate_dir: String,
    /// The file name (`session.rs`).
    pub file_name: String,
    /// True for integration-test and bench-target files (`tests/`,
    /// `benches/` directories at any crate root).
    pub is_test_file: bool,
}

impl FileContext {
    /// Classifies a workspace-relative path (must use `/` separators).
    pub fn classify(rel_path: &str) -> FileContext {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_dir, rest) = match parts.as_slice() {
            ["crates", name, rest @ ..] => ((*name).to_string(), rest),
            rest => ("aero".to_string(), rest),
        };
        let is_test_file = matches!(rest.first(), Some(&"tests") | Some(&"benches"));
        let file_name = parts.last().copied().unwrap_or("").to_string();
        FileContext {
            rel_path: rel_path.to_string(),
            crate_dir,
            file_name,
            is_test_file,
        }
    }

    /// True if `rule` applies to this file at all (before `#[cfg(test)]`
    /// masking, which is handled token-by-token by the engine).
    pub fn rule_applies(&self, rule: Rule) -> bool {
        match rule {
            Rule::HashCollections => {
                !self.is_test_file && SIM_CRATES.contains(&self.crate_dir.as_str())
            }
            Rule::WallClock => {
                !self.is_test_file && !CLOCK_CRATES.contains(&self.crate_dir.as_str())
            }
            Rule::ThreadCreate => !self.is_test_file && self.crate_dir != THREAD_CRATE,
            Rule::PanicHotPath => {
                !self.is_test_file
                    && SIM_CRATES.contains(&self.crate_dir.as_str())
                    && HOT_PATH_FILES.contains(&self.file_name.as_str())
            }
            Rule::UnsafeCode => true,
            Rule::MalformedSuppression | Rule::UnusedSuppression => true,
        }
    }

    /// True if `#[cfg(test)]`-masked tokens are still linted for `rule`.
    /// Only D5 looks into test code: `unsafe` is contractually banned
    /// everywhere, while the other rules tolerate test-only conveniences.
    pub fn rule_sees_test_code(rule: Rule) -> bool {
        matches!(rule, Rule::UnsafeCode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_slugs_round_trip_through_parse() {
        for &rule in ALL_RULES {
            assert_eq!(Rule::parse(rule.id()), Some(rule));
            assert_eq!(Rule::parse(&rule.id().to_lowercase()), Some(rule));
            assert_eq!(Rule::parse(rule.slug()), Some(rule));
        }
        assert_eq!(Rule::parse("D9"), None);
        assert_eq!(Rule::parse(""), None);
    }

    #[test]
    fn classification_of_workspace_paths() {
        let ssd = FileContext::classify("crates/ssd/src/session.rs");
        assert_eq!(ssd.crate_dir, "ssd");
        assert_eq!(ssd.file_name, "session.rs");
        assert!(!ssd.is_test_file);
        assert!(ssd.rule_applies(Rule::HashCollections));
        assert!(ssd.rule_applies(Rule::PanicHotPath));
        assert!(ssd.rule_applies(Rule::WallClock));

        // The multi-tenant host interface is simulation hot path: same
        // determinism (D1) and no-panic (D4) rules as the session loop.
        let host = FileContext::classify("crates/ssd/src/host.rs");
        assert!(host.rule_applies(Rule::HashCollections));
        assert!(host.rule_applies(Rule::PanicHotPath));

        let bench = FileContext::classify("crates/bench/src/bin/fig14.rs");
        assert!(!bench.rule_applies(Rule::WallClock));
        assert!(bench.rule_applies(Rule::ThreadCreate));
        assert!(!bench.rule_applies(Rule::HashCollections));

        let exec = FileContext::classify("crates/exec/src/lib.rs");
        assert!(!exec.rule_applies(Rule::ThreadCreate));
        assert!(!exec.rule_applies(Rule::WallClock));

        let umbrella_test = FileContext::classify("tests/determinism.rs");
        assert_eq!(umbrella_test.crate_dir, "aero");
        assert!(umbrella_test.is_test_file);
        assert!(!umbrella_test.rule_applies(Rule::WallClock));
        assert!(umbrella_test.rule_applies(Rule::UnsafeCode));

        let crate_test = FileContext::classify("crates/lint/tests/fixtures.rs");
        assert!(crate_test.is_test_file);

        let example = FileContext::classify("examples/quickstart.rs");
        assert!(!example.is_test_file);
        assert!(example.rule_applies(Rule::WallClock));

        let core_lib = FileContext::classify("crates/core/src/iispe.rs");
        assert!(core_lib.rule_applies(Rule::HashCollections));
        assert!(!core_lib.rule_applies(Rule::PanicHotPath));
    }
}
