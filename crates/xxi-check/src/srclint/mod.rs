//! The workspace source linter — `xxi-check src`.
//!
//! The third pillar of `xxi-check`: where the concurrency checker explores
//! *interleavings* and the model linter checks *model invariants*, the
//! source linter enforces the repo's *code-level* invariants statically —
//! the conventions that keep experiments deterministic and the runtime
//! model-checkable, which until now were enforced only by review:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no wall-clock time, sleeps, or unseeded randomness outside sanctioned timing code |
//! | `hashmap-order` | no HashMap/HashSet iteration feeding deterministic output |
//! | `atomics-discipline` | SeqCst (and non-counter Relaxed) orderings carry `// ORDERING:` justifications |
//! | `unsafe-audit` | every `unsafe` carries a `// SAFETY:` comment |
//! | `sync-facade` | xxi-stack synchronization goes through its `sync` facade |
//! | `panic-path` | `.unwrap()/.expect()` in library code is a warning |
//!
//! Built on a hand-rolled lexer ([`lexer`]) whose token spans provably
//! tile each file, and a line/region scanner ([`scan`]). Zero
//! dependencies, fully offline.
//!
//! Findings are suppressible in source (`// xxi-allow: <rule> -- reason`,
//! or `// xxi-allow-file: <rule>` for a whole file); suppressions that no
//! longer suppress anything are themselves diagnostics. A committed
//! baseline file can grandfather known findings — this repo's baseline is
//! empty and CI asserts it stays that way. Output is deterministic
//! (sorted by path, line, rule) in text or `schema_version`'d JSON.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

use xxi_core::report::json::escape;

use crate::lint::Severity;
use scan::ScannedFile;

/// JSON schema version for `SrcReport::to_json`.
pub const SCHEMA_VERSION: u32 = 1;

/// One source-lint finding, located by file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcDiagnostic {
    /// Rule id, e.g. `"atomics-discipline"`.
    pub rule: String,
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for SrcDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same shape as the model linter's diagnostics, with a file:line
        // source so editors can jump to it.
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity, self.rule, self.path, self.line, self.message
        )
    }
}

/// Options for a source-lint run.
pub struct SrcOptions {
    /// Workspace root to walk.
    pub root: PathBuf,
    /// Restrict to one rule id (plus the meta checks), if set.
    pub rule: Option<String>,
    /// Treat warnings as errors.
    pub deny_warnings: bool,
    /// Baseline file of grandfathered findings (one rendered diagnostic
    /// per line); `None` disables baseline handling entirely.
    pub baseline: Option<PathBuf>,
}

/// The outcome of a run: filtered findings plus counts.
pub struct SrcReport {
    pub diags: Vec<SrcDiagnostic>,
    pub files_scanned: usize,
    /// Findings absorbed by the baseline.
    pub baselined: usize,
    pub deny_warnings: bool,
}

impl SrcReport {
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Clean means exit 0: no errors, and no warnings under
    /// `--deny warnings`.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && (!self.deny_warnings || self.warnings() == 0)
    }

    /// Machine-readable JSON, aligned with the model linter's shape
    /// (hand-rolled; the workspace serde is a stub). Byte-deterministic:
    /// diagnostics are sorted and carry no timestamps or absolute paths.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"errors\": {},\n", self.errors()));
        s.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        s.push_str(&format!("  \"baselined\": {},\n", self.baselined));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                escape(&d.rule),
                d.severity.name(),
                escape(&d.path),
                d.line,
                escape(&d.message)
            ));
        }
        if !self.diags.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }
}

impl fmt::Display for SrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} file(s) scanned: {} error(s), {} warning(s)",
            self.files_scanned,
            self.errors(),
            self.warnings()
        )?;
        if self.baselined > 0 {
            write!(f, ", {} baselined", self.baselined)?;
        }
        Ok(())
    }
}

/// Lint a single source text. The unit the fixture tests drive; the
/// workspace walk is just this over every file.
pub fn lint_source(rel_path: &str, src: &str, rule: Option<&str>) -> Vec<SrcDiagnostic> {
    let f = ScannedFile::new(rel_path, src);
    let mut raw = Vec::new();
    rules::run_all(&f, &mut raw);

    let mut diags = Vec::new();
    for fi in raw {
        if let Some(only) = rule {
            if fi.rule != only {
                continue;
            }
        }
        if suppressed(&f, fi.rule, fi.line) {
            continue;
        }
        diags.push(SrcDiagnostic {
            rule: fi.rule.to_string(),
            severity: fi.severity,
            path: rel_path.to_string(),
            line: fi.line,
            message: fi.message,
        });
    }

    // Lexical errors are findings too: a file the lexer cannot tile is a
    // file the rules cannot vouch for.
    for e in &f.lex_errors {
        diags.push(SrcDiagnostic {
            rule: "lex".to_string(),
            severity: Severity::Error,
            path: rel_path.to_string(),
            line: 1,
            message: e.clone(),
        });
    }

    // Unused suppressions: an `xxi-allow` that absorbed nothing is stale
    // and must go, or it will silently mask a future regression.
    if rule.is_none() {
        for a in &f.allows {
            if !a.used.get() {
                diags.push(SrcDiagnostic {
                    rule: "unused-suppression".to_string(),
                    severity: Severity::Warning,
                    path: rel_path.to_string(),
                    line: a.comment_line,
                    message: format!(
                        "xxi-allow for [{}] suppresses nothing; remove it",
                        a.rules.join(", ")
                    ),
                });
            }
        }
    }

    diags.sort_by(|a, b| (a.line, &a.rule, &a.message).cmp(&(b.line, &b.rule, &b.message)));
    diags
}

/// Does an allow cover (rule, line)? Marks the allow used.
fn suppressed(f: &ScannedFile<'_>, rule: &str, line: usize) -> bool {
    let mut hit = false;
    for a in &f.allows {
        if !a.rules.iter().any(|r| r == rule) {
            continue;
        }
        if a.file_level || a.target_line == line {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Walk the workspace and run every rule over every `.rs` file.
pub fn run(opts: &SrcOptions) -> Result<SrcReport, String> {
    let mut files = Vec::new();
    collect_rs_files(&opts.root, &opts.root, &mut files)
        .map_err(|e| format!("walking {}: {e}", opts.root.display()))?;
    files.sort();

    let mut diags = Vec::new();
    for rel in &files {
        let abs = opts.root.join(rel);
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        diags.extend(lint_source(&rel_str, &src, opts.rule.as_deref()));
    }

    // Baseline: drop grandfathered findings, and flag baseline entries
    // that no longer match anything (stale grandfathering masks nothing
    // but rots).
    let mut baselined = 0usize;
    if let Some(path) = &opts.baseline {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
            let entries: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            let mut matched = vec![false; entries.len()];
            diags.retain(|d| {
                let rendered = d.to_string();
                match entries.iter().position(|e| *e == rendered) {
                    Some(i) => {
                        matched[i] = true;
                        baselined += 1;
                        false
                    }
                    None => true,
                }
            });
            for (i, e) in entries.iter().enumerate() {
                if !matched[i] {
                    diags.push(SrcDiagnostic {
                        rule: "stale-baseline".to_string(),
                        severity: Severity::Error,
                        path: path.to_string_lossy().replace('\\', "/"),
                        line: i + 1,
                        message: format!("baseline entry no longer matches any finding: {e}"),
                    });
                }
            }
        }
    }

    diags.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });

    Ok(SrcReport {
        diags,
        files_scanned: files.len(),
        baselined,
        deny_warnings: opts.deny_warnings,
    })
}

/// Recursively collect `.rs` files under `dir` as paths relative to
/// `root`. Skips build output, VCS metadata, and lint-fixture trees
/// (fixtures contain *planted* violations).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures" | ".github") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_findings() {
        let src = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";
        assert!(lint_source("lib.rs", src, None).is_empty());
    }

    #[test]
    fn unsafe_without_safety_fires_and_allow_suppresses() {
        let bad = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let diags = lint_source("lib.rs", bad, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unsafe-audit");

        let ok = "// SAFETY: caller guarantees p is valid\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(lint_source("lib.rs", ok, None).is_empty());

        let allowed =
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } } // xxi-allow: unsafe-audit -- test\n";
        assert!(lint_source("lib.rs", allowed, None).is_empty());
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// xxi-allow: determinism -- stale\npub fn f() {}\n";
        let diags = lint_source("lib.rs", src, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-suppression");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn json_is_deterministic() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let mk = || SrcReport {
            diags: lint_source("lib.rs", src, None),
            files_scanned: 1,
            baselined: 0,
            deny_warnings: true,
        };
        let (a, b) = (mk().to_json(), mk().to_json());
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
    }
}
