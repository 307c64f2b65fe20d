//! Golden-output regression tests: every experiment's text report is
//! pinned byte-for-byte against `tests/golden/<id>.txt`.
//!
//! The goldens hold [`Report::render_text_golden`] output: identical to
//! the stdout of `xxi run <id>` (and the historical `exp_*` binaries)
//! except that items an experiment marks *volatile* — wall-clock timings
//! in e18, real-thread STM races in e20 — are replaced by a placeholder
//! that still pins their caption/headers/shape.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! XXI_BLESS=1 cargo test --release -p xxi-bench --test golden -- --include-ignored
//! ```
//!
//! Each test also pins the structured side of the tentpole contract: the
//! JSON document round-trips losslessly, and every non-volatile table's
//! classic `Table::render` text appears verbatim inside `render_text`
//! (i.e. the Report layer changed nothing about how tables print).
//!
//! The two slowest experiments (e9's Monte Carlo, e18's real scaling
//! measurement) are `#[ignore]`d in debug builds to keep `cargo test -q`
//! inside the tier-1 budget; the CI experiments job runs the full suite in
//! release with `--include-ignored`.

use std::fs;
use std::path::PathBuf;

use xxi_bench::experiments::{self, RunCtx};
use xxi_core::Report;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

/// First line where `a` and `b` disagree, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  golden: {la}\n  actual: {lb}", n + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        a.lines().count(),
        b.lines().count()
    )
}

fn check(id: &str) {
    let exp = experiments::find(id).expect("registered experiment");
    let ctx = RunCtx::new(None, 1, None);
    let report = exp.run(&ctx);

    // The Report layer must not reformat tables: every non-volatile
    // table's classic render appears verbatim in the text output.
    let text = report.render_text();
    for (t, volatile) in report.tables() {
        if !volatile {
            assert!(
                text.contains(&t.render()),
                "{id}: a table's Table::render text is not embedded verbatim"
            );
        }
    }

    // The JSON document is lossless: parse(render) == report, and the
    // reconstruction renders the same text.
    let back = Report::parse_json(&report.render_json())
        .unwrap_or_else(|e| panic!("{id}: JSON round-trip failed to parse: {e}"));
    assert_eq!(back, report, "{id}: JSON round-trip changed the report");
    assert_eq!(
        back.render_text(),
        text,
        "{id}: JSON round-trip changed the text rendering"
    );

    // The golden comparison itself (volatile items masked).
    let golden = report.render_text_golden();
    let path = golden_path(id);
    if std::env::var_os("XXI_BLESS").is_some() {
        fs::write(&path, &golden)
            .unwrap_or_else(|e| panic!("{id}: cannot write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{id}: missing golden {} ({e}); regenerate with XXI_BLESS=1",
            path.display()
        )
    });
    assert!(
        expected == golden,
        "{id}: output drifted from {} — if intentional, rebless with XXI_BLESS=1\n{}",
        path.display(),
        first_diff(&expected, &golden)
    );
}

macro_rules! golden {
    ($name:ident, $id:literal) => {
        #[test]
        fn $name() {
            check($id);
        }
    };
    ($name:ident, $id:literal, slow) => {
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "slow in debug; CI runs it in release with --include-ignored"
        )]
        fn $name() {
            check($id);
        }
    };
}

golden!(golden_e1, "e1");
golden!(golden_e2, "e2");
golden!(golden_e3, "e3");
golden!(golden_e4, "e4");
golden!(golden_e5, "e5");
golden!(golden_e6, "e6");
golden!(golden_e7, "e7");
golden!(golden_e8, "e8");
golden!(golden_e9, "e9", slow);
golden!(golden_e10, "e10");
golden!(golden_e11, "e11");
golden!(golden_e12, "e12");
golden!(golden_e13, "e13");
golden!(golden_e14, "e14");
golden!(golden_e15, "e15");
golden!(golden_e16, "e16");
golden!(golden_e17, "e17");
golden!(golden_e18, "e18", slow);
golden!(golden_e19, "e19");
golden!(golden_e20, "e20");
golden!(golden_e21, "e21");

/// The golden directory holds exactly the registry: no stale files for
/// renamed/removed experiments, none missing (unless blessing is off and
/// a new experiment landed — then the per-id test fails with the hint).
#[test]
fn golden_dir_matches_registry() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut on_disk: Vec<String> = fs::read_dir(dir)
        .expect("tests/golden exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut ids: Vec<String> = experiments::registry()
        .iter()
        .map(|e| e.id().to_string())
        .collect();
    ids.sort();
    assert_eq!(on_disk, ids);
}
