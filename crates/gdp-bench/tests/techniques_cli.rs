//! The table-backed `--techniques` surface of all seven campaign
//! binaries, plus the table round-trip contract the JSON labels rest on.

use std::process::Command;

use gdp_bench::technique_json;
use gdp_experiments::Technique;

/// One shared helper asserting a binary's unknown-technique behavior:
/// exit code 2 and the full valid-id list on stderr. Every campaign
/// binary goes through it, so none can drift to a different exit code
/// or a truncated listing.
fn assert_rejects_unknown_technique(bin_name: &str, bin_path: &str) {
    let out = Command::new(bin_path)
        .args(["--tiny", "--techniques", "definitely-not-a-technique"])
        .output()
        .unwrap_or_else(|e| panic!("{bin_name}: cannot run {bin_path}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{bin_name}: unknown technique id must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown technique `definitely-not-a-technique`"),
        "{bin_name}: stderr must name the bad id: {stderr}"
    );
    let ids: Vec<&str> = Technique::all_registered().iter().map(Technique::id).collect();
    let ids = ids.join(", ");
    assert!(
        stderr.contains(&format!("valid: {ids}")),
        "{bin_name}: stderr must list every valid id ({ids}): {stderr}"
    );
}

#[test]
fn all_seven_binaries_reject_unknown_technique_ids() {
    for (name, path) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("headline", env!("CARGO_BIN_EXE_headline")),
    ] {
        assert_rejects_unknown_technique(name, path);
    }
}

#[test]
fn techniques_flag_drives_the_list_plan() {
    // A transparent-only selection drops the invasive shared jobs from
    // the plan; the labels come from the same single source execution
    // progress uses.
    let full =
        Command::new(env!("CARGO_BIN_EXE_fig3")).args(["--tiny", "--list"]).output().unwrap();
    let subset = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(["--tiny", "--list", "--techniques", "gdp,itca"])
        .output()
        .unwrap();
    assert!(full.status.success() && subset.status.success());
    let full = String::from_utf8_lossy(&full.stdout);
    let subset = String::from_utf8_lossy(&subset.stdout);
    assert!(full.lines().any(|l| l.ends_with("(ASM)")), "full plan has invasive jobs");
    assert!(!subset.lines().any(|l| l.ends_with("(ASM)")), "subset plan must not");
    assert!(subset.lines().count() < full.lines().count());
}

#[test]
fn every_registered_id_round_trips_to_its_json_label() {
    // id → table → factory → estimator name → JSON label: one chain, no
    // `match` anywhere. The estimator's self-reported name must equal
    // the descriptor label, which must be exactly the key technique_json
    // emits.
    let cfg = gdp_experiments::ExperimentConfig::tiny(2).technique_config();
    for t in Technique::all_registered() {
        assert_eq!(Technique::from_id(t.id()), Some(t), "{}: id resolves", t.id());
        let est = t.build(&cfg);
        assert_eq!(est.name(), t.name(), "{}: estimator name vs label", t.id());
        let json = technique_json(&[t], &[1.0]);
        let text = json.to_string();
        assert!(
            text.contains(&format!("\"{}\"", t.name())),
            "{}: JSON label must be the table label: {text}",
            t.id()
        );
    }
    assert_eq!(Technique::all_registered().len(), 6, "five default techniques plus dief");
}
