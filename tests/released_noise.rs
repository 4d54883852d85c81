//! A mechanism's release sits on the integer grid, so a certified
//! program cannot read the noise's fractional bits by public
//! post-processing: scaling a Laplace release by 2^16 gives a multiple
//! of 2^16, not the raw Q30.16 draw.

use std::process::Command;

#[test]
fn a_scaled_laplace_release_is_a_multiple_of_65536() {
    let query = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scaled_laplace.arb");
    std::fs::write(
        &query,
        "aggr = sum(db); r = laplace(aggr, 1, 0.1); y = r[0] * 65536.0; output(y);\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_arboretum"))
        .args(["run", query.to_str().unwrap()])
        .args(["--categories", "2", "--seed", "1"])
        .output()
        .expect("the arboretum binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("certified: epsilon = 0.1000, delta = 0.00e0"),
        "{stdout}"
    );
    let outputs = stdout
        .lines()
        .find_map(|l| l.strip_prefix("  outputs: ["))
        .and_then(|l| l.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no outputs line in\n{stdout}"));
    let y: i64 = outputs.parse().unwrap();
    assert_eq!(y.rem_euclid(65536), 0, "released {y}");
}
