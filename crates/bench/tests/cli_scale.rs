//! `--scale` must be a positive finite number: `nan` would size every
//! dataset at its floor and `inf` at `usize::MAX`, so a figure binary
//! refuses both, like a non-positive scale, with exit status 2 before it
//! generates anything.

use std::process::Command;

#[test]
fn non_finite_or_non_positive_scale_exits_2() {
    for scale in ["nan", "NaN", "inf", "-inf", "-1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig01_freq_dist"))
            .args(["--scale", scale])
            .output()
            .expect("fig01_freq_dist runs");
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--scale must be"),
            "--scale {scale}"
        );
        assert!(out.stdout.is_empty(), "--scale {scale} printed results");
    }
}
