//! End-to-end tests of the `quartz` binary.

use std::process::Command;

fn quartz(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_quartz"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_every_command() {
    let (ok, stdout, _) = quartz(&["help"]);
    assert!(ok);
    for cmd in [
        "design",
        "plan",
        "grow",
        "faults",
        "configure",
        "throughput",
        "rpc",
        "topo",
        "power",
    ] {
        assert!(stdout.contains(cmd), "help is missing '{cmd}'");
    }
}

#[test]
fn design_prints_the_flagship_numbers() {
    let (ok, stdout, _) = quartz(&["design", "--switches", "33"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1056"));
    assert!(stdout.contains("wavelengths"));
}

#[test]
fn plan_exact_proves_small_rings() {
    let (ok, stdout, _) = quartz(&["plan", "--switches", "7", "--exact", "true"]);
    assert!(ok);
    assert!(stdout.contains("proven optimal"), "{stdout}");
}

#[test]
fn infeasible_design_fails_cleanly() {
    let (ok, _, stderr) = quartz(&["design", "--switches", "40", "--trunk-ports", "64"]);
    assert!(!ok);
    assert!(stderr.contains("wavelengths"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected_with_suggestions() {
    let (ok, _, stderr) = quartz(&["design", "--swithces", "9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"), "{stderr}");
    assert!(stderr.contains("switches"), "{stderr}");
}

#[test]
fn topo_emits_valid_dot() {
    let (ok, stdout, _) = quartz(&["topo", "--kind", "prototype"]);
    assert!(ok);
    assert!(stdout.starts_with("graph"));
    assert!(stdout.trim_end().ends_with('}'));
    assert!(stdout.contains(" -- "));
}

#[test]
fn faults_reports_both_metrics() {
    let (ok, stdout, _) = quartz(&[
        "faults",
        "--switches",
        "17",
        "--rings",
        "2",
        "--failures",
        "3",
        "--trials",
        "500",
    ]);
    assert!(ok);
    assert!(stdout.contains("bandwidth loss"));
    assert!(stdout.contains("partition probability"));
}

/// Runs `quartz args`, expecting a clean failure: non-zero exit before
/// any output, an `error:` line naming `what`, and no panic.
fn rejects(args: &[&str], what: &str) {
    let (ok, stdout, stderr) = quartz(args);
    assert!(!ok, "{args:?} succeeded: {stdout}");
    assert!(
        stdout.is_empty(),
        "{args:?} printed before failing: {stdout}"
    );
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(what), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn power_rejects_zero_servers() {
    rejects(&["power", "--servers", "0"], "--servers");
}

#[test]
fn faults_rejects_zero_trials() {
    rejects(&["faults", "--trials", "0"], "--trials");
}

#[test]
fn throughput_rejects_vlb_fraction_above_one() {
    rejects(&["throughput", "--policy", "vlb:2"], "VLB fraction");
}

#[test]
fn throughput_rejects_negative_vlb_fraction() {
    rejects(&["throughput", "--policy", "vlb:-1"], "VLB fraction");
}

#[test]
fn throughput_rejects_nan_vlb_fraction() {
    rejects(&["throughput", "--policy", "vlb:nan"], "VLB fraction");
}

#[test]
fn throughput_rejects_zero_racks_and_hosts() {
    rejects(&["throughput", "--racks", "0"], "--racks");
    rejects(&["throughput", "--hosts", "0"], "--hosts");
}

#[test]
fn throughput_rejects_a_shuffle_over_one_rack() {
    rejects(
        &["throughput", "--racks", "1", "--pattern", "shuffle"],
        "--racks",
    );
}

#[test]
fn throughput_rejects_a_single_host_incast() {
    rejects(
        &[
            "throughput",
            "--racks",
            "1",
            "--hosts",
            "1",
            "--pattern",
            "incast",
        ],
        "2 hosts",
    );
}

#[test]
fn rpc_rejects_a_rate_whose_burst_period_rounds_to_zero() {
    rejects(&["rpc", "--cross-mbps", "1e20"], "0 ns");
}

#[test]
fn rpc_rejects_negative_and_nan_rates() {
    rejects(&["rpc", "--cross-mbps", "-5"], "--cross-mbps");
    rejects(&["rpc", "--cross-mbps", "NaN"], "--cross-mbps");
}

/// The smallest whole count of microseconds (and a count of
/// milliseconds) whose nanoseconds overflow `u64`.
const OVERFLOWING: &str = "18446744073709552";

/// Rejects `OVERFLOWING` as the value of each of `flags`, appended to
/// `command`, before any output.
fn rejects_overflowing(command: &[&str], flags: &[&str]) {
    for flag in flags {
        let mut args = command.to_vec();
        args.extend([*flag, OVERFLOWING]);
        rejects(&args, &format!("{flag}: {OVERFLOWING} overflows"));
    }
}

#[test]
fn faults_rejects_durations_that_overflow() {
    rejects_overflowing(
        &["faults", "--dynamic", "true"],
        &["--cut-at-us", "--reconverge-us", "--duration-ms"],
    );
}

#[test]
fn faults_rejects_a_duration_whose_drain_overflows() {
    // 18446744073709 ms fits u64 nanoseconds; the 2 ms drain after it
    // does not.
    rejects(
        &[
            "faults",
            "--dynamic",
            "true",
            "--switches",
            "5",
            "--duration-ms",
            "18446744073709",
        ],
        "--duration-ms: 18446744073709 plus the 2 ms drain overflows",
    );
}

#[test]
fn rwa_rejects_durations_whose_sums_overflow() {
    // 18446744073709551 us fits u64 nanoseconds; the 2 ms drain after
    // it, or the churn's last transition before it, does not.
    for (flag, what) in [
        ("--duration-us", "plus the 2 ms drain overflows"),
        (
            "--repair-us",
            "plus the churn window's end (750 us) overflows",
        ),
        (
            "--control-us",
            "plus the churn's last transition (1150 us) overflows",
        ),
    ] {
        rejects(
            &["rwa", "--dynamic", "true", flag, "18446744073709551"],
            &format!("{flag}: 18446744073709551 {what}"),
        );
    }
}

#[test]
fn faults_reconvergence_past_the_end_of_the_clock_never_happens() {
    // The delay fits u64 nanoseconds, but not on top of the 1 ms cut.
    let (ok, stdout, stderr) = quartz(&[
        "faults",
        "--dynamic",
        "true",
        "--switches",
        "5",
        "--reconverge-us",
        "18446744073709551",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("reconvergence         never"), "{stdout}");
}

#[test]
fn rwa_rejects_durations_that_overflow() {
    rejects_overflowing(
        &["rwa", "--dynamic", "true"],
        &[
            "--duration-us",
            "--repair-us",
            "--control-us",
            "--reconverge-us",
        ],
    );
}

#[test]
fn shard_rejects_durations_that_overflow() {
    rejects_overflowing(
        &["shard", "--quick", "true"],
        &["--duration-ms", "--cut-at-us"],
    );
}

#[test]
fn workload_rejects_durations_that_overflow() {
    rejects_overflowing(
        &["workload", "--quick", "true"],
        &["--window-us", "--horizon-ms"],
    );
}

/// A reader that closes the pipe after the first line (`quartz … |
/// head -1`) ends the run quietly with status 0, instead of a
/// "failed printing to stdout" panic. The listing is far larger than a
/// pipe's buffer, so the binary is still writing when the pipe closes.
#[test]
fn closed_stdout_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_quartz"))
        .args(["plan", "--switches", "100", "--show-pairs", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout piped");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("greedy plan:"), "{first}");
    // The reader drops here: the pipe is closed mid-listing.
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
